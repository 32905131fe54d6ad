"""Distances are computed only where two tracks coexist, and every consumer
of the distance tensor reads it there only.  Each result must equal the
dense whole-tensor formulas of ``oracles`` to the last bit, and sets that
share no scan must score exactly as the defining sums say."""

import random

import numpy as np
import pytest

from conftest import distance_params, library_reports, random_float_set
from oracles import (
    dense_cost_matrix,
    dense_labeled_distances,
    dense_reorder_costs,
    dense_scan_distances,
)
from trackmetric.assign import INFEASIBLE
from trackmetric.core import MetricParams, Track, TrackSet, scan_distances
from trackmetric.errors import DimensionMismatchError
from trackmetric.ospamt import Mode, cost_matrix
from trackmetric.ospat import (
    LabeledTrackSet,
    _labeled_distances,
    _reorder_costs,
    ospat_reorder,
)


def apart_pair(dim):
    """Two sets that share no scan: ``a`` lives at scans 1-2, ``b`` at 3-4."""
    x = (1.0,) * dim
    a = TrackSet(4, dim, (Track({1: x, 2: x}), Track({2: (5.0,) * dim})))
    b = TrackSet(4, dim, (Track({3: x, 4: (2.0,) * dim}),))
    return a, b


def pairs(rng, dim):
    """Random pairs, then a pair that never coexists and pairs with an
    empty set."""
    a, b = apart_pair(dim)
    empty = TrackSet(4, dim, ())
    drawn = [(random_float_set(rng, dim, max_tracks=4), random_float_set(rng, dim, max_tracks=4))
             for _ in range(6)]
    return drawn + [(a, b), (b, a), (a, empty), (empty, b), (empty, empty)]


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_coexisting_entries_match_the_dense_formulas(dim):
    rng = random.Random(dim)
    for p in (1.0, 2.5):
        for params in distance_params(dim, p=p, c=6.0, delta=2.0, alpha=3.0):
            for a, b in pairs(rng, dim):
                dist = scan_distances(a, b, params)
                np.testing.assert_array_equal(dist, dense_scan_distances(a, b, params))
                np.testing.assert_array_equal(
                    cost_matrix(b, a, params, dist), dense_cost_matrix(b, a, params, dist))
                np.testing.assert_array_equal(
                    cost_matrix(a, b, params),
                    dense_cost_matrix(a, b, params, dist.transpose(1, 0, 2)))

                euclid = scan_distances(a, b, params, order=2.0)
                np.testing.assert_array_equal(euclid, dense_scan_distances(a, b, params, 2.0))
                ea, eb = a.exists[:, None], b.exists[None]
                np.testing.assert_array_equal(_reorder_costs(euclid, ea, eb, params.c),
                                              dense_reorder_costs(euclid, ea, eb, params.c))
                pairing = ospat_reorder(a, b, params, euclid)
                if pairing.pairs:  # the pairing's per-scan costs: its pairs' dense costs
                    ia, ib = np.array(pairing.pairs).T - 1
                    dense = dense_reorder_costs(euclid, ea, eb, params.c)[ia, ib]
                    assert pairing.costs_t == tuple(dense.sum(axis=0).tolist())

                la = tuple(rng.randint(1, 3) for _ in a.tracks)
                lb = tuple(rng.randint(1, 3) for _ in b.tracks)
                labeled = LabeledTrackSet(a, la), LabeledTrackSet(b, lb)
                np.testing.assert_array_equal(
                    _labeled_distances(dist, ea & eb, *labeled, params),
                    dense_labeled_distances(dist, la, lb, params))
                t = rng.randrange(a.scans)  # the one-scan form of ospat_at_time
                np.testing.assert_array_equal(
                    _labeled_distances(dist[:, :, t : t + 1], (ea & eb)[:, :, t : t + 1],
                                       *labeled, params),
                    dense_labeled_distances(dist[:, :, t : t + 1], la, lb, params))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sets_that_never_coexist(p):
    a, b = apart_pair(2)
    params = MetricParams(p=p, c=3.0, delta=1.0, alpha=1.0)
    dist = scan_distances(a, b, params)
    assert dist.shape == (2, 1, 4)
    assert np.isnan(dist).all()
    assert (cost_matrix(b, a, params) == INFEASIBLE).all()
    assert (cost_matrix(a, b, params) == INFEASIBLE).all()
    for mode in (Mode.EXACT, Mode.GREEDY):
        reports = library_reports(a, b, params, mode)
        assert {name: r.total for name, r in reports.items()} == dict.fromkeys(reports, 3.0)
    # the gather is empty, and the scale is still checked against the sets
    with pytest.raises(DimensionMismatchError):
        scan_distances(a, b, MetricParams(scale=(1.0, 2.0, 3.0)))


def test_integer_parameters_score_as_floats():
    # arrays filled from an integer cutoff must not truncate the distances
    # written into them
    as_int = MetricParams(p=2, c=6, delta=2, alpha=3)
    as_float = MetricParams(p=2.0, c=6.0, delta=2.0, alpha=3.0)
    assert all(type(getattr(as_int, name)) is float for name in ("p", "c", "delta", "alpha"))
    assert type(MetricParams(p_prime=2).p_prime) is float
    rng = random.Random(11)
    for _ in range(20):
        a = random_float_set(rng, 2, max_tracks=4)
        b = random_float_set(rng, 2, max_tracks=4)
        pairing = ospat_reorder(a, b, as_int)
        assert pairing == ospat_reorder(a, b, as_float)
        # the per-scan costs play no role in ==, so they are compared here
        assert pairing.costs_t == ospat_reorder(a, b, as_float).costs_t
        for mode in (Mode.EXACT, Mode.GREEDY):
            assert library_reports(a, b, as_int, mode) == library_reports(a, b, as_float, mode)
