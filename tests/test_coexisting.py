"""Distances are computed only where two tracks coexist, gathered scan by
scan into one layer, and every consumer reads that layer.  Each result must
equal the dense whole-tensor formulas of ``oracles`` to the last bit, and
sets that share no scan must score exactly as the defining sums say."""

import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import distance_params, library_reports, random_float_set
from oracles import (
    dense_cost_matrix,
    dense_labeled_distances,
    dense_layer,
    dense_reorder_costs,
    dense_scan_distances,
)
from trackmetric.assign import INFEASIBLE
from trackmetric.core import MetricParams, Track, TrackSet, scan_distances
from trackmetric.errors import BadParametersError, DimensionMismatchError
from trackmetric.ospa import ospa_per_scan
from trackmetric.ospamt import Mode, cost_matrix, ospamt_metric
from trackmetric.ospat import (
    _labeled_distances,
    _reorder_costs,
    ospat_labeled,
    ospat_per_scan,
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


def full_set(rng, dim, scans=4, max_tracks=4):
    """Set whose every track exists at every scan."""
    return TrackSet(scans, dim, tuple(
        Track({t: tuple(rng.uniform(-9, 9) for _ in range(dim)) for t in range(1, scans + 1)})
        for _ in range(rng.randint(1, max_tracks))
    ))


@pytest.mark.parametrize("dim", [1, 2, 8, 9])
def test_gathered_layer_matches_the_dense_tensor(dim):
    # the dense view is the broadcast tensor to the last bit, each scan's
    # block is its matrix of the tracks existing then, each pair finds its
    # own entries, and the transpose swaps the roles of the two sets
    rng = random.Random(100 + dim)
    empty = TrackSet(4, dim, ())
    drawn = pairs(rng, dim) + [
        (full_set(rng, dim), full_set(rng, dim)),
        (full_set(rng, dim), random_float_set(rng, dim, max_tracks=4)),
        (full_set(rng, dim), empty),
    ]
    for params in distance_params(dim, p=2.0):
        for a, b in drawn:
            dist = scan_distances(a, b, params)
            dense = dense_scan_distances(a, b, params)
            assert dist.shape == dense.shape
            np.testing.assert_array_equal(dense_layer(dist), dense)
            np.testing.assert_array_equal(dense_layer(dist.transpose()), dense.transpose(1, 0, 2))
            np.testing.assert_array_equal(dist.values, dense[dist.rows, dist.cols, dist.scan])
            for t, (ia, ib, block) in enumerate(dist.blocks(dist.values)):
                assert ia == np.flatnonzero(a.exists[:, t]).tolist()
                assert ib == np.flatnonzero(b.exists[:, t]).tolist()
                np.testing.assert_array_equal(block, dense[ia][:, ib, t])
            for t, (ib, ia, block) in enumerate(dist.transpose().blocks(dist.values)):
                np.testing.assert_array_equal(block, dense[ia][:, ib, t].T)
            # every pair's entries, looked up from either side
            ii, jj = (x.ravel() for x in np.indices((len(a), len(b))))
            both = a.exists[ii] & b.exists[jj]
            for at in (dist.entries(ii, jj), dist.transpose().entries(jj, ii)):
                np.testing.assert_array_equal(dist.values[at[both]], dense[ii, jj][both])
            for q in (1.0, 1.5, 2.0, 3.0):  # every order from the one gather
                np.testing.assert_array_equal(
                    dist.at_order(q), dense_scan_distances(a, b, params, q)[dist.rows, dist.cols,
                                                                            dist.scan])


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_coexisting_entries_match_the_dense_formulas(dim):
    rng = random.Random(dim)
    for p in (1.0, 2.5):
        for params in distance_params(dim, p=p, c=6.0, delta=2.0, alpha=3.0):
            for a, b in pairs(rng, dim):
                dist = scan_distances(a, b, params)
                dense = dense_scan_distances(a, b, params)
                np.testing.assert_array_equal(
                    cost_matrix(b, a, params, dist), dense_cost_matrix(b, a, params, dense))
                swapped = dense_cost_matrix(a, b, params, dense.transpose(1, 0, 2))
                np.testing.assert_array_equal(cost_matrix(a, b, params), swapped)
                np.testing.assert_array_equal(cost_matrix(a, b, params, dist.transpose()), swapped)

                euclid = dense_scan_distances(a, b, params, 2.0)
                ea, eb = a.exists[:, None], b.exists[None]
                np.testing.assert_array_equal(_reorder_costs(dist, params.c),
                                              dense_reorder_costs(euclid, ea, eb, params.c))
                pairing = ospat_reorder(a, b, params, dist)
                assert pairing.costs_t == ospat_reorder(a, b, params).costs_t
                if pairing.pairs:  # the pairing's per-scan costs: its pairs' dense costs
                    ia, ib = np.array(pairing.pairs).T - 1
                    costs = dense_reorder_costs(euclid, ea, eb, params.c)[ia, ib]
                    assert pairing.costs_t == tuple(costs.sum(axis=0).tolist())

                la = tuple(rng.randint(1, 3) for _ in a.tracks)
                lb = tuple(rng.randint(1, 3) for _ in b.tracks)
                penalized = dense_labeled_distances(dense, la, lb, params)
                np.testing.assert_array_equal(_labeled_distances(dist, la, lb, params),
                                              penalized[dist.rows, dist.cols, dist.scan])


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sets_that_never_coexist(p):
    a, b = apart_pair(2)
    params = MetricParams(p=p, c=3.0, delta=1.0, alpha=1.0)
    dist = scan_distances(a, b, params)
    assert dist.shape == (2, 1, 4) and dist.values.shape == (0,)
    assert np.isnan(dense_layer(dist)).all()
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


#: The six entry points that take a layer, each as ``score(a, b, params,
#: dist)`` with ``dist`` the layer of ``a`` against ``b``.
LAYER_READERS = {
    "ospa_per_scan": ospa_per_scan,
    "ospat_reorder": ospat_reorder,
    "ospat_labeled": lambda a, b, params, dist: ospat_labeled(
        a, b, tuple(range(1, len(a) + 1)), tuple(range(1, len(b) + 1)), params, dist),
    "ospat_per_scan": ospat_per_scan,
    "cost_matrix": lambda a, b, params, dist: cost_matrix(b, a, params, dist).tolist(),
    "ospamt_metric": lambda a, b, params, dist: ospamt_metric(a, b, params, dist=dist),
}


@pytest.mark.parametrize("name", LAYER_READERS)
def test_a_layer_scores_only_the_sets_and_scale_it_was_built_from(name):
    score = LAYER_READERS[name]
    a = TrackSet(3, 1, (Track({1: 0.0, 2: 0.0}, "a"),))
    b = TrackSet(3, 1, (Track({1: 1.0, 2: 1.0}, "b"),))
    c = TrackSet(3, 1, (Track({1: 0.0}, "x"), Track({2: 5.0, 3: 5.0}, "z")))
    params = MetricParams()
    layer = scan_distances(a, b, params)
    # another set, the sets swapped, an equal copy, another scale
    for x, y, given in ((c, b, params), (b, a, params), (a, TrackSet(3, 1, b.tracks), params),
                        (a, b, MetricParams(scale=(2.0,)))):
        with pytest.raises(BadParametersError, match="distance layer"):
            score(x, y, given, layer)
    fresh = score(b, a, params, None)
    assert score(b, a, params, layer.transpose()) == fresh
    assert score(a, b, params, layer) == score(a, b, params, None)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.GREEDY])
def test_a_layer_serves_every_parameter_but_the_scale(mode):
    # the distances depend on the scale alone, and at_order serves any p'
    rng = random.Random(61)
    built = MetricParams(p=1.0, c=6.0, delta=2.0, alpha=3.0, scale=(1.0, 2.0))
    variants = [replace(built, p=2.0), replace(built, c=9.0), replace(built, delta=1.0),
                replace(built, alpha=0.5), replace(built, p_prime=1.5),
                replace(built, p=2.5, p_prime=2.0)]
    for a, b in pairs(rng, 2):
        dist = scan_distances(a, b, built)
        for params in variants:
            for score in LAYER_READERS.values():
                assert score(a, b, params, dist) == score(a, b, params, None)
            assert (ospamt_metric(a, b, params, mode, dist) ==
                    ospamt_metric(a, b, params, mode))
