"""Distances are computed only where two tracks coexist, gathered scan by
scan into one layer, and every consumer reads that layer.  Each result must
equal the dense whole-tensor formulas of ``oracles`` to the last bit, with
per-pair sums over scans added in scan order, and sets that share no scan
must score exactly as the defining sums say."""

import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    PARAM_SETS,
    distance_params,
    library_reports,
    random_float_set,
    solve_one_to_one,
    tracks_of,
)
from oracles import (
    dense_cost_matrix,
    dense_labeled_distances,
    dense_layer,
    dense_pair_sums,
    dense_pairing_costs,
    dense_reorder_costs,
    dense_scan_distances,
    entry_scans,
    oracle_counts,
)
from trackmetric import ospat
from trackmetric.assign import INFEASIBLE, greedy_many_to_one, optimal_matching
from trackmetric.core import (
    MetricParams,
    ScanDistances,
    Track,
    TrackSet,
    base_distance,
    scan_distances,
)
from trackmetric.errors import BadParametersError, DimensionMismatchError
from trackmetric.ospa import ospa_per_scan
from trackmetric.ospamt import Mode, _DirectionalEngine, cost_matrix, ospamt_metric, quasi_ospamt
from trackmetric.ospat import (
    _labeled_distances,
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


def pairing_costs(a, b, params, dist=None):
    """The pairing of ``ospat_reorder`` and the summed pair costs, rows of
    ``a`` and columns of ``b``, that it handed its solver (None when it
    solved nothing)."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ospat, "optimal_matching", lambda d: seen.append(d) or optimal_matching(d))
        pairing = ospat_reorder(a, b, params, dist)
    if not seen:
        return pairing, None
    return pairing, seen[0].T if len(b) <= len(a) else seen[0]


def full_set(rng, dim, scans=4, max_tracks=4):
    """Set whose every track exists at every scan."""
    return TrackSet(scans, dim, tuple(
        Track({t: tuple(rng.uniform(-9, 9) for _ in range(dim)) for t in range(1, scans + 1)})
        for _ in range(rng.randint(1, max_tracks))
    ))


@pytest.mark.parametrize("dim", [1, 2, 8, 9])
def test_gathered_layer_matches_the_dense_tensor(dim):
    # the entries run in the C order of the (T, N_a, N_b) coexistence mask,
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
            scan, rows, cols = np.nonzero(a.exists.T[:, :, None] & b.exists.T[:, None])
            for got, want in ((dist.rows, rows), (dist.cols, cols), (entry_scans(dist), scan)):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(dense_layer(dist), dense)
            np.testing.assert_array_equal(dense_layer(dist.transpose()), dense.transpose(1, 0, 2))
            np.testing.assert_array_equal(dist.values, dense[rows, cols, scan])
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
            for q in (1.0, 1.5, 2.0, 3.0):  # every order, capped at the cutoff
                np.testing.assert_array_equal(dist.at_order(q), np.minimum(
                    dense_scan_distances(a, b, params, q)[rows, cols, scan], params.c))


#: The norm orders ``at_order`` is pinned at, as p' and as the order read.
ORDERS = (1.0, 1.5, 2.0, 3.0, 7.0)


def placed_pair(rng, dim, c, scale):
    """Two sets over 3 scans in ``dim`` dimensions.  ``a`` holds a track at
    the origin at every scan and a randomly drawn one.  ``b`` holds one
    track at one drawn scan per difference vector, in the scaled space, on
    the cutoff along an axis and on the norm-equivalence bound of every
    order (equal coordinates of norm c at that order), each times a factor
    just inside or just outside the bound's margin, and random tracks."""
    scale = np.ones(dim) if scale is None else np.array(scale)
    axis = np.eye(dim)[0]
    placed = [c * axis] + [c * dim ** (-1.0 / q) * np.ones(dim) for q in ORDERS]
    diffs = [w * f for w in placed for f in (1 - 2e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 2e-9)]
    diffs += [np.array([rng.uniform(-2 * c, 2 * c) for _ in range(dim)]) for _ in range(20)]
    a = TrackSet(3, dim, (Track({t: (0.0,) * dim for t in (1, 2, 3)}), Track({
        t: tuple(rng.uniform(-9, 9) for _ in range(dim)) for t in rng.sample((1, 2, 3), 2)})))
    b = TrackSet(3, dim, tuple(Track({rng.randint(1, 3): tuple((w / scale).tolist())})
                               for w in diffs))
    return a, b


@pytest.mark.parametrize("dim", range(1, 10))
def test_capped_orders_are_the_capped_base_distances(dim):
    # away from p' only entries whose bound lies below c are computed; every
    # order still equals min(base_distance(x, y, params, q), c) bit for bit,
    # read first from the layer or from its transpose, on the cutoff and on
    # the bound too
    rng = random.Random(200 + dim)
    c = 5.0
    at_c = 0
    for p_prime in ORDERS:
        for scale in (None, tuple(0.5 + 0.75 * k for k in range(dim))):
            params = MetricParams(c=c, delta=1.0, alpha=1.0, p_prime=p_prime, scale=scale)
            a, b = placed_pair(rng, dim, c, scale)
            for first in (lambda d: d, ScanDistances.transpose):
                dist = scan_distances(a, b, params)
                scan = entry_scans(dist)
                x, y = a.states[dist.rows, scan], b.states[dist.cols, scan]
                for q in ORDERS:
                    want = np.minimum(base_distance(x, y, params, q), c)
                    np.testing.assert_array_equal(first(dist).at_order(q), want)
                    np.testing.assert_array_equal(dist.at_order(q), want)
                    np.testing.assert_array_equal(dist.transpose().at_order(q), want)
                    at_c += int(np.sum(np.abs(base_distance(x, y, params, q) / c - 1) < 1e-11))
    assert at_c >= 100


def test_an_overflowed_distance_bounds_no_other_order():
    # a p'-norm whose powers overflow reads infinite, which bounds nothing:
    # the entry is computed at every other order
    params = MetricParams(c=1e300, delta=1.0, alpha=1.0, p_prime=3.0)
    a = TrackSet(1, 2, (Track({1: (0.0, 0.0)}),))
    b = TrackSet(1, 2, (Track({1: (1e103, 0.0)}), Track({1: (1e200, 1e200)})))
    with np.errstate(over="ignore"):
        dist = scan_distances(a, b, params)
        assert np.isinf(dist.values).all()
        for q in ORDERS:
            want = np.minimum(base_distance(a.states[[0, 0], 0], b.states[:, 0], params, q),
                              params.c)
            np.testing.assert_array_equal(dist.at_order(q), want)
    assert dist.at_order(1.0)[0] == 1e103


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_coexisting_entries_match_the_dense_formulas(dim):
    rng = random.Random(dim)
    for p in (1.0, 2.5):
        for params in distance_params(dim, p=p, c=6.0, delta=2.0, alpha=3.0):
            for a, b in pairs(rng, dim):
                dist = scan_distances(a, b, params)
                dense = dense_scan_distances(a, b, params)
                np.testing.assert_array_equal(
                    cost_matrix(b, a, params, dist),
                    dense_cost_matrix(b, a, params, dense, dense_pair_sums))
                swapped = dense_cost_matrix(a, b, params, dense.transpose(1, 0, 2),
                                            dense_pair_sums)
                np.testing.assert_array_equal(cost_matrix(a, b, params), swapped)
                np.testing.assert_array_equal(cost_matrix(a, b, params, dist.transpose()), swapped)

                euclid = dense_scan_distances(a, b, params, 2.0)
                ea, eb = a.exists[:, None], b.exists[None]
                pairing, summed = pairing_costs(a, b, params, dist)
                if summed is not None:
                    np.testing.assert_array_equal(
                        summed, dense_pairing_costs(euclid, ea, eb, params.c))
                assert pairing.costs_t == ospat_reorder(a, b, params).costs_t
                if pairing.pairs:  # the pairing's per-scan costs: its pairs' dense costs
                    ia, ib = np.array(pairing.pairs).T - 1
                    costs = dense_reorder_costs(euclid, ea, eb, params.c)[ia, ib]
                    assert pairing.costs_t == tuple(costs.sum(axis=0).tolist())

                la = tuple(rng.randint(1, 3) for _ in range(len(a)))
                lb = tuple(rng.randint(1, 3) for _ in range(len(b)))
                penalized = dense_labeled_distances(dense, la, lb, params)
                np.testing.assert_array_equal(_labeled_distances(dist, la, lb, params),
                                              penalized[dist.rows, dist.cols,
                                                        entry_scans(dist)])


@pytest.mark.parametrize("p_prime", [1.5, 3.0, 7.0])
def test_a_labeled_distance_at_the_cutoff_is_the_cutoff(p_prime):
    # with alpha = 0 a penalized (d^q + 0)^(1/q) can read below d; at a d
    # exactly on the cutoff that read below c, and min{c, ...} is c itself
    c = float(base_distance([0.0], [80.0], MetricParams(), p_prime))
    params = MetricParams(c=c, delta=1.0, alpha=0.0, p_prime=p_prime)
    a = TrackSet(1, 1, (Track({1: 0.0}),))
    b = TrackSet(1, 1, (Track({1: 80.0}), Track({1: 95.0}), Track({1: 12.5})))
    dist = scan_distances(a, b, params)
    near = dist.at_order(p_prime)[2]
    got = _labeled_distances(dist, (1,), (2, 3, 4), params)
    assert got.tolist() == [c, c, (near**p_prime) ** (1.0 / p_prime)]
    assert (c**p_prime) ** (1.0 / p_prime) < c


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sets_that_never_coexist(p):
    a, b = apart_pair(2)
    params = MetricParams(p=p, c=3.0, delta=1.0, alpha=1.0)
    dist = scan_distances(a, b, params)
    dense = dense_layer(dist)
    assert dist.values.shape == (0,) and dense.shape == (2, 1, 4) and np.isnan(dense).all()
    assert (cost_matrix(b, a, params) == INFEASIBLE).all()
    assert (cost_matrix(a, b, params) == INFEASIBLE).all()
    for mode in (Mode.EXACT, Mode.GREEDY):
        reports = library_reports(a, b, params, mode)
        assert {name: r.total for name, r in reports.items()} == dict.fromkeys(reports, 3.0)
    # the gather is empty, and the scale is still checked against the sets
    with pytest.raises(DimensionMismatchError):
        scan_distances(a, b, MetricParams(scale=(1.0, 2.0, 3.0)))


def test_pair_sums_add_in_scan_order():
    # over 20 scans numpy's pairwise sum parts from the scan-order one in the
    # last bit for some pairs; the cost matrix and the pairing costs take
    # the scan-order sums
    rng = random.Random(24)
    a = random_float_set(rng, 2, scans=20, max_tracks=5)
    b = random_float_set(rng, 2, scans=20, max_tracks=5)
    params = MetricParams(p=2.0, c=12.0)
    dense = dense_scan_distances(b, a, params)
    in_order = dense_cost_matrix(a, b, params, dense, dense_pair_sums)
    assert (in_order != dense_cost_matrix(a, b, params, dense)).any()
    np.testing.assert_array_equal(cost_matrix(a, b, params), in_order)

    euclid = dense_scan_distances(a, b, params, 2.0)
    ea, eb = a.exists[:, None], b.exists[None]
    in_order = dense_pairing_costs(euclid, ea, eb, params.c)
    assert (in_order != dense_reorder_costs(euclid, ea, eb, params.c).sum(axis=2)).any()
    np.testing.assert_array_equal(pairing_costs(a, b, params)[1], in_order)


def test_pair_sums_of_a_layer_with_no_coexisting_entry():
    a, b = apart_pair(2)
    params = MetricParams(c=3.0, delta=1.0, alpha=1.0)
    dist = scan_distances(a, b, params)
    # every scan of either track is a lone one
    lone = a.exists.sum(axis=1)[:, None] + b.exists.sum(axis=1)
    for layer, shape, want in ((dist, (2, 1), lone), (dist.transpose(), (1, 2), lone.T)):
        counts, lones, sums = layer.pair_sums(layer.values)
        assert counts.shape == lones.shape == sums.shape == shape
        assert not counts.any() and not sums.any()
        np.testing.assert_array_equal(lones, want)
    np.testing.assert_array_equal(pairing_costs(a, b, params, dist)[1], 3.0 * lone)


def test_pair_sums_of_the_transposed_layer_are_the_transpose():
    rng = random.Random(9)
    params = MetricParams()
    drawn = [(random_float_set(rng, 2, scans=20, max_tracks=5),
              random_float_set(rng, 2, scans=20, max_tracks=5)) for _ in range(6)]
    for a, b in pairs(rng, 2) + drawn:
        dist = scan_distances(a, b, params)
        values = np.array([rng.uniform(0, 9) for _ in dist.values])
        counts, lone, sums = dist.pair_sums(values)
        for got, want in zip(dist.transpose().pair_sums(values), (counts.T, lone.T, sums.T)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(counts, (a.exists[:, None] & b.exists[None]).sum(axis=2))
        np.testing.assert_array_equal(lone, (a.exists[:, None] ^ b.exists[None]).sum(axis=2))
        np.testing.assert_array_equal(sums, dense_pair_sums(np.nan_to_num(dense_layer(dist,
                                                                                      values))))


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.GREEDY])
def test_every_report_counts_the_slots_of_its_layer(mode):
    # OSPA, OSPAT and both OSPAMT directions normalise by the layer's slots,
    # also where a set is empty or the sets never coexist
    rng = random.Random(33)
    params = MetricParams(c=6.0, delta=2.0, alpha=3.0)
    for a, b in pairs(rng, 2):
        slots = scan_distances(a, b, params).slots
        assert list(slots) == oracle_counts(a, b)[0]
        reports = [ospa_per_scan(a, b, params), ospat_per_scan(a, b, params)[0],
                   ospamt_metric(a, b, params, mode),
                   quasi_ospamt(b, a, params, mode), quasi_ospamt(a, b, params, mode)]
        for report in reports:
            assert report.n_t == slots and report.n == sum(slots)


def test_cost_matrix_with_an_empty_set():
    rng = random.Random(3)
    a = full_set(rng, 2, max_tracks=3)
    empty = TrackSet(4, 2, ())
    params = MetricParams()
    assert cost_matrix(empty, a, params).shape == (len(a), 0)
    assert cost_matrix(a, empty, params).shape == (0, len(a))
    assert cost_matrix(empty, empty, params).shape == (0, 0)


def test_only_the_exact_search_reads_every_pair(monkeypatch):
    # the greedy search and the reorder ask the layer for the entries of at
    # most max(N_a, N_b) pairs at a time; the exact search gathers all K * M
    asked = []
    entries = ScanDistances.entries

    def spy(self, rows, cols):
        asked.append(np.broadcast(rows, cols).size)
        return entries(self, rows, cols)

    monkeypatch.setattr(ScanDistances, "entries", spy)
    rng = random.Random(8)
    params = MetricParams(c=6.0, delta=2.0, alpha=3.0)
    for a, b in pairs(rng, 2):
        asked.clear()
        ospat_reorder(a, b, params)
        ospat_per_scan(a, b, params)
        ospamt_metric(a, b, params, Mode.GREEDY)
        assert max(asked, default=0) <= max(len(a), len(b))
    drawn = [(full_set(rng, 2), full_set(rng, 2)) for _ in range(6)]
    drawn = [(a, b) for a, b in drawn if min(len(a), len(b)) >= 2]
    assert drawn
    for a, b in drawn:
        asked.clear()
        ospamt_metric(a, b, params, Mode.EXACT)
        assert len(a) * len(b) in asked


@pytest.mark.parametrize("p", [1.0, 2.5])
def test_exact_engine_gain_is_the_dense_formula(p):
    # in both directions, and for sets that never coexist, whose layer has
    # no entries
    rng = random.Random(27)
    for params in distance_params(2, p=p, c=6.0, delta=2.0, alpha=3.0):
        for a, b in pairs(rng, 2):
            dist = scan_distances(a, b, params)
            for layer, dense in ((dist, dense_scan_distances(a, b, params)),
                                 (dist.transpose(), dense_scan_distances(b, a, params))):
                tgt, src = layer.sets
                coexist = tgt.exists[:, None] & src.exists[None]
                want = np.where(coexist, np.minimum(dense, params.c) ** p - params.c**p, 0)
                gain = _DirectionalEngine(layer, params).gain
                assert gain.shape == want.shape and gain.tobytes() == want.tobytes()


def tracked_pair(rng, scans=40):
    """8-15 truths on 2-D random walks over random windows of scans, and
    8-15 estimates: most follow one truth with noise over part of its
    window, the rest are walks of their own."""
    def walk(start, end):
        x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
        points = {}
        for t in range(start, end + 1):
            x, y = x + rng.gauss(0, 1), y + rng.gauss(0, 1)
            points[t] = (x, y)
        return points

    def window():
        start = rng.randint(1, scans - 4)
        return start, rng.randint(start + 3, scans)

    truths = [walk(*window()) for _ in range(rng.randint(8, 15))]
    ests = []
    for _ in range(rng.randint(8, 15)):
        if rng.random() < 0.2:
            ests.append(walk(*window()))
            continue
        truth = rng.choice(truths)
        kept = sorted(truth)
        first = rng.randrange(len(kept))
        kept = kept[first:rng.randint(first, len(kept) - 1) + 1]
        ests.append({t: tuple(v + rng.gauss(0, 0.8) for v in truth[t]) for t in kept})
    return tuple(TrackSet(scans, 2, tuple(map(Track, side))) for side in (truths, ests))


def test_scan_order_sums_choose_as_the_pairwise_ones():
    # the sums only choose: on tracked pairs of 8-15 tracks a side, the
    # greedy assignment and orders of both directions and the OSPAT pairing
    # are the ones numpy's pairwise sums choose, and the pairing's per-scan
    # costs are the same to the last bit
    rng = random.Random(26)
    drawn = [tracked_pair(rng) for _ in range(20)]
    differ = 0
    for params in PARAM_SETS:
        cp = params.c**params.p
        for a, b in drawn:
            for src, tgt in ((b, a), (a, b)):
                summed = dense_cost_matrix(src, tgt, params, dense_scan_distances(tgt, src, params))
                costs = cost_matrix(src, tgt, params)
                differ += int((costs != summed).sum())
                got, want = (greedy_many_to_one(d, cutoff_row_col_value=cp)
                             for d in (costs, summed))
                assert (got.lam, got.orders) == (want.lam, want.orders)

            euclid = dense_scan_distances(a, b, params, 2.0)
            dense = dense_reorder_costs(euclid, a.exists[:, None], b.exists[None], params.c)
            summed = dense.sum(axis=2)
            if len(b) <= len(a):
                pi, _ = solve_one_to_one(summed.T)
                want = tuple((pi[j] + 1, j + 1) for j in range(len(b)))
            else:
                pi, _ = solve_one_to_one(summed)
                want = tuple((i + 1, pi[i] + 1) for i in range(len(a)))
            pairing, costs = pairing_costs(a, b, params)
            differ += int((costs != summed).sum())
            assert pairing.pairs == want
            ia, ib = np.array(want).T - 1
            assert pairing.costs_t == tuple(dense[ia, ib].sum(axis=0).tolist())
    assert differ > 0  # some sums do part in the last bit


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
    # another set, the sets swapped, an equal copy, another scale, another cutoff
    for x, y, given in ((c, b, params), (b, a, params), (a, TrackSet(3, 1, tracks_of(b)), params),
                        (a, b, MetricParams(scale=(2.0,))), (a, b, MetricParams(c=90.0))):
        with pytest.raises(BadParametersError, match="distance layer"):
            score(x, y, given, layer)
    fresh = score(b, a, params, None)
    assert score(b, a, params, layer.transpose()) == fresh
    assert score(a, b, params, layer) == score(a, b, params, None)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.GREEDY])
def test_a_layer_serves_every_parameter_but_the_scale(mode):
    # the capped distances depend on the scale and the cutoff alone, and
    # at_order serves any p'; a layer capped at another cutoff is refused
    rng = random.Random(61)
    built = MetricParams(p=1.0, c=6.0, delta=2.0, alpha=3.0, scale=(1.0, 2.0))
    variants = [replace(built, p=2.0), replace(built, delta=1.0),
                replace(built, alpha=0.5), replace(built, p_prime=1.5),
                replace(built, p=2.5, p_prime=2.0)]
    for a, b in pairs(rng, 2):
        dist = scan_distances(a, b, built)
        for score in LAYER_READERS.values():
            with pytest.raises(BadParametersError, match="another cutoff"):
                score(a, b, replace(built, c=9.0), dist)
        with pytest.raises(BadParametersError, match="another cutoff"):
            ospamt_metric(a, b, replace(built, c=9.0), mode, dist)
        for params in variants:
            for score in LAYER_READERS.values():
                assert score(a, b, params, dist) == score(a, b, params, None)
            assert (ospamt_metric(a, b, params, mode, dist) ==
                    ospamt_metric(a, b, params, mode))
