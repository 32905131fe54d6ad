import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import golden
from oracles import dense_labeled_distances, dense_layer, oracle_ospa
from trackmetric.assign import solve_one_to_one
from trackmetric.core import (
    MetricParams,
    MetricReport,
    Track,
    TrackSet,
    count_distances,
    scan_distances,
)
from trackmetric.errors import DimensionMismatchError, NonFiniteCoordinateError
from trackmetric.ospa import ospa, ospa_per_scan
from trackmetric.ospat import ospat_label, ospat_per_scan, ospat_reorder
from trackmetric.scenarios import FigureId, ScenarioSpec, build, random_scenario


def test_identical_sets():
    xs = [(0.0, 1.0), (2.0, 3.0)]
    res = ospa(xs, list(xs), MetricParams())
    assert res.total == 0.0
    assert res.loc == 0.0 and res.card == 0.0


def test_one_versus_two():
    # One matched state at distance eps plus one unmatched: ((eps^p + c^p)/2)^(1/p)
    for p in (1.0, 2.0):
        params = MetricParams(p=p)
        eps, c = 3.0, params.c
        res = ospa([(0.0,)], [(eps,), (500.0,)], params)
        assert res.total == pytest.approx(((eps**p + c**p) / 2) ** (1 / p), rel=1e-9)
        assert res.card == pytest.approx((c**p / 2) ** (1 / p), rel=1e-9)


def test_empty_cases():
    params = MetricParams()
    assert ospa([], [], params).total == 0.0
    assert ospa([], [(1.0,)], params).total == params.c
    assert ospa([(1.0,)], [], params).total == params.c


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        ospa([(0.0,)], [(0.0, 1.0)], MetricParams())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_states_raise(bad):
    # a NaN state scored 2.0, the matching's softening penalty, not a distance
    for xs, ys in (([(bad,)], [(0.0,)]), ([(0.0, 1.0)], [(2.0, 3.0), (4.0, bad)])):
        with pytest.raises(NonFiniteCoordinateError):
            ospa(xs, ys, MetricParams())


def test_states_without_coordinates_raise():
    # these raised a bare TypeError
    for xs, ys in (([()], [()]), ([()], []), ([], [(), ()])):
        with pytest.raises(DimensionMismatchError):
            ospa(xs, ys, MetricParams())


def test_one_scan_report():
    res = ospa([(0.0,), (10.0,)], [(9.0,)], MetricParams())
    assert res.assignment == (((2, 1),),)
    assert res.per_time == (res.total,) and res.n_t == (2,) and res.n == 2


def test_fig9a_states_at_t1():
    sc = build(ScenarioSpec(FigureId.FIG9A))
    report = ospa_per_scan(sc.truth, sc.est, MetricParams())
    assert report.per_time[0] == pytest.approx(golden("03_table1_fig9", "fig9a ospa"), rel=1e-9)
    assert report.assignment[0] == ((1, 2), (2, 1))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=250, deadline=None)
def test_matches_brute_force(seed):
    rng = random.Random(seed)
    params = MetricParams(p=rng.choice([1.0, 2.0]))
    xs = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(rng.randint(0, 5))]
    ys = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(rng.randint(0, 5))]
    res = ospa(xs, ys, params)
    assert res.total == pytest.approx(oracle_ospa(xs, ys, params), rel=1e-9, abs=1e-12)
    assert res.total <= params.c + 1e-12
    assert res.total**params.p == pytest.approx(
        res.loc**params.p + res.card**params.p, rel=1e-9, abs=1e-12
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_metric_axioms(seed):
    rng = random.Random(seed)
    params = MetricParams()

    def rand_states():
        return [(float(rng.randint(0, 9)),) for _ in range(rng.randint(0, 4))]

    a, b, c = rand_states(), rand_states(), rand_states()
    d_ab = ospa(a, b, params).total
    d_ba = ospa(b, a, params).total
    assert d_ab == pytest.approx(d_ba, rel=1e-9, abs=1e-12)
    assert ospa(a, list(a), params).total == 0.0
    if sorted(a) != sorted(b):
        assert d_ab > 1e-9
    d_ac = ospa(a, c, params).total
    d_cb = ospa(c, b, params).total
    assert d_ab <= d_ac + d_cb + 1e-9


def test_cardinality_component_formula():
    params = MetricParams(p=2.0)
    m, n = 2, 5
    xs = [(0.0,)] * m
    ys = [(0.0,)] * n
    res = ospa(xs, ys, params)
    want = params.c * ((n - m) / n) ** (1 / params.p)
    assert res.card == pytest.approx(want, rel=1e-9)


def test_per_scan_fig1a_t4_pairs_tau1_with_tau2prime():
    sc = build(ScenarioSpec(FigureId.FIG1A))
    report = ospa_per_scan(sc.truth, sc.est, MetricParams())
    assert report.assignment[3] == ((1, 2),)
    assert report.per_time[3] == pytest.approx(1.0, rel=1e-9)


def test_per_scan_empty_scans_are_zero():
    a = TrackSet(3, 1, (Track({1: 0.0}),))
    b = TrackSet(3, 1, (Track({1: 0.5}),))
    report = ospa_per_scan(a, b, MetricParams())
    assert report.per_time[1:] == (0.0, 0.0)
    assert report.n_t[1] == 0


# ----------------------------------------------- matchings read on demand


def eager_report(a, b, capped, params):
    """The report of ``per_scan_report`` as the eager path built it: at each
    scan ``solve_one_to_one`` of the oriented cost matrix gives both the loc
    sum and the matching."""
    loc_sums, card_sums, matchings = [], [], []
    for t in range(a.scans):
        ia, ib = np.flatnonzero(a.exists[:, t]).tolist(), np.flatnonzero(b.exists[:, t]).tolist()
        card_sums.append(params.c**params.p * abs(len(ia) - len(ib)))
        if not ia or not ib:
            loc_sums.append(0.0)
            matchings.append(())
            continue
        cost = capped[:, :, t][np.ix_(ia, ib)] ** params.p
        if len(ia) <= len(ib):
            pi, loc = solve_one_to_one(cost)
            pairs = [(ia[i], ib[j]) for i, j in enumerate(pi)]
        else:
            pi, loc = solve_one_to_one(cost.T)
            pairs = [(ia[j], ib[i]) for i, j in enumerate(pi)]
        loc_sums.append(loc)
        matchings.append(tuple(sorted((i + 1, j + 1) for i, j in pairs)))
    n_t, _ = count_distances(a, b)
    return MetricReport.from_sums(loc_sums, card_sums, n_t, params, tuple(matchings))


def both_reports(a, b, params):
    """(lazy, eager) report pairs of OSPA and of OSPAT for one pair of sets."""
    dist = dense_layer(scan_distances(a, b, params))
    labels_a, labels_b = ospat_label(a, b, ospat_reorder(a, b, params))
    labeled = dense_labeled_distances(dist, labels_a, labels_b, params)
    return [(ospa_per_scan(a, b, params), eager_report(a, b, np.minimum(dist, params.c), params)),
            (ospat_per_scan(a, b, params)[0], eager_report(a, b, labeled, params))]


def spot_set(rng, spots, scans=6, max_tracks=6):
    """1-D set whose states sit on a few far-apart spots, so tracks share
    states and capped distances tie."""
    return TrackSet(scans, 1, tuple(
        Track({t: (rng.choice(spots),) for t in rng.sample(range(1, scans + 1), rng.randint(1, scans))})
        for _ in range(rng.randint(1, max_tracks))
    ))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("seed", [1, 4])
def test_read_matchings_equal_the_eager_solve_on_large_pairs(p, seed):
    a, b = random_scenario(seed, n_truth=60, scans=75, miss_rate=0.1, false_rate=0.2,
                           break_rate=0.2, noise=1.0)
    for lazy, eager in both_reports(a, b, MetricParams(p=p)):
        assert lazy.per_time == eager.per_time and lazy.total == eager.total
        assert tuple(lazy.assignment) == eager.assignment


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("spots_a, spots_b", [
    ((0.0, 100.0), (0.0, 100.0)),  # duplicate states: entries at 0 or at c ** p
    ((0.0, 200.0), (100.0, 300.0)),  # every entry at c ** p
])
def test_read_matchings_equal_the_eager_solve_on_tied_scans(p, spots_a, spots_b):
    rng = random.Random(int(p) * 7 + int(spots_b[0]))
    params = MetricParams(p=p, c=20.0, delta=5.0, alpha=20.0)
    for _ in range(40):
        a, b = spot_set(rng, spots_a), spot_set(rng, spots_b)
        for lazy, eager in both_reports(a, b, params):
            assert lazy.per_time == eager.per_time and lazy.total == eager.total
            assert tuple(lazy.assignment) == eager.assignment


def test_matchings_behave_as_their_tuple():
    a, b = random_scenario(3, n_truth=5, scans=8, miss_rate=0.2, false_rate=0.3, noise=2.0)
    params = MetricParams()

    def fresh():
        return ospa_per_scan(a, b, params).assignment

    want = tuple(fresh())
    assert type(want) is tuple and len(want) == 8 and all(type(x) is tuple for x in want)
    assert fresh() == want and want == fresh()
    assert not fresh() != want and not want != fresh()
    assert hash(fresh()) == hash(want)
    assert len(fresh()) == len(want)
    assert list(fresh()) == list(want)
    assert fresh()[-1] == want[-1] and fresh()[-8] == want[0]
    assert fresh()[2:5] == want[2:5] and type(fresh()[2:5]) is tuple
    assert fresh()[::-3] == want[::-3]
    assert repr(fresh()) == repr(want)
    with pytest.raises(IndexError):
        fresh()[8]
    other = want[:-1] + (((9, 9),),)
    assert fresh() != other and other != fresh() and fresh() != list(want)


def test_reports_compare_equal_read_or_not():
    a, b = random_scenario(5, n_truth=6, scans=10, miss_rate=0.2, false_rate=0.3, noise=2.0)
    params = MetricParams()
    for score in (lambda: ospa_per_scan(a, b, params), lambda: ospat_per_scan(a, b, params)[0]):
        read, unread, other = score(), score(), score()
        tuple(read.assignment)
        assert read == unread and unread == read and hash(read) == hash(other)
