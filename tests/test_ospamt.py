import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_small_set, shuffled_copy
from oracles import oracle_ospamt, oracle_quasi
from trackmetric.assign import INFEASIBLE
from trackmetric.core import (
    Direction,
    MetricParams,
    TrackSet,
    count_distances,
    make_track,
    same_track_sets,
    validate,
)
from trackmetric.errors import (
    InfeasibleAssignmentError,
    NoConvergenceError,
    TooLargeError,
)
from trackmetric.ospa import ospa
from trackmetric.ospamt import (
    Mode,
    cost_matrix,
    directional_cost,
    directional_distance,
    directional_terms,
    order_at_time,
    ospamt_metric,
    quasi_ospamt,
    split_tracks,
)
from trackmetric.scenarios import FigureId, ScenarioSpec, build, random_scenario


def fig(fig_id, **kw):
    return build(ScenarioSpec(fig_id, **kw))


# ---------------------------------------------------------------- pairwise


def test_pairwise_cost_identical_tracks():
    ts = validate(TrackSet(3, 1, (make_track({1: 0.0, 2: 1.0, 3: 2.0}),)))
    assert cost_matrix(ts, ts, MetricParams())[0, 0] == 0.0


def test_pairwise_cost_disjoint_lifetimes():
    params = MetricParams()
    a = make_track({1: 0.0, 2: 0.0})
    b = make_track({3: 0.0, 4: 0.0})
    ts_a = validate(TrackSet(4, 1, (a,)))
    ts_b = validate(TrackSet(4, 1, (b,)))
    d = cost_matrix(ts_b, ts_a, params)
    assert d[0, 0] == INFEASIBLE


def test_pairwise_cost_merged_track_against_short_truth():
    # truth over scans 1..3 at 0, estimate over 1..5 at eps:
    # three coexisting scans at eps^p plus two lone scans at c^p, over 5.
    for p in (1.0, 2.0):
        params = MetricParams(p=p)
        eps, c = 1.0, params.c
        truth = validate(TrackSet(5, 1, (make_track({1: 0.0, 2: 0.0, 3: 0.0}),)))
        est = validate(TrackSet(5, 1, (make_track({t: eps for t in range(1, 6)}),)))
        want = (3 * eps**p + 2 * c**p) / 5
        assert cost_matrix(est, truth, params)[0, 0] == pytest.approx(want, rel=1e-9)


# ------------------------------------------------------- directional given λ


def test_example1_fig1a_per_scan_terms():
    params = MetricParams()
    p, c, d = params.p, params.c, params.delta
    sc = fig(FigureId.FIG1A)
    eps = 1.0
    bd = directional_terms(sc.est, sc.truth, (1, 1), ((1, 2),), params)
    want = [eps**p] * 3 + [eps**p + d**p] * 2
    assert list(bd.total_t) == pytest.approx(want, rel=1e-9)


def test_example1_fig1b_per_scan_terms():
    params = MetricParams()
    p, c, d = params.p, params.c, params.delta
    sc = fig(FigureId.FIG1B)
    eps = 1.0
    bd = directional_terms(sc.est, sc.truth, (1, 1), ((1, 2), ()), params)
    want = [eps**p] * 3 + [eps**p + d**p + c**p] * 2
    assert list(bd.total_t) == pytest.approx(want, rel=1e-9)


def test_example1_fig1c_false_track():
    params = MetricParams()
    sc = fig(FigureId.FIG1C)
    bd = directional_terms(sc.est, sc.truth, (0,), ((),), params)
    assert list(bd.total_t) == pytest.approx([params.c**params.p] * 5, rel=1e-9)


def test_example2_order_choice():
    params = MetricParams()
    p, d = params.p, params.delta
    sc = fig(FigureId.FIG1A)
    eps = 1.0
    a1 = directional_cost(sc.est, sc.truth, (1, 1), ((1, 2),), params)
    a2 = directional_cost(sc.est, sc.truth, (1, 1), ((2, 1),), params)
    assert a1 == pytest.approx(((5 * eps**p + 2 * d**p) / 5) ** (1 / p), rel=1e-9)
    assert a2 == pytest.approx(((5 * eps**p + 3 * d**p) / 5) ** (1 / p), rel=1e-9)
    value, _, orders = directional_distance(sc.est, sc.truth, (1, 1), params)
    assert value == pytest.approx(a1, rel=1e-9)
    assert orders == ((1, 2),)


def test_order_at_time_preserves_relative_order():
    sc = fig(FigureId.FIG1A)
    orders = ((1, 2),)
    assert order_at_time(sc.est, orders, 1, 1) == (1,)
    assert order_at_time(sc.est, orders, 1, 4) == (2,)
    # with both sources alive the full order comes back unchanged
    coexisting = fig(FigureId.FIG9A).est  # both tracks span scans 1..3
    assert order_at_time(coexisting, ((2, 1),), 1, 2) == (2, 1)
    assert order_at_time(coexisting, ((1, 2),), 1, 2) == (1, 2)


def test_directional_infeasible_assignment_raises():
    sc = fig(FigureId.FIG10A)  # disjoint lifetimes
    with pytest.raises(InfeasibleAssignmentError):
        directional_distance(sc.est, sc.truth, (1,), MetricParams())


def test_directional_breakdown_bound():
    # every scan's raw sum is at most n_t * (c^p + delta^p)
    rng = random.Random(7)
    params = MetricParams()
    cap = params.c**params.p + params.delta**params.p
    for _ in range(50):
        src = random_small_set(rng, min_tracks=1)
        tgt = random_small_set(rng, min_tracks=1)
        value, assignment = quasi_ospamt(src, tgt, params, Mode.EXACT)
        bd = directional_terms(
            src, tgt, assignment.source_to_target, assignment.orders, params
        )
        n_t, _ = count_distances(src, tgt)
        for raw, nt in zip(bd.total_t, n_t):
            assert raw <= nt * cap + 1e-9
            assert raw >= -1e-12


# ------------------------------------------------------------------- quasi


def test_quasi_identity():
    sc = fig(FigureId.FIG8)
    value, assignment = quasi_ospamt(sc.est, sc.est, MetricParams(), Mode.EXACT)
    assert value == 0.0
    assert assignment.source_to_target == (1, 2)


def test_quasi_empty_cases():
    params = MetricParams()
    empty = TrackSet(5, 1, ())
    one = validate(TrackSet(5, 1, (make_track({1: 0.0}),)))
    assert quasi_ospamt(empty, empty, params)[0] == 0.0
    assert quasi_ospamt(one, empty, params)[0] == params.c
    assert quasi_ospamt(empty, one, params)[0] == params.c


def test_quasi_fig5_fig6_est_to_truth():
    # both scenarios give (3*eps + 2*c)/5 from the estimate side
    params = MetricParams()
    eps, c = 1.0, params.c
    for f in (FigureId.FIG5, FigureId.FIG6):
        sc = fig(f, epsilon=eps)
        value, _ = quasi_ospamt(sc.est, sc.truth, params, Mode.EXACT)
        assert value == pytest.approx((3 * eps + 2 * c) / 5, rel=1e-9)


def test_quasi_too_large_in_exact_mode():
    tracks = tuple(make_track({1: float(i)}) for i in range(6))
    big = validate(TrackSet(1, 1, tracks))
    with pytest.raises(TooLargeError):
        quasi_ospamt(big, big, MetricParams(), Mode.EXACT)
    # auto mode falls back to greedy instead
    value, _ = quasi_ospamt(big, big, MetricParams(), Mode.AUTO)
    assert value == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------------ metric


def test_fig5_metric_and_assignment():
    params = MetricParams()
    eps, d = 1.0, params.delta
    sc = fig(FigureId.FIG5, epsilon=eps)
    report = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT)
    assert report.total == pytest.approx((5 * eps + 2 * d) / 5, rel=1e-9)
    assert report.assignment.direction is Direction.TRUTH_TO_EST
    assert report.assignment.orders == ((1, 2),)  # both truths onto the estimate


def test_fig6_metric():
    params = MetricParams()
    eps, c = 1.0, params.c
    sc = fig(FigureId.FIG6, epsilon=eps)
    report = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT)
    assert report.total == pytest.approx((3 * eps + 2 * c) / 5, rel=1e-9)


def test_fig9a_per_time_is_cutoff_at_t1():
    params = MetricParams()
    sc = fig(FigureId.FIG9A)
    report = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT)
    assert report.per_time[0] == pytest.approx(params.c, rel=1e-9)
    assert report.per_time[1] == pytest.approx(1.0, rel=1e-9)
    # total over the three scans: mean of one cutoff scan and two eps scans
    p, c, eps = params.p, params.c, 1.0
    assert report.total == pytest.approx(
        ((2 * eps**p + c**p) / 3) ** (1 / p), rel=1e-9
    )


def test_fig9b_total_closed_form():
    for p in (1.0, 2.0):
        params = MetricParams(p=p)
        eps, eta = 1.0, 5.0
        sc = fig(FigureId.FIG9B, epsilon=eps, eta=eta)
        report = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT)
        want = ((2 * eps**p + eta**p) / 3) ** (1 / p)
        assert report.total == pytest.approx(want, rel=1e-9)


def test_metric_of_identical_sets_is_zero():
    sc = fig(FigureId.FIG1B)
    report = ospamt_metric(sc.truth, sc.truth, MetricParams(), Mode.EXACT)
    assert report.total == 0.0


def test_metric_symmetry_swapped_arguments():
    params = MetricParams()
    sc = fig(FigureId.FIG1D)
    r1 = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT)
    r2 = ospamt_metric(sc.est, sc.truth, params, Mode.EXACT)
    assert r1.total == pytest.approx(r2.total, rel=1e-12)


def test_report_consistency_identities():
    rng = random.Random(11)
    params = MetricParams()
    p = params.p
    for _ in range(40):
        a = random_small_set(rng)
        b = random_small_set(rng)
        report = ospamt_metric(a, b, params, Mode.EXACT)
        assert report.total <= params.c + 1e-12
        lhs = report.total**p * report.n
        per_time = sum(
            v**p * nt for v, nt in zip(report.per_time, report.n_t)
        )
        assert lhs == pytest.approx(per_time, rel=1e-9, abs=1e-9)
        split = (report.loc**p + report.card**p) * report.n
        assert lhs == pytest.approx(split, rel=1e-9, abs=1e-9)
        for tot, loc, card in zip(report.per_time, report.loc_t, report.card_t):
            assert tot**p == pytest.approx(loc**p + card**p, rel=1e-9, abs=1e-9)
        # map and orders describe the same assignment
        asg = report.assignment
        for j, i in enumerate(asg.source_to_target, start=1):
            if i != 0:
                assert asg.orders[i - 1].count(j) == 1
        for i, order in enumerate(asg.orders, start=1):
            for j in order:
                assert asg.source_to_target[j - 1] == i


def test_exact_matches_oracle_spot():
    rng = random.Random(3)
    params = MetricParams()
    for _ in range(25):
        a = random_small_set(rng, max_tracks=3, scans=3)
        b = random_small_set(rng, max_tracks=3, scans=3)
        got = ospamt_metric(a, b, params, Mode.EXACT).total
        assert got == pytest.approx(oracle_ospamt(a, b, params), rel=1e-9, abs=1e-12)


def test_quasi_exact_matches_oracle_spot():
    rng = random.Random(5)
    params = MetricParams(p=2.0)
    for _ in range(15):
        a = random_small_set(rng, max_tracks=3, scans=3, min_tracks=1)
        b = random_small_set(rng, max_tracks=3, scans=3, min_tracks=1)
        got, _ = quasi_ospamt(b, a, params, Mode.EXACT)
        assert got == pytest.approx(oracle_quasi(b, a, params), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "params",
    [
        MetricParams(p=1.5, c=20.0, delta=0.5),
        MetricParams(p=2.0, c=12.0, delta=11.0, p_prime=1.0),
        MetricParams(p=1.0, c=80.0, delta=10.0, scale=(0.5,)),
        MetricParams(p=3.0, c=9.0, delta=2.0, alpha=3.0, p_prime=2.0),
    ],
)
def test_exact_matches_oracle_under_parameter_sweep(params):
    rng = random.Random(int(params.p * 100 + params.c))
    for _ in range(12):
        a = random_small_set(rng, max_tracks=3, scans=3)
        b = random_small_set(rng, max_tracks=3, scans=3)
        got = ospamt_metric(a, b, params, Mode.EXACT).total
        assert got == pytest.approx(oracle_ospamt(a, b, params), rel=1e-9, abs=1e-12)


def test_exact_search_is_deterministic():
    rng = random.Random(31)
    params = MetricParams()
    for _ in range(20):
        a = random_small_set(rng, min_tracks=1)
        b = random_small_set(rng, min_tracks=1)
        r1 = ospamt_metric(a, b, params, Mode.EXACT)
        r2 = ospamt_metric(a, b, params, Mode.EXACT)
        assert r1.assignment == r2.assignment
        assert r1.total == r2.total


def test_quasi_is_a_quasimetric_not_a_metric():
    # fig5: the two directional values differ; the metric takes the smaller
    params = MetricParams()
    eps, d, c = 1.0, params.delta, params.c
    sc = fig(FigureId.FIG5, epsilon=eps)
    from_est, _ = quasi_ospamt(sc.est, sc.truth, params, Mode.EXACT)
    from_truth, _ = quasi_ospamt(sc.truth, sc.est, params, Mode.EXACT)
    assert from_est == pytest.approx((3 * eps + 2 * c) / 5, rel=1e-9)
    assert from_truth == pytest.approx((5 * eps + 2 * d) / 5, rel=1e-9)
    assert from_est != from_truth
    total = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT).total
    assert total == pytest.approx(min(from_est, from_truth), rel=1e-12)


def test_greedy_mode_scales_past_the_enumeration_cap():
    truth, est = random_scenario(
        seed=9, n_truth=8, scans=12, miss_rate=0.1, break_rate=0.4, noise=1.0
    )
    params = MetricParams()
    report = ospamt_metric(truth, est, params, Mode.AUTO)
    assert 0.0 <= report.total <= params.c + 1e-12
    p = params.p
    lhs = report.total**p * report.n
    assert lhs == pytest.approx(
        (report.loc**p + report.card**p) * report.n, rel=1e-9, abs=1e-9
    )


def test_greedy_never_beats_exact():
    rng = random.Random(17)
    params = MetricParams()
    for _ in range(60):
        a = random_small_set(rng, min_tracks=1)
        b = random_small_set(rng, min_tracks=1)
        exact = ospamt_metric(a, b, params, Mode.EXACT).total
        greedy = ospamt_metric(a, b, params, Mode.GREEDY).total
        assert greedy >= exact - 1e-9


def test_t1_reduction_to_ospa_spot():
    rng = random.Random(23)
    params = MetricParams()
    for _ in range(30):
        a = random_small_set(rng, scans=1)
        b = random_small_set(rng, scans=1)
        report = ospamt_metric(a, b, params, Mode.EXACT)
        want = ospa(a.states_at(1), b.states_at(1), params).total
        assert report.total == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_monotone_false_track_penalty():
    # the fig-11 family: adding one false track never decreases the total
    params = MetricParams()
    a = fig(FigureId.FIG11A)
    b = fig(FigureId.FIG11B)
    ra = ospamt_metric(a.truth, a.est, params, Mode.EXACT)
    rb = ospamt_metric(b.truth, b.est, params, Mode.EXACT)
    assert rb.total > ra.total
    e, c, p = 1.0, params.c, params.p
    assert ra.total == pytest.approx(((e**p + c**p) / 2) ** (1 / p), rel=1e-9)
    assert rb.total == pytest.approx(((e**p + 2 * c**p) / 3) ** (1 / p), rel=1e-9)


def test_direction_tie_reports_est_to_truth():
    # fig11a ties between the two directions; est-to-truth must be reported
    sc = fig(FigureId.FIG11A)
    report = ospamt_metric(sc.truth, sc.est, MetricParams(), Mode.EXACT)
    assert report.assignment.direction is Direction.EST_TO_TRUTH


def test_fig10a_disjoint_lifetimes_all_unassigned():
    sc = fig(FigureId.FIG10A)
    params = MetricParams()
    report = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT)
    assert report.total == pytest.approx(params.c, rel=1e-9)
    assert report.assignment.source_to_target == (0,)


def test_fig12_assignment_joins_both_estimates_to_tau1():
    # both short estimates stand in for the long truth track; the far truths
    # stay missed
    sc = fig(FigureId.FIG12)
    report = ospamt_metric(sc.truth, sc.est, MetricParams(), Mode.EXACT)
    assert report.assignment.direction is Direction.EST_TO_TRUTH
    assert report.assignment.orders == ((1, 2), (), ())


def test_fig12a_fig12b_optimal_assignments():
    params = MetricParams()
    a = fig(FigureId.FIG12A)
    ra = ospamt_metric(a.truth, a.est, params, Mode.EXACT)
    assert ra.assignment.direction is Direction.EST_TO_TRUTH
    # e1 estimates t1, e3 estimates t2, e2 is false
    assert ra.assignment.source_to_target == (1, 0, 2)
    b = fig(FigureId.FIG12B)
    rb = ospamt_metric(b.truth, b.est, params, Mode.EXACT)
    assert rb.assignment.direction is Direction.TRUTH_TO_EST
    # the single long estimate absorbs both truths
    assert rb.assignment.orders == ((1, 2), ())
    # the broken version scores strictly better than the merged one
    assert ra.total < rb.total


@given(seed=st.integers(0, 4_000))
@settings(max_examples=60, deadline=None)
def test_axioms_random(seed):
    rng = random.Random(seed)
    params = MetricParams()
    a = random_small_set(rng, max_tracks=3, scans=3)
    b = random_small_set(rng, max_tracks=3, scans=3)
    d_ab = ospamt_metric(a, b, params, Mode.EXACT).total
    d_ba = ospamt_metric(b, a, params, Mode.EXACT).total
    assert d_ab == pytest.approx(d_ba, abs=1e-12)
    assert ospamt_metric(a, shuffled_copy(rng, a), params, Mode.EXACT).total == 0.0
    if not same_track_sets(a, b):
        assert d_ab > 1e-9


# ------------------------------------------------------------------- split


def test_split_fig5_matches_fig8():
    params = MetricParams()
    sc = fig(FigureId.FIG5)
    new_est, log = split_tracks(sc.truth, sc.est, params, Mode.EXACT)
    assert len(new_est.tracks) == 2
    assert sorted(new_est.tracks[0].points) == [1, 2, 3]
    assert sorted(new_est.tracks[1].points) == [4, 5]
    assert len(log) == 1 and log[0].fragment_count == 2
    assert log[0].cut_scans == (4,)
    after = ospamt_metric(sc.truth, new_est, params, Mode.EXACT)
    assert after.total == pytest.approx(1.0, rel=1e-9)
    fig8 = fig(FigureId.FIG8)
    assert same_track_sets(new_est, fig8.est)


def test_split_noop_when_one_to_one():
    params = MetricParams()
    sc = fig(FigureId.FIG8)
    new_est, log = split_tracks(sc.truth, sc.est, params, Mode.EXACT)
    assert log == []
    assert same_track_sets(new_est, sc.est)


def test_split_interleaved_lifetimes():
    # truth A exists at scans 1 and 3, truth B at scan 2; one estimate covers
    # all three scans and must fragment into {1,3} and {2}.
    params = MetricParams(delta=1.0)
    truth = validate(
        TrackSet(
            3,
            1,
            (
                make_track({1: 0.0, 3: 0.0}, "A"),
                make_track({2: 0.1}, "B"),
            ),
        )
    )
    est = validate(TrackSet(3, 1, (make_track({1: 0.0, 2: 0.1, 3: 0.0}, "E"),)))
    value, assignment = quasi_ospamt(truth, est, params, Mode.EXACT)
    assert assignment.orders == ((1, 2),)  # both truths onto E: split needed
    new_est, log = split_tracks(truth, est, params, Mode.EXACT)
    assert len(new_est.tracks) == 2
    assert sorted(new_est.tracks[0].points) == [1, 3]
    assert sorted(new_est.tracks[1].points) == [2]
    _, after = quasi_ospamt(truth, new_est, params, Mode.EXACT)
    assert all(len(order) <= 1 for order in after.orders)


def test_split_no_convergence_on_identical_lifetimes():
    # Greedy mode can pile two same-lifetime truths onto one estimate; the
    # fragmenting rule then cannot separate them.
    params = MetricParams()
    truth = validate(
        TrackSet(
            2,
            1,
            (make_track({1: 1.0, 2: 1.0}, "A"), make_track({1: 2.0, 2: 2.0}, "B")),
        )
    )
    est = validate(
        TrackSet(
            2,
            1,
            (make_track({1: 0.0, 2: 0.0}, "E1"), make_track({1: 50.0, 2: 50.0}, "E2")),
        )
    )
    with pytest.raises(NoConvergenceError):
        split_tracks(truth, est, params, Mode.GREEDY)
