import random
import time
from collections import Counter
from dataclasses import replace
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    PARAM_SETS,
    golden,
    library_reports,
    random_float_set,
    random_small_set,
    same_track_sets,
    shuffled_copy,
    states_at,
    tracks_of,
)
from oracles import (
    _feasible,
    enumerate_assignments,
    legacy_directional_terms,
    loop_directional_terms,
    oracle_counts,
    oracle_exact_quasi,
    oracle_ospamt,
    oracle_quasi,
    oracle_tilde_d_t,
)
from trackmetric import ospamt, scenarios
from trackmetric.assign import INFEASIBLE
from trackmetric.core import (
    Direction,
    MetricParams,
    Track,
    TrackSet,
    scan_distances,
)
from trackmetric.errors import (
    DimensionMismatchError,
    InfeasibleAssignmentError,
    NoConvergenceError,
    ScanMismatchError,
    TooLargeError,
)
from trackmetric.ospa import ospa
from trackmetric.ospamt import (
    Mode,
    SplitLogEntry,
    cost_matrix,
    directional_cost,
    directional_distance,
    directional_terms,
    ospamt_metric,
    quasi_ospamt,
    split_tracks,
)
from trackmetric.scenarios import FigureId, ScenarioSpec, build, random_scenario


def fig(fig_id, **kw):
    return build(ScenarioSpec(fig_id, **kw))


# ---------------------------------------------------------------- pairwise


def test_pairwise_cost_identical_tracks():
    ts = TrackSet(3, 1, (Track({1: 0.0, 2: 1.0, 3: 2.0}),))
    assert cost_matrix(ts, ts, MetricParams())[0, 0] == 0.0


def test_pairwise_cost_disjoint_lifetimes():
    params = MetricParams()
    a = Track({1: 0.0, 2: 0.0})
    b = Track({3: 0.0, 4: 0.0})
    ts_a = TrackSet(4, 1, (a,))
    ts_b = TrackSet(4, 1, (b,))
    d = cost_matrix(ts_b, ts_a, params)
    assert d[0, 0] == INFEASIBLE


def test_pairwise_cost_merged_track_against_short_truth():
    # truth over scans 1..3 at 0, estimate over 1..5 at eps:
    # three coexisting scans at eps^p plus two lone scans at c^p, over 5.
    for p in (1.0, 2.0):
        params = MetricParams(p=p)
        eps, c = 1.0, params.c
        truth = TrackSet(5, 1, (Track({1: 0.0, 2: 0.0, 3: 0.0}),))
        est = TrackSet(5, 1, (Track({t: eps for t in range(1, 6)}),))
        want = (3 * eps**p + 2 * c**p) / 5
        assert cost_matrix(est, truth, params)[0, 0] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("p_prime", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("scale", [None, (0.5, 2.0, 1.25)])
def test_cost_matrix_of_swapped_roles_is_the_transpose(p_prime, scale, monkeypatch):
    # 3-D random sets, drawn as the 2-D ones are
    monkeypatch.setattr(scenarios, "RANDOM_DIM", 3)
    params = MetricParams(p=2.0, c=40.0, p_prime=p_prime, scale=scale)
    for seed in range(6):
        a, b = random_scenario(seed, n_truth=5, scans=12, miss_rate=0.3, false_rate=0.4,
                               break_rate=0.3, noise=8.0)
        np.testing.assert_array_equal(cost_matrix(a, b, params), cost_matrix(b, a, params).T)


def test_cost_matrix_rejects_incomparable_sets():
    three = TrackSet(3, 1, (Track({1: 0.0}),))
    four = TrackSet(4, 1, (Track({1: 0.0}),))
    flat = TrackSet(3, 2, (Track({1: (0.0, 0.0)}),))
    with pytest.raises(ScanMismatchError):
        cost_matrix(three, four, MetricParams())
    with pytest.raises(DimensionMismatchError):
        cost_matrix(flat, three, MetricParams())


# ------------------------------------------------------- directional given λ


def test_example1_fig1a_per_scan_terms():
    params = MetricParams()
    p, c, d = params.p, params.c, params.delta
    sc = fig(FigureId.FIG1A)
    eps = 1.0
    loc, card = directional_terms(scan_distances(sc.truth, sc.est, params), ((1, 2),), params)
    want = [eps**p] * 3 + [eps**p + d**p] * 2
    assert list(loc + card) == pytest.approx(want, rel=1e-9)


def test_example1_fig1b_per_scan_terms():
    params = MetricParams()
    p, c, d = params.p, params.c, params.delta
    sc = fig(FigureId.FIG1B)
    eps = 1.0
    loc, card = directional_terms(scan_distances(sc.truth, sc.est, params), ((1, 2), ()), params)
    want = [eps**p] * 3 + [eps**p + d**p + c**p] * 2
    assert list(loc + card) == pytest.approx(want, rel=1e-9)


def test_example1_fig1c_false_track():
    params = MetricParams()
    sc = fig(FigureId.FIG1C)
    loc, card = directional_terms(scan_distances(sc.truth, sc.est, params), ((),), params)
    assert list(loc + card) == pytest.approx([params.c**params.p] * 5, rel=1e-9)


def test_example2_order_choice():
    # with lambda fixed, the order search finds A1, the cheaper of A1 and A2
    sc = fig(FigureId.FIG1A)
    value, orders = directional_distance(sc.est, sc.truth, (1, 1), MetricParams())
    assert value == pytest.approx(golden("01_example2_closed_forms", "A1"), rel=1e-9)
    assert orders == ((1, 2),)


def test_directional_cost_rejects_orders_that_disagree_with_lambda():
    # lambda leaves source 2 unassigned, so ((1, 2),) is not its ordering;
    # scoring the orders alone would return 5.0, the value of lambda (1, 1)
    sc = fig(FigureId.FIG1A)
    params = MetricParams()
    for lam, orders in [((1, 0), ((1, 2),)), ((1, 1), ((1,),)), ((1, 1), ((1, 1),)), ((1, 1), ())]:
        with pytest.raises(InfeasibleAssignmentError):
            directional_cost(sc.est, sc.truth, lam, orders, params)
    assert directional_cost(sc.est, sc.truth, (1, 0), ((1,),), params) > 0.0


def test_directional_infeasible_assignment_raises():
    sc = fig(FigureId.FIG10A)  # disjoint lifetimes
    with pytest.raises(InfeasibleAssignmentError):
        directional_distance(sc.est, sc.truth, (1,), MetricParams())


def test_a_fixed_assignment_of_sets_with_other_scan_counts_raises_scan_mismatch():
    # the sets are compared before lambda is checked against them
    src = TrackSet(4, 1, (Track({1: 1.0}),))
    tgt = TrackSet(5, 1, (Track({1: 0.0}),))
    with pytest.raises(ScanMismatchError, match="scan counts differ"):
        directional_cost(src, tgt, (1,), ((1,),), MetricParams())
    with pytest.raises(ScanMismatchError, match="scan counts differ"):
        directional_distance(src, tgt, (1,), MetricParams())


@pytest.mark.parametrize("lam, message", [
    ((2, 9, 0), "source 1 and target 2 share no existing scan"),
    ((1, 9, 1), "source 2 maps to unknown target 9"),
    ((1, -1, 0), "source 2 maps to unknown target -1"),
    ((0, 2, 1), "source 3 and target 1 share no existing scan"),
    ((1, 2), "lambda has 2 entries for 3 source tracks"),
])
def test_infeasible_assignment_names_the_first_failing_source(lam, message):
    tgt = TrackSet(4, 1, (Track({1: 0.0, 2: 0.0}), Track({3: 0.0, 4: 0.0})))
    src = TrackSet(4, 1, (Track({1: 1.0}), Track({3: 1.0}), Track({4: 1.0})))
    with pytest.raises(InfeasibleAssignmentError) as exc:
        directional_distance(src, tgt, lam, MetricParams())
    assert str(exc.value) == message


def test_directional_breakdown_bound():
    # every scan's raw sum is at most n_t * (c^p + delta^p)
    rng = random.Random(7)
    params = MetricParams()
    cap = params.c**params.p + params.delta**params.p
    for _ in range(50):
        src = random_small_set(rng, min_tracks=1)
        tgt = random_small_set(rng, min_tracks=1)
        assignment = quasi_ospamt(src, tgt, params, Mode.EXACT).assignment
        dist = scan_distances(tgt, src, params)
        loc, card = directional_terms(dist, assignment.orders, params)
        for raw, nt in zip(loc + card, dist.slots):
            assert raw <= nt * cap + 1e-9
            assert raw >= -1e-12


@pytest.mark.parametrize(
    "params",
    [
        MetricParams(p=1.0, c=5.0, delta=2.0, alpha=0.0),
        MetricParams(p=2.0, c=6.0, delta=1.5, alpha=0.0, p_prime=1.0),
    ],
)
def test_directional_terms_match_oracle_per_scan(params):
    # every (lambda, orders) pair, also orders whose first assignee is absent
    # at some scans, so a later assignee is charged there with the penalty
    rng = random.Random(41)
    first_absent = 0
    for _ in range(12):
        src = random_small_set(rng, max_tracks=3, min_tracks=1)
        tgt = random_small_set(rng, max_tracks=3, min_tracks=1)
        n_t, _ = oracle_counts(src, tgt)
        pairs = enumerate_assignments(len(src), len(tgt), _feasible(src, tgt))
        dist = scan_distances(tgt, src, params)
        src_tracks, tgt_tracks = tracks_of(src), tracks_of(tgt)
        for _, orders in pairs:
            loc, card = directional_terms(dist, orders, params)
            for t in range(1, src.scans + 1):
                want = oracle_tilde_d_t(src_tracks, tgt_tracks, orders, params, t, n_t[t - 1])
                assert loc[t - 1] + card[t - 1] == pytest.approx(want, rel=1e-12)
                first_absent += sum(
                    1
                    for order in orders
                    if len(order) > 1 and not src.exists[order[0] - 1, t - 1]
                )
    assert first_absent > 0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_directional_terms_match_the_target_by_target_loop(p):
    # seeded real-valued sets under random maps and orders: scoring every
    # target at once gives the arrays of the earlier loop over targets to
    # the last bit, also with empty preimages, with a target whose sources
    # are all absent at some scan, and with every source on one target
    params = MetricParams(p=p, c=7.0, delta=2.5, alpha=0.0)
    rng = random.Random(19)
    cases = Counter()
    for _ in range(150):
        src = random_float_set(rng, 2, scans=6, max_tracks=5)
        tgt = random_float_set(rng, 2, scans=6, max_tracks=4)
        if not len(tgt):
            continue
        lam = ([rng.randint(1, len(tgt))] * len(src) if rng.random() < 0.2 else
               [rng.randint(0, len(tgt)) for _ in range(len(src))])
        orders = [[j for j, i in enumerate(lam, start=1) if i == k]
                  for k in range(1, len(tgt) + 1)]
        for order in orders:
            rng.shuffle(order)
        orders = tuple(map(tuple, orders))
        dist = scan_distances(tgt, src, params)
        loc, card = directional_terms(dist, orders, params)
        want_loc, want_card = legacy_directional_terms(src, tgt, orders, params, dist)
        assert np.array_equal(loc, want_loc) and np.array_equal(card, want_card)
        cases["empty preimage"] += () in orders
        cases["sources absent"] += any(
            order and not src.exists[[j - 1 for j in order]].any(axis=0).all()
            for order in orders)
        cases["all on one"] += len(src) > 1 and len(set(lam)) == 1 and lam[0] > 0
    assert min(cases.values()) >= 10, cases


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_directional_terms_match_the_row_by_row_loop(p):
    # the orders the exact and greedy searches choose, scored by one numpy
    # sum down the rows, give the Python loop's arrays to the last bit; a
    # cutoff inside the spread of the states caps some distances
    params = MetricParams(p=p, c=6.0, delta=2.5, alpha=0.0)
    rng = random.Random(23)
    seen = Counter()
    for k in range(60):
        tgt = random_float_set(rng, 2, scans=6, max_tracks=3)
        src = random_float_set(rng, 2, scans=6, max_tracks=6)
        if k % 2 and len(tgt):  # each target broken in two near fragments
            fragments = []
            for i in range(len(tgt)):
                scans = np.flatnonzero(tgt.exists[i]) + 1
                cut = rng.randint(1, len(scans))
                fragments += [Track({t: tuple(x + rng.gauss(0, 0.1) for x in tgt.states[i, t - 1])
                                     for t in part})
                              for part in (scans[:cut], scans[cut:]) if len(part)]
            src = TrackSet(6, 2, tuple(fragments))
        dist = scan_distances(tgt, src, params)
        for mode in (Mode.EXACT, Mode.GREEDY):
            orders = quasi_ospamt(src, tgt, params, mode).assignment.orders
            loc, card = directional_terms(dist, orders, params)
            want_loc, want_card = loop_directional_terms(dist, orders, params)
            assert np.array_equal(loc, want_loc) and np.array_equal(card, want_card)
            seen[mode] += any(len(order) > 1 for order in orders)
        seen["capped"] += bool((dist.values > params.c).any())
    assert min(seen.values()) >= 5, seen


# ------------------------------------------------------------------- quasi


def test_quasi_identity():
    sc = fig(FigureId.FIG8)
    report = quasi_ospamt(sc.est, sc.est, MetricParams(), Mode.EXACT)
    assert report.total == 0.0
    assert report.assignment.source_to_target == (1, 2)


def test_quasi_empty_cases():
    params = MetricParams()
    empty = TrackSet(5, 1, ())
    one = TrackSet(5, 1, (Track({1: 0.0}),))
    assert quasi_ospamt(empty, empty, params).total == 0.0
    assert quasi_ospamt(one, empty, params).total == params.c
    assert quasi_ospamt(empty, one, params).total == params.c


def test_quasi_total_is_the_directional_cost_of_its_assignment():
    # random_scenario(seed=91, n_truth=1, scans=18, miss_rate=0.2,
    # false_rate=0.3, break_rate=0.5, noise=0.5): one truth, one estimate.
    # A value worked out as c**p * n plus an adjustment loses the low bits
    # of the per-scan sums to cancellation.
    truth = TrackSet(18, 2, (Track({
        3: (93.50152564616732, 35.705454887985695),
        4: (93.11052629768213, 35.541379508743034),
        5: (92.71952694919692, 35.37730412950038),
        6: (92.32852760071172, 35.21322875025772),
        7: (91.93752825222651, 35.049153371015066),
        8: (91.54652890374132, 34.885077991772405),
    }, "t1"),))
    est = TrackSet(18, 2, (Track({
        3: (92.98678504736795, 35.90881373544137),
        4: (93.47484160327402, 36.42714686140324),
        5: (92.89769491557566, 36.244579306877824),
        6: (93.12033136633057, 35.72076524445144),
        7: (91.61915951531363, 34.34371240456409),
        8: (90.88551672711938, 35.459644982517155),
    }, "e1.1"),))
    params = MetricParams(p=3.0, c=40.0, delta=5.0, p_prime=1.5)
    for src, tgt in ((est, truth), (truth, est)):
        report = quasi_ospamt(src, tgt, params, Mode.EXACT)
        asg = report.assignment
        assert asg.source_to_target == (1,)
        cost = directional_cost(src, tgt, asg.source_to_target, asg.orders, params)
        assert report.total == cost


def test_quasi_too_large_in_exact_mode():
    tracks = tuple(Track({1: float(i)}) for i in range(6))
    big = TrackSet(1, 1, tracks)
    with pytest.raises(TooLargeError):
        quasi_ospamt(big, big, MetricParams(), Mode.EXACT)
    # auto mode falls back to greedy instead
    value = quasi_ospamt(big, big, MetricParams(), Mode.AUTO).total
    assert value == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------------ metric


def test_fig5_metric_and_assignment():
    sc = fig(FigureId.FIG5)
    report = ospamt_metric(sc.truth, sc.est, MetricParams(), Mode.EXACT)
    assert report.total == pytest.approx(golden("06_fig5_fig6_and_split", "fig5"), rel=1e-9)
    assert report.assignment.direction is Direction.TRUTH_TO_EST
    assert report.assignment.orders == ((1, 2),)  # both truths onto the estimate


def test_fig9a_per_time_is_cutoff_at_t1():
    params = MetricParams()
    sc = fig(FigureId.FIG9A)
    report = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT)
    want = golden("03_table1_fig9", "fig9a ospamt")
    assert report.per_time[0] == pytest.approx(want, rel=1e-9)
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


def test_triangle_inequality_can_fail_when_normalisers_differ():
    # Documents a property of the metric as defined, not a search bug: the
    # brute-force oracle gives the same three values.  d(a, b) and d(a, c)
    # average over n = 4 slots, d(c, b) over n = 3.
    a = TrackSet(3, 1, (Track({2: 6.0, 3: 6.0}), Track({1: 3.0, 2: 9.0})))
    b = TrackSet(3, 1, (Track({1: 5.0, 3: 3.0}), Track({2: 6.0})))
    c = TrackSet(3, 1, (Track({1: 4.0, 2: 2.0, 3: 2.0}),))
    params = MetricParams()
    got = {}
    for name, x, y in (("ab", a, b), ("ac", a, c), ("cb", c, b)):
        report = ospamt_metric(x, y, params, Mode.EXACT)
        got[name] = report.total
        assert (report.total, report.n) == (oracle_ospamt(x, y, params), 3 if name == "cb" else 4)
        assert ospamt_metric(y, x, params, Mode.EXACT).total == report.total
    assert got["ab"] == 40.5 and got["ac"] == 27.25
    assert got["cb"] == pytest.approx(16 / 3, rel=1e-15)
    assert got["ab"] > got["ac"] + got["cb"]


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.GREEDY], ids=["exact", "greedy"])
@pytest.mark.parametrize(
    "params",
    [MetricParams(), MetricParams(p=2.0, c=6.0, delta=2.0, alpha=0.0), MetricParams(p=3.0, p_prime=1.5)],
    ids=["p1", "p2", "p3-pprime1.5"],
)
def test_report_consistency_identities(mode, params):
    rng = random.Random(11)
    p = params.p
    for _ in range(40):
        a = random_small_set(rng)
        b = random_small_set(rng)
        reports = library_reports(a, b, params, mode)
        for report in reports.values():
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
        asg = reports["ospamt"].assignment
        for j, i in enumerate(asg.source_to_target, start=1):
            if i != 0:
                assert asg.orders[i - 1].count(j) == 1
        for i, order in enumerate(asg.orders, start=1):
            for j in order:
                assert asg.source_to_target[j - 1] == i


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 7.0])
@pytest.mark.parametrize("c", [0.3, 3.0, 6.0, 7.0, 10.0, 20.0, 80.0])
def test_every_slot_at_the_cutoff_reads_exactly_the_cutoff(p, c):
    # one truth at scan 1, one estimate at scan 2: every distance slot pays c,
    # so every value is exactly c, though (c**p * k / k) ** (1/p) can round above it
    penalty = min(1.0, c / 2)
    params = MetricParams(p=p, c=c, delta=penalty, alpha=penalty)
    truth = TrackSet(2, 1, (Track({1: 0.0}, "t1"),))
    est = TrackSet(2, 1, (Track({2: 0.0}, "e1"),))
    for name, report in library_reports(truth, est, params).items():
        assert (report.total, report.loc, report.card) == (c, 0.0, c), name
        assert report.per_time == report.card_t == (c, c), name
        assert report.loc_t == (0.0, 0.0), name


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
        got = quasi_ospamt(b, a, params, Mode.EXACT).total
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


def test_order_tie_goes_to_the_lexicographically_smaller_order():
    # Two fragments of one truth cover scans 10-11 and 12-13.  Either order
    # pays delta**p at the second fragment's two scans, so the orders tie
    # exactly, though float sums of the two can differ in the last bit.
    truth = TrackSet(20, 2, (Track({
        9: (82.98322873253227, -24.46726344763404),
        10: (81.23398953996663, -23.790431193891084),
        11: (79.48475034740098, -23.11359894014813),
        12: (77.73551115483534, -22.43676668640518),
        13: (75.98627196226968, -21.759934432662224),
    }, "t1"),))
    est = TrackSet(20, 2, (
        Track({10: (82.13656230124894, -22.800925021604666),
               11: (79.5411224470346, -23.182582858676618)}, "e1.1"),
        Track({12: (77.02338794344341, -21.82047372968982),
               13: (76.06177878484519, -21.888387544463107)}, "e1.2"),
    ))
    params = MetricParams(p=2.0)
    n_t, _ = oracle_counts(est, truth)
    est_tracks, truth_tracks = tracks_of(est), tracks_of(truth)

    def exact(orders):
        return sum(
            oracle_tilde_d_t(est_tracks, truth_tracks, orders, params, t, n_t[t - 1], num=Fraction)
            for t in range(1, 21)
        )

    assert exact(((1, 2),)) == exact(((2, 1),))
    asg = quasi_ospamt(est, truth, params, Mode.EXACT).assignment
    assert asg.source_to_target == (1, 1)
    assert asg.orders == ((1, 2),)
    assert directional_distance(est, truth, (1, 1), params)[1] == ((1, 2),)
    assert ospamt_metric(truth, est, params, Mode.EXACT).assignment.orders == ((1, 2),)


def _line_set(scans, windows):
    """1-D set of tracks ``(start, values)`` on consecutive scans."""
    return TrackSet(scans, 1, tuple(
        Track({start + k: (float(x),) for k, x in enumerate(xs)}) for start, xs in windows
    ))


@st.composite
def _small_pairs(draw):
    """Two nonempty 1-D sets, at most 6 tracks in all, over at most 5 scans.

    Tracks are windows of integer states, so equal-length fragments and equal
    distances come up often; with p' = 1 every float term of the objective
    is exact and a tie in exact arithmetic is a tie in floats too.
    """
    scans = draw(st.integers(1, 5))
    n_src = draw(st.integers(1, 5))
    n_tgt = draw(st.integers(1, 6 - n_src))

    def windows(n):
        out = []
        for _ in range(n):
            start = draw(st.integers(1, scans))
            length = draw(st.integers(1, scans - start + 1))
            states = st.lists(st.integers(0, 12), min_size=length, max_size=length)
            out.append((start, draw(states)))
        return out

    return _line_set(scans, windows(n_src)), _line_set(scans, windows(n_tgt))


# equal-length fragments of one truth, which tie in either order
_FRAGMENTS = (_line_set(4, [(1, [1, 1]), (3, [1, 1])]), _line_set(4, [(1, [0, 0, 0, 0])]))
# tracks 12 apart, beyond either cutoff
_FAR = (_line_set(3, [(1, [0, 0, 0]), (2, [12, 12])]), _line_set(3, [(1, [12, 12]), (1, [0])]))


@given(
    pair=_small_pairs(),
    p=st.sampled_from([1.0, 2.0, 3.0]),
    c=st.sampled_from([3.0, 6.0]),
    delta_share=st.sampled_from([0.25, 0.5, 1.0]),
)
@example(pair=_FRAGMENTS, p=1.0, c=6.0, delta_share=0.5)
@example(pair=_FRAGMENTS, p=2.0, c=3.0, delta_share=1.0)
@example(pair=_FAR, p=3.0, c=6.0, delta_share=1.0)
@settings(max_examples=150, deadline=None)
def test_exact_search_matches_tie_aware_oracle(pair, p, c, delta_share):
    src, tgt = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta == c warns
        params = MetricParams(p=p, c=c, delta=c * delta_share, alpha=0.0, p_prime=1.0)
    want_value, want_lam, want_orders = oracle_exact_quasi(src, tgt, params)
    report = quasi_ospamt(src, tgt, params, Mode.EXACT)
    assert report.total == pytest.approx(want_value, rel=1e-12, abs=1e-12)
    assert report.assignment.source_to_target == want_lam
    assert report.assignment.orders == want_orders


def test_directional_distance_orders_only_the_preimage():
    # one target coexists with 32 sources but only two are assigned to it;
    # the order search must not price every subset of the 32
    truth = _line_set(4, [(1, [0, 0, 0, 0])])
    est = _line_set(4, [(1 + j % 4, [j % 5]) for j in range(32)])
    lam = (1, 1) + (0,) * 30
    t0 = time.perf_counter()
    _, orders = directional_distance(est, truth, lam, MetricParams())
    assert time.perf_counter() - t0 < 1.0
    assert orders == ((1, 2),)


def test_quasi_is_a_quasimetric_not_a_metric():
    # fig5: the two directional values differ; the metric takes the smaller
    params = MetricParams()
    sc = fig(FigureId.FIG5)
    from_est = quasi_ospamt(sc.est, sc.truth, params, Mode.EXACT).total
    from_truth = quasi_ospamt(sc.truth, sc.est, params, Mode.EXACT).total
    want_est = golden("06_fig5_fig6_and_split", "fig5 est-to-truth")
    assert from_est == pytest.approx(want_est, rel=1e-9)
    assert from_truth == pytest.approx(golden("06_fig5_fig6_and_split", "fig5"), rel=1e-9)
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


def test_greedy_metric_prices_one_cost_matrix(monkeypatch):
    # the truth-to-estimate direction reads the transpose of the one matrix,
    # and reports exactly what a direct call reports
    from trackmetric import ospamt

    priced, reports = [], []
    cost_matrix_of, quasi_of = ospamt.cost_matrix, ospamt._quasi

    def counting(*args, **kwargs):
        priced.append(args)
        return cost_matrix_of(*args, **kwargs)

    def recording(*args, **kwargs):
        reports.append(quasi_of(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(ospamt, "cost_matrix", counting)
    monkeypatch.setattr(ospamt, "_quasi", recording)
    rng = random.Random(29)
    for params in PARAM_SETS:
        for _ in range(25):
            a = random_small_set(rng, max_tracks=6, min_tracks=1)
            b = random_small_set(rng, max_tracks=6, min_tracks=1)
            priced.clear()
            reports.clear()
            ospamt_metric(a, b, params, Mode.GREEDY)
            assert len(priced) == 1
            est, tru = reports
            assert est == quasi_ospamt(b, a, params, Mode.GREEDY)
            # a direct call puts its source in the estimate's role
            direct = quasi_ospamt(a, b, params, Mode.GREEDY)
            assert tru == replace(direct, assignment=replace(
                direct.assignment, direction=Direction.TRUTH_TO_EST))


def test_greedy_never_assigns_tracks_that_share_no_scan():
    # the sweep numbers only finite entries of the cost matrix, which marks
    # every pair that never coexists INFEASIBLE, so no check is needed after it
    rng = random.Random(53)
    apart = 0
    for params in PARAM_SETS:
        for _ in range(60):
            src = random_small_set(rng, max_tracks=6, scans=5)
            tgt = random_small_set(rng, max_tracks=6, scans=5)
            apart += int((src.exists.astype(int) @ tgt.exists.T.astype(int) == 0).sum())
            for report in (quasi_ospamt(src, tgt, params, Mode.GREEDY),
                           ospamt_metric(tgt, src, params, Mode.GREEDY)):
                asg = report.assignment
                s, t = (src, tgt) if asg.direction is Direction.EST_TO_TRUTH else (tgt, src)
                for j, i in enumerate(asg.source_to_target):
                    assert not i or (s.exists[j] & t.exists[i - 1]).any()
    assert apart > 0


def test_metric_resolves_the_mode_and_counts_the_slots_once(monkeypatch):
    # the slots are counted where the one distance layer is built, and a
    # metric given a layer builds none
    from trackmetric import core

    calls = Counter()

    def counting(*args, _fn=ospamt.resolve_mode):
        calls["resolve_mode"] += 1
        return _fn(*args)

    def building(self, *args, _fn=core.ScanDistances.__init__):
        calls["layer"] += 1
        _fn(self, *args)

    monkeypatch.setattr(ospamt, "resolve_mode", counting)
    monkeypatch.setattr(core.ScanDistances, "__init__", building)
    sc = fig(FigureId.FIG5)
    params = MetricParams()
    for mode in (Mode.EXACT, Mode.GREEDY, Mode.AUTO):
        calls.clear()
        ospamt_metric(sc.truth, sc.est, params, mode)
        assert calls == {"resolve_mode": 1, "layer": 1}
        dist = scan_distances(sc.truth, sc.est, params)
        calls.clear()
        ospamt_metric(sc.truth, sc.est, params, mode, dist)
        assert calls == {"resolve_mode": 1}


def test_t1_reduction_to_ospa_spot():
    rng = random.Random(23)
    params = MetricParams()
    for _ in range(30):
        a = random_small_set(rng, scans=1)
        b = random_small_set(rng, scans=1)
        report = ospamt_metric(a, b, params, Mode.EXACT)
        want = ospa(states_at(a, 1), states_at(b, 1), params).total
        assert report.total == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_direction_tie_reports_est_to_truth():
    # fig11a ties between the two directions; est-to-truth must be reported
    sc = fig(FigureId.FIG11A)
    report = ospamt_metric(sc.truth, sc.est, MetricParams(), Mode.EXACT)
    assert report.assignment.direction is Direction.EST_TO_TRUTH


# random_scenario(seed=N, n_truth=4, scans=3, miss_rate=0.2, false_rate=0.3,
# break_rate=0.5, noise=0.5) for two seeds N: (truth, estimate, parameters)
# where the two directions tie in exact arithmetic.  At seed 261 (p = 2,
# c = delta = 20) the parent's rounding chose truth-to-estimate; at seed 173
# (defaults) the estimate-to-truth total rounds one bit above the other.
_DIRECTION_TIES = {
    "seed261": (
        TrackSet(3, 2, (
            Track({2: (-64.90065164833024, -92.52002753901596)}, "t1"),
            Track({1: (-47.484877113662584, -6.586805847119621),
                   2: (-48.53006541397705, -7.8414742425487045),
                   3: (-49.57525371429151, -9.096142637977788)}, "t2"),
            Track({2: (-75.4447803192737, -84.34629994301291),
                   3: (-76.53082031193141, -83.58740257809603)}, "t3"),
            Track({2: (96.82377152360638, 41.53698458589781)}, "t4"),
        )),
        TrackSet(3, 2, (
            Track({1: (-47.411653367968, -7.1305535493869),
                   2: (-48.75649639851819, -9.201528126542868),
                   3: (-50.58951022196514, -8.495931631582353)}, "e2.1"),
            Track({2: (-75.89416076052487, -84.73781140908184)}, "e3.1"),
            Track({3: (-76.06254046871516, -83.78065012485018)}, "e3.2"),
            Track({2: (97.85061096218332, 41.5157921044344)}, "e4.1"),
            Track({2: (-65.95277365095944, -91.55024796271928)}, "f1"),
            Track({1: (46.550931465880694, -61.76241089951613),
                   2: (46.550931465880694, -61.76241089951613)}, "f2"),
        )),
        dict(p=2.0, c=20.0, delta=20.0),
    ),
    "seed173": (
        TrackSet(3, 2, (
            Track({2: (33.71814462407835, 55.57137549696995),
                   3: (34.59468095985453, 55.60517140788586)}, "t1"),
            Track({2: (-18.713465746266706, 42.39746183162677)}, "t2"),
            Track({2: (-9.201650570842816, 25.616554442847388)}, "t3"),
            Track({1: (93.79822633494317, -37.13484497987882),
                   2: (92.19107580340125, -37.58890615444277)}, "t4"),
        )),
        TrackSet(3, 2, (
            Track({2: (33.6352061799366, 56.049981422235504)}, "e1.1"),
            Track({2: (-18.909814451696707, 42.45244159399926)}, "e2.1"),
            Track({1: (94.03802059864948, -36.15646335202707),
                   2: (91.09422231944974, -37.76195843843049)}, "e4.1"),
            Track({2: (-5.796956409931781, -79.55547783191392)}, "f1"),
            Track({2: (27.075074351611633, -13.152641107859992)}, "f2"),
        )),
        dict(),
    ),
}


@pytest.mark.parametrize("case", sorted(_DIRECTION_TIES))
def test_exact_direction_tie_reports_est_to_truth(case):
    truth, est, kwargs = _DIRECTION_TIES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta == c warns
        params = MetricParams(**kwargs)
    n_t, _ = oracle_counts(est, truth)

    def exact(src, tgt):
        orders = quasi_ospamt(src, tgt, params, Mode.EXACT).assignment.orders
        return sum(
            oracle_tilde_d_t(tracks_of(src), tracks_of(tgt), orders, params, t, n_t[t - 1],
                             num=Fraction)
            for t in range(1, 4)
        )

    assert exact(est, truth) == exact(truth, est)
    report = ospamt_metric(truth, est, params, Mode.EXACT)
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


@given(
    seed=st.integers(0, 4_000),
    params=st.sampled_from(
        (MetricParams(), MetricParams(p=2.0, c=3.0, delta=1.0, alpha=1.0, scale=(0.5,)))
        + PARAM_SETS
    ),
)
@settings(max_examples=120, deadline=None)
def test_axioms_random(seed, params):
    rng = random.Random(seed)
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
    assert len(new_est) == 2
    assert sorted(tracks_of(new_est)[0].points) == [1, 2, 3]
    assert sorted(tracks_of(new_est)[1].points) == [4, 5]
    assert len(log) == 1 and log[0].fragment_count == 2
    assert log[0].cut_scans == (4,)
    after = ospamt_metric(sc.truth, new_est, params, Mode.EXACT)
    want = golden("06_fig5_fig6_and_split", "fig5 after split")
    assert after.total == pytest.approx(want, rel=1e-9)
    fig8 = fig(FigureId.FIG8)
    assert same_track_sets(new_est, fig8.est)


def test_split_noop_when_one_to_one():
    params = MetricParams()
    sc = fig(FigureId.FIG8)
    new_est, log = split_tracks(sc.truth, sc.est, params, Mode.EXACT)
    assert log == []
    assert same_track_sets(new_est, sc.est)


def test_split_with_an_empty_set_returns_the_estimate():
    params = MetricParams()
    sc = fig(FigureId.FIG5)
    empty = TrackSet(sc.truth.scans, 1, ())
    for truth, est in ((empty, sc.est), (sc.truth, empty), (empty, empty)):
        new_est, log = split_tracks(truth, est, params, Mode.EXACT)
        assert new_est is est and log == []


def test_split_interleaved_lifetimes():
    # truth A exists at scans 1 and 3, truth B at scan 2; one estimate covers
    # all three scans and must fragment into {1,3} and {2}.
    params = MetricParams(delta=1.0)
    truth = TrackSet(
        3,
        1,
        (
            Track({1: 0.0, 3: 0.0}, "A"),
            Track({2: 0.1}, "B"),
        ),
    )
    est = TrackSet(3, 1, (Track({1: 0.0, 2: 0.1, 3: 0.0}, "E"),))
    assignment = quasi_ospamt(truth, est, params, Mode.EXACT).assignment
    assert assignment.orders == ((1, 2),)  # both truths onto E: split needed
    new_est, log = split_tracks(truth, est, params, Mode.EXACT)
    assert len(new_est) == 2
    assert sorted(tracks_of(new_est)[0].points) == [1, 3]
    assert sorted(tracks_of(new_est)[1].points) == [2]
    after = quasi_ospamt(truth, new_est, params, Mode.EXACT).assignment
    assert all(len(order) <= 1 for order in after.orders)


@pytest.mark.parametrize(
    "scans, truth_points, fragments, cut_scans",
    [
        # scans 2 and 3 fall in t1's gap: its lifetime window owns them
        (6, [[1, 4], [5, 6]], [[1, 2, 3, 4], [5, 6]], (5,)),
        # scans 3 and 4 lie in both windows: the earlier-starting truth wins
        (6, [[1, 6], [2, 5]], [[1, 3, 4, 6], [2, 5]], (2,)),
        # scans 1 and 6 lie outside every window: stray, they join fragment 1
        (6, [[2, 3], [4, 5]], [[1, 2, 3, 6], [4, 5]], (4,)),
        # the truths are not in start-scan order in the set or the preimage
        (6, [[4, 5], [2, 3]], [[1, 2, 3, 6], [4, 5]], (4,)),
        # all three rules at once: scan 3 by window, scans 4 and 7 stray
        (7, [[5, 6], [1, 4], [2]], [[1, 3, 4, 7], [2], [5, 6]], (2, 5)),
    ],
    ids=["window", "overlapping-windows", "stray", "unordered", "all-rules"],
)
def test_split_owner_rules(scans, truth_points, fragments, cut_scans):
    params = MetricParams(delta=1.0)
    truth = TrackSet(scans, 1, tuple(
        Track(dict.fromkeys(pts, 0.0), f"t{k}") for k, pts in enumerate(truth_points, 1)
    ))
    est = TrackSet(scans, 1, (Track(dict.fromkeys(range(1, scans + 1), 0.5), "E"),))
    order = quasi_ospamt(truth, est, params, Mode.EXACT).assignment.orders[0]
    assert len(order) == len(truth_points)  # every truth onto E
    new_est, log = split_tracks(truth, est, params, Mode.EXACT)
    assert [(trk.label, list(trk.points)) for trk in tracks_of(new_est)] == [
        (f"E/{k}", scans_k) for k, scans_k in enumerate(fragments, 1)
    ]
    assert all(x == (0.5,) for trk in tracks_of(new_est) for x in trk.points.values())
    assert log == [SplitLogEntry(1, "E", cut_scans, len(fragments))]


def test_split_cuts_a_nested_truth_the_preimage_puts_first():
    # B exists only at scan 2, inside A's lifetime, and the optimum sends
    # both onto E in the order (B, A): scan 2 goes to B, the first truth of
    # the preimage existing there, and fragments still come in start order
    params = MetricParams()
    truth = TrackSet(3, 1, (Track(dict.fromkeys((1, 2, 3), (50.0,)), "A"),
                            Track({2: (0.0,)}, "B")))
    est = TrackSet(3, 1, (Track(dict.fromkeys((1, 2, 3), (0.0,)), "E"),))
    report = quasi_ospamt(truth, est, params, Mode.EXACT)
    assert report.assignment.orders == ((2, 1),)
    assert report.total == pytest.approx(52.5, rel=1e-12)
    new_est, log = split_tracks(truth, est, params, Mode.EXACT)
    assert [(trk.label, list(trk.points)) for trk in tracks_of(new_est)] == [
        ("E/1", [1, 3]), ("E/2", [2]),
    ]
    assert log == [SplitLogEntry(1, "E", (2,), 2)]
    after = quasi_ospamt(truth, new_est, params, Mode.EXACT).assignment
    assert all(len(order) <= 1 for order in after.orders)


def test_split_keeps_the_label_of_an_uncut_multi_preimage_track(monkeypatch):
    # round 1 cuts e1 and sends t2 and t3 both onto e2, which exists only at
    # scan 1, where both truths do: e2 yields one fragment, so it has no log
    # entry and keeps its label; round 2 cuts e1/1, so one round is not
    # enough
    params = MetricParams(c=5.0, delta=1.0, alpha=1.0)
    truth = TrackSet(3, 1, (Track({1: 0.0}, "t1"), Track({1: 6.0, 2: 3.0}, "t2"),
                            Track({1: 4.0}, "t3"), Track({3: 0.0}, "t4")))
    est = TrackSet(3, 1, (Track({1: 0.0, 2: 3.0, 3: 0.0}, "e1"), Track({1: 5.0}, "e2"),
                          Track({2: 6.0}, "e3")))
    assert quasi_ospamt(truth, est, params, Mode.GREEDY).assignment.orders[1] == (3, 2)
    new_est, log = split_tracks(truth, est, params, Mode.GREEDY)
    assert [(trk.label, trk.points) for trk in tracks_of(new_est)] == [
        ("e1/1/1", {1: (0.0,)}), ("e1/1/2", {2: (3.0,)}), ("e1/2", {3: (0.0,)}),
        ("e2", {1: (5.0,)}), ("e3", {2: (6.0,)}),
    ]
    assert log == [SplitLogEntry(1, "e1", (3,), 2), SplitLogEntry(1, "e1/1", (2,), 2)]
    monkeypatch.setattr(ospamt, "SPLIT_ROUNDS", 1)
    with pytest.raises(NoConvergenceError, match="in 1 rounds"):
        split_tracks(truth, est, params, Mode.GREEDY)


def test_split_keeps_the_labels_of_unlabelled_tracks():
    # the uncut unlabelled estimate is T2 before the round and would be T3
    # after it, beside the track labelled T3: it keeps T2
    params = MetricParams()
    truth = TrackSet(5, 1, (Track({1: 0.0, 2: 0.0, 3: 0.0}, "t1"), Track({4: 0.0, 5: 0.0}, "t2"),
                            Track({1: 5.0}, "t3")))
    est = TrackSet(5, 1, (Track(dict.fromkeys(range(1, 6), 0.0)), Track({1: 5.0}),
                          Track({1: 9.0}, "T3")))
    new_est, log = split_tracks(truth, est, params, Mode.EXACT)
    assert [(trk.label, list(trk.points)) for trk in tracks_of(new_est)] == [
        ("T1/1", [1, 2, 3]), ("T1/2", [4, 5]), ("T2", [1]), ("T3", [1]),
    ]
    assert log == [SplitLogEntry(1, "T1", (4,), 2)]


def test_split_no_convergence_on_identical_lifetimes():
    # Greedy mode can pile two same-lifetime truths onto one estimate; the
    # fragmenting rule then cannot separate them.
    params = MetricParams()
    truth = TrackSet(
        2,
        1,
        (Track({1: 1.0, 2: 1.0}, "A"), Track({1: 2.0, 2: 2.0}, "B")),
    )
    est = TrackSet(
        2,
        1,
        (Track({1: 0.0, 2: 0.0}, "E1"), Track({1: 50.0, 2: 50.0}, "E2")),
    )
    with pytest.raises(NoConvergenceError):
        split_tracks(truth, est, params, Mode.GREEDY)
