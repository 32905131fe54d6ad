import random

import pytest

from conftest import golden
from trackmetric.core import MetricParams, Track, TrackSet
from trackmetric.errors import BadParametersError
from trackmetric.ospat import (
    LabeledTrackSet,
    OspatAssignment,
    ospat_at_time,
    ospat_label,
    ospat_per_scan,
    ospat_reorder,
)
from trackmetric.scenarios import FigureId, ScenarioSpec, build, random_scenario


def fig(fig_id, **kw):
    return build(ScenarioSpec(fig_id, **kw))


def pairs_of(a, b, params=None):
    return ospat_reorder(a, b, params or MetricParams()).pairs


# ----------------------------------------------------------------- reorder


def test_reorder_fig12_prefers_far_tracks():
    # The summed per-scan costs ignore unpaired tracks, which drives the
    # pairing to the drawn outcome [tau2<->e1, tau3<->e2] even though e1/e2
    # obviously estimate tau1.
    sc = fig(FigureId.FIG12)
    assert pairs_of(sc.truth, sc.est) == ((2, 1), (3, 2))


def test_reorder_fig9a_is_identity_globally():
    # Summed over all scans the identity pairing wins (2c+4e < 2e+4c); the
    # swapped pairing seen at t=1 is the per-scan minimization, tested below.
    sc = fig(FigureId.FIG9A)
    assert pairs_of(sc.truth, sc.est) == ((1, 1), (2, 2))


def test_reorder_fig10a_pairs_despite_disjoint_lifetimes():
    sc = fig(FigureId.FIG10A)
    assert pairs_of(sc.truth, sc.est) == ((1, 1),)


def test_reorder_empty():
    empty = TrackSet(3, 1, ())
    one = TrackSet(3, 1, (Track({1: 0.0}),))
    assert pairs_of(empty, one) == ()
    assert pairs_of(one, empty) == ()


# ------------------------------------------------------------------- label


def test_label_identical_singletons():
    one = TrackSet(3, 1, (Track({1: 0.0}),))
    asg = ospat_reorder(one, one, MetricParams())
    la, lb = ospat_label(one, one, asg)
    assert la.labels == (1,) and lb.labels == (1,)


def test_label_leftover_numbering():
    truth = TrackSet(
        2,
        1,
        (
            Track({1: 0.0, 2: 0.0}),
            Track({1: 10.0, 2: 10.0}),
            Track({1: 20.0, 2: 20.0}),
        ),
    )
    est = TrackSet(2, 1, (Track({1: 0.1, 2: 0.1}), Track({1: 10.1, 2: 10.1})))
    asg = ospat_reorder(truth, est, MetricParams())
    la, lb = ospat_label(truth, est, asg)
    assert lb.labels == (1, 2)
    assert la.labels == (1, 2, 3)  # the unpaired far truth takes the next label


def test_label_fig13_depends_on_reference_set():
    sc = fig(FigureId.FIG13)
    params = MetricParams()
    # against the estimate, the alternative's second track is labeled 1 ...
    _, lab_alt_vs_est = ospat_label(
        sc.est, sc.alt, ospat_reorder(sc.est, sc.alt, params)
    )
    assert lab_alt_vs_est.labels[1] == 1
    # ... but against the truth it is labeled 2
    _, lab_alt_vs_truth = ospat_label(
        sc.truth, sc.alt, ospat_reorder(sc.truth, sc.alt, params)
    )
    assert lab_alt_vs_truth.labels[1] == 2


# ----------------------------------------------------------------- at time


def test_fig9a_t1_value_and_pairs():
    for p in (1.0, 2.0):
        sc = fig(FigureId.FIG9A)
        report, _ = ospat_per_scan(sc.truth, sc.est, MetricParams(p=p))
        want = golden("03_table1_fig9", "fig9a ospat", p)
        assert report.per_time[0] == pytest.approx(want, rel=1e-9)
        assert report.assignment[0] == ((1, 2), (2, 1))


def test_fig12a_fig12b_t4_value():
    for figure in (FigureId.FIG12A, FigureId.FIG12B):
        for p in (1.0, 2.0):
            params = MetricParams(p=p)
            e, a, c = 1.0, params.alpha, params.c
            sc = fig(figure, epsilon=e)
            report, _ = ospat_per_scan(sc.truth, sc.est, params)
            want = ((e**p + a**p + c**p) / 2) ** (1 / p)
            assert report.per_time[3] == pytest.approx(want, rel=1e-9)


def test_alpha_zero_identity_violation():
    # same position, different labels, alpha = 0: distance collapses to zero
    params = MetricParams(alpha=0.0)
    ts = TrackSet(1, 1, (Track({1: 3.0}),))
    la = LabeledTrackSet(ts, (1,))
    lb = LabeledTrackSet(ts, (2,))
    assert ospat_at_time(la, lb, 1, params).total == 0.0
    assert la.labels != lb.labels


def test_labeled_set_needs_one_label_per_track():
    # three labels for two tracks used to pass unnoticed, and one label for
    # two failed only when scored, with a bare IndexError
    two = TrackSet(2, 1, (Track({1: 0.0}), Track({2: 1.0})))
    for labels in ((1, 2, 3), (1,), ()):
        with pytest.raises(BadParametersError, match="labels for 2 tracks"):
            LabeledTrackSet(two, labels)
    assert LabeledTrackSet(two, (2, 1)).labels == (2, 1)


def labeled_base_distance(x, y, params):
    """Labeled distance of two (label, state) pairs: the one-scan OSPAT score
    of two singleton sets carrying those labels."""
    (label_x, state_x), (label_y, state_y) = x, y
    ta = TrackSet(1, 1, (Track({1: state_x}),))
    tb = TrackSet(1, 1, (Track({1: state_y}),))
    la, lb = LabeledTrackSet(ta, (label_x,)), LabeledTrackSet(tb, (label_y,))
    return ospat_at_time(la, lb, 1, params).total


def test_labeled_base_distance_is_metric_with_fixed_labels():
    rng = random.Random(1)
    params = MetricParams(p=2.0)
    for _ in range(300):
        xs = [
            (rng.randint(1, 3), (float(rng.randint(0, 9)),))
            for _ in range(3)
        ]
        a, b, c = xs
        dab = labeled_base_distance(a, b, params)
        assert dab == labeled_base_distance(b, a, params)
        assert (dab == 0.0) == (a == b)
        assert dab <= (
            labeled_base_distance(a, c, params) + labeled_base_distance(c, b, params)
        ) + 1e-9


def test_at_time_equals_ospa_when_no_mislabeling():
    from trackmetric.ospa import ospa_per_scan

    params = MetricParams()
    sc = fig(FigureId.FIG9B)  # no crossover, labels agree with geometry
    report, _ = ospat_per_scan(sc.truth, sc.est, params)
    for got, want in zip(report.per_time, ospa_per_scan(sc.truth, sc.est, params).per_time):
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "params",
    [
        MetricParams(),
        MetricParams(p=2.0, c=30.0, alpha=5.0),
        MetricParams(p=2.0, c=30.0, p_prime=1.0, scale=(0.5, 2.0)),
        MetricParams(p=1.0, c=50.0, p_prime=1.5, alpha=0.0, scale=(3.0, 0.25)),
    ],
)
def test_at_time_matches_per_scan_rows(params):
    for seed in range(8):
        a, b = random_scenario(seed, n_truth=4, scans=9, miss_rate=0.3, false_rate=0.5,
                               break_rate=0.4, noise=6.0)
        report, pairing = ospat_per_scan(a, b, params)
        la, lb = ospat_label(a, b, pairing)
        for t in range(1, a.scans + 1):
            one = ospat_at_time(la, lb, t, params)
            scan = [(r.per_time[k], r.loc_t[k], r.card_t[k], r.n_t[k], r.assignment[k])
                    for r, k in ((one, 0), (report, t - 1))]
            assert scan[0] == scan[1]
            assert (one.total, one.loc, one.card, one.n) == scan[0][:4]


def test_at_time_empty_scan():
    params = MetricParams()
    ts = TrackSet(2, 1, (Track({1: 0.0}),))
    la, lb = ospat_label(ts, ts, ospat_reorder(ts, ts, params))
    report = ospat_at_time(la, lb, 2, params)
    assert report.total == 0.0 and report.n_t == (0,)


@pytest.mark.parametrize("t", [0, 4, -1])
def test_at_time_rejects_scans_outside_the_window(t):
    # a 3-scan pair: 0 and 4 raised a bare IndexError, -1 scored scan 2
    params = MetricParams()
    a = TrackSet(3, 1, (Track({1: 0.0, 2: 1.0, 3: 2.0}),))
    b = TrackSet(3, 1, (Track({2: 1.5, 3: 2.5}),))
    la, lb = ospat_label(a, b, ospat_reorder(a, b, params))
    with pytest.raises(BadParametersError, match="outside 1..3"):
        ospat_at_time(la, lb, t, params)


# ------------------------------------------------------------------ global


def test_global_identical_sets_zero():
    sc = fig(FigureId.FIG9B)
    res = ospat_reorder(sc.truth, sc.truth, MetricParams())
    assert res.costs_t == (0.0,) * sc.truth.scans
    assert sum(res.costs_t) == 0.0


def test_global_fig10a_all_scans_mismatch():
    params = MetricParams()
    sc = fig(FigureId.FIG10A)
    res = ospat_reorder(sc.truth, sc.est, params)
    assert sum(res.costs_t) == pytest.approx(4 * params.c, rel=1e-9)
    assert res.costs_t == (params.c,) * 4


def test_global_one_empty_set_charges_existing_scans():
    params = MetricParams()
    empty = TrackSet(4, 1, ())
    two = TrackSet(4, 1, (Track({1: 0.0, 2: 0.0}), Track({2: 5.0}),))
    for a, b in ((empty, two), (two, empty)):
        res = ospat_reorder(a, b, params)
        assert res.pairs == ()
        assert res.costs_t == (params.c, 2 * params.c, 0.0, 0.0)
        assert sum(res.costs_t) == pytest.approx(3 * params.c, rel=1e-9)
    assert ospat_reorder(empty, empty, params).costs_t == (0.0,) * 4


def test_pairing_costs_play_no_role_in_equality():
    sc = fig(FigureId.FIG10A)
    res = ospat_reorder(sc.truth, sc.est, MetricParams())
    assert res == OspatAssignment(res.pairs, res.smaller, ())
    assert res != OspatAssignment(res.pairs, "a" if res.smaller == "b" else "b", res.costs_t)


# -------------------------------------------------------------- pathology


def test_fig13_triangle_violation_at_t4():
    sc = fig(FigureId.FIG13)
    for alpha in (1.0, 10.0, 72.0):
        params = MetricParams(alpha=alpha)

        def at4(x, y):
            la, lb = ospat_label(x, y, ospat_reorder(x, y, params))
            return ospat_at_time(la, lb, 4, params).total

        d_truth_alt = at4(sc.truth, sc.alt)
        d_truth_est = at4(sc.truth, sc.est)
        d_est_alt = at4(sc.est, sc.alt)
        e = 1.0
        assert d_truth_est == pytest.approx(e, rel=1e-9)
        assert d_est_alt == pytest.approx(e, rel=1e-9)
        assert d_truth_alt == pytest.approx(
            min((2 * e) ** params.p + alpha**params.p, params.c), rel=1e-9
        )
        assert d_truth_alt > d_truth_est + d_est_alt
