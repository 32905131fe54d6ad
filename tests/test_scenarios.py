import pytest

from conftest import same_track_sets, tracks_of
from trackmetric.core import MetricParams, scan_distances
from trackmetric.errors import BadParametersError
from trackmetric.ospamt import Mode, ospamt_metric
from trackmetric.scenarios import (
    FigureId,
    ScenarioSpec,
    build,
    random_scenario,
)


def test_every_figure_builds_and_validates():
    # a TrackSet is valid once built, so building every figure checks it
    for fig in FigureId:
        sc = build(ScenarioSpec(fig))
        assert sc.truth.scans == sc.est.scans


def test_fig1b_has_far_truth_over_last_scans():
    sc = build(ScenarioSpec(FigureId.FIG1B))
    tau3 = tracks_of(sc.truth)[1]
    assert sorted(tau3.points) == [4, 5]
    e2 = tracks_of(sc.est)[1]
    gap = abs(tau3.points[4][0] - e2.points[4][0])
    assert gap == pytest.approx(1000.0)  # beta


def test_fig13_geometry():
    sc = build(ScenarioSpec(FigureId.FIG13))
    assert sorted(tracks_of(sc.truth)[0].points) == [1, 2, 3, 4, 5]
    assert sorted(tracks_of(sc.est)[0].points) == [3, 4, 5]
    assert sc.alt is not None
    a1, a2 = tracks_of(sc.alt)
    assert sorted(a1.points) == [1, 2, 3]
    assert sorted(a2.points) == [4, 5]
    # alt sits 2*epsilon from truth and epsilon from the estimate
    assert abs(a1.points[1][0] - tracks_of(sc.truth)[0].points[1][0]) == pytest.approx(2.0)
    assert abs(a2.points[4][0] - tracks_of(sc.est)[0].points[4][0]) == pytest.approx(1.0)


def test_distance_counts_match_study_values():
    n_by_fig = {FigureId.FIG1A: 5, FigureId.FIG1B: 7, FigureId.FIG1C: 5, FigureId.FIG1D: 5}
    for fig, want in n_by_fig.items():
        sc = build(ScenarioSpec(fig))
        assert sum(scan_distances(sc.truth, sc.est, MetricParams()).slots) == want


def test_bad_parameter_orderings():
    with pytest.raises(BadParametersError):
        ScenarioSpec(FigureId.FIG9B, epsilon=5.0, eta=5.0)
    with pytest.raises(BadParametersError):
        ScenarioSpec(FigureId.FIG9B, epsilon=6.0, eta=5.0)
    with pytest.raises(BadParametersError):
        ScenarioSpec(FigureId.FIG1A, eta=90.0)  # eta above the cutoff
    with pytest.raises(BadParametersError):
        ScenarioSpec(FigureId.FIG1A, beta=50.0)  # beta below the cutoff


def test_random_scenario_deterministic():
    a = random_scenario(seed=42, n_truth=3, scans=8, miss_rate=0.2, noise=0.5)
    b = random_scenario(seed=42, n_truth=3, scans=8, miss_rate=0.2, noise=0.5)
    assert same_track_sets(a[0], b[0])
    assert same_track_sets(a[1], b[1])
    c = random_scenario(seed=43, n_truth=3, scans=8, miss_rate=0.2, noise=0.5)
    assert not same_track_sets(a[1], c[1])


def test_random_scenario_perfect_estimate():
    truth, est = random_scenario(seed=7, n_truth=2, scans=5)
    assert same_track_sets(truth, est)
    report = ospamt_metric(truth, est, MetricParams(), Mode.EXACT)
    assert report.total == 0.0


def test_random_scenario_rate_bounds():
    with pytest.raises(BadParametersError):
        random_scenario(seed=1, miss_rate=1.5)


def test_false_track_strictly_increases_total():
    from trackmetric.core import Track, TrackSet

    params = MetricParams()
    truth, est = random_scenario(seed=11, n_truth=2, scans=4, noise=0.1)
    base = ospamt_metric(truth, est, params, Mode.EXACT).total
    far = Track({t: (5000.0, 5000.0) for t in (1, 2)}, label="false")
    est_plus = TrackSet(est.scans, est.state_dim, tracks_of(est) + (far,))
    more = ospamt_metric(truth, est_plus, params, Mode.EXACT).total
    assert more > base


def _runs(*runs):
    """scan -> value of runs given as (first scan, last scan, value)."""
    return {t: value for first, last, value in runs for t in range(first, last + 1)}


#: Every figure at the default spec (epsilon 1, eta 5, beta 1000): its scan
#: count, then each set as track label -> scan -> value, in track order.
FIGURE_POINTS = {
    FigureId.FIG1A: (5, {"t1": _runs((1, 5, 0.0))},
                     {"e1": _runs((1, 3, 1.0)), "e2": _runs((4, 5, 1.0))}),
    FigureId.FIG1B: (5, {"t1": _runs((1, 5, 0.0)), "t3": _runs((4, 5, 1001.0))},
                     {"e1": _runs((1, 3, 1.0)), "e2": _runs((4, 5, 1.0))}),
    FigureId.FIG1C: (5, {"t1": _runs((1, 5, 0.0))}, {"e1": _runs((1, 5, 1000.0))}),
    FigureId.FIG1D: (5, {"t1": _runs((1, 5, 0.0))},
                     {"e1": _runs((1, 3, 1.0)), "e2": _runs((4, 5, 1000.0))}),
    FigureId.FIG5: (5, {"t1": _runs((1, 3, 0.0)), "t2": _runs((4, 5, 0.0))},
                    {"e1": _runs((1, 5, 1.0))}),
    FigureId.FIG6: (5, {"t1": _runs((1, 3, 0.0)), "t2": _runs((4, 5, 0.0))},
                    {"e1": _runs((1, 3, 1.0), (4, 5, 1000.0))}),
    FigureId.FIG8: (5, {"t1": _runs((1, 3, 0.0)), "t2": _runs((4, 5, 0.0))},
                    {"e1": _runs((1, 3, 1.0)), "e2": _runs((4, 5, 1.0))}),
    FigureId.FIG9A: (3, {"t1": _runs((1, 3, 0.0)), "t2": _runs((1, 3, 1001.0))},
                     {"e1": {1: 1000.0, 2: 1.0, 3: 1.0}, "e2": {1: 1.0, 2: 1000.0, 3: 1000.0}}),
    FigureId.FIG9B: (3, {"t1": _runs((1, 3, 0.0)), "t2": _runs((1, 3, 1001.0))},
                     {"e1": {1: 5.0, 2: 1.0, 3: 1.0}, "e2": {1: 996.0, 2: 1000.0, 3: 1000.0}}),
    FigureId.FIG10A: (4, {"t1": _runs((1, 2, 0.0))}, {"e1": _runs((3, 4, 0.0))}),
    FigureId.FIG11A: (4, {"t1": _runs((1, 2, 0.0))},
                      {"e1": _runs((1, 2, 1.0)), "e2": _runs((3, 4, 0.0))}),
    FigureId.FIG11B: (4, {"t1": _runs((1, 2, 0.0))},
                      {"e1": _runs((1, 2, 1.0)), "e2": _runs((3, 4, 0.0)),
                       "e3": _runs((3, 4, 1.0))}),
    FigureId.FIG12: (6, {"t1": _runs((1, 6, 0.0)), "t2": {1: 1001.0, 2: 2.0},
                         "t3": _runs((3, 5, 1001.0))},
                     {"e1": _runs((1, 3, 1.0)), "e2": _runs((5, 6, 1.0))}),
    FigureId.FIG12A: (6, {"t1": _runs((1, 2, 0.0)), "t2": _runs((3, 4, 0.0))},
                      {"e1": _runs((1, 2, 1.0)), "e2": _runs((3, 4, 1000.0)),
                       "e3": _runs((3, 6, 1.0))}),
    FigureId.FIG12B: (6, {"t1": _runs((1, 2, 0.0)), "t2": _runs((3, 4, 0.0))},
                      {"e1": _runs((1, 6, 1.0)), "e2": _runs((3, 4, 1000.0))}),
    FigureId.FIG13: (5, {"t1": _runs((1, 5, 0.0))}, {"e1": _runs((3, 5, 1.0))},
                     {"a1": _runs((1, 3, 2.0)), "a2": _runs((4, 5, 2.0))}),
}


@pytest.mark.parametrize("fig", list(FigureId), ids=[fig.value for fig in FigureId])
def test_every_figure_at_the_default_spec(fig):
    scans, *want = FIGURE_POINTS[fig]
    sc = build(ScenarioSpec(fig))
    sets = [sc.truth, sc.est] + ([sc.alt] if sc.alt is not None else [])
    assert len(sets) == len(want)
    for track_set, tracks in zip(sets, want):
        assert (track_set.scans, track_set.state_dim) == (scans, 1)
        assert {trk.label: {t: x for t, (x,) in trk.points.items()}
                for trk in tracks_of(track_set)} == tracks
        assert track_set.labels == tuple(tracks)
