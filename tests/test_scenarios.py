import pytest

from conftest import same_track_sets
from trackmetric.core import count_distances
from trackmetric.errors import BadParametersError
from trackmetric.core import MetricParams
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
    tau3 = sc.truth.tracks[1]
    assert sorted(tau3.points) == [4, 5]
    e2 = sc.est.tracks[1]
    gap = abs(tau3.points[4][0] - e2.points[4][0])
    assert gap == pytest.approx(1000.0)  # beta


def test_fig13_geometry():
    sc = build(ScenarioSpec(FigureId.FIG13))
    assert sorted(sc.truth.tracks[0].points) == [1, 2, 3, 4, 5]
    assert sorted(sc.est.tracks[0].points) == [3, 4, 5]
    assert sc.alt is not None
    a1, a2 = sc.alt.tracks
    assert sorted(a1.points) == [1, 2, 3]
    assert sorted(a2.points) == [4, 5]
    # alt sits 2*epsilon from truth and epsilon from the estimate
    assert abs(a1.points[1][0] - sc.truth.tracks[0].points[1][0]) == pytest.approx(2.0)
    assert abs(a2.points[4][0] - sc.est.tracks[0].points[4][0]) == pytest.approx(1.0)


def test_distance_counts_match_study_values():
    n_by_fig = {FigureId.FIG1A: 5, FigureId.FIG1B: 7, FigureId.FIG1C: 5, FigureId.FIG1D: 5}
    for fig, want in n_by_fig.items():
        sc = build(ScenarioSpec(fig))
        _, n = count_distances(sc.truth, sc.est)
        assert n == want


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
    est_plus = TrackSet(est.scans, est.state_dim, est.tracks + (far,))
    more = ospamt_metric(truth, est_plus, params, Mode.EXACT).total
    assert more > base
