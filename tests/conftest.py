import random

import pytest

from trackmetric.core import MetricParams, Track, TrackSet, validate
from trackmetric.ospa import ospa_per_scan, report_over_time
from trackmetric.ospamt import Mode, ospamt_metric
from trackmetric.ospat import ospat_per_scan


@pytest.fixture
def params():
    return MetricParams()


def random_small_set(
    rng: random.Random,
    max_tracks: int = 4,
    scans: int = 4,
    grid: int = 9,
    min_tracks: int = 0,
) -> TrackSet:
    """Small 1-D track set on an integer grid.

    Integer coordinates keep unequal sets a bounded distance apart, which
    makes the identity axiom numerically testable.
    """
    k = rng.randint(min_tracks, max_tracks)
    tracks = []
    for _ in range(k):
        n_scans = rng.randint(1, scans)
        pts = {
            t: (float(rng.randint(0, grid)),)
            for t in rng.sample(range(1, scans + 1), n_scans)
        }
        tracks.append(Track(pts))
    return validate(TrackSet(scans, 1, tuple(tracks)))


def library_reports(a, b, params, mode=Mode.AUTO):
    """The OSPAMT, OSPA and OSPAT library reports of one pair, with the
    per-scan rows behind the OSPA and OSPAT ones."""
    ospa_rows = ospa_per_scan(a, b, params)
    ospat_rows, pairing = ospat_per_scan(a, b, params)
    reports = {
        "ospamt": ospamt_metric(a, b, params, mode),
        "ospa": report_over_time(ospa_rows, params, tuple(r.pairs for r in ospa_rows)),
        "ospat": report_over_time(ospat_rows, params, pairing),
    }
    return reports, {"ospa": ospa_rows, "ospat": ospat_rows}


def shuffled_copy(rng: random.Random, ts: TrackSet) -> TrackSet:
    order = list(ts.tracks)
    rng.shuffle(order)
    return TrackSet(ts.scans, ts.state_dim, tuple(order))


_CRITERION_RESULTS: dict[str, str] = {}


def record_criterion(name: str, detail: str = "") -> None:
    _CRITERION_RESULTS[name] = detail


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                name = nodeid.split("::")[-1]
                key = name.removeprefix("test_criterion_")
                outcomes[key] = "PASS" if status == "passed" else "FAIL"
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(outcomes):
        detail = _CRITERION_RESULTS.get(key, "")
        line = f"{outcomes[key]}  criterion {key.replace('_', ' ')}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
