import random
import warnings

import numpy as np
import pytest

from trackmetric.assign import lexicographic_matching, optimal_matching
from trackmetric.core import MetricParams, Track, TrackSet
from trackmetric.ospa import ospa_per_scan
from trackmetric.ospamt import Mode, ospamt_metric
from trackmetric.ospat import ospat_per_scan
from trackmetric.selftest import GOLDEN


@pytest.fixture
def params():
    return MetricParams()


with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # delta == c warns
    #: Parameter sets beyond the defaults: p up to 3, p' != p, delta == c.
    PARAM_SETS = (
        MetricParams(p=1.0, c=3.0, delta=1.0, alpha=1.0),
        MetricParams(p=2.0, c=3.0, delta=1.0, alpha=1.0),
        MetricParams(p=2.0, c=3.0, delta=3.0, alpha=1.0, p_prime=1.0),
        MetricParams(p=3.0, c=4.0, delta=2.0, alpha=2.0),
        MetricParams(p=1.0, c=5.0, delta=5.0, alpha=2.0, p_prime=3.0),
        MetricParams(p=3.0, c=3.0, delta=1.5, alpha=0.5, p_prime=1.5),
    )


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
    return TrackSet(scans, 1, tuple(tracks))


def random_float_set(rng, dim, scans=4, max_tracks=3):
    """Track set of real-valued states in ``dim`` dimensions."""
    tracks = []
    for _ in range(rng.randint(0, max_tracks)):
        scan_ids = rng.sample(range(1, scans + 1), rng.randint(1, scans))
        tracks.append(Track({t: tuple(rng.uniform(-9, 9) for _ in range(dim)) for t in scan_ids}))
    return TrackSet(scans, dim, tuple(tracks))


def distance_params(dim, **fixed):
    """p' in {1, 1.5, 2, 3}, each without and with a per-dimension scale;
    ``fixed`` sets the other parameters."""
    scale = tuple(0.5 + 0.75 * k for k in range(dim))
    return [
        MetricParams(p_prime=q, scale=s, **fixed)
        for q in (1.0, 1.5, 2.0, 3.0)
        for s in (None, scale)
    ]


def library_reports(a, b, params, mode=Mode.AUTO):
    """The OSPAMT, OSPA and OSPAT library reports of one pair."""
    return {
        "ospamt": ospamt_metric(a, b, params, mode),
        "ospa": ospa_per_scan(a, b, params),
        "ospat": ospat_per_scan(a, b, params)[0],
    }


def golden(criterion: str, key: str, p: float = 1.0):
    """A worked value of the paper, read from the golden table."""
    return GOLDEN[criterion].want(MetricParams(p=p))[key]


def tracks_of(ts: TrackSet) -> tuple[Track, ...]:
    """The tracks of ``ts``, made from its arrays, with points in scan order."""
    return tuple(
        Track(dict(zip((np.flatnonzero(row) + 1).tolist(), map(tuple, states[row].tolist()))),
              label)
        for label, states, row in zip(ts.labels, ts.states, ts.exists)
    )


def solve_one_to_one(d) -> tuple[tuple[int, ...], float]:
    """The library's one-to-one solve in its two steps: the lexicographically
    smallest optimal matching of a finite, non-negative matrix with m <= n
    (0-based column of each row) and its cost."""
    s = optimal_matching(d)
    return lexicographic_matching(*s), s[2]


def same_track_sets(a: TrackSet, b: TrackSet) -> bool:
    """Equality as multisets of tracks, ignoring order and labels."""

    def multiset(ts: TrackSet) -> list:
        return sorted(sorted(trk.points.items()) for trk in tracks_of(ts))

    return (a.scans, a.state_dim, multiset(a)) == (b.scans, b.state_dim, multiset(b))


def states_at(ts: TrackSet, t: int) -> list:
    """The states of every track of ``ts`` that exists at scan ``t``."""
    return [trk.points[t] for trk in tracks_of(ts) if t in trk.points]


def shuffled_copy(rng: random.Random, ts: TrackSet) -> TrackSet:
    order = list(tracks_of(ts))
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
