"""Deterministic constructors for the study scenarios, plus a random generator.

Every figure scenario is a pair (or, for the triangle-violation study, a
triple) of 1-D track sets whose existence windows and inter-state distances
follow the drawings: a tight offset epsilon for well-estimated states, a
middling eta, and a far beta that exceeds any sensible cutoff.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .core import Track, TrackSet
from .errors import BadParametersError, NonFiniteCoordinateError


class FigureId(str, Enum):
    FIG1A = "fig1a"
    FIG1B = "fig1b"
    FIG1C = "fig1c"
    FIG1D = "fig1d"
    FIG5 = "fig5"
    FIG6 = "fig6"
    FIG8 = "fig8"
    FIG9A = "fig9a"
    FIG9B = "fig9b"
    FIG10A = "fig10a"
    FIG11A = "fig11a"
    FIG11B = "fig11b"
    FIG12 = "fig12"
    FIG12A = "fig12a"
    FIG12B = "fig12b"
    FIG13 = "fig13"


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters shared by every figure constructor.

    The orderings 0 < epsilon < eta < cutoff < beta must hold; the cutoff is
    carried here only to validate them.
    """

    figure: FigureId
    epsilon: float = 1.0
    eta: float = 5.0
    beta: float = 1000.0
    cutoff: float = 80.0

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < self.eta < self.cutoff < self.beta):
            raise BadParametersError(
                "scenario parameters must satisfy 0 < epsilon < eta < cutoff < beta, "
                f"got epsilon={self.epsilon} eta={self.eta} "
                f"cutoff={self.cutoff} beta={self.beta}"
            )


@dataclass(frozen=True)
class Scenario:
    """Truth and estimate sets; ``alt`` is the third set where one is drawn."""

    truth: TrackSet
    est: TrackSet
    alt: TrackSet | None = None


def _ts(scans: int, *tracks: Track) -> TrackSet:
    return TrackSet(scans, 1, tuple(tracks))


def _span(lo: int, hi: int, value: float) -> dict[int, float]:
    return {t: value for t in range(lo, hi + 1)}


def build(spec: ScenarioSpec) -> Scenario:
    """Construct the named figure scenario."""
    e, h, b = spec.epsilon, spec.eta, spec.beta
    fig = FigureId(spec.figure)
    if fig is FigureId.FIG1A:
        truth = _ts(5, Track(_span(1, 5, 0.0), "t1"))
        est = _ts(5, Track(_span(1, 3, e), "e1"), Track(_span(4, 5, e), "e2"))
        return Scenario(truth, est)
    if fig is FigureId.FIG1B:
        truth = _ts(
            5,
            Track(_span(1, 5, 0.0), "t1"),
            Track(_span(4, 5, e + b), "t3"),
        )
        est = _ts(5, Track(_span(1, 3, e), "e1"), Track(_span(4, 5, e), "e2"))
        return Scenario(truth, est)
    if fig is FigureId.FIG1C:
        truth = _ts(5, Track(_span(1, 5, 0.0), "t1"))
        est = _ts(5, Track(_span(1, 5, b), "e1"))
        return Scenario(truth, est)
    if fig is FigureId.FIG1D:
        truth = _ts(5, Track(_span(1, 5, 0.0), "t1"))
        est = _ts(5, Track(_span(1, 3, e), "e1"), Track(_span(4, 5, b), "e2"))
        return Scenario(truth, est)
    if fig is FigureId.FIG5:
        truth = _ts(5, Track(_span(1, 3, 0.0), "t1"), Track(_span(4, 5, 0.0), "t2"))
        est = _ts(5, Track(_span(1, 5, e), "e1"))
        return Scenario(truth, est)
    if fig is FigureId.FIG6:
        truth = _ts(5, Track(_span(1, 3, 0.0), "t1"), Track(_span(4, 5, 0.0), "t2"))
        est = _ts(5, Track({**_span(1, 3, e), **_span(4, 5, b)}, "e1"))
        return Scenario(truth, est)
    if fig is FigureId.FIG8:
        truth = _ts(5, Track(_span(1, 3, 0.0), "t1"), Track(_span(4, 5, 0.0), "t2"))
        est = _ts(5, Track(_span(1, 3, e), "e1"), Track(_span(4, 5, e), "e2"))
        return Scenario(truth, est)
    if fig in (FigureId.FIG9A, FigureId.FIG9B):
        sep = b + e  # the two truth lines; cross distances stay above beta-ish
        truth = _ts(3, Track(_span(1, 3, 0.0), "t1"), Track(_span(1, 3, sep), "t2"))
        if fig is FigureId.FIG9A:
            # The estimates start on the wrong lines and cross after scan 1.
            est = _ts(
                3,
                Track({1: b, 2: e, 3: e}, "e1"),
                Track({1: e, 2: b, 3: b}, "e2"),
            )
        else:
            est = _ts(
                3,
                Track({1: h, 2: e, 3: e}, "e1"),
                Track({1: sep - h, 2: b, 3: b}, "e2"),
            )
        return Scenario(truth, est)
    if fig is FigureId.FIG10A:
        truth = _ts(4, Track(_span(1, 2, 0.0), "t1"))
        est = _ts(4, Track(_span(3, 4, 0.0), "e1"))
        return Scenario(truth, est)
    if fig is FigureId.FIG11A:
        truth = _ts(4, Track(_span(1, 2, 0.0), "t1"))
        est = _ts(4, Track(_span(1, 2, e), "e1"), Track(_span(3, 4, 0.0), "e2"))
        return Scenario(truth, est)
    if fig is FigureId.FIG11B:
        truth = _ts(4, Track(_span(1, 2, 0.0), "t1"))
        est = _ts(
            4,
            Track(_span(1, 2, e), "e1"),
            Track(_span(3, 4, 0.0), "e2"),
            Track(_span(3, 4, e), "e3"),
        )
        return Scenario(truth, est)
    if fig is FigureId.FIG12:
        truth = _ts(
            6,
            Track(_span(1, 6, 0.0), "t1"),
            Track({1: b + e, 2: 2 * e}, "t2"),
            Track(_span(3, 5, b + e), "t3"),
        )
        est = _ts(6, Track(_span(1, 3, e), "e1"), Track(_span(5, 6, e), "e2"))
        return Scenario(truth, est)
    if fig is FigureId.FIG12A:
        truth = _ts(6, Track(_span(1, 2, 0.0), "t1"), Track(_span(3, 4, 0.0), "t2"))
        est = _ts(
            6,
            Track(_span(1, 2, e), "e1"),
            Track(_span(3, 4, b), "e2"),
            Track(_span(3, 6, e), "e3"),
        )
        return Scenario(truth, est)
    if fig is FigureId.FIG12B:
        truth = _ts(6, Track(_span(1, 2, 0.0), "t1"), Track(_span(3, 4, 0.0), "t2"))
        est = _ts(6, Track(_span(1, 6, e), "e1"), Track(_span(3, 4, b), "e2"))
        return Scenario(truth, est)
    if fig is FigureId.FIG13:
        truth = _ts(5, Track(_span(1, 5, 0.0), "t1"))
        est = _ts(5, Track(_span(3, 5, e), "e1"))
        alt = _ts(
            5,
            Track(_span(1, 3, 2 * e), "a1"),
            Track(_span(4, 5, 2 * e), "a2"),
        )
        return Scenario(truth, est, alt)
    raise BadParametersError(f"unknown figure id {spec.figure!r}")


def random_scenario(
    seed: int,
    n_truth: int = 3,
    scans: int = 10,
    miss_rate: float = 0.0,
    false_rate: float = 0.0,
    break_rate: float = 0.0,
    noise: float = 0.0,
    state_dim: int = 2,
) -> tuple[TrackSet, TrackSet]:
    """Seeded truth set plus a degraded estimate of it.

    The estimate starts as a copy of the truth, then per-scan states are
    dropped with probability ``miss_rate``, tracks are cut in two with
    probability ``break_rate``, Gaussian ``noise`` is added per coordinate,
    and roughly ``false_rate`` false tracks per truth track are inserted.
    Identical arguments always produce identical output.
    """
    for name, rate in (("miss_rate", miss_rate), ("false_rate", false_rate),
                       ("break_rate", break_rate)):
        if not (0.0 <= rate <= 1.0):
            raise BadParametersError(f"{name} must lie in [0, 1], got {rate}")
    if scans < 1 or n_truth < 0 or not noise >= 0.0:
        raise BadParametersError(
            f"need scans >= 1, n_truth >= 0, noise >= 0; got {scans}, {n_truth}, {noise}"
        )
    rng = random.Random(seed)
    truth_tracks: list[Track] = []
    for k in range(n_truth):
        start = rng.randint(1, max(1, scans - 1))
        end = rng.randint(start, scans)
        pos = [rng.uniform(-100.0, 100.0) for _ in range(state_dim)]
        vel = [rng.uniform(-2.0, 2.0) for _ in range(state_dim)]
        points = {
            t: tuple(p + v * (t - start) for p, v in zip(pos, vel))
            for t in range(start, end + 1)
        }
        truth_tracks.append(Track(points, label=f"t{k + 1}"))
    truth = TrackSet(scans, state_dim, tuple(truth_tracks))

    est_tracks: list[Track] = []
    for k, trk in enumerate(truth_tracks):
        points = {
            t: tuple(v + rng.gauss(0.0, noise) for v in x) if noise > 0 else x
            for t, x in trk.points.items()
            if not (miss_rate > 0 and rng.random() < miss_rate)
        }
        if not points:
            continue  # the whole track was missed
        pieces = [points]
        if break_rate > 0 and len(points) >= 2 and rng.random() < break_rate:
            scans_sorted = sorted(points)
            cut = rng.choice(scans_sorted[1:])
            pieces = [
                {t: points[t] for t in scans_sorted if t < cut},
                {t: points[t] for t in scans_sorted if t >= cut},
            ]
        for piece_no, piece in enumerate(pieces, start=1):
            est_tracks.append(Track(piece, label=f"e{k + 1}.{piece_no}"))
    n_false = sum(1 for _ in range(n_truth) if rng.random() < false_rate)
    for f in range(n_false):
        start = rng.randint(1, max(1, scans - 1))
        end = rng.randint(start, scans)
        pos = [rng.uniform(-100.0, 100.0) for _ in range(state_dim)]
        est_tracks.append(
            Track({t: tuple(pos) for t in range(start, end + 1)}, label=f"f{f + 1}")
        )
    try:
        est = TrackSet(scans, state_dim, tuple(est_tracks))
    except NonFiniteCoordinateError as exc:
        raise BadParametersError(f"noise {noise} makes an estimated coordinate non-finite") from exc
    return truth, est
