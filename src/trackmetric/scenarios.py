"""Deterministic constructors for the study scenarios, plus a random generator.

Every figure scenario is a pair (or, for the triangle-violation study, a
triple) of 1-D track sets whose existence windows and inter-state distances
follow the drawings: a tight offset epsilon for well-estimated states, a
middling eta, and a far beta that exceeds any sensible cutoff.  Each figure
is one row of ``_FIGURES``; its sets, like the random ones, are built from
(label, points) records by ``TrackSet.from_records``, with no ``Track``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .core import TrackSet
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


#: Each figure as a function of (epsilon, eta, beta) giving its row
#: ``(scans, truth, est[, alt])``.  A set is a list of 1-D tracks, each a
#: label followed by ``(first scan, last scan, value)`` runs.
_FIGURES = {
    FigureId.FIG1A: lambda e, h, b: (5, [("t1", (1, 5, 0.0))],
                                     [("e1", (1, 3, e)), ("e2", (4, 5, e))]),
    FigureId.FIG1B: lambda e, h, b: (5, [("t1", (1, 5, 0.0)), ("t3", (4, 5, e + b))],
                                     [("e1", (1, 3, e)), ("e2", (4, 5, e))]),
    FigureId.FIG1C: lambda e, h, b: (5, [("t1", (1, 5, 0.0))], [("e1", (1, 5, b))]),
    FigureId.FIG1D: lambda e, h, b: (5, [("t1", (1, 5, 0.0))],
                                     [("e1", (1, 3, e)), ("e2", (4, 5, b))]),
    FigureId.FIG5: lambda e, h, b: (5, [("t1", (1, 3, 0.0)), ("t2", (4, 5, 0.0))],
                                    [("e1", (1, 5, e))]),
    FigureId.FIG6: lambda e, h, b: (5, [("t1", (1, 3, 0.0)), ("t2", (4, 5, 0.0))],
                                    [("e1", (1, 3, e), (4, 5, b))]),
    FigureId.FIG8: lambda e, h, b: (5, [("t1", (1, 3, 0.0)), ("t2", (4, 5, 0.0))],
                                    [("e1", (1, 3, e)), ("e2", (4, 5, e))]),
    # two truth lines b + e apart; the estimates start on the wrong lines
    # and cross after scan 1
    FigureId.FIG9A: lambda e, h, b: (3, [("t1", (1, 3, 0.0)), ("t2", (1, 3, b + e))],
                                     [("e1", (1, 1, b), (2, 3, e)), ("e2", (1, 1, e), (2, 3, b))]),
    FigureId.FIG9B: lambda e, h, b: (3, [("t1", (1, 3, 0.0)), ("t2", (1, 3, b + e))],
                                     [("e1", (1, 1, h), (2, 3, e)),
                                      ("e2", (1, 1, b + e - h), (2, 3, b))]),
    FigureId.FIG10A: lambda e, h, b: (4, [("t1", (1, 2, 0.0))], [("e1", (3, 4, 0.0))]),
    FigureId.FIG11A: lambda e, h, b: (4, [("t1", (1, 2, 0.0))],
                                      [("e1", (1, 2, e)), ("e2", (3, 4, 0.0))]),
    FigureId.FIG11B: lambda e, h, b: (4, [("t1", (1, 2, 0.0))],
                                      [("e1", (1, 2, e)), ("e2", (3, 4, 0.0)), ("e3", (3, 4, e))]),
    FigureId.FIG12: lambda e, h, b: (6, [("t1", (1, 6, 0.0)), ("t2", (1, 1, b + e), (2, 2, 2 * e)),
                                         ("t3", (3, 5, b + e))],
                                     [("e1", (1, 3, e)), ("e2", (5, 6, e))]),
    FigureId.FIG12A: lambda e, h, b: (6, [("t1", (1, 2, 0.0)), ("t2", (3, 4, 0.0))],
                                      [("e1", (1, 2, e)), ("e2", (3, 4, b)), ("e3", (3, 6, e))]),
    FigureId.FIG12B: lambda e, h, b: (6, [("t1", (1, 2, 0.0)), ("t2", (3, 4, 0.0))],
                                      [("e1", (1, 6, e)), ("e2", (3, 4, b))]),
    FigureId.FIG13: lambda e, h, b: (5, [("t1", (1, 5, 0.0))], [("e1", (3, 5, e))],
                                     [("a1", (1, 3, 2 * e)), ("a2", (4, 5, 2 * e))]),
}


def build(spec: ScenarioSpec) -> Scenario:
    """Construct the named figure scenario."""
    scans, *sets = _FIGURES[FigureId(spec.figure)](spec.epsilon, spec.eta, spec.beta)
    return Scenario(*(
        TrackSet.from_records(scans, 1, [
            (label, {t: (value,) for first, last, value in runs for t in range(first, last + 1)})
            for label, *runs in tracks])
        for tracks in sets))


#: The state dimension of every ``random_scenario``.
RANDOM_DIM = 2


def random_scenario(
    seed: int,
    n_truth: int = 3,
    scans: int = 10,
    miss_rate: float = 0.0,
    false_rate: float = 0.0,
    break_rate: float = 0.0,
    noise: float = 0.0,
) -> tuple[TrackSet, TrackSet]:
    """Seeded 2-D (``RANDOM_DIM``) truth set plus a degraded estimate of it.

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
    truth_records: list[tuple[str, dict[int, tuple[float, ...]]]] = []
    for k in range(n_truth):
        start = rng.randint(1, max(1, scans - 1))
        end = rng.randint(start, scans)
        pos = [rng.uniform(-100.0, 100.0) for _ in range(RANDOM_DIM)]
        vel = [rng.uniform(-2.0, 2.0) for _ in range(RANDOM_DIM)]
        points = {
            t: tuple(p + v * (t - start) for p, v in zip(pos, vel))
            for t in range(start, end + 1)
        }
        truth_records.append((f"t{k + 1}", points))
    truth = TrackSet.from_records(scans, RANDOM_DIM, truth_records)

    est_records: list[tuple[str, dict[int, tuple[float, ...]]]] = []
    for k, (_, truth_points) in enumerate(truth_records):
        points = {
            t: tuple(v + rng.gauss(0.0, noise) for v in x) if noise > 0 else x
            for t, x in truth_points.items()
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
            est_records.append((f"e{k + 1}.{piece_no}", piece))
    n_false = sum(1 for _ in range(n_truth) if rng.random() < false_rate)
    for f in range(n_false):
        start = rng.randint(1, max(1, scans - 1))
        end = rng.randint(start, scans)
        pos = [rng.uniform(-100.0, 100.0) for _ in range(RANDOM_DIM)]
        est_records.append((f"f{f + 1}", {t: tuple(pos) for t in range(start, end + 1)}))
    try:
        est = TrackSet.from_records(scans, RANDOM_DIM, est_records)
    except NonFiniteCoordinateError as exc:
        raise BadParametersError(f"noise {noise} makes an estimated coordinate non-finite") from exc
    return truth, est
