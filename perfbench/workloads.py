"""Seeded inputs for the benchmark workloads.

Every random track set is generated here rather than by
``trackmetric.random_scenario``, so an edit to the library cannot quietly
change a workload.  Only the paper-figure scenarios come from
``trackmetric.scenarios.build``, whose outputs the golden tests pin.

An instance is a truth/estimate pair of track-set JSON documents plus the
arguments every ``compute`` call on it passes.  The program only ever sees
the files written from these documents.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("small_batch", "exact_dense", "large_all")

#: Output formats each workload's rotation goes through, in order.  json
#: comes first so the first call on an instance yields full-precision totals.
FORMATS = {"small_batch": ("json", "csv", "table"), "exact_dense": ("json",),
           "large_all": ("csv",)}

#: Random pairs mixed into the ``small_batch`` rotation next to the 16
#: figures; enough that the rotation's p50 and p90 do not hinge on one pair.
SMALL_RANDOM_PAIRS = 64
#: Track cap of a small random pair.  The exact search's cost grows steeply
#: up to the 10-track enumeration cap: pairs near it cost up to ten times the
#: rest and made the rotation's p90 and throughput hinge on the seed.  At 6
#: no single pair dominates the rotation.
SMALL_MAX_TRACKS = 6

#: (truths, estimates) shapes of ``exact_dense``: every split of the
#: 10-track enumeration cap from balanced to lopsided.
EXACT_SHAPES = ((5, 5), (4, 6), (3, 7))
#: T = 50 rather than 100 halves every call, for the same reasons as the
#: short ``large_all`` window below; the lambda space does not depend on T.
EXACT_SCANS = 50

#: A ``large_all`` pair.  T = 75 rather than 150 halves a call to about
#: 0.5 s at the reference speed: a longer call more often straddles a flip
#: of the host's speed, which the probes before and after it cannot see, and
#: leaves fewer samples above the p90 in a run.
LARGE_ARGS = dict(n_truth=60, scans=75, miss_rate=0.1, false_rate=0.2,
                  break_rate=0.2, noise=1.0)
#: ``large_all`` pairs per run, one call each.  A call's cost depends on the
#: drawn values (the one-to-one tie-break search above all), so one pair per
#: seed would make the per-seed medians spread by about a fifth.
LARGE_PAIRS = 24
#: Pairs drawn per kept ``large_all`` pair.  The size of a pair (truth points
#: times estimate points) varies 2.5-fold between draws, so the run keeps one
#: pair from each size stratum and every seed gets the same spread of sizes.
LARGE_STRATUM = 4


@dataclass(frozen=True)
class Instance:
    """One truth/estimate pair and how it is scored."""

    name: str
    truth: dict
    est: dict
    metric: str
    mode: str

    @property
    def scans(self) -> int:
        return self.truth["scans"]

    def write(self, workdir: Path) -> tuple[str, str, int, str]:
        """Write both files; return their paths, total bytes and digest."""
        blobs = encode(self.truth), encode(self.est)
        paths = []
        for side, blob in zip(("truth", "est"), blobs):
            path = workdir / f"{self.name}.{side}.json"
            path.write_bytes(blob)
            paths.append(str(path))
        return paths[0], paths[1], len(blobs[0]) + len(blobs[1]), \
            hashlib.sha256(blobs[0] + blobs[1]).hexdigest()[:16]


def encode(doc: dict) -> bytes:
    """Serialize a track-set document the way ``save_track_set`` does."""
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _doc(scans: int, state_dim: int, tracks: list[tuple[str, dict]]) -> dict:
    return {
        "scans": scans,
        "state_dim": state_dim,
        "tracks": [
            {"id": label, "points": [{"t": t, "x": list(x)} for t, x in sorted(pts.items())]}
            for label, pts in tracks
        ],
    }


def random_pair(seed: int, n_truth: int, scans: int, miss_rate: float,
                false_rate: float, break_rate: float, noise: float,
                state_dim: int = 2) -> tuple[dict, dict]:
    """Seeded truth set and a degraded estimate of it.

    A port of ``random_scenario`` that draws the same random numbers in the
    same order, so equal arguments give the same track sets as the library
    generator at the commit this benchmark was written against.
    """
    rng = random.Random(seed)
    truth: list[tuple[str, dict]] = []
    for k in range(n_truth):
        start = rng.randint(1, max(1, scans - 1))
        end = rng.randint(start, scans)
        pos = [rng.uniform(-100.0, 100.0) for _ in range(state_dim)]
        vel = [rng.uniform(-2.0, 2.0) for _ in range(state_dim)]
        points = {
            t: tuple(p + v * (t - start) for p, v in zip(pos, vel))
            for t in range(start, end + 1)
        }
        truth.append((f"t{k + 1}", points))

    est: list[tuple[str, dict]] = []
    for k, (_, trk) in enumerate(truth):
        points = {
            t: tuple(v + rng.gauss(0.0, noise) for v in x) if noise > 0 else x
            for t, x in trk.items()
            if not (miss_rate > 0 and rng.random() < miss_rate)
        }
        if not points:
            continue
        pieces = [points]
        if break_rate > 0 and len(points) >= 2 and rng.random() < break_rate:
            scans_sorted = sorted(points)
            cut = rng.choice(scans_sorted[1:])
            pieces = [
                {t: points[t] for t in scans_sorted if t < cut},
                {t: points[t] for t in scans_sorted if t >= cut},
            ]
        for piece_no, piece in enumerate(pieces, start=1):
            est.append((f"e{k + 1}.{piece_no}", piece))
    n_false = sum(1 for _ in range(n_truth) if rng.random() < false_rate)
    for f in range(n_false):
        start = rng.randint(1, max(1, scans - 1))
        end = rng.randint(start, scans)
        pos = tuple(rng.uniform(-100.0, 100.0) for _ in range(state_dim))
        est.append((f"f{f + 1}", {t: pos for t in range(start, end + 1)}))
    return _doc(scans, state_dim, truth), _doc(scans, state_dim, est)


def dense_pair(rng: random.Random, n_truth: int, n_est: int, scans: int) -> tuple[dict, dict]:
    """1-D truths 10 apart over the whole window; estimates crossing mid-window.

    Every truth exists at every scan and every estimate window slides across
    scan ``scans // 2 + 1``, so every pair coexists and the exact search sees
    the largest lambda space the shape allows.  The windows are fixed and
    only the states are drawn, which keeps the search's size the same for
    every seed.
    """
    mid = scans // 2 + 1
    truth = [
        (f"t{i + 1}", {t: (10.0 * i + rng.uniform(-0.5, 0.5),) for t in range(1, scans + 1)})
        for i in range(n_truth)
    ]
    est = []
    for j in range(n_est):
        followed = truth[j % n_truth][1]
        start = 1 + j * (mid - 1) // n_est
        end = scans - (n_est - 1 - j) * (scans - mid) // n_est
        est.append((f"e{j + 1}", {
            t: (followed[t][0] + rng.gauss(0.0, 0.5),) for t in range(start, end + 1)
        }))
    return _doc(scans, 1, truth), _doc(scans, 1, est)


def build_instances(workload: str, seed: int) -> list[Instance]:
    """The instances one run of ``workload`` rotates through."""
    if workload == "small_batch":
        from trackmetric.io import track_set_to_obj
        from trackmetric.scenarios import FigureId, ScenarioSpec, build

        out = []
        for fig in FigureId:
            sc = build(ScenarioSpec(fig))
            out.append(Instance(fig.value, track_set_to_obj(sc.truth),
                                track_set_to_obj(sc.est), "all", "auto"))
        # Sizes step through 2-4 truths and T = 10-30 in a fixed pattern and
        # the seed draws everything else, so every seed gets the same mix.
        rng = random.Random(seed)
        for r in range(SMALL_RANDOM_PAIRS):
            truth, est = random_pair(
                rng.randrange(2**31), n_truth=2 + r % 3, scans=10 + (r * 5) % 21,
                miss_rate=0.1, false_rate=0.3, break_rate=0.3, noise=0.5,
            )
            est["tracks"] = est["tracks"][:SMALL_MAX_TRACKS - len(truth["tracks"])]
            out.append(Instance(f"random{r + 1}", truth, est, "all", "auto"))
        return out
    if workload == "exact_dense":
        rng = random.Random(seed)
        return [
            Instance(f"dense{m}+{n}", *dense_pair(rng, m, n, EXACT_SCANS), "ospamt", "exact")
            for m, n in EXACT_SHAPES
        ]
    if workload == "large_all":
        rng = random.Random(seed)
        drawn = sorted((random_pair(rng.randrange(2**31), **LARGE_ARGS)
                        for _ in range(LARGE_PAIRS * LARGE_STRATUM)), key=_pair_size)
        kept = drawn[LARGE_STRATUM // 2::LARGE_STRATUM]
        return [Instance(f"large{k + 1}", truth, est, "all", "auto")
                for k, (truth, est) in enumerate(kept)]
    raise ValueError(f"unknown workload {workload!r}")


def _pair_size(pair: tuple[dict, dict]) -> int:
    truth, est = pair
    return math.prod(sum(len(trk["points"]) for trk in doc["tracks"]) for doc in (truth, est))


def lambda_space(truth: dict, est: dict) -> int:
    """Assignments the exact search scans: sum over both directions of
    the product over sources of (1 + targets it coexists with)."""
    a = [{p["t"] for p in trk["points"]} for trk in truth["tracks"]]
    b = [{p["t"] for p in trk["points"]} for trk in est["tracks"]]
    total = 0
    for src, tgt in ((b, a), (a, b)):
        prod = 1
        for s in src:
            prod *= 1 + sum(1 for g in tgt if not s.isdisjoint(g))
        total += prod
    return total
