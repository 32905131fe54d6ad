#!/usr/bin/env python3
"""Measure how often (and how far) the greedy assignment misses the optimum.

Runs seeded random truth/estimate pairs through both search modes and
reports the divergence rate and the worst relative gap per instance size.
No optimality guarantee exists for the greedy pipeline, so this quantifies
what is being traded for its speed.

Usage: python scripts/greedy_vs_exact.py [--cases N] [--seed S]
"""

import argparse
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trackmetric.assign import TIE
from trackmetric.core import MetricParams, Track, TrackSet
from trackmetric.ospamt import Mode, ospamt_metric


def random_set(rng: random.Random, max_tracks: int, scans: int) -> TrackSet:
    tracks = []
    for _ in range(rng.randint(1, max_tracks)):
        n = rng.randint(1, scans)
        pts = {
            t: (float(rng.uniform(0, 30)),)
            for t in rng.sample(range(1, scans + 1), n)
        }
        tracks.append(Track(pts))
    return TrackSet(scans, 1, tuple(tracks))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cases", type=int, default=300)
    ap.add_argument("--seed", type=int, default=20260809)
    args = ap.parse_args()
    params = MetricParams()
    tol = TIE * params.c
    rng = random.Random(args.seed)

    print(f"{'tracks/side':>12} {'cases':>6} {'diverged':>9} {'rate':>7} {'worst gap':>10}")
    for max_tracks in (2, 3, 4):
        diverged = 0
        worst = 0.0
        for _ in range(args.cases):
            a = random_set(rng, max_tracks, scans=4)
            b = random_set(rng, max_tracks, scans=4)
            exact = ospamt_metric(a, b, params, Mode.EXACT).total
            greedy = ospamt_metric(a, b, params, Mode.GREEDY).total
            if greedy < exact - tol:
                raise AssertionError("greedy beat the exact optimum: search bug")
            if greedy > exact + tol:
                diverged += 1
                worst = max(worst, (greedy - exact) / exact if exact else math.inf)
        print(
            f"{max_tracks:>12} {args.cases:>6} {diverged:>9} "
            f"{diverged / args.cases:>6.1%} {worst:>9.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
