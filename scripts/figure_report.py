#!/usr/bin/env python3
"""Score every built-in figure scenario with all three metrics.

Prints one row per scenario with the OSPA/OSPAT/OSPAMT summaries and the
winning OSPAMT assignment, using the default parameters (p=1, c=80,
delta=alpha=10, epsilon=1, eta=5, beta=1000).  Handy for eyeballing how the
three metrics rank the same situations differently.

Usage: python scripts/figure_report.py [--p P] [--c C] [--delta D] [--alpha A]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trackmetric.core import MetricParams, scan_distances
from trackmetric.ospa import ospa_per_scan
from trackmetric.ospamt import Mode, ospamt_metric
from trackmetric.ospat import ospat_per_scan
from trackmetric.scenarios import FigureId, ScenarioSpec, build


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=float, default=1.0)
    ap.add_argument("--c", type=float, default=80.0)
    ap.add_argument("--delta", type=float, default=10.0)
    ap.add_argument("--alpha", type=float, default=10.0)
    args = ap.parse_args()
    params = MetricParams(p=args.p, c=args.c, delta=args.delta, alpha=args.alpha)

    print(f"{'figure':8} {'ospa':>10} {'ospat':>10} {'ospamt':>10}  assignment")
    for fig in FigureId:
        sc = build(ScenarioSpec(fig, cutoff=args.c))
        dist = scan_distances(sc.truth, sc.est, params)
        ospa_val = ospa_per_scan(sc.truth, sc.est, params, dist).total
        ospat_val = ospat_per_scan(sc.truth, sc.est, params, dist)[0].total
        report = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT, dist=dist)
        asg = report.assignment
        pairs = [
            f"{i}<-{list(order)}" for i, order in enumerate(asg.orders, 1) if order
        ]
        print(
            f"{fig.value:8} {ospa_val:10.4f} {ospat_val:10.4f} {report.total:10.4f}"
            f"  {asg.direction.value}: {', '.join(pairs) or 'none'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
