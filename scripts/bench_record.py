#!/usr/bin/env python3
"""Fold saved perfbench/run.py output into one BENCH_<n>.json file.

Each input file is the stdout of one ``python3 perfbench/run.py`` run.
Untraced runs give the end-to-end metrics; a run made with ``--trace 1``
gives the per-layer metrics too.  Parent and change files are paired in the
order given, so pass them with matching seeds and give the parent of each
pair first or second alternately when running them.  The metric names,
units and directions come from BENCHMARK.json.

Usage:
    python scripts/bench_record.py --out BENCH_6.json \\
        --parent runs/parent.*.t0.txt --change runs/change.*.t0.txt \\
        --parent-trace runs/parent.large_all.s4.t1.txt \\
        --change-trace runs/change.large_all.s4.t1.txt
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(text: str) -> dict:
    """Metrics, failure fraction and provenance of every workload in one
    run's stdout, keyed by workload name."""
    runs: dict[str, dict] = {}
    last = None
    for line in text.splitlines():
        if line.startswith("provenance "):
            runs[last]["provenance"] = json.loads(line.removeprefix("provenance "))
            continue
        parts = line.split()
        if len(parts) < 3 or line.startswith("{") or parts[1] in ("wall", "samples", "FAIL"):
            continue
        last = parts[0]
        rec = runs.setdefault(last, {"metrics": {}, "missing": []})
        if parts[1] == "trace:":
            rec["missing"].append(parts[2])
        else:
            rec["metrics"][parts[1]] = float(parts[2])
    return runs


def read_runs(paths: list[Path]) -> list[dict]:
    return [parse_run(path.read_text(encoding="utf-8")) for path in paths]


def spread(values: list[float]) -> dict:
    q1, med, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def compare(pairs: list[tuple[float, float]], metric: dict) -> dict:
    """Both sides' spread of one metric over (parent, change) pairs and how
    many pairs the change won; ties count for neither side."""
    sign = 1 if metric["better"] == "lower" else -1
    parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": parent,
        "change": change,
        "change_vs_parent": change["median"] / parent["median"] - 1,
        "change_wins": sum(1 for p, c in pairs if sign * (p - c) > 0),
        "pairs": len(pairs),
    }


def fold(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per workload: the seeds, failure fractions and reference checks of
    every pair, and ``compare`` of each end-to-end metric."""
    out: dict[str, dict] = {}
    values: dict[str, dict[str, list]] = {}
    for p_run, c_run in zip(parent, change):
        for workload in sorted(p_run.keys() & c_run.keys()):
            seeds = (p_run[workload]["provenance"]["seed"], c_run[workload]["provenance"]["seed"])
            if seeds[0] != seeds[1]:
                raise SystemExit(f"{workload}: a pair mixes seeds {seeds}")
            rec = out.setdefault(workload, {"seeds": [], "fail_frac": {"parent": [], "change": []},
                                            "reference_checked": []})
            rec["seeds"].append(seeds[0])
            for side, run in (("parent", p_run), ("change", c_run)):
                rec["fail_frac"][side].append(run[workload]["metrics"]["fail_frac"])
                if run[workload]["provenance"]["reference_checked"]:
                    rec["reference_checked"].append(side)
            for m in metrics:
                pair = (p_run[workload]["metrics"][m["name"]], c_run[workload]["metrics"][m["name"]])
                values.setdefault(workload, {}).setdefault(m["name"], []).append(pair)
    for workload, rec in out.items():
        rec["end_to_end"] = {m["name"]: compare(values[workload][m["name"]], m) for m in metrics}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--parent", nargs="+", required=True, type=Path)
    ap.add_argument("--change", nargs="+", required=True, type=Path)
    ap.add_argument("--parent-trace", nargs="*", default=[], type=Path)
    ap.add_argument("--change-trace", nargs="*", default=[], type=Path)
    ap.add_argument("--benchmark", default=ROOT / "BENCHMARK.json", type=Path)
    args = ap.parse_args(argv)
    if len(args.parent) != len(args.change):
        ap.error("--parent and --change need the same number of runs")

    bench = json.loads(args.benchmark.read_text(encoding="utf-8"))
    parent, change = read_runs(args.parent), read_runs(args.change)
    workloads = fold(parent, change, bench["end_to_end"])

    traced: dict[str, dict] = {}
    for side, paths in (("parent", args.parent_trace), ("change", args.change_trace)):
        for run in read_runs(paths):
            for workload, rec in run.items():
                entry = traced.setdefault(workload, {})
                entry[side] = {"seed": rec["provenance"]["seed"], "missing": rec["missing"]}
                for m in bench["per_layer"]:
                    entry.setdefault("metrics", {}).setdefault(
                        m["name"], {"unit": m["unit"], "better": m["better"]}
                    )[side] = rec["metrics"].get(m["name"])
                entry.setdefault("provenance", {})[side] = rec["provenance"]

    def first(runs: list[dict]) -> dict:
        return next(iter(runs[0].values()))["provenance"]

    doc = {
        "benchmark": bench["command"],
        "src_lines": {"parent": first(parent)["src_lines"], "change": first(change)["src_lines"]},
        "provenance": {"parent": first(parent), "change": first(change)},
        "workloads": workloads,
        "per_layer": traced,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(f"{'workload':12} {'metric':12} {'parent':>11} {'change':>11} {'change%':>8} wins")
    for workload, rec in workloads.items():
        for name, m in rec["end_to_end"].items():
            print(f"{workload:12} {name:12} {m['parent']['median']:11.5g} "
                  f"{m['change']['median']:11.5g} {100 * m['change_vs_parent']:+8.1f} "
                  f"{m['change_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
