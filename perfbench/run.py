"""trackmetric benchmark: score track-set files through the CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload runs in its own fresh interpreter (worker.py), which calls
``trackmetric.cli.main(["compute", truth.json, est.json, ...])`` in a
closed loop and checks every output.  ``--trace 1`` adds a traced loop after
the untraced one and reports per-layer metrics.  End-to-end times are
scaled to a reference speed by probes run next to every call (see
worker.PROBE_REF_S); the unscaled wall figures are printed too.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_seed1.json"
DEFAULT_SEED = 1
P, C = 1.0, 80.0  # the CLI defaults every call runs with
SETUP_PROBES = 5
TIME_LIMIT_S = 170

END_TO_END = {
    "call_s_p50": "s",
    "call_s_p90": "s",
    "calls_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's sources, no mode
    override, and single-threaded BLAS so no pool competes for the cores."""
    env = {k: v for k, v in os.environ.items() if k != "TRACKMETRIC_MODE"}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def host_speed() -> float:
    """Median of three speed probes: the probe time of the moment."""
    return statistics.median(worker.probe_s() for _ in range(3))


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing trackmetric.cli, at the
    reference speed and in wall seconds."""
    cmd = [sys.executable, "-c", "import trackmetric.cli"]
    ref, wall = [], []
    for i in range(SETUP_PROBES + 1):  # the first start only warms the caches
        before = host_speed()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=60)
        dt = time.perf_counter() - t0
        after = host_speed()
        if i:
            wall.append(dt)
            ref.append(dt * worker.PROBE_REF_S / ((before + after) / 2))
    return statistics.median(ref), statistics.median(wall)


def compute_argv(truth: str, est: str, metric: str, mode: str, fmt: str) -> list[str]:
    argv = ["compute", truth, est, "--metric", metric, "--mode", mode, "--output", fmt]
    return argv + ["--per-time"] if fmt == "table" else argv


def prepare(workload: str, seed: int, workdir: Path, reference: dict | None) -> tuple[dict, list]:
    """Write the inputs and build the worker manifest and the provenance rows."""
    rows, manifest_instances, written = [], [], []
    for inst in workloads.build_instances(workload, seed):
        truth, est, bytes_in, digest = inst.write(workdir)
        lam = workloads.lambda_space(inst.truth, inst.est)
        rows.append([inst.name, len(inst.truth["tracks"]), len(inst.est["tracks"]),
                     inst.scans, lam, bytes_in, digest])
        expected = None
        if reference is not None:
            ref = reference.get(inst.name)
            if ref is None or ref["digest"] != digest:
                raise SystemExit(f"input {inst.name} differs from the recorded reference")
            expected = ref["totals"]
        exact = inst.mode == "exact"
        manifest_instances.append({
            "name": inst.name, "scans": inst.scans, "expected": expected,
            "check_greedy": exact,
            "greedy_argv": compute_argv(truth, est, inst.metric, "greedy", "json") if exact else None,
        })
        written.append((inst, truth, est, lam, bytes_in))
    calls = [
        {"instance": inst.name, "fmt": fmt,
         "argv": compute_argv(truth, est, inst.metric, inst.mode, fmt),
         "metrics": ["ospa", "ospat", "ospamt"] if inst.metric == "all" else [inst.metric],
         "scans": inst.scans, "lambda_space": lam, "bytes_in": bytes_in}
        for fmt in workloads.FORMATS[workload]
        for inst, truth, est, lam, bytes_in in written
    ]
    return {"p": P, "c": C, "instances": manifest_instances, "calls": calls}, rows


def run_worker(manifest: dict, workdir: Path, deadline: float) -> dict:
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(path)], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(times: list[float]) -> float:
    # Inclusive: with few samples the default method extrapolates past the maximum.
    return statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]


def end_to_end(times: list[float], setup_s: float, peak_rss_kb: int) -> dict[str, float]:
    return {
        "call_s_p50": statistics.median(times),
        "call_s_p90": p90(times),
        "calls_per_s": len(times) / sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def src_provenance() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """One measured run of one workload; returns its full record."""
    reference = None
    if seed == DEFAULT_SEED and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    setup_s, setup_wall_s = measure_setup()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        manifest, rows = prepare(workload, seed, workdir, reference)
        manifest.update(seconds=seconds, trace=int(trace))
        res = run_worker(manifest, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    times = worker.ref_times(res["times"], res["probes"])
    above_p90 = sum(1 for t in times if t > p90(times))
    return {
        "workload": workload,
        "seed": seed,
        "correct": res["failed"] == 0 and not res["check_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"] + res["check_failures"],
        "fail_frac": res["failed"] / res["attempted"],
        "samples": len(times),
        "samples_above_p90": above_p90,
        "end_to_end": end_to_end(times, setup_s, res["peak_rss_kb"]),
        "wall": {**{k: v for k, v in end_to_end(res["times"], setup_wall_s, 0).items()
                    if k != "peak_rss_mb"}, "probe_s": statistics.median(res["probes"])},
        "per_layer": res["layers"],
        "missing_boundaries": res["missing_boundaries"],
        "provenance": {**src_provenance(), "seed": seed, **res["versions"],
                       "nproc": os.cpu_count(), "reference_checked": reference is not None,
                       "instances": ["name n_truth n_est T lambda_space bytes digest".split()] + rows},
    }


def report(rec: dict) -> None:
    w = rec["workload"]
    for name, unit in END_TO_END.items():
        print(f"{w} {name} {rec['end_to_end'][name]:.6g} {unit}")
    for name, value in rec["wall"].items():
        print(f"{w} wall {name} {value:.6g} {END_TO_END.get(name, 's')}")
    print(f"{w} fail_frac {rec['fail_frac']:.6g} ratio ({rec['failed']}/{rec['attempted']})")
    print(f"{w} samples {rec['samples']} (above p90: {rec['samples_above_p90']})")
    if rec["per_layer"] is not None:
        for name, unit in worker.PER_LAYER.items():
            print(f"{w} {name} {rec['per_layer'][name]:.6g} {unit}")
        for name in rec["missing_boundaries"]:
            print(f"{w} trace: {name} not found, its metrics read 0")
    for failure in rec["failures"]:
        print(f"{w} FAIL {failure}")
    print("provenance " + json.dumps(rec["provenance"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trackmetric" / "cli.py").is_file():
        print(f"no trackmetric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), deadline) for n in names]
    for rec in records:
        report(rec)

    key = "per_layer" if args.trace else "end_to_end"
    units = worker.PER_LAYER if args.trace else END_TO_END
    prefix = (lambda rec, name: name) if len(records) == 1 else (
        lambda rec, name: f"{rec['workload']}.{name}")
    print(json.dumps({
        "correct": all(rec["correct"] for rec in records),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": {prefix(rec, name): {"value": rec[key][name], "unit": unit}
                    for rec in records for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
