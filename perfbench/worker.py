"""Closed-loop client of ``trackmetric.cli.main``, run in a fresh interpreter.

Usage: python3 worker.py MANIFEST.json

The manifest (written by run.py) names the input files, the calls of one
rotation, the run length and whether to trace.  One client in one thread
sends each call only after the previous one returned.  Every call's stdout
is captured in memory and checked by the gate outside the timed region.
A speed probe runs before the first call and after every call, so each
call's wall time can be scaled to the reference speed.  The last stdout
line is a JSON object with the raw samples.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import gate
import spans

#: Per-layer metrics of a traced run, per call unless the unit says ratio.
PER_LAYER = {
    "core.base_distance.calls": "count",
    "core.params_built": "count",
    "ospamt.cost_matrix.s": "s",
    "ospamt.cost_matrix.calls": "count",
    "ospat.ospat_reorder.s": "s",
    "ospat.ospat_reorder.calls": "count",
    "ospamt.quasi_ospamt.self_s": "s",
    "ospamt.quasi_ospamt.calls": "count",
    "ospamt.lambda_space": "count",
    "assign.solve_one_to_one.s": "s",
    "assign.solve_one_to_one.calls": "count",
    "assign.lsa.calls": "count",
    "assign.lsa_per_solve": "ratio",
    "assign.greedy_many_to_one.s": "s",
    "ospamt.directional_terms.s": "s",
    "ospamt.directional_terms.calls": "count",
    "ospamt.ospamt_metric.s": "s",
    "ospa.ospa_per_scan.s": "s",
    "ospat.ospat_per_scan.s": "s",
    "ospat.ospat_global.s": "s",
    "io.load_track_set.s": "s",
    "io.validate.s": "s",
    "io.bytes_in": "B",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}


#: Iterations of the speed probe, a fixed pure-Python loop of about 1 ms.
#: On a shared 2-vCPU virtual machine the speed flips between two levels
#: about 1.7x apart, at times from one second to the next, so raw call times
#: of 30 s runs spread by a quarter or more with nothing changed.  The probe
#: tracks the flips: in a process that alternated probes with calls for
#: 200 s, 15 s window medians of exact_dense and large_all call times spread
#: by 39% and 34%, and of call time over probe time by 4% and 5%.
PROBE_LOOPS = 10_000
#: The probe time that defines the reference speed.  A reference second is
#: a wall second on a host that runs the probe in exactly this long.
PROBE_REF_S = 0.001


def probe_s() -> float:
    """Wall time of the speed probe."""
    t0 = perf_counter()
    acc, cells = 0.0, {}
    for i in range(PROBE_LOOPS):
        cells[i % 97] = acc
        acc += (i * 0.5) ** 0.5
    return perf_counter() - t0


def ref_times(times: list[float], probes: list[float]) -> list[float]:
    """Call times at the reference speed: each wall time scaled by
    PROBE_REF_S over the mean of the probes just before and just after it."""
    return [dt * 2 * PROBE_REF_S / (probes[i] + probes[i + 1]) for i, dt in enumerate(times)]


@dataclass(frozen=True)
class Call:
    instance: str
    fmt: str
    argv: list[str]
    metrics: list[str]
    scans: int
    lambda_space: int
    bytes_in: int


@dataclass
class Loop:
    times: list[float] = field(default_factory=list)
    #: probes[i] ran just before times[i]'s call and probes[i + 1] just after.
    probes: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bytes_out: int = 0
    lambda_space: int = 0
    bytes_in: int = 0


def invoke(main, argv: list[str]) -> tuple[object, str, str, float]:
    """One call with stdout and stderr captured; returns code, out, err, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing call is a failed call, not a crashed run
            code = repr(exc)
        dt = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def run_loop(calls: list[Call], seconds: float, main, p: float, c: float,
             expected: dict[str, dict[str, float]], perturb=None) -> Loop:
    """Repeat whole rotations of ``calls`` while the next one fits in ``seconds``.

    At least one rotation runs.  ``expected`` maps instance names to totals;
    an instance without an entry takes those of its first full-precision
    output.  ``perturb`` edits each output before the gate sees it.
    """
    loop = Loop(probes=[probe_s()])
    start = perf_counter()
    while True:
        r0 = perf_counter()
        for call in calls:
            code, text, err, dt = invoke(main, call.argv)
            loop.probes.append(probe_s())
            loop.times.append(dt)
            loop.bytes_out += len(text)
            loop.lambda_space += call.lambda_space
            loop.bytes_in += call.bytes_in
            if perturb is not None:
                text = perturb(text)
            try:
                if code != 0:
                    raise gate.GateError(f"exit {code}: {err.strip()[-300:]}")
                totals = gate.check(text, call.fmt, call.metrics, call.scans, p, c,
                                    expected.get(call.instance))
            except gate.GateError as exc:
                loop.failures.append(f"{call.instance}/{call.fmt}: {exc}")
                continue
            if call.instance not in expected and call.fmt != "table":
                expected[call.instance] = totals
        now = perf_counter()
        if now - start + (now - r0) > seconds:
            return loop


def layer_metrics(summary: dict[str, float], traced: Loop, untraced: Loop) -> dict[str, float]:
    n = len(traced.times)
    per_call = {k: v / n for k, v in summary.items()}
    out = {name: per_call.get(name, 0.0) for name in PER_LAYER}
    out["core.params_built"] = per_call.get("core.params_built.calls", 0.0)
    out["ospamt.lambda_space"] = traced.lambda_space / n
    solves = summary.get("assign.solve_one_to_one.calls", 0.0)
    out["assign.lsa_per_solve"] = summary.get("assign.lsa.calls", 0.0) / solves if solves else 0.0
    out["io.bytes_in"] = traced.bytes_in / n
    out["cli.bytes_out"] = traced.bytes_out / n
    out["trace.overhead_s"] = (statistics.median(ref_times(traced.times, traced.probes))
                               - statistics.median(ref_times(untraced.times, untraced.probes)))
    return out


def main(manifest_path: str) -> int:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    import numpy
    import scipy
    from trackmetric import cli

    p, c, seconds = manifest["p"], manifest["c"], manifest["seconds"]
    instances = {inst["name"]: inst for inst in manifest["instances"]}
    calls = [Call(**call) for call in manifest["calls"]]
    expected = {name: inst["expected"] for name, inst in instances.items() if inst["expected"]}
    failures: list[str] = []

    # Untimed: the first call finishes lazy set-up; greedy totals bound the
    # exact ones from above on instances searched exactly.
    invoke(cli.main, calls[0].argv)
    greedy = {}
    for name, inst in instances.items():
        if inst["check_greedy"]:
            code, text, err, _ = invoke(cli.main, inst["greedy_argv"])
            try:
                if code != 0:
                    raise gate.GateError(f"exit {code}: {err.strip()[-300:]}")
                greedy[name] = gate.check(text, "json", ["ospamt"], inst["scans"], p, c, None)
            except gate.GateError as exc:
                failures.append(f"{name}/greedy: {exc}")

    untraced = run_loop(calls, seconds, cli.main, p, c, expected)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loops = [untraced]
    layers = None
    missing: list[str] = []
    if manifest["trace"]:
        tracer = spans.Tracer()
        undo, missing = spans.install(tracer)
        try:
            traced = run_loop(calls, seconds, tracer.span("cli.main", cli.main), p, c, expected)
        finally:
            undo()
        loops.append(traced)
        layers = layer_metrics(tracer.summary(), traced, untraced)

    for name, totals in greedy.items():
        exact = expected.get(name, {}).get("ospamt", math.inf)
        if not exact <= totals["ospamt"] * (1 + gate.REL_TOL):
            failures.append(f"{name}: exact total {exact!r} above greedy {totals['ospamt']!r}")

    result = {
        "attempted": sum(len(lp.times) for lp in loops),
        "failed": sum(len(lp.failures) for lp in loops),
        "check_failures": failures,
        "failures": [f for lp in loops for f in lp.failures][:10],
        "times": untraced.times,
        "probes": untraced.probes,
        "peak_rss_kb": peak_rss_kb,
        "totals": expected,
        "layers": layers,
        "missing_boundaries": missing,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
