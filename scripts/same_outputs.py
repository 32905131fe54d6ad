#!/usr/bin/env python3
"""Check that two source trees give byte-identical ``compute``, ``split``,
``scenario`` and ``selftest`` outputs.

Every file of ``ERROR_DOCS``, one per kind of parse or validation error,
is scored by ``trackmetric compute BAD VALID --metric all``, once more with
the options of ``ERROR_OPTIONS`` where it has some, and a split of VALID is
written into a missing directory.  A valid pair whose track labels hold
the characters of ``LABELS`` is scored in json and as a table with the
assignment, so that the writers' string escaping is compared.  Every figure
is written by ``trackmetric scenario FIG`` under each spec of
``FIGURE_SPECS``, and a random scenario at each seed under each option set
of ``RANDOM_OPTIONS``; these files come from each tree itself, so a changed
figure shows here even though the workload instances below are built by
the new tree's library.  Every
instance of the benchmark workloads (built by perfbench/workloads.py,
which this script only imports) is scored by ``trackmetric compute TRUTH EST
--metric all --per-time --report-assignment`` in json, csv and table, under
each parameter set of ``PARAM_SETS``, and once more as a table without
``--report-assignment`` under the defaults, which reads no matching.  It is
split by ``trackmetric split TRUTH EST --out FILE`` under each set of
``SPLIT_SETS``.  All runs are made once against each ``src/`` tree;
``trackmetric selftest``, which replays the golden table through the
library calls, runs once per tree.  A run's stdout, stderr and
exit code, and the bytes of the files a split or a scenario writes, must be
the same from both trees.  Each tree runs in its own interpreter, which makes every call
in-process with stdout and stderr captured, as a fresh ``trackmetric``
process would print them.  One line is printed per run that differs, then
per workload how the new tree's split runs ended (cut a track, changed
nothing, or the exit code), then a summary; the exit code is 1 when any run
differs.

Usage:
    python scripts/same_outputs.py OLD/src src [--seeds 1 2 3] \\
        [--workloads small_batch large_all] [--limit N]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/, put on the path above)

#: Parameter sets every instance is scored under: the CLI defaults, p = 2,
#: two with p' not in {1, 2}, the second with a per-dimension scale, and a
#: cutoff below most distances, where nearly every entry of the distance
#: layer sits at the cutoff at p' = 1 and at OSPAT's order 2.
PARAM_SETS = {
    "defaults": [],
    "p2": ["--p", "2", "--c", "30", "--delta", "5", "--alpha", "5"],
    "p3_q1.5": ["--p", "3", "--p-prime", "1.5", "--c", "20", "--delta", "4", "--alpha", "2"],
    "p1.5_q3_scale": ["--p", "1.5", "--p-prime", "3", "--c", "40", "--scale", "{scale}"],
    "far": ["--c", "0.5", "--delta", "0.5", "--alpha", "0.5"],
}
#: The parameter sets every instance is split under.
SPLIT_SETS = ("defaults", "p2")
#: Scale factors of the first state dimensions, for ``{scale}`` above.
SCALE = ("0.5", "2.0", "1.5")
FORMATS = ("json", "csv", "table")
#: Every figure id of ``trackmetric scenario``, named here rather than read
#: from either tree, so a figure gone from one tree shows as a differing run.
FIGURES = ("fig1a", "fig1b", "fig1c", "fig1d", "fig5", "fig6", "fig8", "fig9a", "fig9b",
           "fig10a", "fig11a", "fig11b", "fig12", "fig12a", "fig12b", "fig13")
#: The epsilon, eta, beta and cutoff every figure is written under: the CLI
#: defaults, and values that round in the sums of a figure's states.
FIGURE_SPECS = {
    "defaults": [],
    "fractional": ["--epsilon", "0.1", "--eta", "2.7", "--beta", "123.4", "--c", "30"],
}
#: The options a random scenario is written under at each seed; the last
#: overflows a coordinate and is refused.
RANDOM_OPTIONS = {
    "defaults": [],
    "degraded": ["--n-truth", "5", "--scans", "12", "--miss-rate", "0.2", "--false-rate",
                 "0.5", "--break-rate", "0.5", "--noise", "2"],
    "overflow": ["--noise", "1e308"],
}


def _error_doc(**changes) -> dict:
    """A valid two-track document over 3 scans in 2-D, with ``changes``: a
    top-level field, or ``track`` replacing the second track, or ``point``
    and ``x`` replacing its point or state."""
    point = {"t": 2, "x": changes.pop("x", [1.0, 2.0])}
    point = changes.pop("point", point)
    second = changes.pop("track", {"id": "b", "points": [point]})
    doc = {"scans": 3, "state_dim": 2,
           "tracks": [{"id": "a", "points": [{"t": 1, "x": [0.0, 0.5]}]}, second]}
    doc.update(changes)
    return doc


#: Track-set files that ``compute`` must reject, one per parse error and one
#: per validation error, each scored against the valid ``_error_doc()``.  A
#: value is a document, or the file's text or bytes where that is no JSON
#: document.  The bare ``NaN``, the integers beyond 64 bits or float range,
#: the invalid UTF-8 and the deep nesting are files orjson refuses or reads
#: as floats, so the stdlib parser decides them.
ERROR_DOCS = {
    "not json": "{\"scans\": 3,",
    "top level not an object": "[]",
    "missing field": {"scans": 3, "state_dim": 2},
    "fractional scans": _error_doc(scans=2.5),
    "true state_dim": _error_doc(state_dim=True),
    "tracks not a list": _error_doc(tracks={}),
    "track not an object": _error_doc(track=5),
    "id not a string": _error_doc(track={"id": 5, "points": []}),
    "duplicate id": _error_doc(track={"id": "a", "points": []}),
    "points not a list": _error_doc(track={"id": "b", "points": 5}),
    "malformed point": _error_doc(point={"t": 2}),
    "fractional t": _error_doc(point={"t": 2.5, "x": [1.0, 2.0]}),
    "string coordinate": _error_doc(x=[1.0, "2"]),
    "duplicate t": _error_doc(track={"id": "b", "points": [{"t": 2, "x": [1.0, 2.0]}] * 2}),
    "zero scans": _error_doc(scans=0),
    "zero state_dim": _error_doc(state_dim=0),
    "scans beyond index range": _error_doc(scans=10**21),
    "empty track": _error_doc(track={"id": "b", "points": []}),
    "scan out of range": _error_doc(point={"t": 4, "x": [1.0, 2.0]}),
    "wrong dimension": _error_doc(x=[1.0]),
    "NaN coordinate": _error_doc(x=[1.0, float("nan")]),
    "integer beyond float range": _error_doc(x=[1.0, 10**400]),
    "t of 2^64": _error_doc(point={"t": 2**64, "x": [1.0, 2.0]}),
    "invalid UTF-8": json.dumps(_error_doc()).encode().replace(b'"b"', b'"\xff"'),
    "deep nesting": f'{{"scans": 3, "state_dim": 2, "tracks": {"[" * 100000}{"]" * 100000}}}',
    "scan counts differ": _error_doc(scans=4),
    "state dimensions differ": {"scans": 3, "state_dim": 1,
                                "tracks": [{"id": "a", "points": [{"t": 1, "x": [0.0]}]}]},
}
#: More options a file of ``ERROR_DOCS`` is scored with, in one more run.
ERROR_OPTIONS = {"state dimensions differ": ["--scale", "1,2"]}


def build_error_runs(workdir: Path) -> list[dict]:
    """Write ``ERROR_DOCS`` and the valid document they are scored against,
    and list the ``compute`` runs on each document, then a ``split`` whose
    output directory is missing."""
    valid = workdir / "valid.json"
    valid.write_text(json.dumps(_error_doc()), encoding="utf-8")
    runs = []
    for k, (name, doc) in enumerate(ERROR_DOCS.items()):
        path = workdir / f"error{k}.json"
        if not isinstance(doc, (str, bytes)):
            doc = json.dumps(doc)
        path.write_bytes(doc if isinstance(doc, bytes) else doc.encode("utf-8"))
        argv = ["compute", str(path), str(valid), "--metric", "all"]
        runs.append({"id": f"error: {name}", "argv": argv})
        if name in ERROR_OPTIONS:
            runs.append({"id": f"error: {name} {' '.join(ERROR_OPTIONS[name])}",
                         "argv": argv + ERROR_OPTIONS[name]})
    # relative to the worker's own directory, so the message reads the same
    runs.append({"id": "error: split --out in a missing directory",
                 "argv": ["split", str(valid), str(valid), "--out", "missing/split.json"]})
    return runs


#: Track labels json writes with ASCII escapes (a BMP and an astral
#: character), or that hold a quote, a backslash or a comma.
LABELS = ("caf\u00e9", "\u2603 \U0001d11e", 'say "hi"', "back\\slash", "a,b")


def build_label_runs(workdir: Path) -> list[dict]:
    """Write a valid pair, three tracks a side over 3 scans, whose labels
    are ``LABELS[:3]`` and ``LABELS[2:]``; list its ``compute`` runs in
    json and as a table, each with every metric's assignment."""
    paths = []
    for side, (labels, shift) in enumerate(((LABELS[:3], 0.0), (LABELS[2:], 0.5))):
        tracks = [{"id": label, "points": [{"t": t, "x": [3.0 * i + shift, float(t)]}
                                           for t in (1, 2, 3) if (side, i, t) != (1, 2, 2)]}
                  for i, label in enumerate(labels)]
        paths.append(workdir / f"labels{side}.json")
        paths[-1].write_text(json.dumps({"scans": 3, "state_dim": 2, "tracks": tracks}),
                             encoding="utf-8")
    return [{"id": f"labels {fmt}",
             "argv": ["compute", *map(str, paths), "--metric", "all", "--per-time",
                      "--report-assignment", "--output", fmt]}
            for fmt in ("json", "table")]


def build_scenario_runs(seeds: list[int]) -> list[dict]:
    """One ``scenario`` run per figure and spec of ``FIGURE_SPECS``, then
    per seed and option set of ``RANDOM_OPTIONS``; each writes its sets to
    the ``{out...}`` files, and ``--alt`` is ignored where none is drawn."""
    outputs = ["--truth", "{out}", "--est", "{out.est}", "--alt", "{out.alt}"]
    runs = [{"id": f"scenario {fig} {label}", "argv": ["scenario", fig, *outputs, *extra]}
            for fig in FIGURES for label, extra in FIGURE_SPECS.items()]
    runs += [{"id": f"scenario random seed {seed} {label}",
              "argv": ["scenario", "random", "--seed", str(seed), *outputs, *extra]}
             for seed in seeds for label, extra in RANDOM_OPTIONS.items()]
    return runs


def build_runs(names: list[str], seeds: list[int], limit: int | None,
               workdir: Path) -> list[dict]:
    """Write every instance's files and list the runs made on them, after
    the one selftest run, the runs on ``ERROR_DOCS``, the runs on the
    ``LABELS`` pair and the scenario runs."""
    runs = [{"id": "selftest", "argv": ["selftest"]}, *build_error_runs(workdir),
            *build_label_runs(workdir), *build_scenario_runs(seeds)]
    for workload in names:
        for seed in seeds:
            for inst in workloads.build_instances(workload, seed)[:limit]:
                truth, est, _, _ = inst.write(workdir / f"{workload}.s{seed}")
                scale = ",".join(SCALE[: inst.truth["state_dim"]])
                for label, extra in PARAM_SETS.items():
                    for fmt in FORMATS:
                        argv = ["compute", truth, est, "--metric", "all", "--mode", inst.mode,
                                "--output", fmt, "--per-time", "--report-assignment"]
                        argv += [arg.format(scale=scale) for arg in extra]
                        runs.append({"id": f"{workload} seed {seed} {inst.name} {label} {fmt}",
                                     "argv": argv})
                    if label == "defaults":
                        # a table that prints no matching, so reads none
                        argv = ["compute", truth, est, "--metric", "all", "--mode", inst.mode,
                                "--output", "table", "--per-time"]
                        runs.append({"id": f"{workload} seed {seed} {inst.name} {label} "
                                           "table unread", "argv": argv})
                    if label in SPLIT_SETS:
                        argv = ["split", truth, est, "--out", "{out}", "--mode", inst.mode]
                        runs.append({"id": f"{workload} seed {seed} {inst.name} {label} split",
                                     "argv": argv + [arg.format(scale=scale) for arg in extra],
                                     "workload": workload})
    return runs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def worker(manifest: Path) -> int:
    """Make every run of the manifest against the ``trackmetric`` on the
    path; print one JSON list of [exit code, stdout digest, stderr digest,
    written files' digest or null, outcome], where the outcome of a split
    is "cut", "no cut" or "exit <code>".  An argument ``{out...}`` names the
    file ``out....json`` in the worker's working directory, so a path printed
    reads the same from both trees.  A run that raises an uncaught
    exception exits 1 with the exception's type and message as its last
    line of stderr."""
    from trackmetric.cli import main

    results = []
    for run in json.loads(manifest.read_text(encoding="utf-8")):
        argv = [arg[1:-1] + ".json" if arg.startswith("{out") else arg
                for arg in run["argv"]]
        outputs = [Path(arg) for arg, raw in zip(argv, run["argv"]) if arg != raw]
        out, err = io.StringIO(), io.StringIO()
        # catch_warnings forgets the warnings already shown, so each
        # prints once per run, as it would once per process
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash, as a process would end with it
                # its type and message only: a traceback names the tree's paths
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        written = [path for path in outputs if path.exists()]
        file_digest = digest(b"".join(bytes(path) + b"\0" + path.read_bytes()
                                      for path in written)) if written else None
        for path in written:
            path.unlink()
        outcome = (f"exit {code}" if code else
                   "cut" if out.getvalue().startswith("split ") else "no cut")
        results.append([code, *(digest(s.getvalue().encode()) for s in (out, err)),
                        file_digest, outcome])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path, help="the src/ tree to compare against")
    ap.add_argument("new", type=Path, help="the src/ tree under test")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                    choices=workloads.WORKLOADS)
    ap.add_argument("--limit", type=int, default=None, help="instances per workload and seed")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args.worker)

    sys.path.insert(0, str(args.new.resolve()))  # the figure instances come from the library
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for workload in args.workloads:
            for seed in args.seeds:
                (workdir / f"{workload}.s{seed}").mkdir()
        runs = build_runs(args.workloads, args.seeds, args.limit, workdir)
        manifest = workdir / "manifest.json"
        manifest.write_text(json.dumps(runs), encoding="utf-8")
        procs = []
        for name, tree in (("old", args.old), ("new", args.new)):
            (workdir / name).mkdir()  # each worker's files are written here
            procs.append(subprocess.Popen(
                [sys.executable, __file__, args.old, args.new, "--worker", manifest],
                env={**env, "PYTHONPATH": str(tree.resolve())}, cwd=workdir / name,
                stdout=subprocess.PIPE, text=True))
        outputs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("a worker failed", file=sys.stderr)
        return 2
    old, new = (json.loads(out) for out in outputs)
    print(f"{'run':60} differs in")
    differ = 0
    splits: dict[str, Counter] = {}
    for run, a, b in zip(runs, old, new):
        parts = [name for name, x, y in zip(("exit code", "stdout", "stderr", "file"), a, b)
                 if x != y]
        if parts:
            differ += 1
            print(f"{run['id']:60} {', '.join(parts)}")
        if "workload" in run:
            splits.setdefault(run["workload"], Counter())[b[-1]] += 1
    for workload, outcomes in splits.items():
        print(f"split {workload}: " + ", ".join(f"{n} {o}" for o, n in sorted(outcomes.items())))
    print(f"{differ} of {len(runs)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
