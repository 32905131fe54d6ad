"""The scripts under scripts/ and the README's examples run against the
current API.

Each script is run in-process as ``__main__`` with a small argument list;
it must exit 0 and print its header line first.
"""

import importlib
import inspect
import json
import pkgutil
import re
import runpy
import shutil
import sys
from pathlib import Path

import pytest

import trackmetric

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("figure_report.py", [], ["figure", "ospa", "ospat", "ospamt", "assignment"]),
        (
            "greedy_vs_exact.py",
            ["--cases", "5"],
            ["tracks/side", "cases", "diverged", "rate", "worst", "gap"],
        ),
    ],
)
def test_script_runs(monkeypatch, capsys, script, args, header):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts prepend src/
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == header
    assert len(lines) > 1


def test_readme_python_blocks_run():
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def canned_run(seed, p50, src_lines, layers=None):
    """stdout of one perfbench/run.py run on large_all, as it prints it."""
    lines = [
        f"large_all call_s_p50 {p50} s",
        f"large_all call_s_p90 {2 * p50} s",
        f"large_all calls_per_s {1 / p50:.6g} 1/s",
        "large_all setup_s 0.35 s",
        "large_all peak_rss_mb 103.2 MB",
        f"large_all wall call_s_p50 {3 * p50} s",
        "large_all fail_frac 0 ratio (0/96)",
        "large_all samples 48 (above p90: 5)",
    ]
    for name, value in (layers or {}).items():
        lines.append(f"large_all {name} {value} count")
    if layers:
        lines.append("large_all trace: trackmetric.ospa.gone not found, its metrics read 0")
    provenance = {"commit": None, "src_sha256": "0" * 16, "src_lines": src_lines,
                  "seed": seed, "nproc": 2, "reference_checked": seed == 1, "instances": []}
    lines.append("provenance " + json.dumps(provenance))
    lines.append(json.dumps({"correct": True, "attempted": 96, "failed": 0, "metrics": {}}))
    return "\n".join(lines) + "\n"


def test_bench_record_folds_saved_runs(monkeypatch, capsys, tmp_path):
    paths = {"parent": [], "change": []}
    for seed, (p50_parent, p50_change) in enumerate([(0.06, 0.04), (0.05, 0.041), (0.04, 0.042)], 1):
        for side, p50, lines in (("parent", p50_parent, 2506), ("change", p50_change, 2500)):
            path = tmp_path / f"{side}.s{seed}.txt"
            path.write_text(canned_run(seed, p50, lines), encoding="utf-8")
            paths[side].append(str(path))
    traces = []
    for side, calls in (("parent", 322.5), ("change", 3)):
        path = tmp_path / f"{side}.trace.txt"
        path.write_text(canned_run(4, 0.05, 0, {"core.base_distance.calls": calls}), encoding="utf-8")
        traces.append(str(path))
    out = tmp_path / "BENCH_0.json"
    path = SCRIPTS / "bench_record.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(out), "--parent", *paths["parent"],
                                      "--change", *paths["change"], "--parent-trace", traces[0],
                                      "--change-trace", traces[1]])
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0].split() == [
        "workload", "metric", "parent", "change", "change%", "wins"]

    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["src_lines"] == {"parent": 2506, "change": 2500}
    assert doc["provenance"]["change"]["seed"] == 1
    rec = doc["workloads"]["large_all"]
    assert rec["seeds"] == [1, 2, 3]
    assert rec["reference_checked"] == ["parent", "change"]
    assert rec["fail_frac"] == {"parent": [0.0] * 3, "change": [0.0] * 3}
    p50 = rec["end_to_end"]["call_s_p50"]
    assert p50["parent"] == {"median": 0.05, "q1": 0.045, "q3": 0.055, "runs": [0.06, 0.05, 0.04]}
    assert p50["change"]["median"] == 0.041
    assert (p50["change_wins"], p50["pairs"]) == (2, 3)
    assert rec["end_to_end"]["calls_per_s"]["change_wins"] == 2  # higher is better there
    assert set(rec["end_to_end"]) == {"call_s_p50", "call_s_p90", "calls_per_s", "setup_s",
                                      "peak_rss_mb"}
    layer = doc["per_layer"]["large_all"]
    assert layer["metrics"]["core.base_distance.calls"]["parent"] == 322.5
    assert layer["metrics"]["core.base_distance.calls"]["change"] == 3
    assert layer["metrics"]["ospamt.cost_matrix.s"]["change"] is None
    assert layer["change"] == {"seed": 4, "missing": ["trackmetric.ospa.gone"]}


def test_same_outputs_compares_two_trees(monkeypatch, capsys, tmp_path):
    src = SCRIPTS.parent / "src"
    # a copy whose json per-scan rows and written track-set files are
    # indented differently
    changed = tmp_path / "src"
    shutil.copytree(src / "trackmetric", changed / "trackmetric",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, old, new in (("cli.py", '          "t": %s', '         "t": %s'),
                           ("io.py", 'inner = pad + "  "', 'inner = pad + " "')):
        module = changed / "trackmetric" / name
        text = module.read_text(encoding="utf-8")
        assert old in text
        module.write_text(text.replace(old, new), encoding="utf-8")
    # and a copy whose main raises, which the comparison must survive
    crashed = tmp_path / "crashed"
    shutil.copytree(changed, crashed)
    module = crashed / "trackmetric" / "cli.py"
    signature = "def main(argv: list[str] | None = None) -> int:\n"
    module.write_text(module.read_text(encoding="utf-8").replace(
        signature, signature + "    raise RuntimeError('no main')\n"), encoding="utf-8")
    # and a copy that draws fig10a as fig11a: the workload instances come
    # from the new tree's figures, so only the scenario runs can see it
    refigured = tmp_path / "refigured"
    shutil.copytree(src / "trackmetric", refigured / "trackmetric",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(refigured / "trackmetric" / "scenarios.py", "a", encoding="utf-8") as fh:
        fh.write("_FIGURES[FigureId.FIG10A] = _FIGURES[FigureId.FIG11A]\n")
    path = SCRIPTS / "same_outputs.py"

    def compare(new) -> tuple[int, list[str]]:
        monkeypatch.setattr(sys, "argv", [str(path), str(src), str(new), "--workloads",
                                          "small_batch", "exact_dense", "--limit", "1"])
        monkeypatch.setattr(sys, "path", list(sys.path))
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(path), run_name="__main__")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["run", "differs", "in"]
        return exc.value.code, lines

    # one selftest, 28 runs on rejected files and a split into a missing
    # directory, the labels pair in json and table, 16 figures under 2
    # specs and a random scenario under 3 option sets (the last refused),
    # then 2 instances, each scored under 5 parameter sets in 3 formats,
    # once more as a table without the assignment, and split under 2
    # json, and the files every split and every written scenario write, differ
    for new, code, counts in ((src, 0, (0, 0, 0)), (changed, 1, (11, 4, 34))):
        got, lines = compare(new)
        assert got == code
        assert lines[-1] == f"{sum(counts)} of 103 runs differ"
        assert lines[-3:-1] == ["split small_batch: 2 no cut", "split exact_dense: 2 no cut"]
        differing = lines[1:-3]
        assert all(" json " in line and line.endswith(" stdout")
                   or line.endswith(" file") for line in differing)
        assert (sum(" json " in line for line in differing),
                sum(" split " in line for line in differing),
                sum(line.startswith("scenario ") for line in differing)) == counts
    # every run of the crashed tree exits 1, so every one differs
    code, lines = compare(crashed)
    assert code == 1
    assert lines[-1] == "103 of 103 runs differ"
    assert lines[-3:-1] == ["split small_batch: 2 exit 1", "split exact_dense: 2 exit 1"]
    assert all(" exit code, " in line for line in lines[1:-3])
    # a changed figure shows in its files alone
    code, lines = compare(refigured)
    assert code == 1
    assert [line.split() for line in lines[1:-3]] == [
        ["scenario", "fig10a", spec, "file"] for spec in ("defaults", "fractional")]
    assert lines[-1] == "2 of 103 runs differ"


def test_readme_documents_the_public_api():
    # every exported name is shown in the Library section's code, and every
    # call in its list of lower-level pieces names something the package has
    # and, where its arguments are bare names, binds to its signature
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = " ".join(re.findall(r"```.*?```|`[^`]+`", library, re.S))
    assert set(trackmetric.__all__) - set(re.findall(r"\w+", code)) == set()
    modules = [trackmetric] + [importlib.import_module(f"trackmetric.{m.name}")
                               for m in pkgutil.iter_modules(trackmetric.__path__)]
    owners = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    pieces = library.split("Lower-level pieces", 1)[1].split("\n\n", 2)[1]
    calls = re.findall(r"`(?:\w+\.)*(\w+)\(", pieces)
    assert calls and [c for c in calls if not any(hasattr(o, c) for o in owners)] == []
    unbound, bound = [], 0
    for name, args in re.findall(r"`(?:\w+\.)*(\w+)\(([^`(]*)\)`", pieces):
        args = [a.rstrip(",") for a in args.split()]  # a call may wrap across lines
        if not all(a.isidentifier() for a in args):
            continue  # a call with `*` or a nested call
        sig = inspect.signature(next(getattr(o, name) for o in owners if hasattr(o, name)))
        first = next(iter(sig.parameters), None)
        if first == "self":
            sig = sig.replace(parameters=list(sig.parameters.values())[1:])
        try:
            sig.bind(*args)
            bound += 1
        except TypeError:
            unbound.append(f"{name}({', '.join(args)})")
    assert bound and unbound == []
