"""The output gate passes clean outputs and fails perturbed ones.

    PYTHONPATH=src python3 -m pytest perfbench/test_gate.py -q

A perturbed output must count as a failed call, so ``fail_frac`` can rise
above zero; otherwise the benchmark's correctness check could never fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import worker  # noqa: E402
from trackmetric import cli  # noqa: E402


def _calls(tmp_path, fmt):
    manifest, _ = run.prepare("small_batch", run.DEFAULT_SEED, tmp_path, None)
    return [worker.Call(**c) for c in manifest["calls"] if c["fmt"] == fmt][:4]


def _bump_json_row(text):
    doc = json.loads(text)
    rows = doc["metrics"]["ospamt"]["per_time"]
    row = max(rows, key=lambda r: r["n_t"])
    row["total"] += 1.0
    return json.dumps(doc)


def _drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _bump_table_total(text):
    lines = text.splitlines(keepends=True)
    name, total, loc, card = lines[1].split()
    lines[1] = f"{name:8} {float(total) + 1.0:14.6f} {loc:>14} {card:>14}\n"
    return "".join(lines)


PERTURB = {"json": _bump_json_row, "csv": _drop_last_row, "table": _bump_table_total}


@pytest.mark.parametrize("fmt", sorted(PERTURB))
def test_clean_outputs_pass(tmp_path, fmt):
    loop = worker.run_loop(_calls(tmp_path, fmt), 0, cli.main, run.P, run.C, {})
    assert len(loop.times) == 4 and loop.failures == []


@pytest.mark.parametrize("fmt", sorted(PERTURB))
def test_perturbed_output_counts_as_failed(tmp_path, fmt):
    loop = worker.run_loop(_calls(tmp_path, fmt), 0, cli.main, run.P, run.C, {},
                           perturb=PERTURB[fmt])
    assert len(loop.failures) == len(loop.times) == 4


def test_totals_off_the_reference_fail(tmp_path):
    calls = _calls(tmp_path, "json")
    reference = json.loads(run.REFERENCE.read_text())["small_batch"]
    expected = {name: {m: v * (1 + 1e-6) + 1e-6 for m, v in ref["totals"].items()}
                for name, ref in reference.items()}
    loop = worker.run_loop(calls, 0, cli.main, run.P, run.C, expected)
    assert len(loop.failures) == 4


def test_nonzero_exit_counts_as_failed(tmp_path):
    call = _calls(tmp_path, "json")[0]
    broken = worker.Call(**{**call.__dict__, "argv": ["compute", str(tmp_path / "none.json"),
                                                      *call.argv[2:]]})
    loop = worker.run_loop([broken], 0, cli.main, run.P, run.C, {})
    assert len(loop.failures) == 1 and "exit 2" in loop.failures[0]
