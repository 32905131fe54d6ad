"""The scripts under scripts/ run against the current API.

Each script is run in-process as ``__main__`` with a small argument list;
it must exit 0 and print its header line first.
"""

import runpy
import sys
from pathlib import Path

import pytest

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
