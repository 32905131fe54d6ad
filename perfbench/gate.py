"""Correctness gate for the captured output of one ``compute`` call.

Each format is parsed back into, per metric, the reported total (CSV has
none, so its total is rebuilt from the rows) and the per-scan rows
``(t, total_t, n_t)``.  The checks:

- exactly T per-scan rows per metric, for scans 1..T in order;
- 0 <= total <= c;
- total**p * n == sum(total_t**p * n_t), n = sum(n_t), within 1e-9
  relative for JSON; table output prints six decimals, so there the
  identity and every comparison hold within that rounding;
- totals equal the expected ones, when known.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9
#: Two values printed with six decimals each differ from the exact ones by at
#: most 5e-7; a weighted power mean of rounded rows moves by no more than
#: the rounding, so printed total and rebuilt total agree within 1e-6.
TABLE_TOL = 1.5e-6
CSV_HEADER = ["t", "metric", "total", "loc", "card", "n_t"]

Parsed = dict[str, tuple["float | None", list[tuple[int, float, int]]]]


class GateError(Exception):
    """The output failed a check."""


def _parse_json(text: str) -> Parsed:
    doc = json.loads(text)
    return {
        name: (float(m["total"]), [(int(r["t"]), float(r["total"]), int(r["n_t"]))
                                   for r in m["per_time"]])
        for name, m in doc["metrics"].items()
    }


def _parse_csv(text: str) -> Parsed:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        raise GateError("missing CSV header")
    out: Parsed = {}
    for t, metric, total, _loc, _card, n_t in rows[1:]:
        out.setdefault(metric, (None, []))[1].append((int(t), float(total), int(n_t)))
    return out


def _parse_table(text: str) -> Parsed:
    lines = text.splitlines()
    if not lines or lines[0].split() != ["metric", "total", "loc", "card"]:
        raise GateError("missing table header")
    out: Parsed = {}
    pos = 1
    while pos < len(lines) and lines[pos].strip():
        if not lines[pos].startswith(" "):  # indented lines are extras
            name, total, _loc, _card = lines[pos].split()
            out[name] = (float(total), [])
        pos += 1
    if pos + 1 >= len(lines) or lines[pos + 1].split() != ["t", "metric", "total", "loc", "card", "n_t"]:
        raise GateError("missing per-scan table")
    for line in lines[pos + 2:]:
        t, name, total, _loc, _card, n_t = line.split()
        out[name][1].append((int(t), float(total), int(n_t)))
    return out


_PARSERS = {"json": _parse_json, "csv": _parse_csv, "table": _parse_table}


def check(text: str, fmt: str, metrics: list[str], scans: int, p: float, c: float,
          expected: dict[str, float] | None) -> dict[str, float]:
    """Raise GateError unless ``text`` is a correct output; return the totals."""
    try:
        parsed = _PARSERS[fmt](text)
    except (ValueError, KeyError, TypeError) as exc:
        raise GateError(f"unparsable {fmt} output: {exc!r}") from None
    if sorted(parsed) != sorted(metrics):
        raise GateError(f"metrics {sorted(parsed)} != {sorted(metrics)}")
    totals = {}
    for name in metrics:
        total, rows = parsed[name]
        if [r[0] for r in rows] != list(range(1, scans + 1)):
            raise GateError(f"{name}: {len(rows)} per-scan rows for T={scans}")
        n = sum(r[2] for r in rows)
        weighted = sum(r[1] ** p * r[2] for r in rows)
        rebuilt = (weighted / n) ** (1.0 / p) if n else 0.0
        if total is None:
            total = rebuilt
        elif fmt == "table":
            if abs(total - rebuilt) > TABLE_TOL:
                raise GateError(f"{name}: total {total} but rows give {rebuilt}")
        elif not math.isclose(total**p * n, weighted, rel_tol=REL_TOL, abs_tol=1e-300):
            raise GateError(f"{name}: total**p*n {total**p * n} != rows {weighted}")
        if not 0.0 <= total <= c + (TABLE_TOL if fmt == "table" else 0.0):
            raise GateError(f"{name}: total {total} outside [0, {c}]")
        if expected is not None and name in expected:
            want = expected[name]
            ok = (abs(total - want) <= TABLE_TOL if fmt == "table"
                  else math.isclose(total, want, rel_tol=REL_TOL, abs_tol=1e-12))
            if not ok:
                raise GateError(f"{name}: total {total!r} != expected {want!r}")
        totals[name] = total
    return totals
