"""The paper's worked results as one golden table.

Each row names its check and the acceptance criterion it backs, makes its
library calls and gives, in closed form, the values they must return with
the default parameters on the default scenarios (epsilon=1, eta=5), at each
order p it lists.  Floats compare within 1e-9 relative or 1e-12 absolute
(tuples entry by entry); everything else, such as pairings, orders, counts
and the Remark 4 matrices, whose entries the greedy sweep copies rather
than computes, compares exactly.  ``trackmetric selftest`` and
``tests/test_acceptance.py`` both check these rows.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .assign import INFEASIBLE, greedy_many_to_one
from .core import Direction, MetricParams
from .ospa import ospa_per_scan
from .ospamt import Mode, directional_cost, directional_distance, ospamt_metric
from .ospamt import quasi_ospamt, split_tracks
from .ospat import ospat_per_scan
from .scenarios import FigureId, Scenario, ScenarioSpec, build

EPS, ETA = 1.0, 5.0

Values = dict[str, object]


@cache
def scenario(fig: FigureId) -> Scenario:
    """The scenario every row reads, built on first use, not on import."""
    return build(ScenarioSpec(fig, epsilon=EPS, eta=ETA))


def _agree(got: object, want: object) -> bool:
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_agree, got, want))
    return got == want


class Golden(NamedTuple):
    """One row: ``calls`` runs the library and ``want`` gives the closed
    forms, each as values keyed by what they are."""

    name: str
    criterion: str
    calls: Callable[[MetricParams], Values]
    want: Callable[[MetricParams], Values]
    ps: tuple[float, ...] = (1.0,)

    def check(self, p: float = 1.0) -> tuple[Values, list[str]]:
        """The values got at order p and every comparison that failed."""
        params = MetricParams(p=p)
        got, want = self.calls(params), self.want(params)
        return got, [
            f"p={p:g} {key}: got {got[key]!r}, want {value!r}"
            for key, value in want.items()
            if not _agree(got[key], value)
        ]


def _example2(params: MetricParams) -> Values:
    sc = scenario(FigureId.FIG1A)
    est, truth = sc.est, sc.truth
    report = ospamt_metric(truth, est, params, Mode.EXACT)
    return {
        "A1": directional_cost(est, truth, (1, 1), ((1, 2),), params),
        "A2": directional_cost(est, truth, (1, 1), ((2, 1),), params),
        "A3": directional_distance(est, truth, (0, 1), params)[0],
        "A4": directional_distance(est, truth, (1, 0), params)[0],
        "total": report.total,
        "map": report.assignment.source_to_target,
    }


def _example2_want(params: MetricParams) -> Values:
    e, d, c, p = EPS, params.delta, params.c, params.p
    a1 = ((5 * e**p + 2 * d**p) / 5) ** (1 / p)
    return {
        "A1": a1,
        "A2": ((5 * e**p + 3 * d**p) / 5) ** (1 / p),
        "A3": ((2 * e**p + 3 * c**p) / 5) ** (1 / p),
        "A4": ((3 * e**p + 2 * c**p) / 5) ** (1 / p),
        "total": a1,  # eps + delta <= c, so the two-onto-one assignment wins
        "map": (1, 1),
    }


def _per_scan(figs: tuple[FigureId, ...], params: MetricParams) -> Values:
    got: Values = {}
    for fig in figs:
        sc = scenario(fig)
        report = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT)
        got[f"{fig.value} ospa"] = ospa_per_scan(sc.truth, sc.est, params).per_time
        got[f"{fig.value} ospat"] = ospat_per_scan(sc.truth, sc.est, params)[0].per_time
        got[f"{fig.value} ospamt"], got[f"{fig.value} total"] = report.per_time, report.total
    return got


def _table1(params: MetricParams) -> Values:
    got = _per_scan((FigureId.FIG9A, FigureId.FIG9B), params)
    return {key: values[0] for key, values in got.items() if not key.endswith(" total")}


def _table1_want(params: MetricParams) -> Values:
    e, h, c, alpha, p = EPS, ETA, params.c, params.alpha, params.p
    ospat = min((alpha**p + e**p) ** (1 / p), c)
    return {"fig9a ospa": e, "fig9a ospat": ospat, "fig9a ospamt": c,
            "fig9b ospa": h, "fig9b ospat": h, "fig9b ospamt": h}


def _table2(params: MetricParams) -> Values:
    sc = scenario(FigureId.FIG1A)
    ospa_pairs = ospa_per_scan(sc.truth, sc.est, params).assignment
    ospat_pairs = ospat_per_scan(sc.truth, sc.est, params)[0].assignment
    assignment = ospamt_metric(sc.truth, sc.est, params, Mode.EXACT).assignment
    return {
        "ospa t=1": ospa_pairs[0],
        "ospa t=5": ospa_pairs[4],
        "ospat t=1": ospat_pairs[0],
        "ospat t=5": ospat_pairs[4],
        "ospamt direction": assignment.direction,
        "ospamt orders": assignment.orders,
    }


def _table2_want(params: MetricParams) -> Values:
    # OSPA and OSPAT swap estimates between t=1 and t=5; OSPAMT assigns both
    # estimates to the one truth
    return {
        "ospa t=1": ((1, 1),),
        "ospa t=5": ((1, 2),),
        "ospat t=1": ((1, 1),),
        "ospat t=5": ((1, 2),),
        "ospamt direction": Direction.EST_TO_TRUTH,
        "ospamt orders": ((1, 2),),
    }


def _table3(params: MetricParams) -> Values:
    return _per_scan((FigureId.FIG11A, FigureId.FIG11B), params)


def _table3_want(params: MetricParams) -> Values:
    # identical per-scan curves; the false track of fig 11b orders the totals
    e, c, p = EPS, params.c, params.p
    want: Values = {f"{fig} {metric}": (e, e, c, c) for fig in ("fig11a", "fig11b")
                    for metric in ("ospa", "ospat", "ospamt")}
    want["fig11a total"] = ((e**p + c**p) / 2) ** (1 / p)
    want["fig11b total"] = ((e**p + 2 * c**p) / 3) ** (1 / p)
    return want


def _remark4(params: MetricParams) -> Values:
    d = np.array([[70.0, 80.0, 80.0, 80.0], [79.0, 80.0, 29.0, 80.0], [80.0, 50.0, 80.0, 55.0]])
    res = greedy_many_to_one(d, cutoff_row_col_value=80.0)
    return {key: m.tolist() for key, m in
            (("D1", res.d1), ("D2", res.d2), ("D3", res.d3), ("D4", res.order_matrix))}


def _remark4_want(params: MetricParams) -> Values:
    inf = INFEASIBLE
    d2 = [[70.0, inf, inf, inf], [inf, inf, 29.0, inf], [inf, 50.0, inf, 55.0]]
    d1 = [[70.0, inf, inf, inf], [inf, inf, 29.0, inf], [inf, 50.0, inf, inf]]
    return {"D1": d1, "D2": d2, "D3": d2, "D4": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 2]]}


def _fig5_fig6(params: MetricParams) -> Values:
    sc5, sc6 = scenario(FigureId.FIG5), scenario(FigureId.FIG6)
    split_est, log = split_tracks(sc5.truth, sc5.est, params, Mode.EXACT)
    return {
        "fig5": ospamt_metric(sc5.truth, sc5.est, params, Mode.EXACT).total,
        "fig6": ospamt_metric(sc6.truth, sc6.est, params, Mode.EXACT).total,
        "fig5 est-to-truth": quasi_ospamt(sc5.est, sc5.truth, params, Mode.EXACT).total,
        "fig6 est-to-truth": quasi_ospamt(sc6.est, sc6.truth, params, Mode.EXACT).total,
        "splits": len(log),
        "fig5 after split": ospamt_metric(sc5.truth, split_est, params, Mode.EXACT).total,
    }


def _fig5_fig6_want(params: MetricParams) -> Values:
    # seen from the estimates, the merged track of fig 5 scores like the
    # missed track of fig 6; OSPAMT tells them apart, and one split fixes fig 5
    e, d, c, p = EPS, params.delta, params.c, params.p
    missed = ((3 * e**p + 2 * c**p) / 5) ** (1 / p)
    return {"fig5": ((5 * e**p + 2 * d**p) / 5) ** (1 / p), "fig6": missed,
            "fig5 est-to-truth": missed, "fig6 est-to-truth": missed,
            "splits": 1, "fig5 after split": e}


GOLDEN: dict[str, Golden] = {
    row.criterion: row
    for row in (
        Golden("example-2 closed forms", "01_example2_closed_forms", _example2, _example2_want),
        Golden("table I (fig 9, t=1)", "03_table1_fig9", _table1, _table1_want, (1.0, 2.0)),
        Golden("table II (fig 1a pairings)", "04_table2_fig1a_pairings", _table2, _table2_want),
        Golden("table III (fig 11 totals)", "05_table3_fig11", _table3, _table3_want),
        Golden("remark 4 greedy matrices", "07_remark4_matrices", _remark4, _remark4_want),
        Golden("fig 5/6 discrimination + split", "06_fig5_fig6_and_split", _fig5_fig6,
               _fig5_fig6_want),
    )
}


def run_selftest() -> bool:
    """Print PASS or FAIL, with every failed comparison, for each row."""
    all_ok = True
    for row in GOLDEN.values():
        failed = [line for p in row.ps for line in row.check(p)[1]]
        all_ok = all_ok and not failed
        print(f"FAIL  {row.name}  [{'; '.join(failed)}]" if failed else f"PASS  {row.name}")
    return all_ok
