"""Assignment-space search engines.

Two ways of pairing tracks live here: the greedy matrix pipeline that scans
a cost matrix through row minima, column minima, a merge and an ordering
sweep, and a minimum-cost one-to-one solver used by the per-scan metrics.
The exact many-to-one search is a subset DP in ``ospamt``; this module holds
its enumeration cap and the tie tolerance every search shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

#: Sentinel for forbidden pairs in cost matrices.
INFEASIBLE = math.inf

#: Default cap on total track count for the exact search.
ENUMERATION_CAP = 10

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


@dataclass(frozen=True)
class ManyToOneResult:
    """Outcome of the greedy pipeline.

    ``order_matrix[i][j] == k > 0`` means column j is the k-th source
    assigned to row i; 0 means unassigned.  The intermediate matrices are
    kept so the pipeline can be audited stage by stage.
    """

    order_matrix: np.ndarray
    unassigned_rows: tuple[int, ...]
    unassigned_cols: tuple[int, ...]
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray


def greedy_many_to_one(d: np.ndarray, cutoff_row_col_value: float) -> ManyToOneResult:
    """Greedy many-to-one assignment via the D -> D1 -> D2 -> D3 -> D4 sweep.

    Rows or columns whose entries all sit at the cutoff (or are INFEASIBLE)
    belong to missed or false tracks and are dropped first.  D1 keeps only
    each row's minima, D2 each column's minima, D3 merges the two, and the
    final sweep repeatedly pops the global minimum of D3, numbers it, then
    numbers the remaining finite entries of its row by increasing value.
    Every assigned column is closed so no source is ever used twice.  The
    sweep expands along rows only; expanding along columns instead would
    build the opposite many-to-one direction and is not done here.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2:
        raise ValueError("cost matrix must be two-dimensional")
    m, n = d.shape
    order = np.zeros((m, n), dtype=int)
    if m == 0 or n == 0:
        return ManyToOneResult(
            order, tuple(range(m)), tuple(range(n)), d.copy(), d.copy(), d.copy()
        )

    def useless(v: float) -> bool:
        return v == INFEASIBLE or _close(v, cutoff_row_col_value)

    dead_row = np.array([all(useless(v) for v in d[i, :]) for i in range(m)])
    dead_col = np.array([all(useless(v) for v in d[:, j]) for j in range(n)])
    live = d.copy()
    live[dead_row, :] = INFEASIBLE
    live[:, dead_col] = INFEASIBLE

    d1 = np.full_like(live, INFEASIBLE)
    for i in range(m):
        row = live[i, :]
        lo = row.min()
        if lo < INFEASIBLE:
            d1[i, row == lo] = lo
    d2 = np.full_like(live, INFEASIBLE)
    for j in range(n):
        col = live[:, j]
        lo = col.min()
        if lo < INFEASIBLE:
            d2[col == lo, j] = lo

    d3 = d1.copy()
    fill = (d3 == INFEASIBLE) & (d2 < INFEASIBLE)
    d3[fill] = d2[fill]

    work = d3.copy()
    next_order = [1] * m
    while True:
        flat = np.argmin(work)
        i, j = divmod(int(flat), n)
        if work[i, j] == INFEASIBLE:
            break
        # Global minimum starts a new row expansion.
        row_entries = [(work[i, jj], jj) for jj in range(n) if work[i, jj] < INFEASIBLE]
        row_entries.sort()
        for _, jj in row_entries:
            order[i, jj] = next_order[i]
            next_order[i] += 1
            work[i, jj] = INFEASIBLE
            work[:, jj] = INFEASIBLE

    unassigned_rows = tuple(i for i in range(m) if not order[i, :].any())
    unassigned_cols = tuple(j for j in range(n) if not order[:, j].any())
    return ManyToOneResult(order, unassigned_rows, unassigned_cols, d1, d2, d3)


def _matching_cost(d: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].sum())


def solve_one_to_one(d: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Minimum-cost injective map of rows into columns (requires m <= n).

    Returns the 0-based column for each row and the total cost.  Among all
    optimal matchings the lexicographically smallest assignment vector is
    returned, fixed row by row against the optimum of the remaining
    subproblem.  INFEASIBLE entries are softened to a large finite penalty
    so a full matching always exists.
    """
    d = np.asarray(d, dtype=float)
    m, n = d.shape
    if m == 0:
        return (), 0.0
    if m > n:
        raise ValueError(f"solve_one_to_one needs m <= n, got {m}x{n}")
    finite = d[d < INFEASIBLE]
    big = (float(finite.max()) if finite.size else 1.0) * (m + 1) + 1.0
    dd = np.where(d < INFEASIBLE, d, big)

    best = _matching_cost(dd)
    tol = _REL_TOL * max(1.0, abs(best))
    assignment: list[int] = []
    taken: set[int] = set()
    prefix = 0.0
    for i in range(m):
        rest_rows = list(range(i + 1, m))
        for j in range(n):
            if j in taken:
                continue
            cols = [jj for jj in range(n) if jj not in taken and jj != j]
            sub = dd[np.ix_(rest_rows, cols)] if rest_rows else np.zeros((0, 0))
            rest = _matching_cost(sub) if rest_rows else 0.0
            if prefix + dd[i, j] + rest <= best + tol:
                assignment.append(j)
                taken.add(j)
                prefix += dd[i, j]
                break
        else:  # pragma: no cover - the optimum always admits a next column
            raise RuntimeError("failed to reconstruct an optimal matching")
    return tuple(assignment), best
