"""Assignment-space search engines.

Two ways of pairing tracks live here: the greedy matrix pipeline that scans
a cost matrix through row minima, column minima, a merge and an ordering
sweep, and a minimum-cost one-to-one solver used by the per-scan metrics.
The exact many-to-one search is a subset DP in ``ospamt``; this module holds
its enumeration cap and the tie rule every search shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

#: Sentinel for forbidden pairs in cost matrices.
INFEASIBLE = math.inf

#: Cap on total track count for the exact search.
ENUMERATION_CAP = 10

#: Tie rule of every search: a candidate ties with the best when it is at
#: most ``TIE`` times the problem's own scale above it, so a tie never
#: depends on the unit the states are written in.
TIE = 1e-9


@dataclass(frozen=True)
class ManyToOneResult:
    """Outcome of the greedy pipeline.

    ``order_matrix[i][j] == k > 0`` means column j is the k-th source
    assigned to row i; 0 means unassigned.  The intermediate matrices are
    kept so the pipeline can be audited stage by stage.
    """

    order_matrix: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray


def greedy_many_to_one(d: np.ndarray, cutoff_row_col_value: float) -> ManyToOneResult:
    """Greedy many-to-one assignment via the D -> D1 -> D2 -> D3 -> D4 sweep.

    Rows or columns whose entries all sit within ``TIE`` times the cutoff
    of it (or are INFEASIBLE) belong to missed or false tracks and are
    dropped first.  D1 keeps only each row's minima, D2 each column's
    minima, D3 merges the two, and the final sweep repeatedly pops the
    global minimum of D3, numbers it, then numbers the remaining finite
    entries of its row by increasing value.
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
        return ManyToOneResult(order, d.copy(), d.copy(), d.copy())

    cut = cutoff_row_col_value
    useless = (d == INFEASIBLE) | (np.abs(d - cut) <= TIE * cut)
    live = d.copy()
    live[useless.all(axis=1), :] = INFEASIBLE
    live[:, useless.all(axis=0)] = INFEASIBLE

    row_lo = live.min(axis=1, keepdims=True)
    d1 = np.where((live == row_lo) & (row_lo < INFEASIBLE), live, INFEASIBLE)
    col_lo = live.min(axis=0, keepdims=True)
    d2 = np.where((live == col_lo) & (col_lo < INFEASIBLE), live, INFEASIBLE)

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

    return ManyToOneResult(order, d1, d2, d3)


def _reduced_costs(dd: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Reduced costs ``r >= 0`` of ``dd`` under optimal duals of its optimal
    matching ``cols``.

    The column duals ``v <= 0`` come from Bellman-Ford over the exchange
    graph: moving row i from its column onto column j changes the cost by
    ``dd[i, j] - dd[i, cols[i]]``, and ``v[j]`` is the cheapest exchange
    path into j from a zero start.  Then ``r[i, j]`` is that path cost
    through row i minus ``v[j]``, exactly zero on the matching.  An optimal
    matching has no negative exchange cycle, so at most m + 1 rounds run;
    the cap only guards against rounding.
    """
    m = dd.shape[0]
    step = dd - dd[np.arange(m), cols][:, None]
    v = np.zeros(dd.shape[1])
    for _ in range(m + 1):
        paths = v[cols][:, None] + step
        nxt = np.minimum(v, paths.min(axis=0))
        if not (nxt < v).any():
            break
        v = nxt
    else:  # price with the duals the cap stopped at, so r is 0 on the matching
        paths = v[cols][:, None] + step
    return paths - v


def _exchange_closes(near: list[list[int]], owner: list[int], i: int, j: int) -> bool:
    """Whether row i can take column j in a matching of near-tight edges
    that keeps the witness's rows before i.

    Column j's witness row moves to another of its near-tight columns, the
    witness row of that column moves on, and so on; the exchange closes on
    a column the witness leaves free or on row i's own column.  Every
    matching within tolerance of the optimum uses near-tight edges only, so
    one that holds (i, j) contains such a chain.
    """
    m = len(near)
    seen = {j}
    stack = [j]
    while stack:
        k = owner[stack.pop()]
        if k == m or k == i:
            return True
        for c in near[k]:
            if c not in seen and owner[c] >= i:
                seen.add(c)
                stack.append(c)
    return False


def solve_one_to_one(d: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Minimum-cost injective map of rows into columns (requires m <= n).

    Returns the 0-based column for each row and the total cost.  Among all
    optimal matchings the lexicographically smallest assignment vector is
    returned: row i takes the smallest free column j such that the fixed
    prefix, ``d[i, j]`` and an optimal completion of the remaining rows
    total at most the optimum plus ``TIE`` times m times the largest finite
    entry.  INFEASIBLE entries are softened to a penalty above any finite
    matching so a full matching always exists.

    One Hungarian solve gives the optimum and a witness matching, and
    :func:`_reduced_costs` gives reduced costs ``r >= 0``.  A matching that
    holds the fixed prefix and (i, j) costs at least the optimum plus the
    reduced costs of those pairs, and one within tolerance uses only edges
    whose ``r`` is within tolerance (:func:`_exchange_closes`).  Only a
    column left of the witness's that neither test rules out gets the exact
    check, one solve of the remaining rows; a column that passes makes that
    solve's matching the new witness, and every other row keeps its witness
    column.  So a unique optimum costs one solve, each real tie about one
    more, and a single row none.
    """
    d = np.asarray(d, dtype=float)
    m, n = d.shape
    if m == 0:
        return (), 0.0
    if m > n:
        raise ValueError(f"solve_one_to_one needs m <= n, got {m}x{n}")
    top = float(d[d < INFEASIBLE].max(initial=0.0)) or 1.0
    dd = np.where(d < INFEASIBLE, d, top * (m + 1))
    tol = TIE * top * m
    if m == 1:
        best = float(dd[0].min())
        return (int(np.argmax(dd[0] <= best + tol)),), best

    rows, cols = linear_sum_assignment(dd)
    best = float(dd[rows, cols].sum())
    r = _reduced_costs(dd, cols)
    # near[i]: row i's columns with r within twice the tolerance, ascending;
    # it always holds the column of the first witness, where r is 0
    near: list[list[int]] = [[] for _ in range(m)]
    for i, j in zip(*(x.tolist() for x in np.nonzero(r <= 2.0 * tol))):
        near[i].append(j)

    def adopt(witness: list[int]) -> tuple[list[int], int]:
        # the witness row of every column (m where free), and the last row
        # with a near-tight column left of its witness column
        owner = [m] * n
        for k, c in enumerate(witness):
            owner[c] = k
        return owner, max((k for k in range(m) if near[k][0] < witness[k]), default=-1)

    witness = cols.tolist()
    owner, until = adopt(witness)
    prefix = fixed = 0.0
    i = 0
    while i <= until:
        for j in near[i]:
            if j >= witness[i]:
                break
            if owner[j] < i or fixed + r[i, j] > 2.0 * tol:
                continue
            if not _exchange_closes(near, owner, i, j):
                continue
            rest_cols = [c for c in range(n) if owner[c] >= i and c != j]
            rest, tail = 0.0, []
            if i + 1 < m:
                sub = dd[i + 1 :, rest_cols]
                sub_rows, sub_cols = linear_sum_assignment(sub)
                rest = float(sub[sub_rows, sub_cols].sum())
                tail = [rest_cols[c] for c in sub_cols]
            if prefix + dd[i, j] + rest <= best + tol:
                witness = witness[:i] + [j] + tail
                owner, until = adopt(witness)
                break
        prefix += dd[i, witness[i]]
        fixed += max(r[i, witness[i]], 0.0)
        i += 1
    return tuple(witness), best
