"""Assignment-space search engines.

Two ways of pairing tracks live here: the greedy matrix pipeline that scans
a cost matrix through row minima, column minima, a merge and an ordering
sweep, and a minimum-cost one-to-one solver used by the per-scan metrics.
The exact many-to-one search is a subset DP in ``ospamt``; this module holds
its enumeration cap and the tie rule every search shares.

Only the one-to-one solver needs scipy, and only OSPA and OSPAT solve one:
:func:`linear_sum_assignment` imports ``scipy.optimize`` on its first call,
so a process that scores OSPAMT alone, splits or writes scenarios never
loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: Sentinel for forbidden pairs in cost matrices.
INFEASIBLE = math.inf

#: Cap on total track count for the exact search.
ENUMERATION_CAP = 10

#: Tie rule of every search: a candidate ties with the best when it is at
#: most ``TIE`` times the problem's own scale above it, so a tie never
#: depends on the unit the states are written in.
TIE = 1e-9


@functools.cache
def _scipy_solver():
    # importing scipy.optimize costs more than the rest of the package
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's minimum-cost rectangular assignment, imported on the first
    call: rows and their columns, as ``scipy.optimize.linear_sum_assignment``
    returns them."""
    return _scipy_solver()(cost)


@dataclass(frozen=True)
class ManyToOneResult:
    """Outcome of the greedy pipeline.

    ``order_matrix[i][j] == k > 0`` means column j is the k-th source
    assigned to row i; 0 means unassigned.  The intermediate matrices are
    kept so the pipeline can be audited stage by stage.  ``lam[j]`` is the
    1-based row of column j or 0, and ``orders[i]`` row i's 1-based columns
    in the order of their numbers.
    """

    order_matrix: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    lam: tuple[int, ...]
    orders: tuple[tuple[int, ...], ...]


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
        return ManyToOneResult(order, d.copy(), d.copy(), d.copy(), (0,) * n, ((),) * m)

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

    # argmin over the matrix pops by (value, row, column) and an expanded row
    # keeps no open entry, so one walk over D3's finite entries in that order
    # meets every pop; a row's entries, in the same order, run by (value, column)
    ii, jj = np.nonzero(d3 < INFEASIBLE)
    by_value = np.argsort(d3[ii, jj], kind="stable")
    ii, jj = ii[by_value].tolist(), jj[by_value].tolist()
    row_entries: list[list[int]] = [[] for _ in range(m)]
    for i, j in zip(ii, jj):
        row_entries[i].append(j)
    # column j is number rank[j] of row lam[j], 1-based; 0 while it is open
    lam, rank, orders = [0] * n, [0] * n, [()] * m
    for i, j in zip(ii, jj):
        if not lam[j]:
            cols = [c for c in row_entries[i] if not lam[c]]
            for k, c in enumerate(cols, start=1):
                lam[c], rank[c] = i + 1, k
            orders[i] = tuple(c + 1 for c in cols)
    cols = np.flatnonzero(lam)
    order[np.array(lam)[cols] - 1, cols] = np.array(rank)[cols]

    return ManyToOneResult(order, d1, d2, d3, tuple(lam), tuple(orders))


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


def optimal_matching(
    d: np.ndarray, largest: float | None = None
) -> tuple[np.ndarray, list[int], float, float]:
    """One Hungarian solve of a finite, non-negative matrix with m <= n.

    Returns the matrix, a witness optimal matching (0-based column of each
    row), the optimum and the tie tolerance, ``TIE`` times m times the
    largest entry, which is what :func:`lexicographic_matching` takes.  A
    caller that knows the largest entry already passes it as ``largest``.
    A single row needs no solve, and its witness already is the
    lexicographic matching.
    """
    d = np.asarray(d, dtype=float)
    m, n = d.shape
    if m == 0:
        return d, [], 0.0, 0.0
    if m > n:
        raise ValueError(f"optimal_matching needs m <= n, got {m}x{n}")
    tol = TIE * (max(float(d.max()) if largest is None else largest, 0.0) or 1.0) * m
    if m == 1:
        best = float(d[0].min())
        return d, [int(np.argmax(d[0] <= best + tol))], best, tol
    rows, cols = linear_sum_assignment(d)
    return d, cols.tolist(), float(d[rows, cols].sum()), tol


def lexicographic_matching(
    dd: np.ndarray, witness: list[int], best: float, tol: float
) -> tuple[int, ...]:
    """The lexicographically smallest optimal matching of ``dd``, from the
    witness, optimum and tolerance of :func:`optimal_matching`.

    :func:`_reduced_costs` gives reduced costs ``r >= 0``.  A matching that
    holds the fixed prefix and (i, j) costs at least the optimum plus the
    reduced costs of those pairs, and one within tolerance uses only edges
    whose ``r`` is within tolerance (:func:`_exchange_closes`).  Only a
    column left of the witness's that neither test rules out gets the exact
    check, one solve of the remaining rows; a column that passes makes that
    solve's matching the new witness, and every other row keeps its witness
    column.  So a unique optimum costs no solve, each real tie about one,
    and a single row nothing.
    """
    m, n = dd.shape
    if m <= 1:
        return tuple(witness)
    r = _reduced_costs(dd, np.array(witness))
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
    return tuple(witness)
