"""Independent brute-force evaluators used as test oracles.

Everything here is written straight from the defining sums with plain loops
and no reuse of the library's evaluation path, so a bug in the production
code cannot hide in its own oracle.  Sizes are expected to be tiny.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from trackmetric.assign import _ABS_TOL, ENUMERATION_CAP, _close
from trackmetric.core import MetricParams, TrackSet
from trackmetric.errors import TooLargeError


def oracle_norm(x, y, params: MetricParams) -> float:
    q = params.base_order
    diffs = []
    for k, (a, b) in enumerate(zip(x, y)):
        s = params.scale[k] if params.scale is not None else 1.0
        diffs.append(abs(s * a - s * b))
    return sum(d**q for d in diffs) ** (1.0 / q)


def oracle_cutoff(x, y, params: MetricParams) -> float:
    if x is None or y is None:
        return 0.0
    return min(params.c, oracle_norm(x, y, params))


def oracle_counts(a: TrackSet, b: TrackSet) -> tuple[list[int], int]:
    n_t = [
        max(
            sum(1 for trk in a.tracks if t in trk.points),
            sum(1 for trk in b.tracks if t in trk.points),
        )
        for t in range(1, a.scans + 1)
    ]
    return n_t, sum(n_t)


def oracle_tilde_d_t(
    src: TrackSet,
    tgt: TrackSet,
    orders: tuple[tuple[int, ...], ...],
    params: MetricParams,
    t: int,
    n_t: int,
    num=float,
):
    """One scan's raw sum: per-target distances plus the cardinality term.

    Every float term passes through ``num`` before it is added, so
    ``num=Fraction`` sums the very same terms without rounding.
    """
    p = params.p
    cp = params.c**p
    dp = params.delta**p
    total = num(0.0)
    used = 0
    for i in range(1, len(tgt.tracks) + 1):
        pi_i = orders[i - 1]
        tgt_trk = tgt.tracks[i - 1]
        exists_i = 1 if tgt_trk.exists_at(t) else 0
        pi_it = tuple(j for j in pi_i if src.tracks[j - 1].exists_at(t))
        n_bar = len(pi_it)
        # spatial part: first ordered existing assignee, penalty if not first overall
        if pi_it and exists_i:
            j, k = pi_it[0], pi_i[0]
            d = oracle_cutoff(tgt_trk.points[t], src.tracks[j - 1].points[t], params)
            total += num(d**p) + (num(dp) if j != k else 0)
        # cardinality part, first term: extra coexisting assignees
        total += exists_i * max(n_bar - 1, 0) * (num(dp) + num(cp))
        used += n_bar * exists_i
    total += num(cp) * (n_t - used)
    return total


def oracle_value(
    src: TrackSet,
    tgt: TrackSet,
    orders: tuple[tuple[int, ...], ...],
    params: MetricParams,
) -> float:
    n_t, n = oracle_counts(src, tgt)
    raw = sum(
        oracle_tilde_d_t(src, tgt, orders, params, t, n_t[t - 1])
        for t in range(1, src.scans + 1)
    )
    return (raw / n) ** (1.0 / params.p)


def enumerate_assignments(m_src: int, n_tgt: int, feasible, cap: float = ENUMERATION_CAP):
    """Yield every (lambda, orders) pair over 1-based track indices.

    ``lambda`` maps each source j in 1..m_src to 0 or to a target in
    1..n_tgt with ``feasible(j, i)`` true; ``orders`` holds one ordered
    tuple per target, covering every permutation of each nonempty preimage.
    Pairs come out in lexicographic order of the lambda vector, then of the
    order tuples, which the tie-aware oracle relies on.
    """
    if m_src + n_tgt > cap:
        raise TooLargeError(
            f"{m_src}+{n_tgt} tracks exceeds the enumeration cap of {cap}"
        )
    choices = [
        [0] + [i for i in range(1, n_tgt + 1) if feasible(j, i)]
        for j in range(1, m_src + 1)
    ]
    for lam in itertools.product(*choices):
        pre = [[] for _ in range(n_tgt)]
        for j, i in enumerate(lam, start=1):
            if i:
                pre[i - 1].append(j)
        for orders in itertools.product(
            *[list(itertools.permutations(p)) if p else [()] for p in pre]
        ):
            yield lam, tuple(orders)


def count_assignments(m_src: int, n_tgt: int) -> int:
    """Closed-form count of (lambda, orders) pairs when all pairs are feasible.

    Each source picks 0 or a target, and a preimage of size k contributes k!
    orderings, so the total is the number of ways to hand each source either
    nothing or a slot in one of n_tgt ordered lists.
    """
    total = 0
    for lam in itertools.product(range(n_tgt + 1), repeat=m_src):
        ways = 1
        for i in range(1, n_tgt + 1):
            ways *= math.factorial(sum(1 for v in lam if v == i))
        total += ways
    return total


def _feasible(src: TrackSet, tgt: TrackSet):
    def feasible(j: int, i: int) -> bool:
        return any(
            t in tgt.tracks[i - 1].points for t in src.tracks[j - 1].points
        )

    return feasible


def oracle_quasi(src: TrackSet, tgt: TrackSet, params: MetricParams) -> float:
    """Minimum over every (assignment, order) pair, enumerated outright."""
    if not src.tracks and not tgt.tracks:
        return 0.0
    if not src.tracks or not tgt.tracks:
        return params.c
    pairs = enumerate_assignments(
        len(src.tracks), len(tgt.tracks), _feasible(src, tgt), cap=math.inf
    )
    return min(oracle_value(src, tgt, orders, params) for _, orders in pairs)


def oracle_exact_quasi(
    src: TrackSet, tgt: TrackSet, params: MetricParams
) -> tuple[float, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Tie-aware exact quasi distance between two nonempty sets.

    Every (assignment, order) pair is scored by summing its per-scan float
    terms as Fractions, so ties are decided in exact arithmetic; the
    lexicographically first pair among the exact minima is returned with
    its value.
    """
    n_t, n = oracle_counts(src, tgt)
    best = None
    for lam, orders in enumerate_assignments(
        len(src.tracks), len(tgt.tracks), _feasible(src, tgt), cap=math.inf
    ):
        raw = sum(
            oracle_tilde_d_t(src, tgt, orders, params, t, n_t[t - 1], num=Fraction)
            for t in range(1, src.scans + 1)
        )
        if best is None or raw < best[0]:
            best = (raw, lam, orders)
    raw, lam, orders = best
    return (float(raw) / n) ** (1.0 / params.p), lam, orders


def oracle_ospamt(a: TrackSet, b: TrackSet, params: MetricParams) -> float:
    return min(oracle_quasi(b, a, params), oracle_quasi(a, b, params))


def oracle_ospa(xs, ys, params: MetricParams) -> float:
    """Factorial-enumeration OSPA between two state lists."""
    m, n = len(xs), len(ys)
    if m == 0 and n == 0:
        return 0.0
    if m > n:
        return oracle_ospa(ys, xs, params)
    p, c = params.p, params.c
    if m == 0:
        return c
    best = math.inf
    for pi in itertools.permutations(range(n), m):
        cost = sum(
            min(c, oracle_norm(xs[i], ys[pi[i]], params)) ** p for i in range(m)
        )
        best = min(best, cost)
    return ((best + c**p * (n - m)) / n) ** (1.0 / p)


def oracle_matching(matrix) -> float:
    """Minimum-cost injective row-to-column matching by enumeration."""
    m = len(matrix)
    if m == 0:
        return 0.0
    n = len(matrix[0])
    return min(
        sum(matrix[i][pi[i]] for i in range(m))
        for pi in itertools.permutations(range(n), m)
    )


def brute_force_one_to_one(d) -> tuple[tuple[int, ...], float]:
    """Factorial-time reference for solve_one_to_one (small matrices only)."""
    d = np.asarray(d, dtype=float)
    m, n = d.shape
    if m == 0:
        return (), 0.0
    best_cost = math.inf
    best_pi: tuple[int, ...] = ()
    for pi in itertools.permutations(range(n), m):
        cost = sum(d[i, pi[i]] for i in range(m))
        if cost < best_cost - _ABS_TOL or (
            _close(cost, best_cost) and pi < best_pi
        ):
            best_cost = float(cost)
            best_pi = pi
    return best_pi, best_cost
