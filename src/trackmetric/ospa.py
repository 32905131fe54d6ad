"""Reference OSPA metric between finite sets of states, and its per-scan lift.

The distance between two state sets is the p-th order mean of the optimally
matched, cutoff-capped base distances plus a cutoff penalty per unmatched
state of the larger set.  Applied scan by scan to two track sets it gives the
classic per-time evaluation curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assign import solve_one_to_one
from .core import (
    MetricParams,
    StateVector,
    TrackSet,
    base_distance,
    check_comparable,
    scan_distances,
)
from .errors import DimensionMismatchError


@dataclass(frozen=True)
class OspaResult:
    """Total distance with its localization/cardinality split.

    ``total ** p == loc ** p + card ** p`` exactly.  ``pairs`` holds the
    optimal matching as 1-based (x, y) element indices.
    """

    total: float
    loc: float
    card: float
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ScanOspa:
    """OSPA at one scan (OSPAT's labeled score uses it too), with pairs as
    1-based *track* indices (a, b)."""

    t: int
    total: float
    loc: float
    card: float
    pairs: tuple[tuple[int, int], ...]
    n_t: int


def ospa_at_scan(
    capped: np.ndarray,
    exists_a: np.ndarray,
    exists_b: np.ndarray,
    t: int,
    params: MetricParams,
) -> ScanOspa:
    """OSPA at scan ``t`` from the capped distances of every pair.

    ``capped`` is (N_a, N_b, T) and is read at scan ``t`` only where both
    tracks exist, as given by the (N_a, T) and (N_b, T) masks ``exists_a``
    and ``exists_b``.  The smaller side (``a`` on equal sizes) is matched
    into the larger.
    """
    ia = np.flatnonzero(exists_a[:, t - 1]).tolist()
    ib = np.flatnonzero(exists_b[:, t - 1]).tolist()
    m, n = len(ia), len(ib)
    k = max(m, n)
    if k == 0:
        return ScanOspa(t, 0.0, 0.0, 0.0, (), 0)
    p, c = params.p, params.c
    if m == 0 or n == 0:
        return ScanOspa(t, c, 0.0, c, (), k)
    cost = capped[:, :, t - 1][np.ix_(ia, ib)] ** p
    if m <= n:
        pi, loc_sum = solve_one_to_one(cost)
        pairs = [(ia[i], ib[j]) for i, j in enumerate(pi)]
    else:
        pi, loc_sum = solve_one_to_one(cost.T)
        pairs = [(ia[j], ib[i]) for i, j in enumerate(pi)]
    unmatched = k - min(m, n)
    loc = (loc_sum / k) ** (1.0 / p)
    card = (c**p * unmatched / k) ** (1.0 / p)
    total = ((loc_sum + c**p * unmatched) / k) ** (1.0 / p)
    pairs = tuple(sorted((i + 1, j + 1) for i, j in pairs))
    return ScanOspa(t, total, loc, card, pairs, k)


def ospa(
    xs: Sequence[StateVector], ys: Sequence[StateVector], params: MetricParams
) -> OspaResult:
    """OSPA distance between two finite sets of state vectors."""
    dims = {len(x) for x in xs} | {len(y) for y in ys}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed state dimensions {sorted(dims)}")
    m, n = len(xs), len(ys)
    capped = np.empty((m, n))
    if m and n:
        d = base_distance(np.array(xs)[:, None, :], np.array(ys)[None, :, :], params)
        capped = np.minimum(d, params.c)
    res = ospa_at_scan(
        capped[:, :, None], np.ones((m, 1), bool), np.ones((n, 1), bool), 1, params
    )
    return OspaResult(res.total, res.loc, res.card, res.pairs)


def ospa_per_scan(a: TrackSet, b: TrackSet, params: MetricParams) -> list[ScanOspa]:
    """OSPA of the existing states of ``a`` and ``b`` at every scan."""
    check_comparable(a, b)
    capped = np.minimum(scan_distances(a, b, params), params.c)
    return [ospa_at_scan(capped, a.exists, b.exists, t, params) for t in range(1, a.scans + 1)]
