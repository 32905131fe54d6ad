"""Reference OSPA metric between finite sets of states, and its per-scan lift.

The distance between two state sets is the p-th order mean of the optimally
matched, cutoff-capped base distances plus a cutoff penalty per unmatched
state of the larger set.  Applied scan by scan to two track sets it gives the
classic per-time evaluation curve and, through the same report, the total.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .assign import lexicographic_matching, optimal_matching
from .core import (
    MetricParams,
    MetricReport,
    StateVector,
    Track,
    TrackSet,
    check_comparable,
    scan_distances,
)
from .errors import DimensionMismatchError


class Matchings(Sequence):
    """Per-scan matchings of an OSPA or OSPAT report, each a tuple of 1-based
    (index in a, index in b) pairs.

    Scan t holds the first solve of its cost matrix (``optimal_matching``),
    and its lexicographic matching is worked out from that solve when
    ``self[t]`` is first read, then kept; a report never read pays no tie
    walk.  The sequence compares equal to, and hashes like, the tuple of
    tuples it stands for.
    """

    __slots__ = ("_pairs", "_solves")

    def __init__(self, solves: list) -> None:
        # per scan: (solve, rows in a, rows in b, whether b is the solve's rows),
        # or None where a side is empty
        self._solves = solves
        self._pairs: list[tuple | None] = [None if x else () for x in solves]

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[t] for t in range(*k.indices(len(self))))
        t = range(len(self))[k]
        if self._pairs[t] is None:
            solve, ia, ib, flipped = self._solves[t]
            pi = lexicographic_matching(*solve)
            ia, ib = ia.tolist(), ib.tolist()
            if flipped:
                pairs = ((ia[j], ib[i]) for i, j in enumerate(pi))
            else:
                pairs = ((ia[i], ib[j]) for i, j in enumerate(pi))
            self._pairs[t] = tuple(sorted((i + 1, j + 1) for i, j in pairs))
            self._solves[t] = None
        return self._pairs[t]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, Matchings)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def per_scan_report(
    exists_a: np.ndarray, exists_b: np.ndarray, capped: np.ndarray, params: MetricParams
) -> MetricReport:
    """OSPA report of every scan of the (N_a, N_b, T) capped distances
    ``capped``, read only where both tracks exist, as given by the (N_a, T)
    and (N_b, T) masks ``exists_a`` and ``exists_b``.  OSPA and OSPAT both
    score through here.

    At each scan the smaller side (``a`` on equal sizes) is matched into the
    larger by one ``optimal_matching`` solve, whose optimum is the scan's
    loc sum; each unmatched state of the larger side adds ``c ** p`` to its
    card sum.  The report's ``assignment`` is the ``Matchings`` of those
    solves.
    """
    cp = params.c**params.p
    n_t = np.maximum(exists_a.sum(axis=0), exists_b.sum(axis=0)).tolist()
    loc_sums, card_sums, solves = [], [], []
    for t in range(capped.shape[2]):
        ia, ib = exists_a[:, t].nonzero()[0], exists_b[:, t].nonzero()[0]
        m, n = len(ia), len(ib)
        card_sums.append(cp * abs(m - n))
        if m == 0 or n == 0:
            loc_sums.append(0.0)
            solves.append(None)
            continue
        cost = capped[ia[:, None], ib, t] ** params.p
        solve = optimal_matching(cost if m <= n else cost.T)
        loc_sums.append(solve[2])
        solves.append((solve, ia, ib, m > n))
    return MetricReport.from_sums(loc_sums, card_sums, n_t, params, Matchings(solves))


def ospa(
    xs: Sequence[StateVector], ys: Sequence[StateVector], params: MetricParams
) -> MetricReport:
    """OSPA distance between two finite sets of state vectors, as the report
    of the one scan ``t = 1``; its matching ``assignment[0]`` holds 1-based
    (x, y) element indices.  Each state is checked as a ``TrackSet`` point."""
    dims = {len(x) for x in xs} | {len(y) for y in ys}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed state dimensions {sorted(dims)}")
    dim = dims.pop() if dims else 1
    if dim == 0:
        raise DimensionMismatchError("states have no coordinates")
    a, b = (TrackSet(1, dim, tuple(Track({1: x}) for x in states)) for states in (xs, ys))
    return ospa_per_scan(a, b, params)


def ospa_per_scan(
    a: TrackSet, b: TrackSet, params: MetricParams, dist: np.ndarray | None = None
) -> MetricReport:
    """OSPA of the existing states of ``a`` and ``b`` at every scan, and over
    time, as one report.

    ``dist`` is ``scan_distances(a, b, params)`` when the caller already has
    it; otherwise it is built here.
    """
    check_comparable(a, b)
    if dist is None:
        dist = scan_distances(a, b, params)
    return per_scan_report(a.exists, b.exists, np.minimum(dist, params.c), params)
