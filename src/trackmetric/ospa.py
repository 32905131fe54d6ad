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
    ScanDistances,
    StateVector,
    Track,
    TrackSet,
    layer_for,
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
        # per scan: (solve, tracks of a, tracks of b, whether b is the solve's rows),
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


def per_scan_report(dist: ScanDistances, capped: np.ndarray, params: MetricParams) -> MetricReport:
    """OSPA report of every scan of ``dist``, scored on ``capped``, one
    capped distance per entry of the layer.  OSPA and OSPAT both score
    through here.

    At each scan the smaller side (``a`` on equal sizes) is matched into the
    larger by one ``optimal_matching`` solve of that scan's block, whose
    optimum is the scan's loc sum and whose largest entry, one
    ``block_maxima`` for all scans, sets its tie tolerance; each unmatched
    state of the larger side adds ``c ** p`` to its card sum.  The report's
    ``assignment`` is the ``Matchings`` of those solves, and its slots are
    the layer's ``slots``.
    """
    cp = params.c**params.p
    costs = capped**params.p
    loc_sums, card_sums, solves = [], [], []
    for (ia, ib, cost), top in zip(dist.blocks(costs), dist.block_maxima(costs)):
        m, n = len(ia), len(ib)
        card_sums.append(cp * abs(m - n))
        if m == 0 or n == 0:
            loc_sums.append(0.0)
            solves.append(None)
            continue
        solve = optimal_matching(cost if m <= n else cost.T, top)
        loc_sums.append(solve[2])
        solves.append((solve, ia, ib, m > n))
    return MetricReport.from_sums(loc_sums, card_sums, dist.slots, params, Matchings(solves))


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
    a: TrackSet, b: TrackSet, params: MetricParams, dist: ScanDistances | None = None
) -> MetricReport:
    """OSPA of the existing states of ``a`` and ``b`` at every scan, and over
    time, as one report.

    ``dist``, if given, is the layer of this pair (``layer_for``).  A
    scan's matrix is its block of the layer's capped distances.
    """
    dist = layer_for(a, b, params, dist)
    return per_scan_report(dist, dist.at_order(params.base_order), params)
