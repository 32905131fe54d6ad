"""Reference OSPA metric between finite sets of states, and its per-scan lift.

The distance between two state sets is the p-th order mean of the optimally
matched, cutoff-capped base distances plus a cutoff penalty per unmatched
state of the larger set.  Applied scan by scan to two track sets it gives the
classic per-time evaluation curve and, through the same report, the total.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .assign import solve_one_to_one
from .core import (
    MetricParams,
    MetricReport,
    StateVector,
    Track,
    TrackSet,
    count_distances,
    scan_distances,
)
from .errors import DimensionMismatchError


def ospa_at_scan(
    capped: np.ndarray,
    exists_a: np.ndarray,
    exists_b: np.ndarray,
    params: MetricParams,
) -> tuple[float, float, tuple[tuple[int, int], ...]]:
    """Raw OSPA sums of one scan from the capped distances of every pair there.

    ``capped`` is (N_a, N_b) and is read only where both tracks exist, as
    given by the (N_a,) and (N_b,) masks ``exists_a`` and ``exists_b``.  The
    smaller side (``a`` on equal sizes) is matched into the larger.  Returns
    the matched capped distances to the p-th power summed, ``c ** p`` per
    unmatched state of the larger side, and the matching as 1-based
    (index in a, index in b) pairs.
    """
    ia = np.flatnonzero(exists_a).tolist()
    ib = np.flatnonzero(exists_b).tolist()
    m, n = len(ia), len(ib)
    cp = params.c**params.p
    if m == 0 or n == 0:
        return 0.0, cp * max(m, n), ()
    cost = capped[np.ix_(ia, ib)] ** params.p
    if m <= n:
        pi, loc_sum = solve_one_to_one(cost)
        pairs = [(ia[i], ib[j]) for i, j in enumerate(pi)]
    else:
        pi, loc_sum = solve_one_to_one(cost.T)
        pairs = [(ia[j], ib[i]) for i, j in enumerate(pi)]
    return loc_sum, cp * abs(m - n), tuple(sorted((i + 1, j + 1) for i, j in pairs))


def per_scan_report(
    a: TrackSet, b: TrackSet, capped: np.ndarray, params: MetricParams
) -> MetricReport:
    """Report of ``ospa_at_scan`` at every scan of ``a`` and ``b``, from the
    (N_a, N_b, T) capped distances ``capped``; its ``assignment`` is the
    tuple of per-scan matchings.  OSPA and OSPAT both score through here."""
    n_t, _ = count_distances(a, b)
    loc_sums, card_sums, pairs = zip(*(
        ospa_at_scan(capped[:, :, t], a.exists[:, t], b.exists[:, t], params)
        for t in range(a.scans)
    ))
    return MetricReport.from_sums(loc_sums, card_sums, n_t, params, pairs)


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
    if dist is None:
        dist = scan_distances(a, b, params)
    return per_scan_report(a, b, np.minimum(dist, params.c), params)
