"""Reference OSPA metric between finite sets of states, and its per-scan lift.

The distance between two state sets is the p-th order mean of the optimally
matched, cutoff-capped base distances plus a cutoff penalty per unmatched
state of the larger set.  Applied scan by scan to two track sets it gives the
classic per-time evaluation curve, and ``report_over_time`` gives the total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assign import solve_one_to_one
from .core import (
    MetricParams,
    MetricReport,
    StateVector,
    TrackSet,
    base_distance,
    root_mean,
    scan_distances,
)
from .errors import DimensionMismatchError


@dataclass(frozen=True)
class ScanOspa:
    """OSPA at one scan (OSPAT's labeled score uses it too), with pairs as
    1-based *track* indices (a, b), or element indices from ``ospa``.

    ``loc_sum`` sums the matched capped distances to the p-th power and
    ``card_sum`` is ``c ** p`` per unmatched state of the larger side, of
    size ``n_t``; ``total``, ``loc`` and ``card`` are their ``root_mean``.
    """

    t: int
    loc_sum: float
    card_sum: float
    pairs: tuple[tuple[int, int], ...]
    n_t: int
    params: MetricParams

    @property
    def total(self) -> float:
        return root_mean(self.loc_sum + self.card_sum, self.n_t, self.params)

    @property
    def loc(self) -> float:
        return root_mean(self.loc_sum, self.n_t, self.params)

    @property
    def card(self) -> float:
        return root_mean(self.card_sum, self.n_t, self.params)


def ospa_at_scan(
    capped: np.ndarray,
    exists_a: np.ndarray,
    exists_b: np.ndarray,
    t: int,
    params: MetricParams,
) -> ScanOspa:
    """OSPA at scan ``t`` from the capped distances of every pair there.

    ``capped`` is (N_a, N_b) and is read only where both tracks exist, as
    given by the (N_a,) and (N_b,) masks ``exists_a`` and ``exists_b``.  The
    smaller side (``a`` on equal sizes) is matched into the larger.
    """
    ia = np.flatnonzero(exists_a).tolist()
    ib = np.flatnonzero(exists_b).tolist()
    m, n = len(ia), len(ib)
    k = max(m, n)
    cp = params.c**params.p
    if m == 0 or n == 0:
        return ScanOspa(t, 0.0, cp * k, (), k, params)
    cost = capped[np.ix_(ia, ib)] ** params.p
    if m <= n:
        pi, loc_sum = solve_one_to_one(cost)
        pairs = [(ia[i], ib[j]) for i, j in enumerate(pi)]
    else:
        pi, loc_sum = solve_one_to_one(cost.T)
        pairs = [(ia[j], ib[i]) for i, j in enumerate(pi)]
    pairs = tuple(sorted((i + 1, j + 1) for i, j in pairs))
    return ScanOspa(t, loc_sum, cp * (k - min(m, n)), pairs, k, params)


def ospa(
    xs: Sequence[StateVector], ys: Sequence[StateVector], params: MetricParams
) -> ScanOspa:
    """OSPA distance between two finite sets of state vectors, as the one
    scan ``t = 1`` with ``pairs`` holding 1-based (x, y) element indices."""
    dims = {len(x) for x in xs} | {len(y) for y in ys}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed state dimensions {sorted(dims)}")
    m, n = len(xs), len(ys)
    capped = np.empty((m, n))
    if m and n:
        d = base_distance(np.array(xs)[:, None, :], np.array(ys)[None, :, :], params)
        capped = np.minimum(d, params.c)
    return ospa_at_scan(capped, np.ones(m, bool), np.ones(n, bool), 1, params)


def ospa_per_scan(
    a: TrackSet, b: TrackSet, params: MetricParams, dist: np.ndarray | None = None
) -> list[ScanOspa]:
    """OSPA of the existing states of ``a`` and ``b`` at every scan.

    ``dist`` is ``scan_distances(a, b, params)`` when the caller already has
    it; otherwise it is built here.
    """
    if dist is None:
        dist = scan_distances(a, b, params)
    capped = np.minimum(dist, params.c)
    return [
        ospa_at_scan(capped[:, :, t], a.exists[:, t], b.exists[:, t], t + 1, params)
        for t in range(a.scans)
    ]


def report_over_time(
    rows: Sequence[ScanOspa], params: MetricParams, assignment: object
) -> MetricReport:
    """OSPA or OSPAT over time from the rows of ``ospa_per_scan`` or
    ``ospat_per_scan``; ``assignment`` is what the report holds: the per-scan
    ``pairs`` for OSPA, the global pairing for OSPAT."""
    return MetricReport.from_sums(
        [r.loc_sum for r in rows], [r.card_sum for r in rows], [r.n_t for r in rows],
        params, assignment,
    )
