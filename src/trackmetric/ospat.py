"""Reference OSPAT distances: track reordering, labeling and per-scan scores.

OSPAT first picks one global one-to-one pairing between the two track sets
(the pairing minimizing the summed per-scan Euclidean costs, with unpaired
tracks of the larger set ignored), uses it to stamp labels onto every state,
and then scores each scan with an OSPA minimization over labeled states whose
base distance adds a penalty for mismatched labels.  The module reproduces
the known defects of this construction on purpose: the label penalty breaks
the triangle inequality, a zero penalty breaks identity, and equal-size sets
are always fully paired even across disjoint lifetimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assign import solve_one_to_one
from .core import (
    MetricParams,
    TrackSet,
    at_coexisting,
    base_distance,
    check_comparable,
    scan_distances,
)
from .errors import BadParametersError
from .ospa import ScanOspa, ospa_at_scan


@dataclass(frozen=True)
class LabeledTrackSet:
    """A track set with one label per track, aligned with track order."""

    tracks: TrackSet
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.tracks):
            raise BadParametersError(f"{len(self.labels)} labels for {len(self.tracks)} tracks")


@dataclass(frozen=True)
class OspatAssignment:
    """Global one-to-one pairing: 1-based (index in a, index in b) pairs.

    ``costs_t`` holds the reordering costs of the chosen pairs summed at
    each scan, not normalized; their sum is the global OSPAT distance.  With
    one empty set there are no pairs, and every existing state of the other
    set is charged the cutoff instead.  The costs play no role in ``==``.
    """

    pairs: tuple[tuple[int, int], ...]
    smaller: str  # "a" or "b"
    costs_t: tuple[float, ...] = field(compare=False)


def _reorder_costs(
    d: np.ndarray, exists_a: np.ndarray, exists_b: np.ndarray, c: float
) -> np.ndarray:
    """Per-scan reordering costs from Euclidean distances ``d``, read only
    where the masks ``exists_a`` and ``exists_b`` (broadcast to its shape)
    both hold: 0 where neither track exists, the cutoff where only one
    does, else the capped distance."""
    costs = at_coexisting(exists_a & exists_b, lambda flat: np.minimum(np.take(d, flat), c), 0.0)
    costs[exists_a ^ exists_b] = c
    return costs


def ospat_reorder(
    a: TrackSet, b: TrackSet, params: MetricParams, dist: np.ndarray | None = None
) -> OspatAssignment:
    """Global pairing minimizing the summed per-scan costs.

    The smaller set maps injectively into the larger, so every track of the
    smaller set is paired no matter how far apart the lifetimes are, and
    leftover tracks of the larger set contribute nothing to the choice.
    Ties resolve to the lexicographically smallest assignment vector.  The
    pairing keeps the per-scan costs of its pairs as ``costs_t``.
    ``dist`` is ``scan_distances(a, b, params, order=2.0)`` when the caller
    already has it; otherwise it is built here.  Only its coexisting entries
    are read: a scan where one track of a pair exists costs the cutoff
    without a distance.
    """
    check_comparable(a, b)
    smaller = "b" if len(b.tracks) <= len(a.tracks) else "a"
    if not a.tracks or not b.tracks:
        other = b if not a.tracks else a
        return OspatAssignment((), smaller, tuple((params.c * other.exists.sum(axis=0)).tolist()))
    if dist is None:
        dist = scan_distances(a, b, params, order=2.0)
    costs = _reorder_costs(dist, a.exists[:, None, :], b.exists[None, :, :], params.c)
    d = costs.sum(axis=2)
    if smaller == "b":
        pi, _ = solve_one_to_one(d.T)
        pairs = tuple((pi[j] + 1, j + 1) for j in range(len(b.tracks)))
    else:
        pi, _ = solve_one_to_one(d)
        pairs = tuple((i + 1, pi[i] + 1) for i in range(len(a.tracks)))
    ia, ib = np.array(pairs).T - 1
    return OspatAssignment(pairs, smaller, tuple(costs[ia, ib].sum(axis=0).tolist()))


def ospat_label(
    a: TrackSet, b: TrackSet, assignment: OspatAssignment
) -> tuple[LabeledTrackSet, LabeledTrackSet]:
    """Stamp labels from the global pairing onto both sets.

    Paired tracks share the label of the smaller-set track (its 1-based
    index); leftover tracks of the larger set take the next labels in their
    original order.
    """
    labels_a = [0] * len(a.tracks)
    labels_b = [0] * len(b.tracks)
    if assignment.smaller == "b":
        for ai, bi in assignment.pairs:
            labels_b[bi - 1] = bi
            labels_a[ai - 1] = bi
    else:
        for ai, bi in assignment.pairs:
            labels_a[ai - 1] = ai
            labels_b[bi - 1] = ai
    next_label = len(assignment.pairs)
    for labels in (labels_a, labels_b):
        for idx, lab in enumerate(labels):
            if lab == 0:
                next_label += 1
                labels[idx] = next_label
    return (
        LabeledTrackSet(a, tuple(labels_a)),
        LabeledTrackSet(b, tuple(labels_b)),
    )


def _labeled_distances(
    d: np.ndarray, both: np.ndarray, labeled_a: LabeledTrackSet, labeled_b: LabeledTrackSet,
    params: MetricParams,
) -> np.ndarray:
    """Capped labeled distances from base distances ``d`` of shape
    (N_a, N_b, K): min{c, (d(x, y)^p' + (alpha when labels differ)^p')^(1/p')}
    where the mask ``both`` holds, NaN elsewhere."""
    q = params.base_order
    differ = np.not_equal.outer(labeled_a.labels, labeled_b.labels).reshape(-1)

    def capped(flat: np.ndarray) -> np.ndarray:
        x = np.take(d, flat)
        x = np.where(differ[flat // d.shape[2]], (x**q + params.alpha**q) ** (1.0 / q), x)
        return np.minimum(x, params.c)

    return at_coexisting(both, capped)


def ospat_at_time(
    labeled_a: LabeledTrackSet,
    labeled_b: LabeledTrackSet,
    t: int,
    params: MetricParams,
) -> ScanOspa:
    """OSPA minimization over the labeled states existing at scan t, which
    must lie in 1..T; only that scan's distances are computed."""
    a, b = labeled_a.tracks, labeled_b.tracks
    check_comparable(a, b)
    if not 1 <= t <= a.scans:
        raise BadParametersError(f"scan {t} outside 1..{a.scans}")
    d = base_distance(a.states[:, None, t - 1 : t], b.states[None, :, t - 1 : t], params)
    both = a.exists[:, None, t - 1 : t] & b.exists[None, :, t - 1 : t]
    capped = _labeled_distances(d, both, labeled_a, labeled_b, params)[:, :, 0]
    return ospa_at_scan(capped, a.exists[:, t - 1], b.exists[:, t - 1], t, params)


def ospat_per_scan(
    a: TrackSet, b: TrackSet, params: MetricParams, dist: np.ndarray | None = None
) -> tuple[list[ScanOspa], OspatAssignment]:
    """Reorder, label, then score every scan; the usual evaluation pipeline.

    ``dist`` is ``scan_distances(a, b, params)`` when the caller already has
    it; otherwise it is built here.  The reordering reuses it when the base
    norm is Euclidean (p' = 2) and builds its own Euclidean tensor otherwise.
    """
    if dist is None:
        dist = scan_distances(a, b, params)
    assignment = ospat_reorder(a, b, params, dist if params.base_order == 2.0 else None)
    labeled_a, labeled_b = ospat_label(a, b, assignment)
    both = a.exists[:, None] & b.exists[None]
    capped = _labeled_distances(dist, both, labeled_a, labeled_b, params)
    rows = [
        ospa_at_scan(capped[:, :, t], a.exists[:, t], b.exists[:, t], t + 1, params)
        for t in range(a.scans)
    ]
    return rows, assignment
