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
    MetricReport,
    ScanDistances,
    TrackSet,
    check_comparable,
    scan_distances,
)
from .errors import BadParametersError
from .ospa import per_scan_report


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
    dist: ScanDistances, exists_a: np.ndarray, exists_b: np.ndarray, c: float
) -> np.ndarray:
    """Dense per-scan reordering costs of every pair of tracks, from the
    Euclidean distances of ``dist``, whose sets exist at the masks
    ``exists_a`` and ``exists_b``: 0 where neither track exists, the cutoff
    where only one does, else the capped distance.  Dense because the
    global cost sums each pair's costs over scans in numpy's order."""
    lone = exists_a[:, None] ^ exists_b[None]
    return dist.scatter(np.minimum(dist.at_order(2.0), c), lone * c)


def ospat_reorder(
    a: TrackSet, b: TrackSet, params: MetricParams, dist: ScanDistances | None = None
) -> OspatAssignment:
    """Global pairing minimizing the summed per-scan costs.

    The smaller set maps injectively into the larger, so every track of the
    smaller set is paired no matter how far apart the lifetimes are, and
    leftover tracks of the larger set contribute nothing to the choice.
    Ties resolve to the lexicographically smallest assignment vector.  The
    pairing keeps the per-scan costs of its pairs as ``costs_t``.
    ``dist`` is ``scan_distances(a, b, params)`` when the caller already has
    it; otherwise it is built here, and either way its Euclidean distances
    are read (``at_order(2.0)``), computed from its gathered states unless
    p' = 2.  A scan where one track of a pair exists costs the cutoff
    without a distance.
    """
    check_comparable(a, b)
    smaller = "b" if len(b) <= len(a) else "a"
    if not len(a) or not len(b):
        other = b if not len(a) else a
        return OspatAssignment((), smaller, tuple((params.c * other.exists.sum(axis=0)).tolist()))
    if dist is None:
        dist = scan_distances(a, b, params, order=2.0)
    costs = _reorder_costs(dist, a.exists, b.exists, params.c)
    d = costs.sum(axis=2)
    if smaller == "b":
        pi, _ = solve_one_to_one(d.T)
        pairs = tuple((pi[j] + 1, j + 1) for j in range(len(b)))
    else:
        pi, _ = solve_one_to_one(d)
        pairs = tuple((i + 1, pi[i] + 1) for i in range(len(a)))
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
    labels_a = [0] * len(a)
    labels_b = [0] * len(b)
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
    dist: ScanDistances, labeled_a: LabeledTrackSet, labeled_b: LabeledTrackSet,
    params: MetricParams,
) -> np.ndarray:
    """Capped labeled distances of the entries of ``dist``:
    min{c, (d(x, y)^p' + (alpha when labels differ)^p')^(1/p')}."""
    q = params.base_order
    x = dist.at_order(q)
    differ = np.not_equal.outer(labeled_a.labels, labeled_b.labels)
    x = np.where(differ[dist.rows, dist.cols], (x**q + params.alpha**q) ** (1.0 / q), x)
    return np.minimum(x, params.c)


def ospat_at_time(
    labeled_a: LabeledTrackSet,
    labeled_b: LabeledTrackSet,
    t: int,
    params: MetricParams,
) -> MetricReport:
    """Report of the OSPA minimization over the labeled states existing at
    scan t, which must lie in 1..T; only that scan's distances are computed."""
    a, b = labeled_a.tracks, labeled_b.tracks
    check_comparable(a, b)
    if not 1 <= t <= a.scans:
        raise BadParametersError(f"scan {t} outside 1..{a.scans}")
    scan = slice(t - 1, t)
    dist = ScanDistances(a.states[:, scan], a.exists[:, scan], b.states[:, scan],
                         b.exists[:, scan], params)
    return per_scan_report(dist, _labeled_distances(dist, labeled_a, labeled_b, params), params)


def ospat_per_scan(
    a: TrackSet, b: TrackSet, params: MetricParams, dist: ScanDistances | None = None
) -> tuple[MetricReport, OspatAssignment]:
    """Reorder, label, then score every scan; the usual evaluation pipeline.

    Returns the report, whose ``assignment`` is the per-scan matchings of
    labeled states, and the global pairing that set the labels.
    ``dist`` is ``scan_distances(a, b, params)`` when the caller already has
    it; otherwise it is built here.  The reordering reads Euclidean
    distances of its gathered states, computed once more unless p' = 2, and
    the labeled distances are computed entry by entry from its p' ones.
    """
    if dist is None:
        dist = scan_distances(a, b, params)
    pairing = ospat_reorder(a, b, params, dist)
    labeled_a, labeled_b = ospat_label(a, b, pairing)
    capped = _labeled_distances(dist, labeled_a, labeled_b, params)
    return per_scan_report(dist, capped, params), pairing
