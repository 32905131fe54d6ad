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

from dataclasses import dataclass

import numpy as np

from .assign import solve_one_to_one
from .core import MetricParams, TrackSet, base_distance, check_comparable, scan_distances
from .ospa import ScanOspa, ospa_at_scan


@dataclass(frozen=True)
class LabeledTrackSet:
    """A track set with one label per track, aligned with track order."""

    tracks: TrackSet
    labels: tuple[int, ...]


@dataclass(frozen=True)
class OspatAssignment:
    """Global one-to-one pairing: 1-based (index in a, index in b) pairs."""

    pairs: tuple[tuple[int, int], ...]
    smaller: str  # "a" or "b"


def _reorder_costs(
    d: np.ndarray, exists_a: np.ndarray, exists_b: np.ndarray, c: float
) -> np.ndarray:
    """Per-scan reordering costs from Euclidean distances ``d`` (NaN where
    the two tracks do not coexist): 0 where neither track exists, the
    cutoff where only one does, else the capped distance."""
    return np.where(np.isnan(d), np.where(exists_a ^ exists_b, c, 0.0), np.minimum(d, c))


def ospat_reorder(a: TrackSet, b: TrackSet, params: MetricParams) -> OspatAssignment:
    """Global pairing minimizing the summed per-scan costs.

    The smaller set maps injectively into the larger, so every track of the
    smaller set is paired no matter how far apart the lifetimes are, and
    leftover tracks of the larger set contribute nothing to the choice.
    Ties resolve to the lexicographically smallest assignment vector.
    """
    check_comparable(a, b)
    if not a.tracks or not b.tracks:
        return OspatAssignment((), "b" if len(b.tracks) <= len(a.tracks) else "a")
    d = _reorder_costs(
        scan_distances(a, b, params, order=2.0),
        a.exists[:, None, :],
        b.exists[None, :, :],
        params.c,
    ).sum(axis=2)
    if len(b.tracks) <= len(a.tracks):
        pi, _ = solve_one_to_one(d.T)
        pairs = tuple((pi[j] + 1, j + 1) for j in range(len(b.tracks)))
        return OspatAssignment(pairs, "b")
    pi, _ = solve_one_to_one(d)
    pairs = tuple((i + 1, pi[i] + 1) for i in range(len(a.tracks)))
    return OspatAssignment(pairs, "a")


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
    labeled_a: LabeledTrackSet, labeled_b: LabeledTrackSet, params: MetricParams
) -> np.ndarray:
    """(N_a, N_b, T) labeled distances of every pair at every scan:
    min{c, (d(x, y)^p' + (alpha when labels differ)^p')^(1/p')}."""
    q = params.base_order
    d = scan_distances(labeled_a.tracks, labeled_b.tracks, params)
    differ = np.not_equal.outer(labeled_a.labels, labeled_b.labels)[:, :, None]
    d = np.where(differ, (d**q + params.alpha**q) ** (1.0 / q), d)
    return np.minimum(d, params.c)


def ospat_at_time(
    labeled_a: LabeledTrackSet,
    labeled_b: LabeledTrackSet,
    t: int,
    params: MetricParams,
) -> ScanOspa:
    """OSPA minimization over the labeled states existing at scan t."""
    capped = _labeled_distances(labeled_a, labeled_b, params)
    return ospa_at_scan(capped, labeled_a.tracks.exists, labeled_b.tracks.exists, t, params)


@dataclass(frozen=True)
class OspatGlobal:
    """Summed reordering costs of the winning pairing (not normalized)."""

    total: float
    per_time: tuple[float, ...]
    assignment: OspatAssignment


def ospat_global(
    a: TrackSet,
    b: TrackSet,
    params: MetricParams,
    assignment: OspatAssignment | None = None,
) -> OspatGlobal:
    """Global OSPAT distance and its per-scan terms.

    ``assignment`` is the pairing from ``ospat_reorder`` (or
    ``ospat_per_scan``) when the caller already has it; otherwise it is
    computed here.  With one empty set there are no pairs to sum, so every
    existing state of the other set is treated as a lone target and charged
    the cutoff at each scan it exists.
    """
    check_comparable(a, b)
    if assignment is None:
        assignment = ospat_reorder(a, b, params)
    if not a.tracks or not b.tracks:
        other = b if not a.tracks else a
        per_time = tuple((params.c * other.exists.sum(axis=0)).tolist())
        return OspatGlobal(sum(per_time), per_time, assignment)
    ia, ib = np.array(assignment.pairs).T - 1
    d = base_distance(a.states[ia], b.states[ib], params, order=2.0)
    costs = _reorder_costs(d, a.exists[ia], b.exists[ib], params.c)
    per_time = tuple(costs.sum(axis=0).tolist())
    return OspatGlobal(sum(per_time), per_time, assignment)


def ospat_per_scan(
    a: TrackSet, b: TrackSet, params: MetricParams
) -> tuple[list[ScanOspa], OspatAssignment]:
    """Reorder, label, then score every scan; the usual evaluation pipeline."""
    assignment = ospat_reorder(a, b, params)
    labeled_a, labeled_b = ospat_label(a, b, assignment)
    capped = _labeled_distances(labeled_a, labeled_b, params)
    rows = [ospa_at_scan(capped, a.exists, b.exists, t, params) for t in range(1, a.scans + 1)]
    return rows, assignment
