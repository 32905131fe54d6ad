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

import itertools
from dataclasses import dataclass, field

import numpy as np

from .assign import solve_one_to_one
from .core import (
    MetricParams,
    MetricReport,
    ScanDistances,
    TrackSet,
    layer_for,
)
from .errors import BadParametersError
from .ospa import per_scan_report


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


def ospat_reorder(
    a: TrackSet, b: TrackSet, params: MetricParams, dist: ScanDistances | None = None
) -> OspatAssignment:
    """Global pairing minimizing the summed per-scan costs.

    The smaller set maps injectively into the larger, so every track of the
    smaller set is paired no matter how far apart the lifetimes are, and
    leftover tracks of the larger set contribute nothing to the choice.
    Ties resolve to the lexicographically smallest assignment vector.  The
    pairing keeps the per-scan costs of its pairs as ``costs_t``.  ``dist``,
    if given, is the layer of this pair (``layer_for``), and its Euclidean
    distances are read (``at_order(2.0)``).  A scan where one track of a
    pair exists costs the cutoff without a distance.  A pair's summed cost,
    which chooses the pairing, is its capped distances added in scan order
    (``ScanDistances.pair_sums``) plus the cutoff times its count of lone
    scans; ``costs_t`` sums the chosen pairs' per-scan costs pair by pair.
    """
    dist = layer_for(a, b, params, dist)
    smaller = "b" if len(b) <= len(a) else "a"
    if not len(a) or not len(b):
        other = b if not len(a) else a
        return OspatAssignment((), smaller, tuple((params.c * other.exists.sum(axis=0)).tolist()))
    c = params.c
    capped = np.minimum(dist.at_order(2.0), c)
    shared, summed = dist.pair_sums(capped)
    d = summed + c * (a.exists.sum(axis=1)[:, None] + b.exists.sum(axis=1) - 2 * shared)
    if smaller == "b":
        pi, _ = solve_one_to_one(d.T)
        pairs = tuple((pi[j] + 1, j + 1) for j in range(len(b)))
    else:
        pi, _ = solve_one_to_one(d)
        pairs = tuple((i + 1, pi[i] + 1) for i in range(len(a)))
    # the chosen pairs' (pairs, T) costs: 0 where neither track exists, the
    # cutoff where one does, else the capped distance
    ia, ib = np.array(pairs).T - 1
    both = a.exists[ia] & b.exists[ib]
    costs = (a.exists[ia] ^ b.exists[ib]) * c
    costs[both] = capped[dist.entries(ia, ib)[both]]
    return OspatAssignment(pairs, smaller, tuple(costs.sum(axis=0).tolist()))


def ospat_label(
    a: TrackSet, b: TrackSet, assignment: OspatAssignment
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Labels the global pairing stamps onto the tracks of ``a`` and of
    ``b``, one per track in track order.

    Paired tracks share the label of the smaller-set track (its 1-based
    index); leftover tracks of the larger set take the next labels in their
    original order.
    """
    labels_a, labels_b = [0] * len(a), [0] * len(b)
    for ai, bi in assignment.pairs:
        labels_a[ai - 1] = labels_b[bi - 1] = bi if assignment.smaller == "b" else ai
    leftover = itertools.count(len(assignment.pairs) + 1)
    return tuple(tuple(lab or next(leftover) for lab in labels) for labels in (labels_a, labels_b))


def _labeled_distances(
    dist: ScanDistances, labels_a: tuple[int, ...], labels_b: tuple[int, ...],
    params: MetricParams,
) -> np.ndarray:
    """Capped labeled distances of the entries of ``dist``:
    min{c, (d(x, y)^p' + (alpha when labels differ)^p')^(1/p')}."""
    q = params.base_order
    x = dist.at_order(q)
    differ = np.not_equal.outer(labels_a, labels_b)
    x = np.where(differ[dist.rows, dist.cols], (x**q + params.alpha**q) ** (1.0 / q), x)
    return np.minimum(x, params.c)


def ospat_labeled(
    a: TrackSet,
    b: TrackSet,
    labels_a: tuple[int, ...],
    labels_b: tuple[int, ...],
    params: MetricParams,
    dist: ScanDistances | None = None,
) -> MetricReport:
    """OSPA minimization over the labeled states of every scan, as one
    report, with one label per track of ``a`` and of ``b`` in track order.

    Raises BadParametersError unless each side has one label per track.
    ``dist``, if given, is the layer of this pair (``layer_for``), whose p'
    distances are labeled entry by entry.
    """
    for labels, tracks in ((labels_a, a), (labels_b, b)):
        if len(labels) != len(tracks):
            raise BadParametersError(f"{len(labels)} labels for {len(tracks)} tracks")
    dist = layer_for(a, b, params, dist)
    return per_scan_report(dist, _labeled_distances(dist, labels_a, labels_b, params), params)


def ospat_per_scan(
    a: TrackSet, b: TrackSet, params: MetricParams, dist: ScanDistances | None = None
) -> tuple[MetricReport, OspatAssignment]:
    """Reorder, label, then score every scan; the usual evaluation pipeline.

    Returns the report of ``ospat_labeled``, whose ``assignment`` is the
    per-scan matchings of labeled states, and the global pairing that set
    the labels.  ``dist``, if given, is the layer of this pair
    (``layer_for``), and both steps read it.
    """
    dist = layer_for(a, b, params, dist)
    pairing = ospat_reorder(a, b, params, dist)
    return ospat_labeled(a, b, *ospat_label(a, b, pairing), params, dist), pairing
