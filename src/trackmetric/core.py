"""Domain types and shared arithmetic.

A track is a sparse map from 1-based scan indices to state vectors; a scan
with no entry means the target does not exist then.  A track set fixes the
number of scans T and the state dimension for all of its tracks, and is
valid once built: its constructor rejects every set that breaks one of
these rules, so the metrics trust every set they are given, and a distance
layer only with the two sets it was built from (``layer_for``).  Everything
here is immutable after construction and all functions are pure.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import (
    BadParametersError,
    DimensionMismatchError,
    EmptyTrackError,
    NonFiniteCoordinateError,
    ScanMismatchError,
    ScanOutOfRangeError,
    ValidationError,
)

StateVector = tuple[float, ...]

#: The most state coordinates, ``scans * state_dim * max(N, 1)``, a set of N
#: tracks may hold: 1 GiB of float64 states.
_MAX_STATES = 2**27


@dataclass(frozen=True)
class Track:
    """One target trajectory: existing scans mapped to state vectors.

    A record only: a ``TrackSet`` reads it once, when built, and the metrics
    read the set's arrays; a set makes its tracks from those arrays when
    ``tracks`` is first read.  A bare number, Python or numpy, or any
    other value with no axes, is a 1-D state.  An integer beyond float range
    reads as an infinite coordinate, which ``TrackSet`` rejects.  ``label``
    is carried for reporting only; it plays no role in any distance.
    """

    points: Mapping[int, StateVector | float]
    label: str | None = None

    def __post_init__(self) -> None:
        def states(to_float) -> dict[int, StateVector]:
            # lists and tuples, the common states, skip the cost of np.ndim
            return {int(t): tuple(map(to_float, x)) if isinstance(x, (list, tuple)) or np.ndim(x)
                    else (to_float(x),) for t, x in self.points.items()}

        try:
            pts = states(float)
        except OverflowError:
            pts = states(_float_or_inf)
        object.__setattr__(self, "points", pts)


def _float_or_inf(value) -> float:
    """``float(value)``, or an infinity of its sign where it overflows."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class TrackSet:
    """A finite (possibly empty) collection of tracks over scans 1..T, valid
    once built: the constructor raises for ``scans`` or ``state_dim`` below 1,
    then for the first bad label, empty track or bad point, in track and
    point order, except that a non-finite point before that error comes
    first, and last for counts too large to hold: ``scans * state_dim *
    max(N, 1)`` above ``_MAX_STATES``.
    A label is a string, and no two tracks share a ``track_label``,
    so every set can be saved and loaded again.

    The set holds ``labels``, every track's ``track_label``; ``states``
    (N, T, D), NaN where a track does not exist; and the ``exists`` (N, T)
    mask.  The arrays are read-only.  Two sets are equal when their scans,
    state dimension, labels, masks and existing states are.  A set keeps no
    ``Track``: ``tracks`` builds them from the arrays on first read, with
    points in scan order.
    """

    def __init__(self, scans: int, state_dim: int, tracks: Iterable[Track] = ()) -> None:
        self._build(scans, state_dim, [(trk.label if trk.label is not None else f"T{i}", trk.points)
                                       for i, trk in enumerate(tracks, start=1)])

    @classmethod
    def from_records(cls, scans: int, state_dim: int,
                     records: Sequence[tuple[str, Mapping[int, Sequence[float]]]]) -> TrackSet:
        """The set of tracks given as (label, points) records, each mapping
        scans to coordinate sequences in point order, checked by the rules
        and in the order of the constructor; no ``Track`` is made."""
        out = object.__new__(cls)
        out._build(scans, state_dim, records)
        return out

    def _build(self, scans: int, dim: int, records) -> None:
        if scans < 1:
            raise BadParametersError(f"scans must be >= 1, got {scans}")
        if dim < 1:
            raise BadParametersError(f"state_dim must be >= 1, got {dim}")
        # records[:n] break no label or empty-track rule; ts and xs are their
        # points' scans and states in point order
        n = len(records)
        taken: set[str] = set()
        for i, (name, points) in enumerate(records):
            if not isinstance(name, str) or name in taken or not points:
                n = i
                break
            taken.add(name)
        error: ValidationError | None = None
        if n < len(records):
            name = records[n][0]
            error = (ValidationError(f"track #{n + 1} has label {name!r}, not a string")
                     if not isinstance(name, str) else
                     ValidationError(f"track #{n + 1} repeats the label {name}")
                     if name in taken else
                     EmptyTrackError(f"track {name} has no existing state at any scan"))
        kept = [points for _, points in records[:n]]
        sizes = [len(points) for points in kept]
        ts = list(itertools.chain.from_iterable(kept))
        xs = list(itertools.chain.from_iterable(points.values() for points in kept))

        def owner(k: int) -> str:  # the label of the track of point k
            return records[int(np.searchsorted(np.cumsum(sizes), k, side="right"))][0]

        if ts and (min(ts) < 1 or max(ts) > scans or set(map(len, xs)) != {dim}):
            # a bad point comes before any error of a later track; the
            # points before it are kept for the finiteness check
            k = next(k for k, (t, x) in enumerate(zip(ts, xs))
                     if not 1 <= t <= scans or len(x) != dim)
            name, t, x = owner(k), ts[k], xs[k]
            error = (ScanOutOfRangeError(f"track {name} has a point at scan {t}, outside 1..{scans}")
                     if not 1 <= t <= scans else
                     DimensionMismatchError(
                         f"track {name} at scan {t} has dimension {len(x)}, expected {dim}"))
            del ts[k:], xs[k:]
        flat, size = itertools.chain.from_iterable, len(xs) * dim
        try:
            coords = np.fromiter(flat(xs), float, size)
        except OverflowError:
            coords = np.fromiter(map(_float_or_inf, flat(xs)), float, size)
        # a non-finite point before the first other error comes first
        if not np.isfinite(coords).all():
            k = int(np.flatnonzero(~np.isfinite(coords))[0]) // dim
            raise NonFiniteCoordinateError(
                f"track {owner(k)} at scan {ts[k]} has a non-finite coordinate")
        if error is not None:
            raise error
        if scans * dim * max(n, 1) > _MAX_STATES:  # checked before any array is sized by it
            raise ValidationError(f"cannot hold the states of {n} track(s) over {scans} "
                                  f"scans in {dim} dimensions")
        rows = np.repeat(np.arange(n), sizes)
        cols = np.fromiter(ts, np.intp, len(ts)) - 1
        states = np.full((n, scans, dim), np.nan)
        states[rows, cols] = coords.reshape(-1, dim)
        exists = np.zeros((n, scans), dtype=bool)
        exists[rows, cols] = True
        states.setflags(write=False)
        exists.setflags(write=False)
        for name, value in (("scans", scans), ("state_dim", dim), ("states", states),
                            ("exists", exists), ("_tracks", None),
                            ("labels", tuple(name for name, _ in records))):
            object.__setattr__(self, name, value)

    @property
    def tracks(self) -> tuple[Track, ...]:
        """The tracks, made from the arrays on first read, with points in
        scan order."""
        if self._tracks is None:
            object.__setattr__(self, "_tracks", tuple(
                Track(dict(zip((np.flatnonzero(row) + 1).tolist(),
                               map(tuple, states[row].tolist()))), label)
                for label, states, row in zip(self.labels, self.states, self.exists)))
        return self._tracks

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.scans, self.state_dim, self.labels) == (other.scans, other.state_dim,
                                                               other.labels)
                and np.array_equal(self.exists, other.exists)
                and np.array_equal(self.states[self.exists], other.states[other.exists]))

    def __hash__(self) -> int:
        return hash((self.scans, self.state_dim, self.labels))

    def __repr__(self) -> str:
        return f"TrackSet(scans={self.scans!r}, state_dim={self.state_dim!r}, tracks={self.tracks!r})"

    def __len__(self) -> int:
        return len(self.labels)

    def track_label(self, index: int) -> str:
        """Label of 1-based track ``index``; IndexError outside 1..N."""
        if not 1 <= index <= len(self.labels):
            raise IndexError(f"track index {index} outside 1..{len(self.labels)}")
        return self.labels[index - 1]


class Direction(Enum):
    """Which way the many-to-one assignment maps."""

    EST_TO_TRUTH = "est_to_truth"
    TRUTH_TO_EST = "truth_to_est"


@dataclass(frozen=True)
class Assignment:
    """A many-to-one map from source tracks to {0} or a target track.

    ``source_to_target[j-1]`` is the 1-based target index of source ``j`` or 0
    when unassigned.  ``orders[i-1]`` is the ordered tuple of 1-based source
    indices assigned to target ``i`` (empty when none); its first element is
    the one that escapes the extra-assignment penalty at scans it exists.
    """

    direction: Direction
    source_to_target: tuple[int, ...]
    orders: tuple[tuple[int, ...], ...]

    def unassigned_sources(self) -> tuple[int, ...]:
        return tuple(j + 1 for j, i in enumerate(self.source_to_target) if i == 0)


@dataclass(frozen=True)
class MetricParams:
    """Parameters shared by the OSPAMT, OSPA and OSPAT computations.

    p        order parameter, 1 <= p < inf
    c        cutoff, > 0
    delta    extra-assignment penalty, 0 < delta <= c (warns at delta == c,
             the boundary the source material leaves open)
    alpha    label penalty used by OSPAT only, 0 <= alpha <= c
    p_prime  order of the base norm d(x, y); defaults to p
    scale    optional positive per-dimension multipliers applied to every
             coordinate before any distance is taken
    """

    p: float = 1.0
    c: float = 80.0
    delta: float = 10.0
    alpha: float = 10.0
    p_prime: float | None = None
    scale: tuple[float, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if not (1.0 <= self.p < math.inf):
            raise BadParametersError(f"order p must satisfy 1 <= p < inf, got {self.p}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise BadParametersError(f"cutoff c must be a positive real, got {self.c}")
        if not (0.0 < self.delta <= self.c):
            raise BadParametersError(
                f"assignment penalty delta must satisfy 0 < delta <= c, got {self.delta}"
            )
        if self.delta == self.c:
            warnings.warn(
                "delta == c is a boundary case with undocumented behaviour",
                stacklevel=2,
            )
        if not (0.0 <= self.alpha <= self.c):
            raise BadParametersError(
                f"label penalty alpha must satisfy 0 <= alpha <= c, got {self.alpha}"
            )
        if self.p_prime is not None and not (1.0 <= self.p_prime < math.inf):
            raise BadParametersError(
                f"base norm order p_prime must satisfy 1 <= p' < inf, got {self.p_prime}"
            )
        if self.scale is not None:
            scale = tuple(float(s) for s in self.scale)
            if any(not (s > 0.0 and math.isfinite(s)) for s in scale):
                raise BadParametersError("scale factors must be positive reals")
            object.__setattr__(self, "scale", scale)
        # held as floats, so no array built from a parameter is an integer one
        for name in ("p", "c", "delta", "alpha", "p_prime"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def base_order(self) -> float:
        return self.p if self.p_prime is None else self.p_prime


def root_mean(raw: float, count: int, params: MetricParams) -> float:
    """A raw sum of p-th powers over ``count`` distance slots as a distance:
    the p-th root of its mean, zero where there are no slots.  Every value of
    every metric comes from here.  The form ``c * (raw / (count * c**p)) **
    (1/p)`` gives exactly c when every slot is at the cutoff."""
    c, p = params.c, params.p
    return c * (raw / (count * c**p)) ** (1.0 / p) if count > 0 else 0.0


@dataclass(frozen=True)
class MetricReport:
    """Full result of one OSPAMT, OSPA or OSPAT evaluation, per scan and
    over time, built by ``from_sums``.

    ``total ** p * n`` equals both ``sum(per_time[t] ** p * n_t[t])`` and
    ``(loc ** p + card ** p) * n`` up to rounding.  ``total <= c`` for OSPA,
    OSPAT and the exact OSPAMT search, up to the rounding of sums over scans
    with different ``n_t``; the greedy OSPAMT search can exceed c.

    ``assignment`` is an ``Assignment`` (direction, map and orders) for
    OSPAMT.  For OSPA and OSPAT it is the per-scan matchings, each a tuple
    of 1-based (index in a, index in b) pairs; OSPAT's match labeled
    states, and its global pairing comes beside the report.  Their totals
    come from one solve per scan, and a scan's lexicographic matching is
    computed when it is first read (``ospa.Matchings``, which compares
    equal to the tuple of tuples it stands for).
    """

    total: float
    per_time: tuple[float, ...]
    loc: float
    card: float
    loc_t: tuple[float, ...]
    card_t: tuple[float, ...]
    assignment: object
    n_t: tuple[int, ...]
    n: int

    @classmethod
    def from_sums(cls, loc_sums: Sequence[float], card_sums: Sequence[float],
                  n_t: Sequence[int], params: MetricParams, assignment: object) -> MetricReport:
        """Report of raw per-scan loc and card sums of p-th powers over ``n_t``
        slots each, all through ``root_mean``: how every metric reports."""
        n = sum(n_t)
        (total, per_time), (loc, loc_t), (card, card_t) = (
            (root_mean(sum(sums), n, params),
             tuple(root_mean(x, k, params) for x, k in zip(sums, n_t)))
            for sums in ([x + y for x, y in zip(loc_sums, card_sums)], loc_sums, card_sums)
        )
        return cls(total, per_time, loc, card, loc_t, card_t, assignment, tuple(n_t), n)


def base_distance(
    x: ArrayLike, y: ArrayLike, params: MetricParams, order: float | None = None
) -> np.ndarray:
    """p'-norm of the coordinate difference after per-dimension scaling.

    Broadcasts over leading axes; the last axis holds the coordinates.
    ``order`` overrides ``params.base_order``.  Absent states given as NaN
    give NaN distances.

    The norm is accumulated one coordinate at a time (``|d_k|`` summed,
    ``hypot`` chained, or ``|d_k| ** q`` summed, then one root), so no
    intermediate holds every coordinate of every pair.  Up to seven
    coordinates this adds in the order of numpy's own reduction over the
    last axis; from eight on numpy sums pairwise, and the two may differ in
    the last bit.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:  # broadcast_arrays costs more than a tiny tensor
        x, y = np.broadcast_arrays(x, y)
    dim = x.shape[-1]
    scale = params.scale
    if scale is not None and len(scale) != dim:
        raise DimensionMismatchError(f"scale has {len(scale)} factors for dimension {dim}")
    q = params.base_order if order is None else order
    out = None
    for k in range(dim):
        # k:k+1 keeps a unit axis, so a single pair also takes numpy's array
        # loops and matches its own entry of a larger tensor to the last bit
        diff = x[..., k : k + 1] - y[..., k : k + 1]
        if scale is not None:
            diff = diff * scale[k]
        if out is None:
            out = np.abs(diff) if q in (1.0, 2.0) else np.abs(diff) ** q
        elif q == 2.0:
            out = np.hypot(out, diff)
        elif q == 1.0:
            out += np.abs(diff)
        else:
            out += np.abs(diff) ** q
    if q not in (1.0, 2.0):
        out = out ** (1.0 / q)
    return out[..., 0][()]  # [()] makes a single pair's distance a scalar


class ScanDistances:
    """Base distances of every pair of tracks, one from each of two sets, at
    every scan where both exist, gathered once in scan-major order from two
    comparable track sets; ``scan_distances`` builds it.  ``sets`` is the
    pair ``(a, b)`` it was built from, and a metric scores a layer only
    with those very sets (``layer_for``).

    Entry k is the pair (``rows[k]``, ``cols[k]``) of 0-based track indices
    at one scan, and ``values[k]`` is its distance at base norm order p'.
    The entries run by scan, then by row, then by column, so scan t's
    entries are one block.  The layer has three readers: per scan,
    ``blocks`` reshapes each block to the matrix of the tracks existing
    then; per pair over scans, ``pair_sums`` counts each pair's shared
    scans and adds any per-entry values over them in scan order; per pair
    per scan, ``entries`` finds the entries of given pairs.  None builds a
    dense tensor.
    ``transpose()`` is the same layer with the roles of the two sets
    swapped, sharing every array.  ``at_order(q)`` gives the distances at
    base norm order q, computed once from the gathered states.
    """

    __slots__ = ("sets", "rows", "cols", "values", "_by_order", "_states",
                 "_params", "_tracks_at", "_ends", "_ranks", "_first", "_width", "_swapped")

    def __init__(self, a: TrackSet, b: TrackSet, params: MetricParams) -> None:
        self.sets = (a, b)
        scans = a.scans
        # the tracks of each set that exist at each scan, scan by scan
        ta, ia = np.nonzero(a.exists.T)
        tb, ib = np.nonzero(b.exists.T)
        m_t = np.bincount(ta, minlength=scans)
        n_t = np.bincount(tb, minlength=scans)
        # each existing (scan, track of a) meets the tracks of b at its scan
        # in order: its scan and row repeat, and its columns run through that
        # scan's block of ib, which ends where the a-track's entries end
        reps = n_t[ta]
        scan, self.rows = np.repeat(ta, reps), np.repeat(ia, reps)
        shift = np.cumsum(n_t)[ta] - np.cumsum(reps)
        self.cols = ib[np.arange(len(self.rows)) + np.repeat(shift, reps)]
        dim = a.state_dim
        self._states = (
            np.take(a.states.reshape(-1, dim), self.rows * scans + scan, axis=0),
            np.take(b.states.reshape(-1, dim), self.cols * scans + scan, axis=0),
        )
        self._params = params
        self.values = base_distance(*self._states, params)
        self._by_order = {params.base_order: self.values}
        ia, ib = ia.tolist(), ib.tolist()
        ends_a, ends_b = np.cumsum(m_t).tolist(), np.cumsum(n_t).tolist()
        self._tracks_at = [(ia[sa:ea], ib[sb:eb]) for sa, ea, sb, eb
                           in zip([0] + ends_a, ends_a, [0] + ends_b, ends_b)]
        ends = np.cumsum(m_t * n_t)
        self._ends = ends.tolist()
        # a track's place among the tracks of its set existing at each scan
        self._ranks = np.cumsum(a.exists, axis=0) - 1, np.cumsum(b.exists, axis=0) - 1
        self._first, self._width = ends - m_t * n_t, n_t
        self._swapped = False

    def at_order(self, order: float) -> np.ndarray:
        """The entries' distances at base norm order ``order``."""
        if order not in self._by_order:
            self._by_order[order] = base_distance(*self._states, self._params, order)
        return self._by_order[order]

    def transpose(self) -> ScanDistances:
        """This layer with the two sets' roles swapped."""
        out = object.__new__(ScanDistances)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.sets, out.rows, out.cols = self.sets[::-1], self.cols, self.rows
        out._swapped = not self._swapped
        return out

    def blocks(self, values: np.ndarray) -> Iterator[tuple[list[int], list[int], np.ndarray]]:
        """Per scan: the 0-based row and column tracks existing then, and
        that scan's slice of the per-entry ``values`` as their matrix."""
        start = 0
        for (ia, ib), end in zip(self._tracks_at, self._ends):
            block = values[start:end].reshape(len(ia), len(ib))
            yield (ib, ia, block.T) if self._swapped else (ia, ib, block)
            start = end

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Indices of the entries of the pairs (``rows[k]``, ``cols[k]``) at
        every scan, of shape ``rows`` and ``cols`` broadcast, then T; only
        where both tracks exist is the index one of that pair's entries.
        Rows of shape (K, 1) and columns of shape (M,) give every pair's."""
        ia, ib = (cols, rows) if self._swapped else (rows, cols)
        rank_a, rank_b = self._ranks
        return self._first + rank_a[ia] * self._width + rank_b[ib]

    def pair_sums(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two (rows, columns) arrays: each pair's count of shared scans, and
        its sum of the per-entry ``values`` over them, added one scan after
        another in scan order; both are zero for a pair that never coexists.
        The transposed layer's are exactly the transposes."""
        nrows, ncols = map(len, self.sets)
        pair = self.rows * ncols + self.cols
        return tuple(np.bincount(pair, weights, nrows * ncols).reshape(nrows, ncols)
                     for weights in (None, values))


def scan_distances(a: TrackSet, b: TrackSet, params: MetricParams) -> ScanDistances:
    """Base distances of every pair of tracks of ``a`` and ``b`` at every
    scan where both exist, as a ``ScanDistances`` layer at order p'.

    Only the coexisting entries are computed, and each equals
    ``base_distance`` of its own pair of states to the last bit.  The layer
    of ``b`` against ``a`` is ``.transpose()`` of this one, so a caller that
    needs both directions builds it once.  Raises ScanMismatchError or
    DimensionMismatchError unless the sets are comparable.
    """
    check_comparable(a, b)
    return ScanDistances(a, b, params)


def layer_for(a: TrackSet, b: TrackSet, params: MetricParams,
              dist: ScanDistances | None) -> ScanDistances:
    """The layer of ``a`` against ``b`` that a metric given ``dist`` scores:
    ``scan_distances(a, b, params)`` when ``dist`` is None, else ``dist``
    itself, which must have been built from these very sets under the same
    ``scale``, the one parameter its distances depend on (``at_order``
    serves any p').  Raises BadParametersError for any other layer."""
    if dist is None:
        return scan_distances(a, b, params)
    if dist.sets[0] is not a or dist.sets[1] is not b or dist._params.scale != params.scale:
        raise BadParametersError("the distance layer was built from other track sets "
                                 "or under another scale")
    return dist


def count_distances(a: TrackSet, b: TrackSet) -> tuple[tuple[int, ...], int]:
    """Per-scan and total distance counts between two track sets.

    n_t is the larger of the two existing-target counts at scan t and n is
    the sum over all scans; both normalize the metrics.
    """
    if a.scans != b.scans:
        raise ScanMismatchError(f"scan counts differ: {a.scans} vs {b.scans}")
    n_t = tuple(np.maximum(a.exists.sum(axis=0), b.exists.sum(axis=0)).tolist())
    return n_t, sum(n_t)


def check_comparable(a: TrackSet, b: TrackSet) -> None:
    """Raise unless two sets share scans and state dimension."""
    if a.scans != b.scans:
        raise ScanMismatchError(f"scan counts differ: {a.scans} vs {b.scans}")
    if a.state_dim != b.state_dim:
        raise DimensionMismatchError(
            f"state dimensions differ: {a.state_dim} vs {b.state_dim}"
        )
