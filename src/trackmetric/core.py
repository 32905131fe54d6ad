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
import numbers
import operator
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

    A record only: a ``TrackSet`` reads it once, when built, and keeps its
    points as arrays.  A scan is an integer, Python or numpy; any other key
    is a ValidationError.  A bare number, Python or numpy, or any
    other value with no axes, is a 1-D state; a 0-d array, bare or as a
    coordinate, is read as the scalar it holds.  A string, bytes, a bool or
    anything ``float`` refuses is no coordinate but a ValidationError.  An
    integer beyond float range reads as an infinite coordinate, which
    ``TrackSet`` rejects.  ``label`` is carried for reporting only; it
    plays no role in any distance.
    """

    points: Mapping[int, StateVector | float]
    label: str | None = None

    def __post_init__(self) -> None:
        pts: dict[int, StateVector] = {}
        for t, x in self.points.items():
            t = _scan_index(t)
            # lists and tuples, the common states, skip the cost of np.ndim
            x = x if isinstance(x, (list, tuple)) or np.ndim(x) else (x,)
            # a 0-d array is checked as the scalar it holds, which v[()] reads
            x = [v[()] if isinstance(v, np.ndarray) else v for v in x]
            try:
                # float() would read a string, bytes or a bool as a number
                if any(isinstance(v, (str, bytes, bool, np.bool_)) for v in x):
                    raise TypeError
                pts[t] = tuple(map(_float_or_inf, x))
            except (TypeError, ValueError):
                raise ValidationError(f"a coordinate at scan {t} is not a number") from None
        object.__setattr__(self, "points", pts)


def _scan_index(t) -> int:
    """A point's scan key as an int; ValidationError for a non-integer."""
    try:
        return operator.index(t)
    except TypeError:
        raise ValidationError(f"scan key {t!r} is not an integer") from None


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
    ``Track``.
    """

    def __init__(self, scans: int, state_dim: int, tracks: Iterable[Track] = ()) -> None:
        self._build(scans, state_dim, [(trk.label if trk.label is not None else f"T{i}", trk.points)
                                       for i, trk in enumerate(tracks, start=1)])

    @classmethod
    def from_records(cls, scans: int, state_dim: int,
                     records: Sequence[tuple[str, Mapping[int, Sequence[float]]]]) -> TrackSet:
        """The set of tracks given as (label, points) records, each mapping
        integer scans to coordinate sequences in point order, checked by the
        rules and in the order of the constructor; no ``Track`` is made and
        the scans' type is not checked."""
        out = object.__new__(cls)
        out._build(scans, state_dim, records)
        return out

    def _build(self, scans: int, dim: int, records) -> None:
        for name, value in (("scans", scans), ("state_dim", dim)):
            if not _is_a(value, numbers.Integral):
                raise BadParametersError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise BadParametersError(f"{name} must be >= 1, got {value}")
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
                            ("exists", exists),
                            ("labels", tuple(name for name, _ in records))):
            object.__setattr__(self, name, value)

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
        return f"TrackSet(scans={self.scans!r}, state_dim={self.state_dim!r}, labels={self.labels!r})"

    def __len__(self) -> int:
        return len(self.labels)

    def track_label(self, index: int) -> str:
        """Label of 1-based track ``index``; IndexError outside 1..N."""
        if not 1 <= index <= len(self.labels):
            raise IndexError(f"track index {index} outside 1..{len(self.labels)}")
        return self.labels[index - 1]


def _is_a(value, kind: type) -> bool:
    """Whether ``value`` is a number of ``kind``, such as ``numbers.Real``,
    Python or numpy, and not a bool, which would read as 0 or 1."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
    """Real parameters, never bools, shared by OSPAMT, OSPA and OSPAT.

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
        for name in ("p", "c", "delta", "alpha", "p_prime"):
            value = getattr(self, name)
            if name == "p_prime" and value is None:
                continue
            if not _is_a(value, numbers.Real):
                raise BadParametersError(f"{name} must be a real number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                # no repr: an int past 4300 digits refuses one
                raise BadParametersError(f"{name} is beyond float range") from None
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
            # a string is never read as its characters, nor a factor as its digits
            scale = (tuple(self.scale) if isinstance(self.scale, Iterable)
                     and not isinstance(self.scale, (str, bytes)) else None)
            if scale is None or not all(_is_a(s, numbers.Real) for s in scale):
                raise BadParametersError(f"scale must be a sequence of numbers, got {self.scale!r}")
            scale = tuple(map(float, scale))
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
        slots each, all through ``root_mean``: how every metric reports.  The
        per-scan values are ``root_mean``'s expression in one comprehension,
        with its factors computed once."""
        n = sum(n_t)
        c, cp, root = params.c, params.c**params.p, 1.0 / params.p
        (total, per_time), (loc, loc_t), (card, card_t) = (
            (root_mean(sum(sums), n, params),
             tuple([c * (x / (k * cp)) ** root if k > 0 else 0.0 for x, k in zip(sums, n_t)]))
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


#: Relative margin of the norm-equivalence bound that ``at_order`` tests an
#: entry against the cutoff with, far above the few ulps of its rounding.
_NEAR_MARGIN = 1e-9


class ScanDistances:
    """Cut-off base distances min(d, c) of every pair of tracks, one from
    each of two sets, at every scan where both exist, gathered once in
    scan-major order from two comparable track sets; ``scan_distances``
    builds it under one ``MetricParams``.  ``sets`` is the pair ``(a, b)``
    it was built from, and a metric scores a layer only with those very
    sets and under its cutoff and scale (``layer_for``).

    Entry k is the pair (``rows[k]``, ``cols[k]``) of 0-based track indices
    at one scan, and ``values[k]`` is its distance at base norm order p',
    uncapped.  Every metric reads only the capped distances of
    ``at_order``.  The entries run by scan, then by row, then by column, so
    scan t's entries are one block.  The layer has three readers: per scan,
    ``blocks`` reshapes each block to the matrix of the tracks existing
    then, and ``block_maxima`` gives each block's largest value; per pair
    over scans, ``pair_sums`` adds any per-entry values over each pair's
    shared scans in scan order, beside the pair's shared and lone scans,
    which the layer counts once; per pair per scan, ``entries`` finds the
    entries of given pairs, and ``per_entry`` reads each entry's element
    of a per-pair matrix.  None builds a dense tensor.  Every metric
    normalises by ``slots``, each scan's larger count of existing tracks of
    one set.  The layer keeps no copy of the gathered states; ``at_order``
    gathers again only the entries it computes.  ``transpose()`` swaps the
    two sets' roles and shares every array, the capped orders included.
    """

    __slots__ = ("sets", "rows", "cols", "values", "slots", "_pair", "_counts", "_by_order",
                 "_params", "_tracks_at", "_bounds", "_ranks", "_first", "_width", "_swapped")

    def __init__(self, a: TrackSet, b: TrackSet, params: MetricParams) -> None:
        self.sets = (a, b)
        scans = a.scans
        # the tracks of each set that exist at each scan, scan by scan
        ta, ia = np.nonzero(a.exists.T)
        tb, ib = np.nonzero(b.exists.T)
        m_t = np.bincount(ta, minlength=scans)
        n_t = np.bincount(tb, minlength=scans)
        # Python ints, as every report carries them in its n_t
        self.slots = tuple(np.maximum(m_t, n_t).tolist())
        # each existing (scan, track of a) meets the tracks of b at its scan
        # in order: its row and state repeat, and its columns run through
        # that scan's block of ib, which ends where the a-track's entries end
        reps = n_t[ta]
        self.rows = np.repeat(ia, reps)
        at_b = np.arange(len(self.rows))  # each entry's place in ib
        at_b += np.repeat(np.cumsum(n_t)[ta] - np.cumsum(reps), reps)
        self.cols = ib[at_b]
        self._params = params
        self.values = base_distance(np.repeat(a.states[ia, ta], reps, axis=0),
                                    np.take(b.states[ib, tb], at_b, 0), params)
        self._by_order = {params.base_order: np.minimum(self.values, params.c)}
        # each entry's pair, row-major in (a, b); each pair's shared scans,
        # and its lone scans, where exactly one of its two tracks exists
        self._pair = self.rows * len(b)
        self._pair += self.cols
        shared = np.bincount(self._pair, minlength=len(a) * len(b)).reshape(len(a), len(b))
        lives = np.bincount(ia, minlength=len(a)), np.bincount(ib, minlength=len(b))
        self._counts = shared, np.add.outer(*lives) - 2 * shared
        ia, ib = ia.tolist(), ib.tolist()
        ends_a, ends_b = np.cumsum(m_t).tolist(), np.cumsum(n_t).tolist()
        self._tracks_at = [(ia[sa:ea], ib[sb:eb]) for sa, ea, sb, eb
                           in zip([0] + ends_a, ends_a, [0] + ends_b, ends_b)]
        ends = np.cumsum(m_t * n_t)
        # scan t's entries are values[bounds[t]:bounds[t + 1]]
        self._bounds = [0, *ends.tolist()]
        # a track's place among the tracks of its set existing at each scan
        self._ranks = np.cumsum(a.exists, axis=0) - 1, np.cumsum(b.exists, axis=0) - 1
        self._first, self._width = ends - m_t * n_t, n_t
        self._swapped = False

    def at_order(self, order: float) -> np.ndarray:
        """The entries' distances at base norm order ``order``, capped at c,
        computed once.  Away from p' only the entries that may lie below c
        are computed from the states: for order q above p',
        ``||v||_q >= D ** (1/q - 1/p') * ||v||_p'`` in D dimensions, and
        ``||v||_q >= ||v||_p'`` otherwise, so an entry whose bound is at
        least c, by a relative margin far above rounding, is c."""
        capped = self._by_order.get(order)
        if capped is None:
            a, b = self.sets[::-1] if self._swapped else self.sets
            rows, cols = (self.cols, self.rows) if self._swapped else (self.rows, self.cols)
            p1, c, dim = self._params.base_order, self._params.c, a.state_dim
            # the p' distance at which the bound reaches c, with the margin
            limit = c * (1.0 + _NEAR_MARGIN) / (dim ** (1.0 / order - 1.0 / p1)
                                                 if order > p1 else 1.0)
            near = self.values < limit
            near |= self.values == np.inf  # an overflowed p'-norm bounds nothing
            near = np.flatnonzero(near)
            # the near entries of scan t lie between its block's bounds
            cuts = near.searchsorted(self._bounds)
            scan = np.repeat(np.arange(a.scans), cuts[1:] - cuts[:-1])
            states = (np.take(s.states.reshape(-1, dim), idx[near] * a.scans + scan, 0)
                      for s, idx in ((a, rows), (b, cols)))
            capped = np.full(len(self.values), c)
            capped[near] = np.minimum(base_distance(*states, self._params, order), c)
            self._by_order[order] = capped
        return capped

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
        for (ia, ib), start, end in zip(self._tracks_at, self._bounds, self._bounds[1:]):
            block = values[start:end].reshape(len(ia), len(ib))
            yield (ib, ia, block.T) if self._swapped else (ia, ib, block)

    def block_maxima(self, values: np.ndarray) -> list[float | None]:
        """Per scan: the largest of that scan's per-entry ``values``, from
        one ``reduceat``, or None where its block is empty."""
        spans = list(zip(self._bounds, self._bounds[1:]))
        full = [start for start, end in spans if start < end]
        tops = iter(np.maximum.reduceat(values, full).tolist() if full else ())
        return [next(tops) if start < end else None for start, end in spans]

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Indices of the entries of the pairs (``rows[k]``, ``cols[k]``) at
        every scan, of shape ``rows`` and ``cols`` broadcast, then T; only
        where both tracks exist is the index one of that pair's entries.
        Rows of shape (K, 1) and columns of shape (M,) give every pair's."""
        ia, ib = (cols, rows) if self._swapped else (rows, cols)
        rank_a, rank_b = self._ranks
        return self._first + rank_a[ia] * self._width + rank_b[ib]

    def per_entry(self, matrix: np.ndarray) -> np.ndarray:
        """Each entry's element of a (rows, columns) ``matrix`` over the
        pairs, read through the entries' one flat pair index."""
        return (matrix.T if self._swapped else matrix).reshape(-1)[self._pair]

    def pair_sums(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, columns) arrays of each pair's shared scans, its lone scans,
        where one of its two tracks exists, and its sum of the per-entry
        ``values`` over the shared scans, added one after another in scan
        order.  The counts are the layer's own, and the transposed layer's
        three arrays are exactly the transposes."""
        a, b = self.sets[::-1] if self._swapped else self.sets
        summed = np.bincount(self._pair, values, len(a) * len(b)).reshape(len(a), len(b))
        shared, lone = self._counts
        return (shared.T, lone.T, summed.T) if self._swapped else (shared, lone, summed)


def scan_distances(a: TrackSet, b: TrackSet, params: MetricParams) -> ScanDistances:
    """Base distances of every pair of tracks of ``a`` and ``b`` at every
    scan where both exist, as a ``ScanDistances`` layer at order p', capped
    at c.

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
    cutoff and ``scale``, the two parameters its capped distances depend on
    (``at_order`` serves any p').  Raises BadParametersError for any other
    layer."""
    if dist is None:
        return scan_distances(a, b, params)
    if (dist.sets[0] is not a or dist.sets[1] is not b
            or (dist._params.c, dist._params.scale) != (params.c, params.scale)):
        raise BadParametersError("the distance layer was built from other track sets "
                                 "or under another cutoff or scale")
    return dist


def check_comparable(a: TrackSet, b: TrackSet) -> None:
    """Raise unless two sets share scans and state dimension."""
    if a.scans != b.scans:
        raise ScanMismatchError(f"scan counts differ: {a.scans} vs {b.scans}")
    if a.state_dim != b.state_dim:
        raise DimensionMismatchError(
            f"state dimensions differ: {a.state_dim} vs {b.state_dim}"
        )
