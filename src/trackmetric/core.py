"""Domain types and shared arithmetic.

A track is a sparse map from 1-based scan indices to state vectors; a scan
with no entry means the target does not exist then.  A track set fixes the
number of scans T and the state dimension for all of its tracks, and is
valid once built: its constructor rejects every set that breaks one of
these rules, so the metrics trust every set they are given.  Everything
here is immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

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


@dataclass(frozen=True)
class Track:
    """One target trajectory: existing scans mapped to state vectors.

    A record only: a ``TrackSet`` reads it once, when built, and the metrics
    read the set's arrays.  A bare number, Python or numpy, or any other
    value with no axes, is a 1-D state.  ``label`` is carried for reporting
    only; it plays no role in any distance.
    """

    points: Mapping[int, StateVector | float]
    label: str | None = None

    def __post_init__(self) -> None:
        # lists and tuples, the common states, skip the cost of np.ndim
        pts = {int(t): tuple(map(float, x)) if isinstance(x, (list, tuple)) or np.ndim(x)
               else (float(x),) for t, x in self.points.items()}
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class TrackSet:
    """A finite (possibly empty) collection of tracks over scans 1..T, valid
    once built: the constructor raises for ``scans`` or ``state_dim`` below 1,
    then for the first bad label, empty track or bad point, in track and
    point order.  A label is a string, and no two tracks share a
    ``track_label``, so every set can be saved and loaded again.
    ``states`` (N, T, D), NaN where a track does not exist, and the ``exists``
    (N, T) mask are read-only and play no role in ``==``."""

    scans: int
    state_dim: int
    tracks: tuple[Track, ...] = ()
    states: np.ndarray = field(init=False, repr=False, compare=False)
    exists: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tracks = tuple(self.tracks)
        object.__setattr__(self, "tracks", tracks)
        scans, dim = self.scans, self.state_dim
        if scans < 1:
            raise BadParametersError(f"scans must be >= 1, got {scans}")
        if dim < 1:
            raise BadParametersError(f"state_dim must be >= 1, got {dim}")
        # every point before the first of wrong scan or size: its flat
        # (track, scan) index, and its coordinates one after another
        cells: list[int] = []
        values: list[float] = []

        def first_error() -> ValidationError | None:
            labels: set[str] = set()
            for i, trk in enumerate(tracks):
                name = self.track_label(i + 1)
                if not isinstance(name, str):
                    return ValidationError(f"track #{i + 1} has label {name!r}, not a string")
                if name in labels:
                    return ValidationError(f"track #{i + 1} repeats the label {name}")
                labels.add(name)
                if not trk.points:
                    return EmptyTrackError(f"track {name} has no existing state at any scan")
                for t, x in trk.points.items():
                    if not 1 <= t <= scans:
                        return ScanOutOfRangeError(
                            f"track {name} has a point at scan {t}, outside 1..{scans}"
                        )
                    if len(x) != dim:
                        return DimensionMismatchError(
                            f"track {name} at scan {t} has dimension {len(x)}, expected {dim}"
                        )
                    cells.append(i * scans + t - 1)
                    values.extend(x)
            return None

        error = first_error()
        coords = np.array(values, dtype=float).reshape(-1, dim)
        # a non-finite point gathered before the first other error comes first
        bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
        if bad.size:
            i, t = divmod(cells[bad[0]], scans)
            raise NonFiniteCoordinateError(
                f"track {self.track_label(i + 1)} at scan {t + 1} has a non-finite coordinate"
            )
        if error is not None:
            raise error
        flat = np.array(cells, dtype=np.intp)
        states = np.full((len(tracks), scans, dim), np.nan)
        states.reshape(-1, dim)[flat] = coords
        exists = np.zeros((len(tracks), scans), dtype=bool)
        exists.reshape(-1)[flat] = True
        for name, array in (("states", states), ("exists", exists)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.tracks)

    def track_label(self, index: int) -> str:
        """Label of 1-based track ``index``, falling back to T<index>."""
        trk = self.tracks[index - 1]
        return trk.label if trk.label is not None else f"T{index}"


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


def at_coexisting(
    coexist: np.ndarray, values: Callable[[np.ndarray], np.ndarray], fill: float = np.nan
) -> np.ndarray:
    """Float array of ``coexist``'s shape holding ``values(flat)`` at its
    true entries and ``fill`` elsewhere, where ``flat`` are the flat indices
    of those entries in scan order.  ``scan_distances`` builds its tensor
    through here, and the greedy cost matrix, ``directional_terms`` and
    OSPAT's reordering costs and labeled distances read it through here, so
    none of them touches an entry where two tracks do not coexist.
    ``ospa_per_scan`` and ``_DirectionalEngine`` cap the whole tensor, NaN
    entries included."""
    flat = np.flatnonzero(coexist)
    out = np.full(coexist.shape, fill)
    np.put(out, flat, values(flat))
    return out


def scan_distances(
    a: TrackSet, b: TrackSet, params: MetricParams, order: float | None = None
) -> np.ndarray:
    """(N_a, N_b, T) base distances of every pair of tracks at every scan.

    Entries are NaN wherever the two tracks do not coexist, and only the
    coexisting entries, where ``a.exists[:, None] & b.exists[None]`` holds,
    are computed.  Each equals ``base_distance`` of its own pair of states
    to the last bit.  The tensor of ``b`` against ``a`` is exactly
    ``.transpose(1, 0, 2)`` of this one, so a caller that needs both
    directions builds it once.  Raises ScanMismatchError or
    DimensionMismatchError unless the sets are comparable.
    """
    check_comparable(a, b)
    nb, scans = len(b.tracks), a.scans

    def distances(flat: np.ndarray) -> np.ndarray:
        # flat = i * nb * scans + jt, where jt = j * scans + t is b's row in
        # its (nb * scans, D) view and i * scans + t is a's row in its own
        jt = flat % (nb * scans)
        it = flat // (nb * scans) * scans + jt % scans
        x = np.take(a.states.reshape(-1, a.state_dim), it, axis=0)
        y = np.take(b.states.reshape(-1, b.state_dim), jt, axis=0)
        return base_distance(x, y, params, order)

    return at_coexisting(a.exists[:, None] & b.exists[None], distances)


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
