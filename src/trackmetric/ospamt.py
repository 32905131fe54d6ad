"""The OSPAMT metric family.

The directional distance scores one many-to-one assignment between two track
sets: matched pairs pay the capped base distance per shared scan, a non-first
assigned track pays the extra-assignment penalty whenever it stands in for
the first, every further coexisting assignee pays penalty plus cutoff, and
every remaining distance slot pays the cutoff.  The quasi distance minimizes
over assignments one way; the metric is the smaller of the two directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .assign import ENUMERATION_CAP, INFEASIBLE, TIE, greedy_many_to_one
from .core import (
    Assignment,
    Direction,
    MetricParams,
    MetricReport,
    ScanDistances,
    Track,
    TrackSet,
    check_comparable,
    count_distances,
    root_mean,
    scan_distances,
)
from .errors import InfeasibleAssignmentError, NoConvergenceError, TooLargeError


class Mode(Enum):
    """How the assignment space is searched."""

    EXACT = "exact"
    GREEDY = "greedy"
    AUTO = "auto"


def resolve_mode(mode: Mode | str, total_tracks: int) -> Mode:
    mode = Mode(mode)
    if mode is Mode.AUTO:
        return Mode.EXACT if total_tracks <= ENUMERATION_CAP else Mode.GREEDY
    return mode


def cost_matrix(
    src: TrackSet, tgt: TrackSet, params: MetricParams, dist: ScanDistances | None = None
) -> np.ndarray:
    """Pairwise cost matrix with targets as rows and sources as columns.

    Over every scan where at least one of the two tracks exists, a
    coexisting scan contributes the capped base distance to the p-th power
    and a lone scan contributes the cutoff to the p-th power; each entry is
    the mean over those scans, which keeps entries comparable to ``c ** p``
    whatever the lifetimes.  Pairs that never coexist are marked INFEASIBLE
    so the assignment search can never join them.  ``dist`` is
    ``scan_distances(tgt, src, params)`` when the caller already has it;
    otherwise it is built here.  Its entries are capped and powered, then
    scattered into a dense tensor, zero elsewhere, so that each pair sums
    over scans in numpy's order; the scan counts come from products of the
    ``exists`` masks.  The matrix of the swapped roles is exactly the
    transpose of this one.
    """
    if dist is None:
        dist = scan_distances(tgt, src, params)
    cp = params.c**params.p
    capped = np.minimum(dist.at_order(params.base_order), params.c) ** params.p
    d = dist.scatter(capped, np.zeros(dist.shape))
    # 0/1 products counted in floats: exact, and a BLAS call
    shared = tgt.exists.astype(float) @ src.exists.T.astype(float)
    either = tgt.exists.sum(axis=1)[:, None] + src.exists.sum(axis=1) - shared
    mean = (d.sum(axis=2) + cp * (either - shared)) / either
    return np.where(shared > 0, mean, INFEASIBLE)


def _check_feasible(src: TrackSet, tgt: TrackSet, lam: Sequence[int]) -> None:
    if len(lam) != len(src.tracks):
        raise InfeasibleAssignmentError(
            f"lambda has {len(lam)} entries for {len(src.tracks)} source tracks"
        )
    for j, i in enumerate(lam, start=1):
        if i == 0:
            continue
        if not (1 <= i <= len(tgt.tracks)):
            raise InfeasibleAssignmentError(f"source {j} maps to unknown target {i}")
        if not (src.exists[j - 1] & tgt.exists[i - 1]).any():
            raise InfeasibleAssignmentError(
                f"source {j} and target {i} share no existing scan"
            )


def _orders_from_lambda(
    lam: Sequence[int], n_tgt: int
) -> tuple[tuple[int, ...], ...]:
    """Preimages of lambda in ascending source order (the default ordering)."""
    pre: list[list[int]] = [[] for _ in range(n_tgt)]
    for j, i in enumerate(lam, start=1):
        if i != 0:
            pre[i - 1].append(j)
    return tuple(tuple(x) for x in pre)


def directional_terms(
    src: TrackSet,
    tgt: TrackSet,
    orders: Sequence[Sequence[int]],
    params: MetricParams,
    dist: ScanDistances,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw per-scan loc and card sums, as (T,) arrays, for a fixed
    assignment and fixed track orders; each scan's two sum to at most
    ``n_t * (c**p + delta**p)``.

    At every scan a target's order, minus its absent sources, keeps its
    relative order; the first source left is charged the capped distance,
    plus ``delta**p`` when it is not the first of the full order.  ``dist``
    is ``scan_distances(tgt, src, params)``; only the entries of assigned
    pairs are read.
    """
    p = params.p
    cp = params.c**p
    dp = params.delta**p
    n_t, _ = count_distances(src, tgt)
    # one row per assigned pair, target by target in order
    ii = np.array([i for i, order in enumerate(orders) for _ in order], dtype=int)
    jj = np.array([j - 1 for order in orders for j in order], dtype=int)
    live = src.exists[jj] & tgt.exists[ii]
    capped = np.zeros(live.shape)
    at = dist.entries(ii, jj)[live]
    capped[live] = np.minimum(dist.at_order(params.base_order)[at], params.c) ** p
    scans = np.arange(tgt.scans)
    loc = np.zeros(tgt.scans)
    card = np.zeros(tgt.scans)
    start = 0
    # one target at a time, in index order: every scan adds its terms in the
    # order of the defining sum, so the floats match a scan-by-scan loop;
    # a scan where a target charges nothing adds zeros
    for order in orders:
        stop = start + len(order)
        if order:
            first = live[start:stop].argmax(axis=0)
            loc += capped[start:stop][first, scans]
            loc += dp * (first > 0)
            card += np.maximum(live[start:stop].sum(axis=0) - 1, 0) * (dp + cp)
        start = stop
    card += cp * (np.array(n_t) - live.sum(axis=0))
    return loc, card


def directional_cost(
    src: TrackSet,
    tgt: TrackSet,
    lam: Sequence[int],
    orders: Sequence[Sequence[int]],
    params: MetricParams,
) -> float:
    """Directional distance for a fixed assignment and fixed orders.

    Each target's order must be a permutation of its preimage under ``lam``.
    """
    _check_feasible(src, tgt, lam)
    preimages = _orders_from_lambda(lam, len(tgt.tracks))
    if len(orders) != len(preimages) or any(
        tuple(sorted(order)) != pre for order, pre in zip(orders, preimages)
    ):
        raise InfeasibleAssignmentError(
            f"orders {tuple(orders)} do not order the preimages {preimages} of lambda"
        )
    _, n = count_distances(src, tgt)
    loc, card = directional_terms(src, tgt, orders, params, scan_distances(tgt, src, params))
    return root_mean(sum((loc + card).tolist()), n, params)


@lru_cache(maxsize=16)
def _subset_layers(s: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Index tables of a subset DP over s positions.

    Returns an array that is infinite where position r is in bitmask P
    (row P, column r) and zero elsewhere, and, for each set
    size 0..s, the masks of that size with ``masks ^ bit`` for every bit:
    the set without r where r is in it, the set with r where it is not.
    """
    masks = np.arange(1 << s)
    bits = 1 << np.arange(s)
    member = (masks[:, None] & bits) != 0
    size = member.sum(axis=1)
    layers = tuple(
        (masks[size == r], masks[size == r][:, None] ^ bits) for r in range(s + 1)
    )
    return np.where(member, np.inf, 0.0), layers


@lru_cache(maxsize=16)
def _preimage_masks(m: int, k: int) -> np.ndarray:
    """``masks[i, x]``: bitmask of the sources that the x-th lambda, in
    lexicographic order over ``{0..k} ** m``, sends to target i + 1."""
    sends = np.arange(k + 1) == np.arange(1, k + 1)[:, None]
    dtype = np.min_scalar_type((1 << m) - 1)  # kept small: the table is cached
    masks = np.zeros((k, 1), dtype=dtype)
    for j in range(m):
        bit = np.where(sends, 1 << j, 0).astype(dtype)
        masks = (masks[:, :, None] + bit[:, None, :]).reshape(k, -1)
    masks.setflags(write=False)
    return masks


def _placement_costs(exists: np.ndarray, gain: np.ndarray, dp: float) -> np.ndarray:
    """``w[x, P, r]``: adjustment of placing source r right after set P.

    ``exists`` and ``gain`` are ``(K, s, T)`` rows of
    ``_DirectionalEngine.coexist`` and ``.gain`` for K targets and s sources;
    P is a bitmask over the s sources.  Entries with r already in P are
    infinite.
    """
    k, s, scans = exists.shape
    covered = np.zeros((k, 1 << s, scans))
    for r in range(s):
        covered[:, 1 << r : 2 << r] = np.maximum(covered[:, : 1 << r], exists[:, r, None])
    first = gain.sum(axis=2)
    w = (first + dp * exists.sum(axis=2))[:, None, :] - covered @ gain.transpose(0, 2, 1)
    w[:, 0] = first
    return w + _subset_layers(s)[0]


class _DirectionalEngine:
    """Shared machinery for searching orders and assignments in one direction.

    Costs are expressed as adjustments against the all-unassigned baseline of
    ``c**p`` per distance slot, which makes the objective additive across
    target preimages and lets the order minimization run per target.

    Orders come from a subset DP (Held-Karp style).  Placing source j right
    after an already placed set P charges j at the target scans where j
    exists and no member of P does: the capped distance there, plus
    ``delta**p`` unless P is empty.  The per-scan cardinality term
    ``(n_bar - 1) * (delta**p + c**p) - n_bar * c**p`` splits the same way,
    into ``delta**p`` per coexisting scan of every source and
    ``-(delta**p + c**p)`` per newly covered scan, so the cost of a placement
    depends only on P and j.  An adjustment ties with the best when it is
    at most ``TIE * base`` above it.
    """

    def __init__(
        self, src: TrackSet, tgt: TrackSet, params: MetricParams, dist: ScanDistances
    ) -> None:
        self.src = src
        self.tgt = tgt
        _, self.n = count_distances(src, tgt)
        p = params.p
        cp = params.c**p
        self.dp = params.delta**p
        self.base = cp * self.n
        # coexist[i-1, j-1, t-1]: target i and source j both exist at scan t
        self.coexist = tgt.exists[:, None, :] & src.exists[None, :, :]
        # gain[i-1, j-1, t-1]: capped distance ** p minus c ** p where coexisting,
        # else 0, from dist = scan_distances(tgt, src, params)
        capped = np.minimum(dist.at_order(params.base_order), params.c)
        self.gain = dist.scatter(capped**p - cp, np.zeros(dist.shape))

    def best_order(self, i: int, pre: tuple[int, ...]) -> tuple[int, ...]:
        """Lexicographically smallest optimal order of target i's preimage.

        A backward DP over the subsets of ``pre`` prices the cheapest
        completion of every placed set; the order then takes, step by step,
        the smallest source that keeps the total within ``TIE * base`` of the
        optimum.  What each step spends over the best completion comes out
        of that slack, and the step's cheapest source spends exactly 0, so
        some source always fits.
        """
        s = len(pre)
        if s == 1:
            return pre
        idx = [j - 1 for j in pre]
        exists, gain = self.coexist[i - 1, idx], self.gain[i - 1, idx]
        w = _placement_costs(exists[None], gain[None], self.dp)[0]
        rest = np.zeros(1 << s)
        for masks, flip in reversed(_subset_layers(s)[1][:-1]):
            rest[masks] = (w[masks] + rest[flip]).min(axis=1)
        w, rest = w.tolist(), rest.tolist()
        order: list[int] = []
        placed = 0
        slack = TIE * self.base
        for _ in range(s):
            over = [w[placed][r] + rest[placed | 1 << r] - rest[placed] for r in range(s)]
            r = next(r for r, v in enumerate(over) if v <= slack)
            order.append(pre[r])
            slack -= over[r]
            placed |= 1 << r
        return tuple(order)

    def search_exact(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Minimize over every assignment, orders optimized per preimage.

        A forward DP per target prices every subset of the sources as a
        preimage.  Every lambda in lexicographic order then costs one sum of
        table lookups, all of them in one vectorized pass, and the first
        lambda within ``TIE * base`` of the minimum wins.
        """
        m = len(self.src.tracks)
        k = len(self.tgt.tracks)
        if m + k > ENUMERATION_CAP:
            raise TooLargeError(
                f"{m}+{k} tracks exceeds the enumeration cap of {ENUMERATION_CAP}"
            )
        w = _placement_costs(self.coexist, self.gain, self.dp)
        g = np.zeros(w.shape[:2])
        cols = np.arange(m)
        for masks, flip in _subset_layers(m)[1][1:]:
            g[:, masks] = (g[:, flip] + w[:, flip, cols]).min(axis=2)
        # a preimage holding a source that never meets its target is no assignment
        apart = (~self.coexist.any(axis=2)).astype(int) @ (1 << cols)
        g[(np.arange(1 << m) & apart[:, None]) != 0] = np.inf
        adj = sum(g_i[masks_i] for g_i, masks_i in zip(g, _preimage_masks(m, k)))
        idx = int(np.argmax(adj <= adj.min() + TIE * self.base))
        lam = tuple(int(i) for i in np.unravel_index(idx, (k + 1,) * m))
        return lam, self.best_orders(lam)

    def best_orders(self, lam: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Optimal track order of every target's preimage under ``lam``."""
        return tuple(
            self.best_order(i, pre) if pre else ()
            for i, pre in enumerate(_orders_from_lambda(lam, len(self.tgt.tracks)), start=1)
        )


def directional_distance(
    src: TrackSet,
    tgt: TrackSet,
    lam: Sequence[int],
    params: MetricParams,
) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """Directional distance for a fixed assignment, minimized over orders.

    The minimization runs independently per target preimage because the
    objective is additive across targets.  Returns the value and the
    optimal orders.
    """
    lam = tuple(lam)
    _check_feasible(src, tgt, lam)
    dist = scan_distances(tgt, src, params)
    engine = _DirectionalEngine(src, tgt, params, dist)
    orders = engine.best_orders(lam)
    loc, card = directional_terms(src, tgt, orders, params, dist)
    return root_mean(sum((loc + card).tolist()), engine.n, params), orders


def _quasi_greedy(
    src: TrackSet, tgt: TrackSet, params: MetricParams, d: np.ndarray
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    result = greedy_many_to_one(d, cutoff_row_col_value=params.c**params.p)
    m, n = d.shape
    lam = [0] * n
    orders: list[tuple[int, ...]] = []
    for i in range(m):
        row = result.order_matrix[i]
        assigned = sorted((row[j], j + 1) for j in range(n) if row[j] > 0)
        orders.append(tuple(j for _, j in assigned))
        for _, j in assigned:
            lam[j - 1] = i + 1
    _check_feasible(src, tgt, lam)
    return tuple(lam), tuple(orders)


def quasi_ospamt(
    src: TrackSet,
    tgt: TrackSet,
    params: MetricParams,
    mode: Mode | str = Mode.AUTO,
    direction: Direction = Direction.EST_TO_TRUTH,
    dist: ScanDistances | None = None,
) -> MetricReport:
    """Report of the smallest directional distance from ``src`` onto ``tgt``.

    The report holds the quasi distance as ``total``, its per-scan values,
    the localization/cardinality split and the assignment that attains it,
    which maps source indices into {0} + target indices; ``direction`` only
    records which roles the caller gave the two sets.  The distance is
    zero when both sets are empty; when only one is, every distance slot
    pays the cutoff, all of it cardinality.  ``dist`` is
    ``scan_distances(tgt, src, params)`` when the caller already has it;
    otherwise it is built here.
    """
    check_comparable(src, tgt)
    if dist is None:
        dist = scan_distances(tgt, src, params)
    return _quasi(src, tgt, params, mode, direction, dist, None)


def _quasi(
    src: TrackSet,
    tgt: TrackSet,
    params: MetricParams,
    mode: Mode | str,
    direction: Direction,
    dist: ScanDistances,
    costs: np.ndarray | None,
) -> MetricReport:
    """``quasi_ospamt`` of comparable sets; the search and the scoring both
    read ``dist``, and ``costs`` is the greedy ``cost_matrix(src, tgt,
    params)`` when the caller has priced it."""
    if not src.tracks or not tgt.tracks:
        lam, orders = (0,) * len(src.tracks), ((),) * len(tgt.tracks)
    elif resolve_mode(mode, len(src.tracks) + len(tgt.tracks)) is Mode.EXACT:
        lam, orders = _DirectionalEngine(src, tgt, params, dist).search_exact()
    else:
        if costs is None:
            costs = cost_matrix(src, tgt, params, dist)
        lam, orders = _quasi_greedy(src, tgt, params, costs)
    loc, card = directional_terms(src, tgt, orders, params, dist)
    n_t, _ = count_distances(src, tgt)
    assignment = Assignment(direction, lam, orders)
    return MetricReport.from_sums(loc.tolist(), card.tolist(), n_t, params, assignment)


def ospamt_metric(
    a: TrackSet,
    b: TrackSet,
    params: MetricParams,
    mode: Mode | str = Mode.AUTO,
    dist: ScanDistances | None = None,
) -> MetricReport:
    """OSPAMT distance between truth set ``a`` and estimate set ``b``.

    The smaller of the two directional reports of ``quasi_ospamt`` wins;
    when the estimate-to-truth total is at most ``TIE * c`` above the other,
    that direction is reported.  ``dist`` is
    ``scan_distances(a, b, params)`` when the caller already has it;
    otherwise it is built here.  Either way both directions read it, the
    truth-to-estimate one through its transpose.  So does the greedy search:
    it prices the estimate-to-truth ``cost_matrix`` once and reads the other
    direction's matrix as its transpose.
    """
    if dist is None:
        dist = scan_distances(a, b, params)
    check_comparable(b, a)
    costs = None
    if a.tracks and b.tracks and resolve_mode(mode, len(a.tracks) + len(b.tracks)) is Mode.GREEDY:
        costs = cost_matrix(b, a, params, dist)
    est = _quasi(b, a, params, mode, Direction.EST_TO_TRUTH, dist, costs)
    tru = _quasi(a, b, params, mode, Direction.TRUTH_TO_EST, dist.transpose(),
                 None if costs is None else costs.T)
    return est if est.total <= tru.total + TIE * params.c else tru


#: Rounds of cutting after which ``split_tracks`` gives up.
SPLIT_ROUNDS = 100


@dataclass(frozen=True)
class SplitLogEntry:
    """One estimated track broken at the lifetime boundaries of its truths."""

    track_index: int
    track_label: str
    cut_scans: tuple[int, ...]
    fragment_count: int


def _split_track(exists: np.ndarray, truths: np.ndarray, ranks: list[int]) -> list[np.ndarray]:
    """Scan masks of the fragments of an estimated track that exists at the
    ``(T,)`` mask ``exists``, cut along the ``(s, T)`` lifetimes ``truths``
    of its assigned truth tracks, in order of truth start scan; ``ranks[w]``
    is truth w's place in the preimage's order.

    Each scan goes to the truth existing there that comes first in the
    preimage's order, the one the estimate is scored against.  A scan where
    none exists goes to the first truth, in start order, whose lifetime
    window spans it, and a scan in no window is stray and joins the first
    truth's fragment.  Empty fragments are dropped.
    """
    # window[w, t]: truth w has existed by scan t and still exists at t or later
    window = np.logical_or.accumulate(truths, axis=1)
    window &= np.logical_or.accumulate(truths[:, ::-1], axis=1)[:, ::-1]
    # argmin takes the existing truth of least rank; argmax the first true
    # row of the window, and row 0 when there is none
    ranked = np.where(truths, np.array(ranks)[:, None], len(ranks))
    owner = np.where(truths.any(axis=0), ranked.argmin(axis=0), window.argmax(axis=0))
    masks = (exists & (owner == w) for w in range(len(truths)))
    return [mask for mask in masks if mask.any()]


def split_tracks(
    truth: TrackSet,
    est: TrackSet,
    params: MetricParams,
    mode: Mode | str = Mode.AUTO,
) -> tuple[TrackSet, list[SplitLogEntry]]:
    """Split estimated tracks that stand in for several truth tracks.

    While the truth-to-estimate quasi assignment sends two or more truth
    tracks to one estimated track, that track is cut at the boundaries of
    the truth lifetimes (``_split_track``) and the assignment is recomputed.
    Fragment k of track ``e1`` is named ``e1/k``, the next k whose name no
    track of the set holds; a track left whole keeps its ``track_label``.
    The track count grows on every round, so this terminates unless the
    overlap pattern never untangles, which raises NoConvergenceError after
    ``SPLIT_ROUNDS``.
    """
    check_comparable(truth, est)
    log: list[SplitLogEntry] = []
    current = est
    for _ in range(SPLIT_ROUNDS):
        if not truth.tracks or not current.tracks:
            return current, log
        orders = quasi_ospamt(truth, current, params, mode).assignment.orders
        if all(len(order) < 2 for order in orders):
            return current, log
        progressed = False
        new_tracks: list[Track] = []
        taken = {current.track_label(i) for i in range(1, len(current) + 1)}
        for i, (trk, order) in enumerate(zip(current.tracks, orders), start=1):
            if len(order) < 2:
                # an unlabelled track would take the fallback of its new position
                new_tracks.append(Track(trk.points, current.track_label(i)))
                continue
            ranks = sorted(range(len(order)),
                           key=lambda k: (truth.exists[order[k] - 1].argmax(), order[k]))
            masks = _split_track(current.exists[i - 1],
                                 truth.exists[[order[k] - 1 for k in ranks]], ranks)
            frags = [(np.flatnonzero(mask) + 1).tolist() for mask in masks]
            label = current.track_label(i)
            names = (f"{label}/{k}" for k in itertools.count(1) if f"{label}/{k}" not in taken)
            new_tracks.extend(Track({t: trk.points[t] for t in ts}, next(names)) for ts in frags)
            if len(frags) > 1:
                progressed = True
                log.append(SplitLogEntry(i, label, tuple(ts[0] for ts in frags[1:]), len(frags)))
        if not progressed:
            raise NoConvergenceError(
                "many-to-one overlap cannot be split along truth lifetimes"
            )
        current = TrackSet(current.scans, current.state_dim, tuple(new_tracks))
    raise NoConvergenceError(
        f"splitting did not reach a one-to-one assignment in {SPLIT_ROUNDS} rounds"
    )
