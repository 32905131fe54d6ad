"""The OSPAMT metric family.

The directional distance scores one many-to-one assignment between two track
sets: matched pairs pay the capped base distance per shared scan, a non-first
assigned track pays the extra-assignment penalty whenever it stands in for
the first, every further coexisting assignee pays penalty plus cutoff, and
every remaining distance slot pays the cutoff.  The quasi distance minimizes
over assignments one way; the metric is the smaller of the two directions,
which share one distance layer, one resolved search mode and one count of
the distance slots.
"""

from __future__ import annotations

import itertools
import operator
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
    TrackSet,
    check_comparable,
    count_distances,
    layer_for,
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
    so the assignment search can never join them.  ``dist``, if given, is
    the layer of ``tgt`` against ``src`` (``layer_for``).  Its entries are
    capped and powered, then each pair's are added over its shared scans in
    scan order, with no dense tensor (``ScanDistances.pair_sums``, which
    counts those scans too).  The matrix of the swapped roles is exactly
    the transpose of this one.
    """
    dist = layer_for(tgt, src, params, dist)
    cp = params.c**params.p
    capped = np.minimum(dist.at_order(params.base_order), params.c) ** params.p
    shared, summed = dist.pair_sums(capped)
    either = tgt.exists.sum(axis=1)[:, None] + src.exists.sum(axis=1) - shared
    mean = (summed + cp * (either - shared)) / either
    return np.where(shared > 0, mean, INFEASIBLE)


def _check_feasible(src: TrackSet, tgt: TrackSet, lam: Sequence[int]) -> None:
    if len(lam) != len(src):
        raise InfeasibleAssignmentError(
            f"lambda has {len(lam)} entries for {len(src)} source tracks"
        )
    to = np.fromiter(map(operator.index, lam), int, len(lam))
    known = (to >= 0) & (to <= len(tgt))
    # an unassigned source meets row 0, which exists at every scan
    meets = np.vstack([np.ones((1, src.scans), bool), tgt.exists])[np.where(known, to, 0)]
    failed = ~known | ~(src.exists & meets).any(axis=1)
    if failed.any():
        j = int(failed.argmax())
        raise InfeasibleAssignmentError(
            f"source {j + 1} and target {lam[j]} share no existing scan" if known[j] else
            f"source {j + 1} maps to unknown target {lam[j]}")


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
    dist: ScanDistances,
    orders: Sequence[Sequence[int]],
    params: MetricParams,
    n_t: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Raw per-scan loc and card sums, as (T,) arrays, for a fixed
    assignment and fixed track orders; each scan's two sum to at most
    ``n_t * (c**p + delta**p)``.

    At every scan a target's order, minus its absent sources, keeps its
    relative order; the first source left is charged the capped distance,
    plus ``delta**p`` when it is not the first of the full order.  ``dist``
    is ``scan_distances(tgt, src, params)`` and ``n_t`` the per-scan counts
    of ``count_distances(src, tgt)``; only the entries of assigned pairs
    are read.
    """
    tgt, src = dist.sets
    p = params.p
    cp = params.c**p
    dp = params.delta**p
    # one row per assigned pair, target by target in order, with the row of
    # its target's first source; its weights are delta**p unless it is that
    # first source, and delta**p + c**p per extra coexisting source of its
    # target if it is the target's last
    rows, weights = [], []
    for i, order in enumerate(orders):
        lead = len(rows)
        rows += [(i, j - 1, lead) for j in order]
        weights += [(dp if r else 0.0, dp + cp if r == len(order) - 1 else 0.0)
                    for r in range(len(order))]
    size, scans = len(rows), tgt.scans
    ii, jj, lead = np.array(rows, dtype=int).reshape(size, 3).T
    weights = np.array(weights).reshape(size, 2)
    live = src.exists[jj] & tgt.exists[ii]
    # seen[r + 1]: live rows up to r; minus seen at the row's lead, the
    # target's live sources so far, so 1 at its first live one
    seen = np.zeros((size + 1, scans), dtype=int)
    live.cumsum(axis=0, out=seen[1:])
    count = seen[1:] - seen[lead]
    first = live & (count == 1)
    # terms[r, k, s]: row r's k-th term of the loc (s = 0) or card (s = 1)
    # sum; the last row adds the unassigned slots to card
    terms = np.zeros((size + 1, 2, 2, scans))
    at = dist.entries(ii, jj)[first]
    terms[:size, 0, 0][first] = np.minimum(dist.at_order(params.base_order)[at], params.c) ** p
    np.multiply(first, weights[:, :1], out=terms[:size, 1, 0])
    count -= 1
    np.maximum(count, 0, out=count)
    np.multiply(count, weights[:, 1:], out=terms[:size, 0, 1])
    terms[size, 0, 1] = cp * (np.array(n_t) - seen[size])
    # added in sequence, as a loop over targets adds them at every scan: a
    # zero term changes no sum, and numpy's pairwise sum would change some
    loc, card = np.add.accumulate(terms.reshape(-1, 2, scans), axis=0)[-1]
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
    preimages = _orders_from_lambda(lam, len(tgt))
    if len(orders) != len(preimages) or any(
        tuple(sorted(order)) != pre for order, pre in zip(orders, preimages)
    ):
        raise InfeasibleAssignmentError(
            f"orders {tuple(orders)} do not order the preimages {preimages} of lambda"
        )
    n_t, n = count_distances(src, tgt)
    loc, card = directional_terms(scan_distances(tgt, src, params), orders, params, n_t)
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
    at most ``TIE * base`` above it, ``base`` being ``c**p`` for each of
    the ``n`` distance slots.

    ``gain`` is a dense ``(K, M, T)`` array over at most ``ENUMERATION_CAP``
    tracks, gathered from every pair's ``entries`` in the layer.
    """

    def __init__(self, dist: ScanDistances, params: MetricParams, n: int) -> None:
        self.tgt, self.src = dist.sets
        p = params.p
        cp = params.c**p
        self.dp = params.delta**p
        self.base = cp * n
        # coexist[i-1, j-1, t-1]: target i and source j both exist at scan t
        self.coexist = self.tgt.exists[:, None, :] & self.src.exists[None, :, :]
        # gain[i-1, j-1, t-1]: capped distance ** p minus c ** p where coexisting,
        # else 0, gathered from every pair's entries
        capped = np.minimum(dist.at_order(params.base_order), params.c)
        at = dist.entries(np.arange(len(self.tgt))[:, None], np.arange(len(self.src)))
        self.gain = np.zeros(self.coexist.shape)
        self.gain[self.coexist] = (capped**p - cp)[at[self.coexist]]

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
        m = len(self.src)
        k = len(self.tgt)
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
            for i, pre in enumerate(_orders_from_lambda(lam, len(self.tgt)), start=1)
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
    n_t, n = count_distances(src, tgt)
    orders = _DirectionalEngine(dist, params, n).best_orders(lam)
    loc, card = directional_terms(dist, orders, params, n_t)
    return root_mean(sum((loc + card).tolist()), n, params), orders


def quasi_ospamt(
    src: TrackSet,
    tgt: TrackSet,
    params: MetricParams,
    mode: Mode | str = Mode.AUTO,
) -> MetricReport:
    """Report of the smallest directional distance from ``src`` onto ``tgt``.

    The report holds the quasi distance as ``total``, its per-scan values,
    the localization/cardinality split and the assignment that attains it,
    which maps source indices into {0} + target indices, with ``src`` in
    the estimate's role (``EST_TO_TRUTH``).  The distance is zero when both
    sets are empty; when only one is, every distance slot pays the cutoff,
    all of it cardinality.
    """
    return _quasi(scan_distances(tgt, src, params), params, resolve_mode(mode, len(src) + len(tgt)),
                  Direction.EST_TO_TRUTH, count_distances(src, tgt)[0], None)


def _quasi(
    dist: ScanDistances,
    params: MetricParams,
    mode: Mode,
    direction: Direction,
    n_t: Sequence[int],
    costs: np.ndarray | None,
) -> MetricReport:
    """``quasi_ospamt`` of the sets of ``dist = scan_distances(tgt, src,
    params)`` under the resolved ``mode`` and slot counts ``n_t``; ``costs``
    is the greedy ``cost_matrix(src, tgt, params)`` when priced.  Greedy
    pairs only finite entries, never tracks that share no scan."""
    tgt, src = dist.sets
    if not len(src) or not len(tgt):
        lam, orders = (0,) * len(src), ((),) * len(tgt)
    elif mode is Mode.EXACT:
        lam, orders = _DirectionalEngine(dist, params, sum(n_t)).search_exact()
    else:
        if costs is None:
            costs = cost_matrix(src, tgt, params, dist)
        greedy = greedy_many_to_one(costs, cutoff_row_col_value=params.c**params.p)
        lam, orders = greedy.lam, greedy.orders
    loc, card = directional_terms(dist, orders, params, n_t)
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
    that direction is reported.  ``dist``, if given, is the layer of this
    pair (``layer_for``).  Both directions read it, the truth-to-estimate
    one through its transpose, with one resolved mode and one count of the
    slots.  The greedy search prices the estimate-to-truth ``cost_matrix``
    once and reads the other direction's matrix as its transpose.
    """
    dist = layer_for(a, b, params, dist)
    mode = resolve_mode(mode, len(a) + len(b))
    n_t = count_distances(a, b)[0]
    costs = None
    if len(a) and len(b) and mode is Mode.GREEDY:
        costs = cost_matrix(b, a, params, dist)
    est = _quasi(dist, params, mode, Direction.EST_TO_TRUTH, n_t, costs)
    tru = _quasi(dist.transpose(), params, mode, Direction.TRUTH_TO_EST, n_t,
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
        if not len(truth) or not len(current):
            return current, log
        orders = quasi_ospamt(truth, current, params, mode).assignment.orders
        if all(len(order) < 2 for order in orders):
            return current, log
        progressed = False
        records: list[tuple[str, dict[int, list[float]]]] = []
        taken = set(current.labels)
        for i, (label, order, exists) in enumerate(zip(current.labels, orders, current.exists)):
            masks, names = [exists], iter([label])
            if len(order) > 1:
                ranks = sorted(range(len(order)),
                               key=lambda k: (truth.exists[order[k] - 1].argmax(), order[k]))
                masks = _split_track(exists, truth.exists[[order[k] - 1 for k in ranks]], ranks)
                if len(masks) > 1:
                    names = (f"{label}/{k}" for k in itertools.count(1)
                             if f"{label}/{k}" not in taken)
                    progressed = True
                    cuts = tuple(int(mask.argmax()) + 1 for mask in masks[1:])
                    log.append(SplitLogEntry(i + 1, label, cuts, len(masks)))
            records += ((next(names), dict(zip((np.flatnonzero(mask) + 1).tolist(),
                                               current.states[i, mask].tolist())))
                        for mask in masks)
        if not progressed:
            raise NoConvergenceError(
                "many-to-one overlap cannot be split along truth lifetimes"
            )
        current = TrackSet.from_records(current.scans, current.state_dim, records)
    raise NoConvergenceError(
        f"splitting did not reach a one-to-one assignment in {SPLIT_ROUNDS} rounds"
    )
