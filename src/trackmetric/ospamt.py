"""The OSPAMT metric family.

The directional distance scores one many-to-one assignment between two track
sets: matched pairs pay the capped base distance per shared scan, a non-first
assigned track pays the extra-assignment penalty whenever it stands in for
the first, every further coexisting assignee pays penalty plus cutoff, and
every remaining distance slot pays the cutoff.  The quasi distance minimizes
over assignments one way; the metric is the smaller of the two directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .assign import (
    _ABS_TOL,
    _REL_TOL,
    ENUMERATION_CAP,
    INFEASIBLE,
    _close,
    greedy_many_to_one,
)
from .core import (
    Assignment,
    Direction,
    MetricParams,
    MetricReport,
    Track,
    TrackSet,
    base_distance,
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


def resolve_mode(mode: Mode | str, total_tracks: int, cap: int = ENUMERATION_CAP) -> Mode:
    mode = Mode(mode)
    if mode is Mode.AUTO:
        return Mode.EXACT if total_tracks <= cap else Mode.GREEDY
    return mode


@dataclass(frozen=True)
class DirectionalBreakdown:
    """Raw per-scan sums of one directional evaluation (pre-normalization).

    ``total_t[t-1] == loc_t[t-1] + card_t[t-1]`` and each total is at most
    ``n_t * (c**p + delta**p)``.
    """

    total_t: tuple[float, ...]
    loc_t: tuple[float, ...]
    card_t: tuple[float, ...]


def cost_matrix(
    src: TrackSet, tgt: TrackSet, params: MetricParams, dist: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise cost matrix with targets as rows and sources as columns.

    Over every scan where at least one of the two tracks exists, a
    coexisting scan contributes the capped base distance to the p-th power
    and a lone scan contributes the cutoff to the p-th power; each entry is
    the mean over those scans, which keeps entries comparable to ``c ** p``
    whatever the lifetimes.  Pairs that never coexist are marked INFEASIBLE
    so the assignment search can never join them.  ``dist`` is
    ``scan_distances(tgt, src, params)`` when the caller already has it;
    otherwise it is built here.
    """
    if dist is None:
        dist = scan_distances(tgt, src, params)
    cp = params.c**params.p
    d = np.minimum(dist, params.c) ** params.p
    both = ~np.isnan(d)
    either = (tgt.exists[:, None, :] | src.exists[None, :, :]).sum(axis=2)
    shared = both.sum(axis=2)
    mean = (np.where(both, d, 0.0).sum(axis=2) + cp * (either - shared)) / either
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
) -> DirectionalBreakdown:
    """Raw per-scan sums for a fixed assignment and fixed track orders.

    At every scan a target's order, minus its absent sources, keeps its
    relative order; the first source left is charged the capped distance,
    plus ``delta**p`` when it is not the first of the full order.
    """
    p = params.p
    cp = params.c**p
    dp = params.delta**p
    n_t, _ = count_distances(src, tgt)
    # one row per assigned pair, target by target in order
    ii = np.array([i for i, order in enumerate(orders) for _ in order], dtype=int)
    jj = np.array([j - 1 for order in orders for j in order], dtype=int)
    live = src.exists[jj] & tgt.exists[ii]
    dist = base_distance(tgt.states[ii], src.states[jj], params)
    capped = np.where(live, np.minimum(dist, params.c) ** p, 0.0)
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
    return DirectionalBreakdown(
        tuple((loc + card).tolist()), tuple(loc.tolist()), tuple(card.tolist())
    )


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
    breakdown = directional_terms(src, tgt, orders, params)
    return root_mean(sum(breakdown.total_t), n, params)


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
    depends only on P and j.  Ties are decided on ``base + adjustment`` with
    the tolerances of ``assign._close``.
    """

    def __init__(
        self, src: TrackSet, tgt: TrackSet, params: MetricParams, dist: np.ndarray | None = None
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
        # gain[i-1, j-1, t-1]: capped distance ** p minus c ** p where coexisting
        if dist is None:
            dist = scan_distances(tgt, src, params)
        capped = np.minimum(dist, params.c)
        self.gain = np.where(self.coexist, capped**p - cp, 0.0)

    def best_order(self, i: int, pre: tuple[int, ...]) -> tuple[int, ...]:
        """Lexicographically smallest optimal order of target i's preimage.

        A backward DP over the subsets of ``pre`` prices the cheapest
        completion of every placed set; the order then takes, step by step,
        the smallest source that keeps the total optimal.
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
        best = self.base + rest[0]
        order: list[int] = []
        placed = 0
        spent = 0.0
        for _ in range(s):
            cands = [spent + w[placed][r] + rest[placed | 1 << r] for r in range(s)]
            lo = min(cands)  # the step minimum qualifies even if rounding fools _close
            r = next(r for r, v in enumerate(cands) if _close(self.base + v, best) or v <= lo)
            order.append(pre[r])
            spent += w[placed][r]
            placed |= 1 << r
        return tuple(order)

    def search_exact(self, cap: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Minimize over every assignment, orders optimized per preimage.

        A forward DP per target prices every subset of the sources as a
        preimage.  Every lambda in lexicographic order then costs one sum of
        table lookups, all of them in one vectorized pass, and the first
        lambda whose objective is close to the minimum wins.
        """
        m = len(self.src.tracks)
        k = len(self.tgt.tracks)
        if m + k > cap:
            raise TooLargeError(
                f"{m}+{k} tracks exceeds the enumeration cap of {cap}"
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
        total = self.base + adj
        lo = float(total.min())
        # the filter keeps a superset of the objectives within _close of lo
        near = np.flatnonzero(total <= lo + 2 * (_REL_TOL * abs(lo) + _ABS_TOL))
        idx = next(int(x) for x in near if _close(total[x], lo))
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
) -> tuple[float, DirectionalBreakdown, tuple[tuple[int, ...], ...]]:
    """Directional distance for a fixed assignment, minimized over orders.

    The minimization runs independently per target preimage because the
    objective is additive across targets.  Returns the value, the raw
    per-scan breakdown under the optimal orders, and those orders.
    """
    lam = tuple(lam)
    _check_feasible(src, tgt, lam)
    engine = _DirectionalEngine(src, tgt, params)
    orders = engine.best_orders(lam)
    breakdown = directional_terms(src, tgt, orders, params)
    return root_mean(sum(breakdown.total_t), engine.n, params), breakdown, orders


def _quasi_greedy(
    src: TrackSet, tgt: TrackSet, params: MetricParams, dist: np.ndarray | None
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    d = cost_matrix(src, tgt, params, dist)
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
    cap: int = ENUMERATION_CAP,
    direction: Direction = Direction.EST_TO_TRUTH,
    dist: np.ndarray | None = None,
) -> MetricReport:
    """Report of the smallest directional distance from ``src`` onto ``tgt``.

    The report holds the quasi distance as ``total``, its per-scan values,
    the localization/cardinality split and the assignment that attains it,
    which maps source indices into {0} + target indices; ``direction`` only
    records which roles the caller gave the two sets.  The distance is
    zero when both sets are empty; when only one is, every distance slot
    pays the cutoff, all of it cardinality.  ``dist`` is
    ``scan_distances(tgt, src, params)`` when the caller already has it;
    otherwise it is built here when the search needs it.
    """
    check_comparable(src, tgt)
    if not src.tracks or not tgt.tracks:
        lam, orders = (0,) * len(src.tracks), ((),) * len(tgt.tracks)
    elif resolve_mode(mode, len(src.tracks) + len(tgt.tracks), cap) is Mode.EXACT:
        lam, orders = _DirectionalEngine(src, tgt, params, dist).search_exact(cap)
    else:
        lam, orders = _quasi_greedy(src, tgt, params, dist)
    terms = directional_terms(src, tgt, orders, params)
    n_t, _ = count_distances(src, tgt)
    assignment = Assignment(direction, lam, orders)
    return MetricReport.from_sums(terms.loc_t, terms.card_t, n_t, params, assignment)


def ospamt_metric(
    a: TrackSet,
    b: TrackSet,
    params: MetricParams,
    mode: Mode | str = Mode.AUTO,
    cap: int = ENUMERATION_CAP,
    dist: np.ndarray | None = None,
) -> MetricReport:
    """OSPAMT distance between truth set ``a`` and estimate set ``b``.

    The smaller of the two directional reports of ``quasi_ospamt`` wins;
    when their totals tie within the tolerances of ``assign._close`` the
    estimate-to-truth direction is reported.  ``dist`` is
    ``scan_distances(a, b, params)`` when the caller already has it;
    otherwise it is built here.  Either way both directions read it, the
    truth-to-estimate one through its transpose.
    """
    if dist is None:
        dist = scan_distances(a, b, params)
    est = quasi_ospamt(b, a, params, mode, cap, Direction.EST_TO_TRUTH, dist)
    tru = quasi_ospamt(
        a, b, params, mode, cap, Direction.TRUTH_TO_EST, dist.transpose(1, 0, 2)
    )
    return est if est.total < tru.total or _close(est.total, tru.total) else tru


@dataclass(frozen=True)
class SplitLogEntry:
    """One estimated track broken at the lifetime boundaries of its truths."""

    track_index: int
    track_label: str
    cut_scans: tuple[int, ...]
    fragment_count: int


def _split_track(
    est_trk: Track, truths: list[Track], label: str
) -> list[Track]:
    """Fragment a track along the lifetimes of its assigned truth tracks.

    One candidate fragment per truth track, in order of truth start scan.
    Each scan of the estimated track goes to the first truth existing there,
    falling back to the first truth whose lifetime window spans it; scans
    overlapping neither stay with the earliest fragment.  Fragments that end
    up claiming no scans are dropped.
    """
    frag_scans: list[list[int]] = [[] for _ in truths]
    stray: list[int] = []
    for t in sorted(est_trk.points):
        owner = next((w for w, trk in enumerate(truths) if trk.exists_at(t)), None)
        if owner is None:
            owner = next(
                (
                    w
                    for w, trk in enumerate(truths)
                    if trk.first_scan <= t <= trk.last_scan
                ),
                None,
            )
        if owner is None:
            stray.append(t)
        else:
            frag_scans[owner].append(t)
    nonempty = [scans for scans in frag_scans if scans]
    if not nonempty:
        return [est_trk]
    nonempty[0] = sorted(nonempty[0] + stray)
    return [
        Track({t: est_trk.points[t] for t in scans}, label=f"{label}/{k}")
        for k, scans in enumerate(nonempty, start=1)
    ]


def split_tracks(
    truth: TrackSet,
    est: TrackSet,
    params: MetricParams,
    mode: Mode | str = Mode.AUTO,
    cap: int = ENUMERATION_CAP,
    max_iterations: int = 100,
) -> tuple[TrackSet, list[SplitLogEntry]]:
    """Split estimated tracks that stand in for several truth tracks.

    While the truth-to-estimate quasi assignment sends two or more truth
    tracks to one estimated track, that track is cut at the boundaries of
    the truth lifetimes and the assignment is recomputed.  The track count
    grows on every round, so this terminates unless the overlap pattern
    never untangles, which raises NoConvergenceError at the iteration cap.
    """
    check_comparable(truth, est)
    log: list[SplitLogEntry] = []
    current = est
    for _ in range(max_iterations):
        if not truth.tracks or not current.tracks:
            return current, log
        assignment = quasi_ospamt(truth, current, params, mode, cap).assignment
        multi = [
            i
            for i, order in enumerate(assignment.orders, start=1)
            if len(order) >= 2
        ]
        if not multi:
            return current, log
        progressed = False
        new_tracks: list[Track] = []
        for i, trk in enumerate(current.tracks, start=1):
            if i not in multi:
                new_tracks.append(trk)
                continue
            sources = assignment.preimage(i)
            truths = [
                truth.tracks[j - 1]
                for j in sorted(sources, key=lambda j: (truth.tracks[j - 1].first_scan, j))
            ]
            label = current.track_label(i)
            frags = _split_track(trk, truths, label)
            if len(frags) > 1:
                progressed = True
                log.append(
                    SplitLogEntry(
                        track_index=i,
                        track_label=label,
                        cut_scans=tuple(f.first_scan for f in frags[1:]),
                        fragment_count=len(frags),
                    )
                )
            new_tracks.extend(frags)
        if not progressed:
            raise NoConvergenceError(
                "many-to-one overlap cannot be split along truth lifetimes"
            )
        current = TrackSet(current.scans, current.state_dim, tuple(new_tracks))
    raise NoConvergenceError(
        f"splitting did not reach a one-to-one assignment in {max_iterations} rounds"
    )
