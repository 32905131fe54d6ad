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
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .assign import ENUMERATION_CAP, INFEASIBLE, greedy_many_to_one
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


def _common_scan(a: Track, b: Track) -> bool:
    return not a.points.keys().isdisjoint(b.points.keys())


def cost_matrix(src: TrackSet, tgt: TrackSet, params: MetricParams) -> np.ndarray:
    """Pairwise cost matrix with targets as rows and sources as columns.

    Over every scan where at least one of the two tracks exists, a
    coexisting scan contributes the capped base distance to the p-th power
    and a lone scan contributes the cutoff to the p-th power; each entry is
    the mean over those scans, which keeps entries comparable to ``c ** p``
    whatever the lifetimes.  Pairs that never coexist are marked INFEASIBLE
    so the assignment search can never join them.
    """
    cp = params.c**params.p
    d = np.minimum(scan_distances(tgt, src, params), params.c) ** params.p
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
        if not _common_scan(src.tracks[j - 1], tgt.tracks[i - 1]):
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


def order_at_time(
    src: TrackSet, orders: Sequence[Sequence[int]], target: int, t: int
) -> tuple[int, ...]:
    """The target's track order at scan t: its order minus absent sources.

    Relative order is preserved; the first element is the assignee whose
    distance is charged at that scan.
    """
    return tuple(
        j for j in orders[target - 1] if src.tracks[j - 1].exists_at(t)
    )


def directional_terms(
    src: TrackSet,
    tgt: TrackSet,
    lam: Sequence[int],
    orders: Sequence[Sequence[int]],
    params: MetricParams,
) -> DirectionalBreakdown:
    """Raw per-scan sums for a fixed assignment and fixed track orders."""
    p = params.p
    cp = params.c**p
    dp = params.delta**p
    n_t, _ = count_distances(src, tgt)
    pairs = [(i, j) for i, order in enumerate(orders, start=1) for j in order]
    ii = np.array([i - 1 for i, _ in pairs], dtype=int)
    jj = np.array([j - 1 for _, j in pairs], dtype=int)
    dist = base_distance(tgt.states[ii], src.states[jj], params)
    capped = dict(zip(pairs, (np.minimum(dist, params.c) ** p).tolist()))
    total_t: list[float] = []
    loc_t: list[float] = []
    card_t: list[float] = []
    for t in range(1, tgt.scans + 1):
        loc = 0.0
        card = 0.0
        used = 0
        for i, order in enumerate(orders, start=1):
            if not order:
                continue
            tgt_trk = tgt.tracks[i - 1]
            existing = [j for j in order if src.tracks[j - 1].exists_at(t)]
            n_bar = len(existing)
            if not tgt_trk.exists_at(t):
                continue
            if n_bar >= 1:
                first = existing[0]
                loc += capped[i, first][t - 1]
                if first != order[0]:
                    loc += dp
                card += (n_bar - 1) * (dp + cp)
                used += n_bar
        card += cp * (n_t[t - 1] - used)
        total_t.append(loc + card)
        loc_t.append(loc)
        card_t.append(card)
    return DirectionalBreakdown(tuple(total_t), tuple(loc_t), tuple(card_t))


def directional_cost(
    src: TrackSet,
    tgt: TrackSet,
    lam: Sequence[int],
    orders: Sequence[Sequence[int]],
    params: MetricParams,
) -> float:
    """Directional distance for a fixed assignment and fixed orders."""
    _check_feasible(src, tgt, lam)
    _, n = count_distances(src, tgt)
    breakdown = directional_terms(src, tgt, lam, orders, params)
    return (sum(breakdown.total_t) / n) ** (1.0 / params.p)


class _DirectionalEngine:
    """Shared machinery for searching orders and assignments in one direction.

    Costs are expressed as adjustments against the all-unassigned baseline of
    ``c**p`` per distance slot, which makes the objective additive across
    target preimages and lets the order minimization run per target.
    """

    def __init__(self, src: TrackSet, tgt: TrackSet, params: MetricParams) -> None:
        self.src = src
        self.tgt = tgt
        self.n_t, self.n = count_distances(src, tgt)
        self.p = params.p
        self.cp = params.c**self.p
        self.dp = params.delta**self.p
        self.base = self.cp * self.n
        self.src_scans = [set(trk.points) for trk in src.tracks]
        self.tgt_scans = [set(trk.points) for trk in tgt.tracks]
        # pair_cost[i-1][j-1][t-1]: capped distance ** p, NaN unless coexisting
        capped = np.minimum(scan_distances(tgt, src, params), params.c)
        self.pair_cost = (capped**self.p).tolist()
        self._h_memo: dict[tuple[int, tuple[int, ...]], tuple[float, tuple[int, ...]]] = {}

    def feasible(self, j: int, i: int) -> bool:
        return not self.src_scans[j - 1].isdisjoint(self.tgt_scans[i - 1])

    def best_order(self, i: int, pre: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
        """Adjustment and optimal order for target i over preimage ``pre``.

        The adjustment is the preimage's total contribution minus the
        baseline slots it consumes; the optimal order is the
        lexicographically smallest minimizer.
        """
        key = (i, pre)
        got = self._h_memo.get(key)
        if got is not None:
            return got
        cost = self.pair_cost[i - 1]
        scans = []
        invariant = 0.0
        for t in sorted(self.tgt_scans[i - 1]):
            existing = [j for j in pre if t in self.src_scans[j - 1]]
            if existing:
                scans.append((t - 1, existing))
                n_bar = len(existing)
                invariant += (n_bar - 1) * (self.dp + self.cp) - n_bar * self.cp
        best_dep = math.inf
        best_pi: tuple[int, ...] = pre
        for pi in itertools.permutations(pre):
            rank = {j: k for k, j in enumerate(pi)}
            dep = 0.0
            for t, existing in scans:
                first = min(existing, key=rank.__getitem__)
                dep += cost[first - 1][t]
                if first != pi[0]:
                    dep += self.dp
                if dep >= best_dep:
                    break
            if dep < best_dep:
                best_dep = dep
                best_pi = pi
        result = (invariant + best_dep, best_pi)
        self._h_memo[key] = result
        return result

    def value_from_adjustment(self, adjustment: float) -> float:
        return ((self.base + adjustment) / self.n) ** (1.0 / self.p)

    def search_exact(self, cap: int) -> tuple[float, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Minimize over every assignment, orders optimized per preimage.

        Assignments are scanned in lexicographic order of the lambda vector
        and the first minimum is kept, so ties resolve deterministically.
        """
        m = len(self.src.tracks)
        k = len(self.tgt.tracks)
        if m + k > cap:
            raise TooLargeError(
                f"{m}+{k} tracks exceeds the enumeration cap of {cap}"
            )
        choices = [
            [0] + [i for i in range(1, k + 1) if self.feasible(j, i)]
            for j in range(1, m + 1)
        ]
        best_adj = math.inf
        best_lam: tuple[int, ...] = tuple(0 for _ in range(m))
        for lam in itertools.product(*choices):
            adj = 0.0
            for i, pre in enumerate(_orders_from_lambda(lam, k), start=1):
                if pre:
                    adj += self.best_order(i, pre)[0]
            if adj < best_adj:
                best_adj = adj
                best_lam = lam
        return self.value_from_adjustment(best_adj), best_lam, self.best_orders(best_lam)

    def best_orders(self, lam: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Optimal track order of every target's preimage under ``lam``."""
        return tuple(
            self.best_order(i, pre)[1] if pre else ()
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
    breakdown = directional_terms(src, tgt, lam, orders, params)
    value = (sum(breakdown.total_t) / engine.n) ** (1.0 / params.p)
    return value, breakdown, orders


def _quasi_greedy(
    src: TrackSet, tgt: TrackSet, params: MetricParams
) -> tuple[float, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    d = cost_matrix(src, tgt, params)
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
    value = directional_cost(src, tgt, lam, orders, params)
    return value, tuple(lam), tuple(orders)


def quasi_ospamt(
    src: TrackSet,
    tgt: TrackSet,
    params: MetricParams,
    mode: Mode | str = Mode.AUTO,
    cap: int = ENUMERATION_CAP,
    direction: Direction = Direction.EST_TO_TRUTH,
) -> tuple[float, Assignment]:
    """Smallest directional distance from ``src`` onto ``tgt``.

    Zero when both sets are empty, the cutoff when exactly one is.  The
    returned assignment maps source indices into {0} + target indices;
    ``direction`` only records which roles the caller gave the two sets.
    """
    check_comparable(src, tgt)
    if not src.tracks and not tgt.tracks:
        return 0.0, Assignment(direction, (), ())
    if not src.tracks or not tgt.tracks:
        return params.c, Assignment(
            direction,
            tuple(0 for _ in src.tracks),
            tuple(() for _ in tgt.tracks),
        )
    mode = resolve_mode(mode, len(src.tracks) + len(tgt.tracks), cap)
    if mode is Mode.EXACT:
        engine = _DirectionalEngine(src, tgt, params)
        value, lam, orders = engine.search_exact(cap)
    else:
        value, lam, orders = _quasi_greedy(src, tgt, params)
    return value, Assignment(direction, lam, orders)


def _empty_report(
    a: TrackSet, b: TrackSet, params: MetricParams
) -> MetricReport:
    n_t, n = count_distances(a, b)
    T = a.scans
    if not a.tracks and not b.tracks:
        zeros = tuple(0.0 for _ in range(T))
        assignment = Assignment(Direction.EST_TO_TRUTH, (), ())
        return MetricReport(0.0, zeros, 0.0, 0.0, zeros, zeros, assignment, n_t, n)
    c = params.c
    per_time = tuple(c if nt > 0 else 0.0 for nt in n_t)
    zeros = tuple(0.0 for _ in range(T))
    assignment = Assignment(
        Direction.EST_TO_TRUTH,
        tuple(0 for _ in b.tracks),
        tuple(() for _ in a.tracks),
    )
    return MetricReport(c, per_time, 0.0, c, zeros, per_time, assignment, n_t, n)


def ospamt_metric(
    a: TrackSet,
    b: TrackSet,
    params: MetricParams,
    mode: Mode | str = Mode.AUTO,
    cap: int = ENUMERATION_CAP,
) -> MetricReport:
    """OSPAMT distance between truth set ``a`` and estimate set ``b``.

    The smaller of the two directional quasi distances wins; on an exact tie
    the estimate-to-truth direction is reported.  The report carries the
    winning assignment, per-scan distances and the localization/cardinality
    split, all computed under the winning assignment and orders.
    """
    check_comparable(a, b)
    if not a.tracks or not b.tracks:
        return _empty_report(a, b, params)

    est_value, est_assignment = quasi_ospamt(
        b, a, params, mode, cap, direction=Direction.EST_TO_TRUTH
    )
    tru_value, tru_assignment = quasi_ospamt(
        a, b, params, mode, cap, direction=Direction.TRUTH_TO_EST
    )
    if est_value <= tru_value:
        direction = Direction.EST_TO_TRUTH
        lam, orders = est_assignment.source_to_target, est_assignment.orders
        src, tgt = b, a
    else:
        direction = Direction.TRUTH_TO_EST
        lam, orders = tru_assignment.source_to_target, tru_assignment.orders
        src, tgt = a, b

    assignment = Assignment(direction, lam, orders)
    breakdown = directional_terms(src, tgt, lam, orders, params)
    n_t, n = count_distances(a, b)
    p = params.p
    per_time = tuple(
        (tt / nt) ** (1.0 / p) if nt > 0 else 0.0
        for tt, nt in zip(breakdown.total_t, n_t)
    )
    loc_t = tuple(
        (lt / nt) ** (1.0 / p) if nt > 0 else 0.0
        for lt, nt in zip(breakdown.loc_t, n_t)
    )
    card_t = tuple(
        (ct / nt) ** (1.0 / p) if nt > 0 else 0.0
        for ct, nt in zip(breakdown.card_t, n_t)
    )
    loc = (sum(breakdown.loc_t) / n) ** (1.0 / p)
    card = (sum(breakdown.card_t) / n) ** (1.0 / p)
    total = (sum(breakdown.total_t) / n) ** (1.0 / p)
    return MetricReport(total, per_time, loc, card, loc_t, card_t, assignment, n_t, n)


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
        _, assignment = quasi_ospamt(truth, current, params, mode, cap)
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
