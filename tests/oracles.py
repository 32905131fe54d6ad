"""Independent brute-force evaluators used as test oracles.

Everything here is written straight from the defining sums with plain loops
and no reuse of the library's evaluation path, so a bug in the production
code cannot hide in its own oracle.  Sizes are expected to be tiny.

The exceptions are the ``legacy_*`` copies and the ``dense_*`` formulas at
the end.  The ``legacy_*`` copies are the library's earlier code: the
greedy sweep entry by entry and its order matrix read row by row, the
OSPAMT scoring target by target, the decoder that made one ``Track``
per track and checked every point twice, the loader that parsed every
file with the stdlib ``json`` module, and ``compute``'s JSON and CSV
writers through the stdlib ``json`` and ``csv`` modules; the library must
give the same results and bytes and raise the same errors.  The ``dense_*`` formulas are the
library's earlier whole-tensor arithmetic, which computed every
(N_a, N_b, T) entry, NaN included.  The library now gathers the coexisting
entries only, scan by scan, and must match these to the last bit.  Its
per-pair sums over scans add in scan order, as ``dense_pair_sums`` does;
``dense_cost_matrix`` and ``dense_reorder_costs`` summed in numpy's
pairwise order stay as the earlier choices the library's must agree with.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from conftest import tracks_of
from trackmetric.assign import ENUMERATION_CAP, INFEASIBLE, TIE
from trackmetric.core import MetricParams, Track, TrackSet, base_distance
from trackmetric.errors import (
    BadParametersError,
    DimensionMismatchError,
    EmptyTrackError,
    NonFiniteCoordinateError,
    ParseError,
    ScanOutOfRangeError,
    TooLargeError,
    ValidationError,
)
from trackmetric.io import track_set_from_obj


def oracle_check(scans: int, state_dim: int, tracks: tuple[Track, ...]) -> None:
    """The track-set checks as one plain loop: the library's earlier
    ``validate``, which ran only when a caller remembered to call it.
    ``TrackSet(scans, state_dim, tracks)`` must raise what this raises."""
    if scans < 1:
        raise BadParametersError(f"scans must be >= 1, got {scans}")
    if state_dim < 1:
        raise BadParametersError(f"state_dim must be >= 1, got {state_dim}")
    for idx, trk in enumerate(tracks, start=1):
        name = trk.label if trk.label is not None else f"T{idx}"
        if not trk.points:
            raise EmptyTrackError(f"track {name} has no existing state at any scan")
        for t, x in trk.points.items():
            if not (1 <= t <= scans):
                raise ScanOutOfRangeError(
                    f"track {name} has a point at scan {t}, outside 1..{scans}"
                )
            if len(x) != state_dim:
                raise DimensionMismatchError(
                    f"track {name} at scan {t} has dimension {len(x)}, "
                    f"expected {state_dim}"
                )
            if any(not math.isfinite(v) for v in x):
                raise NonFiniteCoordinateError(
                    f"track {name} at scan {t} has a non-finite coordinate"
                )


def oracle_norm(x, y, params: MetricParams) -> float:
    q = params.base_order
    diffs = []
    for k, (a, b) in enumerate(zip(x, y)):
        s = params.scale[k] if params.scale is not None else 1.0
        diffs.append(abs(s * a - s * b))
    return sum(d**q for d in diffs) ** (1.0 / q)


def oracle_cutoff(x, y, params: MetricParams) -> float:
    if x is None or y is None:
        return 0.0
    return min(params.c, oracle_norm(x, y, params))


def oracle_counts(a: TrackSet, b: TrackSet) -> tuple[list[int], int]:
    a_tracks, b_tracks = tracks_of(a), tracks_of(b)
    n_t = [
        max(
            sum(1 for trk in a_tracks if t in trk.points),
            sum(1 for trk in b_tracks if t in trk.points),
        )
        for t in range(1, a.scans + 1)
    ]
    return n_t, sum(n_t)


def oracle_tilde_d_t(
    src: tuple[Track, ...],
    tgt: tuple[Track, ...],
    orders: tuple[tuple[int, ...], ...],
    params: MetricParams,
    t: int,
    n_t: int,
    num=float,
):
    """One scan's raw sum: per-target distances plus the cardinality term.

    ``src`` and ``tgt`` are the tracks of the two sets (``tracks_of``).
    Every float term passes through ``num`` before it is added, so
    ``num=Fraction`` sums the very same terms without rounding.
    """
    p = params.p
    cp = params.c**p
    dp = params.delta**p
    total = num(0.0)
    used = 0
    for i, tgt_trk in enumerate(tgt, start=1):
        pi_i = orders[i - 1]
        exists_i = 1 if t in tgt_trk.points else 0
        pi_it = tuple(j for j in pi_i if t in src[j - 1].points)
        n_bar = len(pi_it)
        # spatial part: first ordered existing assignee, penalty if not first overall
        if pi_it and exists_i:
            j, k = pi_it[0], pi_i[0]
            d = oracle_cutoff(tgt_trk.points[t], src[j - 1].points[t], params)
            total += num(d**p) + (num(dp) if j != k else 0)
        # cardinality part, first term: extra coexisting assignees
        total += exists_i * max(n_bar - 1, 0) * (num(dp) + num(cp))
        used += n_bar * exists_i
    total += num(cp) * (n_t - used)
    return total


def oracle_value(
    src: TrackSet,
    tgt: TrackSet,
    orders: tuple[tuple[int, ...], ...],
    params: MetricParams,
) -> float:
    n_t, n = oracle_counts(src, tgt)
    src_tracks, tgt_tracks = tracks_of(src), tracks_of(tgt)
    raw = sum(
        oracle_tilde_d_t(src_tracks, tgt_tracks, orders, params, t, n_t[t - 1])
        for t in range(1, src.scans + 1)
    )
    return (raw / n) ** (1.0 / params.p)


def enumerate_assignments(m_src: int, n_tgt: int, feasible, cap: float = ENUMERATION_CAP):
    """Yield every (lambda, orders) pair over 1-based track indices.

    ``lambda`` maps each source j in 1..m_src to 0 or to a target in
    1..n_tgt with ``feasible(j, i)`` true; ``orders`` holds one ordered
    tuple per target, covering every permutation of each nonempty preimage.
    Pairs come out in lexicographic order of the lambda vector, then of the
    order tuples, which the tie-aware oracle relies on.
    """
    if m_src + n_tgt > cap:
        raise TooLargeError(
            f"{m_src}+{n_tgt} tracks exceeds the enumeration cap of {cap}"
        )
    choices = [
        [0] + [i for i in range(1, n_tgt + 1) if feasible(j, i)]
        for j in range(1, m_src + 1)
    ]
    for lam in itertools.product(*choices):
        pre = [[] for _ in range(n_tgt)]
        for j, i in enumerate(lam, start=1):
            if i:
                pre[i - 1].append(j)
        for orders in itertools.product(
            *[list(itertools.permutations(p)) if p else [()] for p in pre]
        ):
            yield lam, tuple(orders)


def count_assignments(m_src: int, n_tgt: int) -> int:
    """Closed-form count of (lambda, orders) pairs when all pairs are feasible.

    Each source picks 0 or a target, and a preimage of size k contributes k!
    orderings, so the total is the number of ways to hand each source either
    nothing or a slot in one of n_tgt ordered lists.
    """
    total = 0
    for lam in itertools.product(range(n_tgt + 1), repeat=m_src):
        ways = 1
        for i in range(1, n_tgt + 1):
            ways *= math.factorial(sum(1 for v in lam if v == i))
        total += ways
    return total


def _feasible(src: TrackSet, tgt: TrackSet):
    src_tracks, tgt_tracks = tracks_of(src), tracks_of(tgt)

    def feasible(j: int, i: int) -> bool:
        return any(
            t in tgt_tracks[i - 1].points for t in src_tracks[j - 1].points
        )

    return feasible


def oracle_quasi(src: TrackSet, tgt: TrackSet, params: MetricParams) -> float:
    """Minimum over every (assignment, order) pair, enumerated outright."""
    if not len(src) and not len(tgt):
        return 0.0
    if not len(src) or not len(tgt):
        return params.c
    pairs = enumerate_assignments(
        len(src), len(tgt), _feasible(src, tgt), cap=math.inf
    )
    return min(oracle_value(src, tgt, orders, params) for _, orders in pairs)


def oracle_exact_quasi(
    src: TrackSet, tgt: TrackSet, params: MetricParams
) -> tuple[float, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Tie-aware exact quasi distance between two nonempty sets.

    Every (assignment, order) pair is scored by summing its per-scan float
    terms as Fractions, so ties are decided in exact arithmetic; the
    lexicographically first pair among the exact minima is returned with
    its value.
    """
    n_t, n = oracle_counts(src, tgt)
    src_tracks, tgt_tracks = tracks_of(src), tracks_of(tgt)
    best = None
    for lam, orders in enumerate_assignments(
        len(src), len(tgt), _feasible(src, tgt), cap=math.inf
    ):
        raw = sum(
            oracle_tilde_d_t(src_tracks, tgt_tracks, orders, params, t, n_t[t - 1], num=Fraction)
            for t in range(1, src.scans + 1)
        )
        if best is None or raw < best[0]:
            best = (raw, lam, orders)
    raw, lam, orders = best
    return (float(raw) / n) ** (1.0 / params.p), lam, orders


def oracle_ospamt(a: TrackSet, b: TrackSet, params: MetricParams) -> float:
    return min(oracle_quasi(b, a, params), oracle_quasi(a, b, params))


def oracle_ospa(xs, ys, params: MetricParams) -> float:
    """Factorial-enumeration OSPA between two state lists."""
    m, n = len(xs), len(ys)
    if m == 0 and n == 0:
        return 0.0
    if m > n:
        return oracle_ospa(ys, xs, params)
    p, c = params.p, params.c
    if m == 0:
        return c
    best = math.inf
    for pi in itertools.permutations(range(n), m):
        cost = sum(
            min(c, oracle_norm(xs[i], ys[pi[i]], params)) ** p for i in range(m)
        )
        best = min(best, cost)
    return ((best + c**p * (n - m)) / n) ** (1.0 / p)


def oracle_matching(matrix) -> float:
    """Minimum-cost injective row-to-column matching by enumeration."""
    m = len(matrix)
    if m == 0:
        return 0.0
    n = len(matrix[0])
    return min(
        sum(matrix[i][pi[i]] for i in range(m))
        for pi in itertools.permutations(range(n), m)
    )


def _top(d: np.ndarray) -> float:
    """The largest entry of ``d``, or 1 when none is positive; ties in a
    matching are decided within ``TIE`` times m times this."""
    return float(max((v for v in d.flat if v > 0), default=1.0))


def brute_force_one_to_one(d) -> tuple[tuple[int, ...], float]:
    """Factorial-time reference for the one-to-one solve of a finite,
    non-negative matrix (small matrices only).

    The first injective map in lexicographic order whose cost is at most
    ``TIE * top * m`` above the optimum, with the optimum.
    """
    d = np.asarray(d, dtype=float)
    m, n = d.shape
    if m == 0:
        return (), 0.0
    costs = {
        pi: sum(d[i, pi[i]] for i in range(m))
        for pi in itertools.permutations(range(n), m)
    }
    best = float(min(costs.values()))
    tol = TIE * _top(d) * m
    return next(pi for pi, cost in costs.items() if cost <= best + tol), best


def oracle_lex_one_to_one(d) -> tuple[tuple[int, ...], float]:
    """Lexicographically smallest optimal matching, rebuilt row by row.

    The contract of the library's one-to-one solve (a finite, non-negative
    matrix, ties within ``TIE * top * m``) by the plain method:
    row i takes the smallest free column j for which ``j`` plus an optimal
    completion of the remaining rows still totals ``best`` within that,
    re-solving that completion for every column it tries.
    """

    def matching_cost(sub: np.ndarray) -> float:
        rows, cols = linear_sum_assignment(sub)
        return float(sub[rows, cols].sum())

    d = np.asarray(d, dtype=float)
    m, n = d.shape
    if m == 0:
        return (), 0.0
    best = matching_cost(d)
    tol = TIE * _top(d) * m
    assignment: list[int] = []
    taken: set[int] = set()
    prefix = 0.0
    for i in range(m):
        rest_rows = list(range(i + 1, m))
        for j in range(n):
            if j in taken:
                continue
            cols = [jj for jj in range(n) if jj not in taken and jj != j]
            rest = matching_cost(d[np.ix_(rest_rows, cols)]) if rest_rows else 0.0
            if prefix + d[i, j] + rest <= best + tol:
                assignment.append(j)
                taken.add(j)
                prefix += d[i, j]
                break
    return tuple(assignment), best


def oracle_greedy_many_to_one(d, cutoff: float) -> dict:
    """Every stage of ``greedy_many_to_one``, computed entry by entry.

    An entry is dead when it is INFEASIBLE or within ``TIE`` times the
    cutoff of it.  Dead rows and columns are found entry by entry, D1 and D2
    by a minimum per row and per column; the sweep is the same.
    """
    d = np.asarray(d, dtype=float)
    m, n = d.shape

    def useless(v: float) -> bool:
        return v == INFEASIBLE or abs(v - cutoff) <= TIE * cutoff

    live = d.copy()
    for i in range(m):
        if all(useless(v) for v in d[i, :]):
            live[i, :] = INFEASIBLE
    for j in range(n):
        if all(useless(v) for v in d[:, j]):
            live[:, j] = INFEASIBLE
    d1 = np.full_like(live, INFEASIBLE)
    for i in range(m):
        lo = live[i, :].min()
        for j in range(n):
            if lo < INFEASIBLE and live[i, j] == lo:
                d1[i, j] = lo
    d2 = np.full_like(live, INFEASIBLE)
    for j in range(n):
        lo = live[:, j].min()
        for i in range(m):
            if lo < INFEASIBLE and live[i, j] == lo:
                d2[i, j] = lo
    d3 = np.where(d1 < INFEASIBLE, d1, d2)
    work = d3.copy()
    order = np.zeros((m, n), dtype=int)
    while work.size and work.min() < INFEASIBLE:
        i, j = divmod(int(np.argmin(work)), n)
        for rank, (_, jj) in enumerate(
            sorted((work[i, jj], jj) for jj in range(n) if work[i, jj] < INFEASIBLE),
            start=order[i].max() + 1,
        ):
            order[i, jj] = rank
            work[:, jj] = INFEASIBLE
    return {
        "order_matrix": order,
        "d1": d1,
        "d2": d2,
        "d3": d3,
    }


def legacy_greedy_sweep(d3) -> np.ndarray:
    """The final sweep of ``greedy_many_to_one`` as it read before it was
    vectorised: D4's order numbers from D3, one Python comparison per
    entry.  The library must give the same order matrix."""
    m, n = d3.shape
    order = np.zeros((m, n), dtype=int)
    work = np.array(d3, dtype=float)
    next_order = [1] * m
    while work.size:
        flat = np.argmin(work)
        i, j = divmod(int(flat), n)
        if work[i, j] == INFEASIBLE:
            break
        row_entries = [(work[i, jj], jj) for jj in range(n) if work[i, jj] < INFEASIBLE]
        row_entries.sort()
        for _, jj in row_entries:
            order[i, jj] = next_order[i]
            next_order[i] += 1
            work[i, jj] = INFEASIBLE
            work[:, jj] = INFEASIBLE
    return order


def legacy_greedy_orders(order_matrix) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``(lam, orders)`` of a greedy order matrix as the OSPAMT greedy
    search read them before it was vectorised."""
    m, n = order_matrix.shape
    lam = [0] * n
    orders = []
    for i in range(m):
        row = order_matrix[i]
        assigned = sorted((row[j], j + 1) for j in range(n) if row[j] > 0)
        orders.append(tuple(j for _, j in assigned))
        for _, j in assigned:
            lam[j - 1] = i + 1
    return tuple(lam), tuple(orders)


def legacy_directional_terms(src: TrackSet, tgt: TrackSet, orders, params: MetricParams, dist):
    """``ospamt.directional_terms`` as it read before it scored every target
    at once: one target at a time, in index order, so every scan adds its
    terms in the order of the defining sum.  The library must give the
    same arrays to the last bit."""
    p = params.p
    cp = params.c**p
    dp = params.delta**p
    n_t, _ = oracle_counts(src, tgt)
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


def loop_directional_terms(dist, orders, params: MetricParams):
    """``ospamt.directional_terms`` as a Python loop, scan by scan, target
    by target and source by source: each term is added to its scan's sum
    as the defining sum lists it, with the capped distances taken from the
    dense tensor.  The library's one sum down its rows must give the same
    arrays to the last bit."""
    tgt, src = dist.sets
    p = params.p
    cp = params.c**p
    dp = params.delta**p
    capped = np.minimum(dense_scan_distances(tgt, src, params), params.c) ** p
    loc, card = np.zeros(tgt.scans), np.zeros(tgt.scans)
    for t in range(tgt.scans):
        for i, order in enumerate(orders):
            live = [j for j in order if tgt.exists[i, t] and src.exists[j - 1, t]]
            if live:
                loc[t] += capped[i, live[0] - 1, t]
                if live[0] != order[0]:
                    loc[t] += dp
                card[t] += (len(live) - 1) * (dp + cp)
        live = sum(tgt.exists[i, t] and src.exists[j - 1, t]
                   for i, order in enumerate(orders) for j in order)
        card[t] += cp * (dist.slots[t] - live)
    return loc, card


def _legacy_is_number(value) -> bool:
    return type(value) is float or type(value) is int


def legacy_track_set_from_obj(obj) -> TrackSet:
    """The track-set decoder as it read before files were decoded straight
    into arrays: the type-checking loop of ``io``, one ``Track`` per track,
    then the public ``TrackSet`` constructor, whose checks walked every
    point again.  The constructor's rules are inlined as they were
    (``legacy_track_set_checks``), so this copy does not lean on the code
    it is compared with.  Returns the labels, ``states`` and ``exists``."""
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    try:
        scans, state_dim, raw_tracks = obj["scans"], obj["state_dim"], obj["tracks"]
    except KeyError as exc:
        raise ParseError(f"missing top-level field: {exc}") from exc
    if type(scans) is not int or type(state_dim) is not int:
        raise ParseError(f"scans and state_dim must be integers, got {scans!r}, {state_dim!r}")
    if not isinstance(raw_tracks, list):
        raise ParseError("tracks must be a list")
    tracks: list[Track] = []
    labels: set[str] = set()
    for pos, raw in enumerate(raw_tracks, start=1):
        if not isinstance(raw, dict):
            raise ParseError(f"track #{pos} must be an object")
        label = raw.get("id", f"T{pos}")
        if type(label) is not str:
            raise ParseError(f"track #{pos}: id must be a string, got {label!r}")
        if label in labels:
            raise ParseError(f"duplicate track id {label}")
        labels.add(label)
        raw_points = raw.get("points", [])
        if type(raw_points) is not list:
            raise ParseError(f"track {label}: points must be a list, got {raw_points!r}")
        points: dict[int, list[float]] = {}
        for entry in raw_points:
            try:
                t, x = entry["t"], entry["x"]
            except (KeyError, TypeError) as exc:
                raise ParseError(f"track {label}: malformed point: {exc}") from exc
            if type(t) is not int:
                raise ParseError(f"track {label}: scan index must be an integer, got {t!r}")
            if type(x) is not list or not all(map(_legacy_is_number, x)):
                raise ParseError(f"track {label}: state at scan {t} must be a list of numbers")
            if t in points:
                raise ParseError(f"track {label}: duplicate scan index {t}")
            points[t] = x
        tracks.append(Track(points, label=label))
    return legacy_track_set_checks(scans, state_dim, tuple(tracks))


def legacy_track_set_checks(scans: int, dim: int, tracks: tuple[Track, ...]):
    """The ``TrackSet`` constructor's checks as they read before they were
    shared with the decoder: one walk over every point, then the
    finiteness of the points gathered before the first other error.
    Returns the labels, ``states`` and ``exists``."""
    if scans < 1:
        raise BadParametersError(f"scans must be >= 1, got {scans}")
    if dim < 1:
        raise BadParametersError(f"state_dim must be >= 1, got {dim}")
    names = [trk.label if trk.label is not None else f"T{i}" for i, trk in enumerate(tracks, 1)]
    cells: list[int] = []
    values: list[float] = []

    def first_error():
        labels: set[str] = set()
        for i, (name, trk) in enumerate(zip(names, tracks)):
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
    bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
    if bad.size:
        i, t = divmod(cells[bad[0]], scans)
        raise NonFiniteCoordinateError(
            f"track {names[i]} at scan {t + 1} has a non-finite coordinate"
        )
    if error is not None:
        raise error
    flat = np.array(cells, dtype=np.intp)
    states = np.full((len(tracks), scans, dim), np.nan)
    states.reshape(-1, dim)[flat] = coords
    exists = np.zeros((len(tracks), scans), dtype=bool)
    exists.reshape(-1)[flat] = True
    return tuple(names), states, exists


def legacy_load_track_set(path) -> TrackSet:
    """The track-set loader as it read before files were parsed by orjson:
    the stdlib parser alone, in text mode, then the library's decoder.  A
    file that is not UTF-8 raised ``UnicodeDecodeError`` from it, and one
    nested too deeply ``RecursionError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return track_set_from_obj(obj)


def legacy_json_text(params: MetricParams, mode, results, at_time) -> str:
    """``compute``'s JSON output as it was written before: the document of
    the metrics' ``MetricRows`` through ``json.dumps(doc, indent=2)``."""
    doc = {
        "params": {
            "p": params.p,
            "c": params.c,
            "delta": params.delta,
            "alpha": params.alpha,
            "p_prime": params.base_order,
            "scale": list(params.scale) if params.scale else None,
            "mode": mode.value,
        },
        "metrics": {
            res.name: {
                "total": res.report.total,
                "loc": res.report.loc,
                "card": res.report.card,
                "per_time": [
                    {"t": t, "total": tt, "loc": ll, "card": cc, "n_t": nn}
                    for t, tt, ll, cc, nn in res.rows(at_time)
                ],
                "assignment": res.assignment_text(),
                **res.extra,
            }
            for res in results
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def legacy_csv_text(results, at_time) -> str:
    """``compute``'s CSV output as it was written before: one
    ``csv.writer`` row per scan and metric."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["t", "metric", "total", "loc", "card", "n_t"])
    for res in results:
        for t, total, loc, card, n_t in res.rows(at_time):
            writer.writerow([t, res.name, f"{total!r}", f"{loc!r}", f"{card!r}", n_t])
    return out.getvalue()


def dense_scan_distances(a: TrackSet, b: TrackSet, params: MetricParams, order=None):
    """Every entry of the (N_a, N_b, T) tensor, in one broadcast call."""
    return base_distance(a.states[:, None], b.states[None], params, order)


def entry_scans(dist):
    """The 0-based scan of each entry of a ``ScanDistances`` layer, counted
    from its sets' ``exists`` masks: scan t holds m_t * n_t entries, for
    the layer and its transpose alike."""
    a, b = dist.sets
    return np.repeat(np.arange(a.scans), a.exists.sum(axis=0) * b.exists.sum(axis=0))


def dense_layer(dist, values=None):
    """The (N_a, N_b, T) tensor of a ``ScanDistances`` layer's per-entry
    ``values``, its distances unless given, NaN where a pair does not
    coexist."""
    a, b = dist.sets
    out = np.full((len(a), len(b), a.scans), np.nan)
    out[dist.rows, dist.cols, entry_scans(dist)] = dist.values if values is None else values
    return out


def dense_pair_sums(d):
    """Each pair's sum of a dense (N_a, N_b, T) tensor over scans, added one
    scan after another in scan order."""
    return np.add.accumulate(d, axis=2)[..., -1]


def dense_cost_matrix(src: TrackSet, tgt: TrackSet, params: MetricParams, dist,
                      total=lambda d: d.sum(axis=2)):
    """``cost_matrix`` from ``dist = scan_distances(tgt, src, params)``,
    capped and powered everywhere and counted from NaN masks; ``total``
    sums each pair over scans, in numpy's pairwise order unless given."""
    cp = params.c**params.p
    d = np.minimum(dist, params.c) ** params.p
    both = ~np.isnan(d)
    either = (tgt.exists[:, None, :] | src.exists[None, :, :]).sum(axis=2)
    shared = both.sum(axis=2)
    mean = (total(np.where(both, d, 0.0)) + cp * (either - shared)) / either
    return np.where(shared > 0, mean, INFEASIBLE)


def dense_reorder_costs(d, exists_a, exists_b, c: float):
    """OSPAT reordering costs: 0 where neither track exists, c where one
    does, else the capped distance, chosen by NaN masks."""
    return np.where(np.isnan(d), np.where(exists_a ^ exists_b, c, 0.0), np.minimum(d, c))


def dense_pairing_costs(d, exists_a, exists_b, c: float):
    """Every pair's summed OSPAT reordering cost: its capped distances in
    scan order, then c for each scan where one track exists."""
    lone = (exists_a ^ exists_b).sum(axis=2)
    return dense_pair_sums(np.where(np.isnan(d), 0.0, np.minimum(d, c))) + c * lone


def dense_labeled_distances(d, labels_a, labels_b, params: MetricParams):
    """OSPAT labeled distances, penalized and capped at every entry."""
    q = params.base_order
    differ = np.not_equal.outer(labels_a, labels_b)[:, :, None]
    d = np.where(differ, (d**q + params.alpha**q) ** (1.0 / q), d)
    return np.minimum(d, params.c)
