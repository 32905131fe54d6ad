import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_force_one_to_one,
    count_assignments,
    dense_layer,
    enumerate_assignments,
    legacy_greedy_orders,
    legacy_greedy_sweep,
    oracle_greedy_many_to_one,
    oracle_lex_one_to_one,
    oracle_matching,
)
import trackmetric.assign as assign
from trackmetric.assign import INFEASIBLE, greedy_many_to_one, solve_one_to_one
from trackmetric.core import MetricParams, scan_distances
from trackmetric.scenarios import random_scenario
from trackmetric.errors import TooLargeError


def all_feasible(j, i):
    return True


def none_feasible(j, i):
    return False


def test_enumerate_two_sources_one_target():
    items = list(enumerate_assignments(2, 1, all_feasible))
    assert len(items) == 5
    lams = [lam for lam, _ in items]
    assert lams.count((0, 0)) == 1
    assert lams.count((1, 0)) == 1
    assert lams.count((0, 1)) == 1
    orders_11 = [orders for lam, orders in items if lam == (1, 1)]
    assert sorted(orders_11) == [((1, 2),), ((2, 1),)]


def test_enumerate_no_sources():
    items = list(enumerate_assignments(0, 3, all_feasible))
    assert items == [((), ((), (), ()))]


def test_enumerate_nothing_feasible():
    items = list(enumerate_assignments(3, 2, none_feasible))
    assert items == [((0, 0, 0), ((), ()))]


def test_enumerate_cap():
    with pytest.raises(TooLargeError):
        next(enumerate_assignments(6, 5, all_feasible))
    # A bigger explicit cap lifts the guard.
    assert next(enumerate_assignments(6, 5, all_feasible, cap=11))


def _rising_factorial_count(m, n):
    # Each of the k assigned sources enters one of n ordered lists; the i-th
    # insertion has n + i - 1 possible positions.
    total = 0
    for k in range(m + 1):
        ways = math.comb(m, k)
        for i in range(k):
            ways *= n + i
        total += ways
    return total


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_count_matches_combinatorics(m, n):
    got = sum(1 for _ in enumerate_assignments(m, n, all_feasible))
    assert got == _rising_factorial_count(m, n)
    assert got == count_assignments(m, n)


def test_greedy_single_pair():
    res = greedy_many_to_one(np.array([[5.0]]), cutoff_row_col_value=80.0)
    assert res.order_matrix.tolist() == [[1]]


def test_greedy_removes_all_cutoff_rows_and_cols():
    c = 80.0
    d = np.array([[c, c, c], [1.0, c, 2.0], [c, c, c]])
    res = greedy_many_to_one(d, cutoff_row_col_value=c)
    order = res.order_matrix
    assert not order[0].any() and not order[2].any() and not order[:, 1].any()
    assert res.order_matrix[1, 0] == 1
    assert res.order_matrix[1, 2] == 2


def test_greedy_empty_matrix():
    res = greedy_many_to_one(np.zeros((0, 0)), cutoff_row_col_value=80.0)
    assert res.order_matrix.shape == (0, 0)
    with pytest.raises(ValueError, match="two-dimensional"):
        greedy_many_to_one(np.zeros(3), cutoff_row_col_value=80.0)


@given(seed=st.integers(0, 2_000))
@settings(max_examples=150, deadline=None)
def test_greedy_invariants_random(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    d = np.array([[rng.uniform(0.0, 79.0) for _ in range(n)] for _ in range(m)])
    res = greedy_many_to_one(d, cutoff_row_col_value=80.0)
    order = res.order_matrix
    for j in range(n):
        assert (order[:, j] > 0).sum() <= 1
    for i in range(m):
        ranks = sorted(v for v in order[i, :] if v > 0)
        assert ranks == list(range(1, len(ranks) + 1))


@given(seed=st.integers(0, 2_000))
@settings(max_examples=150, deadline=None)
def test_greedy_matches_entrywise_reference(seed):
    # entries at, and within 1e-10 of, the cutoff decide dead rows/columns
    rng = np.random.default_rng(seed)
    c = float(rng.choice([1.0, 80.0, 6400.0]))
    m, n = rng.integers(1, 7, size=2)
    pool = [c, c * (1 + 1e-10), c * (1 - 1e-10), c + 1e-10, c - 1e-10, c * (1 - 1e-8), INFEASIBLE]
    d = rng.uniform(0.0, c, size=(m, n)).round(1)
    pick = rng.random((m, n)) < 0.6
    d[pick] = rng.choice(pool, size=pick.sum())
    res = greedy_many_to_one(d, cutoff_row_col_value=c)
    want = oracle_greedy_many_to_one(d, c)
    for name, value in want.items():
        assert np.array_equal(getattr(res, name), value), name


def test_greedy_sweep_matches_the_entry_by_entry_sweep():
    # seeded matrices with many ties, INFEASIBLE entries and rows or
    # columns at the cutoff: the sorted-entry sweep numbers every entry as
    # the earlier one-entry-at-a-time sweep did, and its (lam, orders) are
    # the ones the OSPAMT search read off that order matrix
    rng = np.random.default_rng(18)
    c = 80.0
    for _ in range(400):
        m, n = rng.integers(1, 9, size=2)
        d = rng.integers(0, 6, size=(m, n)).astype(float) * rng.choice([1.0, 0.5, 13.0])
        d[rng.random((m, n)) < 0.2] = INFEASIBLE
        if rng.random() < 0.3:
            d[rng.integers(m)] = c
        if rng.random() < 0.3:
            d[:, rng.integers(n)] = c
        res = greedy_many_to_one(d, cutoff_row_col_value=c)
        legacy = legacy_greedy_sweep(res.d3)
        assert np.array_equal(res.order_matrix, legacy)
        assert (res.lam, res.orders) == legacy_greedy_orders(legacy)


def test_solve_one_to_one_diagonal():
    pi, cost = solve_one_to_one(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert pi == (0, 1)
    assert cost == 2.0


def test_solve_one_to_one_zero_pairing():
    c = 80.0
    # 3x2 transposed so m <= n: the two zero entries must pair up.
    d = np.array([[0.0, c], [c, 0.0], [c, c]]).T
    pi, cost = solve_one_to_one(d)
    assert pi == (0, 1)
    assert cost == 0.0


def test_solve_one_to_one_lexicographic_ties():
    # Every matching costs 2; the lexicographically smallest must win.
    d = np.ones((2, 3))
    pi, cost = solve_one_to_one(d)
    assert pi == (0, 1)
    assert cost == 2.0


def test_solve_one_to_one_empty():
    assert solve_one_to_one(np.zeros((0, 4))) == ((), 0.0)
    with pytest.raises(ValueError, match="m <= n"):
        solve_one_to_one(np.zeros((3, 2)))


@given(seed=st.integers(0, 5_000))
@settings(max_examples=200, deadline=None)
def test_solve_one_to_one_matches_brute_force(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    n = rng.randint(m, 6)
    d = [[rng.uniform(0.0, 100.0) for _ in range(n)] for _ in range(m)]
    pi, cost = solve_one_to_one(np.array(d))
    assert len(set(pi)) == m
    assert cost == pytest.approx(oracle_matching(d), rel=1e-9)
    ref_pi, ref_cost = brute_force_one_to_one(d)
    assert cost == pytest.approx(ref_cost, rel=1e-9)
    assert pi == ref_pi


@given(seed=st.integers(0, 3_000))
@settings(max_examples=100, deadline=None)
def test_solve_one_to_one_permutation_invariant_cost(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(4, 6)
    d = np.array([[rng.uniform(0.0, 50.0) for _ in range(n)] for _ in range(m)])
    _, cost = solve_one_to_one(d)
    rows = list(range(m))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    _, cost2 = solve_one_to_one(d[np.ix_(rows, cols)])
    assert cost2 == pytest.approx(cost, rel=1e-9)
    # never better than any explicitly checked injective map
    explicit = rng.sample(range(n), m)
    assert cost <= sum(d[i, explicit[i]] for i in range(m)) + 1e-9


@st.composite
def tie_heavy_matrices(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(m, 6))
    cell = st.sampled_from([0.0, 1.0, 2.0, 3.0, INFEASIBLE])
    return np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m)))


@given(d=tie_heavy_matrices())
@settings(max_examples=300, deadline=None)
def test_solve_one_to_one_ties_match_brute_force(d):
    # The brute force does not soften INFEASIBLE entries, so it has no
    # answer to compare with when every matching is infeasible.
    ref = brute_force_one_to_one(d)
    if ref[1] < INFEASIBLE:
        assert solve_one_to_one(d) == ref


def _capped_scan_matrices(seed, params):
    truth, est = random_scenario(
        seed, n_truth=8, scans=12, miss_rate=0.2, false_rate=0.4, break_rate=0.3, noise=2.0
    )
    capped = np.minimum(dense_layer(scan_distances(truth, est, params)), params.c)
    for t in range(truth.scans):
        ia = np.flatnonzero(truth.exists[:, t])
        ib = np.flatnonzero(est.exists[:, t])
        if ia.size and ib.size:
            cost = capped[:, :, t][np.ix_(ia, ib)] ** params.p
            yield cost if ia.size <= ib.size else cost.T


@pytest.mark.parametrize("seed", range(6))
def test_solve_one_to_one_matches_row_by_row_on_capped_scans(seed):
    # a small cutoff caps many entries at c^p, so most scans hold ties
    params = MetricParams(p=2.0, c=1.5, delta=1.0, alpha=0.0)
    for cost in _capped_scan_matrices(seed, params):
        assert solve_one_to_one(cost) == oracle_lex_one_to_one(cost)


def test_solve_one_to_one_matches_row_by_row_on_10x14_integers():
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = rng.integers(0, 3, size=(10, 14)).astype(float)
        d[rng.random(d.shape) < 0.1] = INFEASIBLE
        assert solve_one_to_one(d) == oracle_lex_one_to_one(d)


def test_solve_one_to_one_matches_row_by_row_on_near_ties():
    # costs 0.1 apart plus a 1e-12 jitter: ties hold only within tolerance
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        d = rng.integers(0, 4, size=(m, m + 2)) * 0.1 + rng.random((m, m + 2)) * 1e-12
        assert solve_one_to_one(d) == oracle_lex_one_to_one(d)


def test_solve_one_to_one_solve_count(monkeypatch):
    calls = []
    real = assign.linear_sum_assignment

    def counted(d):
        calls.append(d.shape)
        return real(d)

    monkeypatch.setattr(assign, "linear_sum_assignment", counted)
    # distinct costs: a unique optimum takes the one solve that finds it
    d = np.random.default_rng(3).random((30, 40))
    assert solve_one_to_one(d) == oracle_lex_one_to_one(d)
    assert len(calls) == 1
    calls.clear()
    assert solve_one_to_one(np.array([[4.0, 2.0, 3.0, 2.0]])) == ((1,), 2.0)
    assert calls == []
    assert solve_one_to_one(np.ones((4, 6))) == ((0, 1, 2, 3), 4.0)
