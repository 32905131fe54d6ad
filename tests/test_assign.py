import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_force_one_to_one,
    count_assignments,
    enumerate_assignments,
    oracle_matching,
)
from trackmetric.assign import INFEASIBLE, greedy_many_to_one, solve_one_to_one
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


def test_greedy_worked_matrices():
    d = np.array(
        [
            [70.0, 80.0, 80.0, 80.0],
            [79.0, 80.0, 29.0, 80.0],
            [80.0, 50.0, 80.0, 55.0],
        ]
    )
    res = greedy_many_to_one(d, cutoff_row_col_value=80.0)
    inf = INFEASIBLE
    assert res.d1.tolist() == [
        [70.0, inf, inf, inf],
        [inf, inf, 29.0, inf],
        [inf, 50.0, inf, inf],
    ]
    assert res.d2.tolist() == [
        [70.0, inf, inf, inf],
        [inf, inf, 29.0, inf],
        [inf, 50.0, inf, 55.0],
    ]
    assert res.d3.tolist() == [
        [70.0, inf, inf, inf],
        [inf, inf, 29.0, inf],
        [inf, 50.0, inf, 55.0],
    ]
    assert res.order_matrix.tolist() == [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 2],
    ]
    assert res.unassigned_rows == ()
    assert res.unassigned_cols == ()


def test_greedy_single_pair():
    res = greedy_many_to_one(np.array([[5.0]]), cutoff_row_col_value=80.0)
    assert res.order_matrix.tolist() == [[1]]


def test_greedy_removes_all_cutoff_rows_and_cols():
    c = 80.0
    d = np.array([[c, c, c], [1.0, c, 2.0], [c, c, c]])
    res = greedy_many_to_one(d, cutoff_row_col_value=c)
    assert 0 in res.unassigned_rows and 2 in res.unassigned_rows
    assert 1 in res.unassigned_cols
    assert res.order_matrix[1, 0] == 1
    assert res.order_matrix[1, 2] == 2


def test_greedy_empty_matrix():
    res = greedy_many_to_one(np.zeros((0, 0)), cutoff_row_col_value=80.0)
    assert res.order_matrix.shape == (0, 0)


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
