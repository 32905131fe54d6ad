import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import golden
from oracles import oracle_ospa
from trackmetric.core import MetricParams, Track, TrackSet
from trackmetric.errors import DimensionMismatchError
from trackmetric.ospa import ospa, ospa_per_scan
from trackmetric.scenarios import FigureId, ScenarioSpec, build


def test_identical_sets():
    xs = [(0.0, 1.0), (2.0, 3.0)]
    res = ospa(xs, list(xs), MetricParams())
    assert res.total == 0.0
    assert res.loc == 0.0 and res.card == 0.0


def test_one_versus_two():
    # One matched state at distance eps plus one unmatched: ((eps^p + c^p)/2)^(1/p)
    for p in (1.0, 2.0):
        params = MetricParams(p=p)
        eps, c = 3.0, params.c
        res = ospa([(0.0,)], [(eps,), (500.0,)], params)
        assert res.total == pytest.approx(((eps**p + c**p) / 2) ** (1 / p), rel=1e-9)
        assert res.card == pytest.approx((c**p / 2) ** (1 / p), rel=1e-9)


def test_empty_cases():
    params = MetricParams()
    assert ospa([], [], params).total == 0.0
    assert ospa([], [(1.0,)], params).total == params.c
    assert ospa([(1.0,)], [], params).total == params.c


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        ospa([(0.0,)], [(0.0, 1.0)], MetricParams())


def test_fig9a_states_at_t1():
    sc = build(ScenarioSpec(FigureId.FIG9A))
    rows = ospa_per_scan(sc.truth, sc.est, MetricParams())
    assert rows[0].total == pytest.approx(golden("03_table1_fig9", "fig9a ospa"), rel=1e-9)
    assert rows[0].pairs == ((1, 2), (2, 1))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=250, deadline=None)
def test_matches_brute_force(seed):
    rng = random.Random(seed)
    params = MetricParams(p=rng.choice([1.0, 2.0]))
    xs = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(rng.randint(0, 5))]
    ys = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(rng.randint(0, 5))]
    res = ospa(xs, ys, params)
    assert res.total == pytest.approx(oracle_ospa(xs, ys, params), rel=1e-9, abs=1e-12)
    assert res.total <= params.c + 1e-12
    assert res.total**params.p == pytest.approx(
        res.loc**params.p + res.card**params.p, rel=1e-9, abs=1e-12
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_metric_axioms(seed):
    rng = random.Random(seed)
    params = MetricParams()

    def rand_states():
        return [(float(rng.randint(0, 9)),) for _ in range(rng.randint(0, 4))]

    a, b, c = rand_states(), rand_states(), rand_states()
    d_ab = ospa(a, b, params).total
    d_ba = ospa(b, a, params).total
    assert d_ab == pytest.approx(d_ba, rel=1e-9, abs=1e-12)
    assert ospa(a, list(a), params).total == 0.0
    if sorted(a) != sorted(b):
        assert d_ab > 1e-9
    d_ac = ospa(a, c, params).total
    d_cb = ospa(c, b, params).total
    assert d_ab <= d_ac + d_cb + 1e-9


def test_cardinality_component_formula():
    params = MetricParams(p=2.0)
    m, n = 2, 5
    xs = [(0.0,)] * m
    ys = [(0.0,)] * n
    res = ospa(xs, ys, params)
    want = params.c * ((n - m) / n) ** (1 / params.p)
    assert res.card == pytest.approx(want, rel=1e-9)


def test_per_scan_fig1a_t4_pairs_tau1_with_tau2prime():
    sc = build(ScenarioSpec(FigureId.FIG1A))
    rows = ospa_per_scan(sc.truth, sc.est, MetricParams())
    assert rows[3].pairs == ((1, 2),)
    assert rows[3].total == pytest.approx(1.0, rel=1e-9)


def test_per_scan_empty_scans_are_zero():
    a = TrackSet(3, 1, (Track({1: 0.0}),))
    b = TrackSet(3, 1, (Track({1: 0.5}),))
    rows = ospa_per_scan(a, b, MetricParams())
    assert rows[1].total == 0.0 and rows[2].total == 0.0
    assert rows[1].n_t == 0
