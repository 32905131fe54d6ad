"""Rescaling the problem changes no decision.

OSPAMT, OSPA and OSPAT are positively homogeneous: multiplying every
coordinate, c, delta and alpha by one factor multiplies every distance by
that factor.  Every tie is decided against the problem's own scale, so a
factor 2**k changes no assignment, order, direction or pairing, and at
p, p' in {1, 2}, where the scaled arithmetic is exact, every total scales
exactly.
"""

import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import PARAM_SETS, random_small_set, tracks_of
from trackmetric.core import MetricParams, Track, TrackSet
from trackmetric.ospa import ospa_per_scan
from trackmetric.ospamt import Mode, ospamt_metric
from trackmetric.ospat import ospat_per_scan


def rescaled(params: MetricParams, f: float) -> MetricParams:
    return MetricParams(
        p=params.p, c=params.c * f, delta=params.delta * f, alpha=params.alpha * f,
        p_prime=params.p_prime, scale=params.scale,
    )


def rescaled_set(ts: TrackSet, f: float) -> TrackSet:
    tracks = tuple(
        Track({t: tuple(f * v for v in x) for t, x in trk.points.items()}, trk.label)
        for trk in tracks_of(ts)
    )
    return TrackSet(ts.scans, ts.state_dim, tracks)


def assert_scales(got: float, want: float, f: float, exact: bool) -> None:
    if exact:
        assert got == want * f
    else:
        assert got == pytest.approx(want * f, rel=1e-12, abs=0.0)


def check_rescaling(seed: int, k: int, params: MetricParams) -> None:
    rng = random.Random(seed)
    a = random_small_set(rng, grid=4)
    b = random_small_set(rng, grid=4)
    f = 2.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta == c warns
        scaled = rescaled(params, f)
    fa, fb = rescaled_set(a, f), rescaled_set(b, f)
    exact = params.p in (1.0, 2.0) and params.base_order in (1.0, 2.0)
    modes = (Mode.EXACT, Mode.GREEDY) if exact and params.p == params.base_order else (Mode.EXACT,)

    for mode in modes:
        want, got = ospamt_metric(a, b, params, mode), ospamt_metric(fa, fb, scaled, mode)
        assert got.assignment == want.assignment
        assert_scales(got.total, want.total, f, exact)
        for g, w in zip(got.per_time, want.per_time):
            assert_scales(g, w, f, exact)

    want, got = ospa_per_scan(a, b, params), ospa_per_scan(fa, fb, scaled)
    assert got.assignment == want.assignment
    for g, w in zip(got.per_time, want.per_time):
        assert_scales(g, w, f, exact)

    (want, want_pairing), (got, got_pairing) = (
        ospat_per_scan(a, b, params), ospat_per_scan(fa, fb, scaled)
    )
    assert got_pairing == want_pairing
    assert got.assignment == want.assignment
    for g, w in zip(got.per_time, want.per_time):
        assert_scales(g, w, f, exact)


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(-40, 40),
    params=st.sampled_from(PARAM_SETS),
)
@example(seed=0, k=-30, params=PARAM_SETS[1])
@example(seed=1, k=-20, params=PARAM_SETS[1])
@example(seed=2, k=-40, params=PARAM_SETS[3])
@settings(max_examples=300, deadline=None)
def test_rescaling_changes_no_decision(seed, k, params):
    check_rescaling(seed, k, params)
