import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import distance_params, random_float_set, same_track_sets
from oracles import oracle_norm
from trackmetric.core import (
    MetricParams,
    Track,
    TrackSet,
    base_distance,
    count_distances,
    make_track,
    scan_distances,
    validate,
)
from trackmetric.errors import (
    BadParametersError,
    DimensionMismatchError,
    EmptyTrackError,
    NonFiniteCoordinateError,
    ScanMismatchError,
    ScanOutOfRangeError,
)
from trackmetric.scenarios import FigureId, ScenarioSpec, build


def cutoff_distance(x, y, params):
    """min{c, d(x, y)} for two existing states."""
    return min(params.c, base_distance(x, y, params))


def test_validate_minimal_track_accepted():
    ts = TrackSet(5, 1, (make_track({1: 0.0}),))
    assert validate(ts) is ts


def test_validate_empty_track_rejected():
    ts = TrackSet(5, 1, (Track({}),))
    with pytest.raises(EmptyTrackError):
        validate(ts)


def test_validate_empty_set_accepted():
    ts = TrackSet(5, 1, ())
    assert validate(ts) is ts


def test_validate_scan_out_of_range():
    with pytest.raises(ScanOutOfRangeError, match="scan 6"):
        validate(TrackSet(5, 1, (make_track({6: 0.0}),)))
    with pytest.raises(ScanOutOfRangeError):
        validate(TrackSet(5, 1, (make_track({0: 0.0}),)))


def test_validate_dimension_mismatch_names_track_and_scan():
    trk = Track({2: (1.0, 2.0)}, label="bad")
    with pytest.raises(DimensionMismatchError, match="bad.*scan 2"):
        validate(TrackSet(5, 1, (trk,)))


def test_validate_non_finite():
    with pytest.raises(NonFiniteCoordinateError):
        validate(TrackSet(5, 1, (make_track({1: math.nan}),)))
    with pytest.raises(NonFiniteCoordinateError):
        validate(TrackSet(5, 1, (make_track({1: math.inf}),)))


def test_cutoff_distance_examples():
    params = MetricParams(p_prime=2.0)
    assert cutoff_distance((0.0, 0.0), (3.0, 4.0), params) == 5.0
    assert cutoff_distance((0.0,), (200.0,), MetricParams()) == 80.0
    # no distance where either track is absent: (x, None), (None, y), (None, None)
    a = validate(TrackSet(3, 1, (make_track({1: 0.0}),)))
    b = validate(TrackSet(3, 1, (make_track({2: 0.0}),)))
    assert np.isnan(scan_distances(a, b, MetricParams())).all()


def test_scan_distances_match_pairwise_reference():
    rng = random.Random(3)
    for dim in (1, 3, 8):
        for params in distance_params(dim):
            for _ in range(8):
                a, b = random_float_set(rng, dim), random_float_set(rng, dim)
                d = scan_distances(a, b, params)
                assert d.shape == (len(a), len(b), 4)
                for i, x in enumerate(a.tracks):
                    for j, y in enumerate(b.tracks):
                        for t in range(1, 5):
                            if t in x.points and t in y.points:
                                pair = base_distance(x.points[t], y.points[t], params)
                                assert d[i, j, t - 1] == pair
                                want = oracle_norm(x.points[t], y.points[t], params)
                                assert d[i, j, t - 1] == pytest.approx(want, rel=1e-12)
                            else:
                                assert np.isnan(d[i, j, t - 1])


def test_scan_distances_of_swapped_sets_are_the_transpose():
    rng = random.Random(11)
    for params in distance_params(3):
        for _ in range(10):
            a, b = random_float_set(rng, 3), random_float_set(rng, 3)
            np.testing.assert_array_equal(
                scan_distances(b, a, params), scan_distances(a, b, params).transpose(1, 0, 2)
            )


def test_scan_distances_reject_incomparable_sets():
    three = validate(TrackSet(3, 1, (make_track({1: 0.0}),)))
    four = validate(TrackSet(4, 1, (make_track({1: 0.0}),)))
    flat = validate(TrackSet(3, 2, (make_track({1: (0.0, 0.0)}),)))
    with pytest.raises(ScanMismatchError):
        scan_distances(three, four, MetricParams())
    with pytest.raises(DimensionMismatchError):
        scan_distances(three, flat, MetricParams())


def test_count_distances_fig1b():
    sc = build(ScenarioSpec(FigureId.FIG1B))
    n_t, n = count_distances(sc.truth, sc.est)
    assert n_t == (1, 1, 1, 2, 2)
    assert n == 7


def test_count_distances_fig1a_and_friends():
    for fig in (FigureId.FIG1A, FigureId.FIG1C, FigureId.FIG1D):
        sc = build(ScenarioSpec(fig))
        _, n = count_distances(sc.truth, sc.est)
        assert n == 5


def test_count_distances_empty_sets():
    a = TrackSet(5, 1, ())
    b = TrackSet(5, 1, ())
    n_t, n = count_distances(a, b)
    assert n_t == (0, 0, 0, 0, 0)
    assert n == 0


def test_count_distances_scan_mismatch():
    with pytest.raises(ScanMismatchError):
        count_distances(TrackSet(5, 1, ()), TrackSet(4, 1, ()))


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(x=st.tuples(coords, coords), y=st.tuples(coords, coords),
       p_prime=st.sampled_from([1.0, 2.0, 3.0]))
def test_cutoff_distance_symmetric_and_bounded(x, y, p_prime):
    params = MetricParams(p_prime=p_prime)
    d_xy = cutoff_distance(x, y, params)
    d_yx = cutoff_distance(y, x, params)
    assert d_xy == d_yx
    assert 0.0 <= d_xy <= params.c


@given(seed=st.integers(0, 10_000))
def test_count_distances_symmetric(seed):
    rng = random.Random(seed)
    from conftest import random_small_set

    a = random_small_set(rng)
    b = random_small_set(rng)
    assert count_distances(a, b) == count_distances(b, a)


# power-of-two scaling is only lossless away from the subnormal range
safe_coords = coords.filter(lambda v: v == 0.0 or abs(v) >= 1e-6)


@given(
    x=st.tuples(safe_coords, safe_coords),
    y=st.tuples(safe_coords, safe_coords),
    k=st.tuples(st.sampled_from([0.25, 0.5, 2.0, 4.0]),
                st.sampled_from([0.25, 0.5, 2.0, 4.0])),
)
def test_scaling_invariance_exact(x, y, k):
    # Multiplying coordinates by powers of two and setting scale to the
    # reciprocals reproduces the distance bit for bit.
    plain = cutoff_distance(x, y, MetricParams(p_prime=2.0))
    scaled_x = tuple(a * f for a, f in zip(x, k))
    scaled_y = tuple(a * f for a, f in zip(y, k))
    inv = tuple(1.0 / f for f in k)
    rescaled = cutoff_distance(scaled_x, scaled_y, MetricParams(p_prime=2.0, scale=inv))
    assert rescaled == plain


def test_params_validation():
    with pytest.raises(BadParametersError):
        MetricParams(p=0.5)
    with pytest.raises(BadParametersError):
        MetricParams(c=0.0)
    with pytest.raises(BadParametersError):
        MetricParams(delta=0.0)
    with pytest.raises(BadParametersError):
        MetricParams(delta=81.0)
    with pytest.raises(BadParametersError):
        MetricParams(alpha=-1.0)
    with pytest.raises(BadParametersError):
        MetricParams(alpha=80.5)
    with pytest.raises(BadParametersError):
        MetricParams(p_prime=0.9)
    with pytest.raises(BadParametersError):
        MetricParams(scale=(1.0, -1.0))


def test_params_warns_at_delta_equal_c():
    with pytest.warns(UserWarning):
        MetricParams(delta=80.0, c=80.0)


def test_scale_length_checked_at_use():
    params = MetricParams(scale=(1.0, 1.0))
    with pytest.raises(DimensionMismatchError):
        base_distance((0.0,), (1.0,), params)


def test_same_track_sets_ignores_order_and_labels():
    t1 = make_track({1: 0.0, 2: 1.0}, label="a")
    t2 = make_track({3: 5.0}, label="b")
    s1 = TrackSet(3, 1, (t1, t2))
    s2 = TrackSet(3, 1, (make_track({3: 5.0}, "x"), make_track({1: 0.0, 2: 1.0}, "y")))
    assert same_track_sets(s1, s2)
    s3 = TrackSet(3, 1, (t1,))
    assert not same_track_sets(s1, s3)
