import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import distance_params, random_float_set, same_track_sets
from oracles import dense_layer, oracle_check, oracle_norm
from trackmetric.core import (
    MetricParams,
    Track,
    TrackSet,
    base_distance,
    count_distances,
    scan_distances,
)
from trackmetric.errors import (
    BadParametersError,
    DimensionMismatchError,
    EmptyTrackError,
    NonFiniteCoordinateError,
    ScanMismatchError,
    ScanOutOfRangeError,
    ValidationError,
)
from trackmetric.io import load_track_set, save_track_set
from trackmetric.scenarios import FigureId, ScenarioSpec, build


def cutoff_distance(x, y, params):
    """min{c, d(x, y)} for two existing states."""
    return min(params.c, base_distance(x, y, params))


def test_validate_minimal_track_accepted():
    ts = TrackSet(5, 1, (Track({1: 0.0}),))
    assert ts.states[0, 0, 0] == 0.0 and np.isnan(ts.states[0, 1:]).all()
    assert ts.exists.tolist() == [[True, False, False, False, False]]


def test_validate_empty_track_rejected():
    with pytest.raises(EmptyTrackError):
        TrackSet(5, 1, (Track({}),))


def test_validate_empty_set_accepted():
    ts = TrackSet(5, 1, ())
    assert ts.states.shape == (0, 5, 1) and ts.exists.shape == (0, 5)


def test_validate_scan_out_of_range():
    with pytest.raises(ScanOutOfRangeError, match="scan 6"):
        TrackSet(5, 1, (Track({6: 0.0}),))
    with pytest.raises(ScanOutOfRangeError):
        TrackSet(5, 1, (Track({0: 0.0}),))


def test_validate_dimension_mismatch_names_track_and_scan():
    trk = Track({2: (1.0, 2.0)}, label="bad")
    with pytest.raises(DimensionMismatchError, match="bad.*scan 2"):
        TrackSet(5, 1, (trk,))


def test_validate_non_finite():
    with pytest.raises(NonFiniteCoordinateError):
        TrackSet(5, 1, (Track({1: math.nan}),))
    with pytest.raises(NonFiniteCoordinateError):
        TrackSet(5, 1, (Track({1: math.inf}),))


@pytest.mark.parametrize(
    "labels, match",
    [
        (["a", "a"], "track #2 repeats the label a"),
        (["T2", None], "track #2 repeats the label T2"),  # None reads T2
        ([5], "track #1 has label 5, not a string"),
    ],
    ids=["repeated", "repeats-fallback", "not-a-string"],
)
def test_validate_labels(labels, match):
    # save_track_set used to write these sets, and load_track_set rejected the file
    with pytest.raises(ValidationError, match=match):
        TrackSet(2, 1, tuple(Track({1: 0.0}, label) for label in labels))


def test_integers_beyond_float_range_are_non_finite_coordinates():
    # float() of such an integer raised OverflowError out of Track, where
    # 1e400 in a file reads as inf and is rejected as a non-finite point
    huge = 10**400
    assert Track({1: (huge, -huge, 2)}).points == {1: (math.inf, -math.inf, 2.0)}
    assert Track({1: -huge}).points == {1: (-math.inf,)}
    with pytest.raises(NonFiniteCoordinateError, match="T1 at scan 2"):
        TrackSet(3, 2, (Track({1: (0.0, 1.0), 2: [0, huge]}),))
    # in the usual order: an error of an earlier point comes first
    with pytest.raises(ScanOutOfRangeError, match="scan 9"):
        TrackSet(3, 1, (Track({9: 0.0}), Track({1: [huge]})))


def test_state_dim_beyond_index_range_is_a_validation_error():
    # the coordinates' reshape raised a bare ValueError before the states
    # were sized; a point's dimension error still comes first
    big = 10**21
    with pytest.raises(ValidationError) as info:
        TrackSet(3, big, ())
    assert (type(info.value), str(info.value)) == (
        ValidationError, f"cannot hold the states of 0 track(s) over 3 scans in {big} dimensions")
    for build_set in (lambda: TrackSet(3, big, (Track({1: 0.0}, "a"),)),
                      lambda: TrackSet.from_records(3, big, [("a", {1: [0.0]})])):
        with pytest.raises(DimensionMismatchError) as info:
            build_set()
        assert str(info.value) == f"track a at scan 1 has dimension 1, expected {big}"


def test_invalid_sets_cannot_be_built():
    # Before sets checked themselves, a point at scan 0 was stored at scan T
    # and a NaN coordinate read as a missing point, and both were scored.
    with pytest.raises(ScanOutOfRangeError, match="scan 0, outside 1..3"):
        TrackSet(3, 1, (Track({0: 5.0}),))
    with pytest.raises(NonFiniteCoordinateError, match="T1 at scan 2"):
        TrackSet(3, 2, (Track({1: (0.0, 1.0), 2: (math.nan, 1.0)}),))
    with pytest.raises(BadParametersError):
        TrackSet(0, 1, ())
    with pytest.raises(BadParametersError):
        TrackSet(3, 0, ())


def test_states_and_exists_are_read_only_and_outside_repr():
    a = TrackSet(2, 1, (Track({1: 1.0}, "a"),))
    with pytest.raises(ValueError):
        a.states[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        a.exists[0, 1] = True
    with pytest.raises(FrozenInstanceError):
        a.labels = ("b",)
    assert a == TrackSet(2, 1, (Track({1: (1.0,)}, "a"),))
    assert (a == object()) is False  # through NotImplemented
    assert "states" not in repr(a) and "exists" not in repr(a)


def test_a_set_equals_its_round_trip_and_its_records_twin(tmp_path):
    # equality and hash read the arrays, so an unlabelled track equals its
    # saved and loaded copy, which reads the label T1
    ts = TrackSet(3, 1, [Track({1: 0.0})])
    path = tmp_path / "set.json"
    save_track_set(ts, path)
    twins = (load_track_set(path), TrackSet.from_records(3, 1, [("T1", {1: [0.0]})]))
    assert all(twin == ts and hash(twin) == hash(ts) for twin in twins)
    assert len({ts, *twins}) == 1
    assert ts.tracks == (Track({1: (0.0,)}, "T1"),)
    for other in (TrackSet(3, 1, [Track({1: 0.5})]), TrackSet(3, 1, [Track({2: 0.0})]),
                  TrackSet(3, 1, [Track({1: 0.0}, "x")]), TrackSet(4, 1, [Track({1: 0.0})]),
                  TrackSet(3, 2, [Track({1: (0.0, 0.0)})]), TrackSet(3, 1, ())):
        assert other != ts


def test_track_label_outside_the_set_raises():
    ts = TrackSet(3, 1, [Track({1: 0.0}, "a"), Track({2: 1.0})])
    assert (ts.track_label(1), ts.track_label(2)) == ("a", "T2")
    for index in (0, 3, -1):
        with pytest.raises(IndexError):
            ts.track_label(index)


def test_numpy_scalars_are_one_dimensional_states():
    # any value with no axes is a 1-D state, not only Python numbers and
    # np.float64 (a float subclass); other numpy scalars are not iterable
    for x in (np.int64(2), np.float32(2), np.float64(2), np.array(2.0), 2, 2.0):
        assert Track({1: x}).points == {1: (2.0,)}
    for x in ([2, 3], (2.0, 3.0), np.array([2.0, 3.0])):
        assert Track({1: x}).points == {1: (2.0, 3.0)}
    assert type(Track({1: np.float32(0.1)}).points[1][0]) is float
    ts = TrackSet(2, 1, (Track({1: np.int64(4), 2: np.float32(0.5)}),))
    assert ts.states[0, :, 0].tolist() == [4.0, 0.5]


def test_non_finite_point_earlier_in_file_order_is_reported_first():
    # NaN at scan 2 of track t1 comes before t1's out-of-range scan 9 and
    # t2's wrong dimension, so the NaN is the error reported
    tracks = (
        Track({3: 0.0, 2: math.nan, 9: 1.0}, "t1"),
        Track({1: (1.0, 2.0)}, "t2"),
    )
    with pytest.raises(NonFiniteCoordinateError, match="t1 at scan 2"):
        TrackSet(5, 1, tracks)
    # the same points with the NaN after the bad scan report the scan
    with pytest.raises(ScanOutOfRangeError, match="t1 has a point at scan 9"):
        TrackSet(5, 1, (Track({3: 0.0, 9: 1.0, 2: math.nan}, "t1"),))


def random_raw_set(rng: random.Random):
    """Arguments of a small track set that breaks each rule now and then:
    scan 0 or T + 1, a wrong dimension, NaN or inf, an empty track, and
    rarely a zero scan count or dimension."""
    scans = 0 if rng.random() < 0.03 else rng.randint(1, 4)
    dim = 0 if rng.random() < 0.03 else rng.randint(1, 3)
    bad_value = (math.nan, math.inf, -math.inf)
    tracks = []
    for k in range(rng.randint(0, 4)):
        n_points = 0 if rng.random() < 0.03 else rng.randint(1, max(1, scans))
        points = {}
        for t in rng.sample(range(1, scans + 1), min(n_points, scans)):
            if rng.random() < 0.04:
                t = rng.choice((0, scans + 1))
            size = max(0, dim + rng.choice((-1, 1))) if rng.random() < 0.04 else dim
            x = [rng.choice(bad_value) if rng.random() < 0.03 else rng.uniform(-9, 9)
                 for _ in range(size)]
            points[t] = tuple(x)
        tracks.append(Track(points, None if rng.random() < 0.5 else f"k{k}"))
    return scans, dim, tuple(tracks)


def test_constructor_raises_what_the_reference_check_raises():
    rng = random.Random(11)
    seen = Counter()
    for _ in range(2400):
        scans, dim, tracks = random_raw_set(rng)
        try:
            oracle_check(scans, dim, tracks)
            want = None
        except (ValidationError, BadParametersError) as exc:
            want = (type(exc), str(exc))
        try:
            ts = TrackSet(scans, dim, tracks)
            got = None
        except (ValidationError, BadParametersError) as exc:
            got = (type(exc), str(exc))
        assert got == want, (scans, dim, tracks)
        seen[want and want[0]] += 1
        if got is None:
            expect = np.full((len(tracks), scans, dim), np.nan)
            for i, trk in enumerate(tracks):
                for t, x in trk.points.items():
                    expect[i, t - 1] = x
            np.testing.assert_array_equal(ts.states, expect)
            np.testing.assert_array_equal(ts.exists, ~np.isnan(expect[:, :, 0]))
    # every kind of error, and valid sets, occur many times over
    assert set(seen) == {None, BadParametersError, EmptyTrackError, ScanOutOfRangeError,
                         DimensionMismatchError, NonFiniteCoordinateError}
    assert min(seen.values()) >= 40, seen


def test_cutoff_distance_examples():
    params = MetricParams(p_prime=2.0)
    assert cutoff_distance((0.0, 0.0), (3.0, 4.0), params) == 5.0
    assert cutoff_distance((0.0,), (200.0,), MetricParams()) == 80.0
    # no distance where either track is absent: (x, None), (None, y), (None, None)
    a = TrackSet(3, 1, (Track({1: 0.0}),))
    b = TrackSet(3, 1, (Track({2: 0.0}),))
    assert np.isnan(dense_layer(scan_distances(a, b, MetricParams()))).all()


def test_scan_distances_match_pairwise_reference():
    rng = random.Random(3)
    for dim in (1, 3, 8):
        for params in distance_params(dim):
            for _ in range(8):
                a, b = random_float_set(rng, dim), random_float_set(rng, dim)
                d = dense_layer(scan_distances(a, b, params))
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
            swapped = dense_layer(scan_distances(b, a, params))
            dist = scan_distances(a, b, params)
            np.testing.assert_array_equal(swapped, dense_layer(dist).transpose(1, 0, 2))
            np.testing.assert_array_equal(swapped, dense_layer(dist.transpose()))


def test_scan_distances_reject_incomparable_sets():
    three = TrackSet(3, 1, (Track({1: 0.0}),))
    four = TrackSet(4, 1, (Track({1: 0.0}),))
    flat = TrackSet(3, 2, (Track({1: (0.0, 0.0)}),))
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
    t1 = Track({1: 0.0, 2: 1.0}, label="a")
    t2 = Track({3: 5.0}, label="b")
    s1 = TrackSet(3, 1, (t1, t2))
    s2 = TrackSet(3, 1, (Track({3: 5.0}, "x"), Track({1: 0.0, 2: 1.0}, "y")))
    assert same_track_sets(s1, s2)
    s3 = TrackSet(3, 1, (t1,))
    assert not same_track_sets(s1, s3)
