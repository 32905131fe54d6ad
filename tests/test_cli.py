import csv
import io
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import golden, library_reports, same_track_sets
from oracles import legacy_track_set_from_obj
from trackmetric.cli import main
from trackmetric.core import MetricParams, Track, TrackSet
from trackmetric.errors import BadParametersError, ParseError, ValidationError
from trackmetric.io import load_track_set, save_track_set
from trackmetric.scenarios import FigureId, ScenarioSpec, build, random_scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, fig, **kw):
    sc = build(ScenarioSpec(fig, **kw))
    truth = tmp_path / "truth.json"
    est = tmp_path / "est.json"
    save_track_set(sc.truth, truth)
    save_track_set(sc.est, est)
    return truth, est


# ------------------------------------------------------------------ files


def test_round_trip_bit_exact(tmp_path):
    awkward = [0.1, 1.0 / 3.0, math.pi, -2.5e-17, 1e300, 123456789.123456789]
    ts = TrackSet(
        3,
        2,
        (
            Track({1: (awkward[0], awkward[1]), 3: (awkward[2], awkward[3])}, "a"),
            Track({2: (awkward[4], awkward[5])}, "b"),
        ),
    )
    path = tmp_path / "set.json"
    save_track_set(ts, path)
    back = load_track_set(path)
    assert back.scans == ts.scans and back.state_dim == ts.state_dim
    for orig, loaded in zip(ts.tracks, back.tracks):
        assert loaded.points == orig.points  # bit-exact coordinates
        assert loaded.label == orig.label


def test_points_sorted_on_load_and_duplicate_t_rejected(tmp_path):
    path = tmp_path / "unsorted.json"
    path.write_text(
        json.dumps(
            {
                "scans": 3,
                "state_dim": 1,
                "tracks": [
                    {"id": "x", "points": [{"t": 3, "x": [1.0]}, {"t": 1, "x": [0.0]}]}
                ],
            }
        )
    )
    ts = load_track_set(path)
    assert sorted(ts.tracks[0].points) == [1, 3]
    path.write_text(
        json.dumps(
            {
                "scans": 3,
                "state_dim": 1,
                "tracks": [
                    {"id": "x", "points": [{"t": 1, "x": [1.0]}, {"t": 1, "x": [0.0]}]}
                ],
            }
        )
    )
    from trackmetric.errors import ParseError

    with pytest.raises(ParseError, match="duplicate"):
        load_track_set(path)


def _doc(**changes):
    doc = {
        "scans": 3,
        "state_dim": 1,
        "tracks": [
            {"id": "a", "points": [{"t": 1, "x": [0.0]}]},
            {"id": "b", "points": [{"t": 2, "x": [1.0]}]},
        ],
    }
    for key, value in changes.items():
        if key in ("scans", "state_dim"):
            doc[key] = value
        elif key == "t":
            doc["tracks"][0]["points"][0]["t"] = value
        elif key == "x":
            doc["tracks"][0]["points"][0]["x"] = value
        elif key == "points":
            doc["tracks"][0]["points"] = value
        else:
            doc["tracks"][1]["id"] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _doc(scans=2.9),
        _doc(scans=True),
        _doc(state_dim=1.5),
        _doc(state_dim=True),
        _doc(t=1.7),
        _doc(t=True),
        _doc(t=1.0),
        _doc(state_dim=2, x="12"),
        _doc(x=["0.5"]),
        _doc(x=[True]),
        _doc(id="a"),
        _doc(points=5),
        _doc(points=None),
        _doc(id=None),
        _doc(id=5),
    ],
    ids=[
        "fractional-scans", "true-scans", "fractional-state-dim", "true-state-dim",
        "fractional-t", "true-t", "float-t", "string-x", "string-coordinate",
        "true-coordinate", "duplicate-id", "points-int", "points-null", "id-null",
        "id-int",
    ],
)
def test_malformed_fields_are_parse_errors(tmp_path, capsys, doc):
    from trackmetric.errors import ParseError

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_track_set(bad)
    code, _, err = run(capsys, "compute", str(bad), str(bad))
    assert code == 2
    assert err


def _valid_doc(rng):
    """A small valid track-set document; some tracks carry no id."""
    scans, dim = rng.randint(1, 5), rng.randint(1, 3)
    tracks = []
    for k in range(rng.randint(0, 4)):
        ts = rng.sample(range(1, scans + 1), rng.randint(1, scans))
        track = {"points": [{"t": t, "x": [rng.choice((rng.uniform(-9, 9), rng.randint(-9, 9)))
                                           for _ in range(dim)]} for t in ts]}
        if rng.random() < 0.8:
            track["id"] = f"k{k}"
        tracks.append(track)
    return {"scans": scans, "state_dim": dim, "tracks": tracks}


#: Values a mutation writes into a document: wrong types, JSON NaN and
#: Infinity, integers just above 2^53, at 2^63 and beyond float range.
_ODD_VALUES = (1.5, 2.0, True, None, "1", [], {}, math.nan, math.inf, -math.inf,
               2**53 + 1, 2**63, 10**400, -(10**400), 0, -3)


def _mutate(rng, doc):
    """Break one rule of ``doc`` in place, at a random place."""
    tracks = doc["tracks"]
    objects = [trk for trk in tracks if type(trk) is dict]
    track = rng.choice(objects) if objects else None
    raw_points = track.get("points") if track else None
    points = [p for p in raw_points if type(p) is dict] if type(raw_points) is list else []
    point = rng.choice(points) if points else None
    kind = rng.randrange(13)
    if kind == 0:
        # not a count beyond memory: neither decoder can hold such a set
        doc[rng.choice(("scans", "state_dim"))] = rng.choice((1.5, 2.0, True, None, "1", 0, -1))
    elif kind == 1 and track:
        track["id"] = rng.choice(_ODD_VALUES + ("T2", "k0", "k1"))  # T2 may be implicit
    elif kind == 2 and track:
        track.pop("id", None)
    elif kind == 3 and track:
        track["points"] = rng.choice(([], [], [], 5, None, {}, [[1]], [None], [{"t": 1}]))
        if not track["points"] and rng.random() < 0.5:
            del track["points"]
    elif kind == 4 and point:
        past_end = doc["scans"] + 1 if type(doc["scans"]) is int else 6
        point["t"] = rng.choice(_ODD_VALUES + (past_end, 10**30))
    elif kind == 5 and point:
        point["x"] = rng.choice(_ODD_VALUES)
    elif kind == 6 and point and type(point.get("x")) is list and point["x"]:
        numbers = [v for v in _ODD_VALUES if type(v) in (int, float)]
        pool = numbers if rng.random() < 0.8 else _ODD_VALUES
        point["x"][rng.randrange(len(point["x"]))] = rng.choice(pool)
    elif kind == 7 and point and type(point.get("x")) is list:
        point["x"] = point["x"] + [0.5] if rng.random() < 0.5 else point["x"][1:]
    elif kind == 8 and point:
        # a duplicate scan index, at times with a bad state, then a fractional one
        track["points"] += [{"t": point.get("t"), "x": rng.choice((point.get("x"), ["1"]))},
                            {"t": 1.5, "x": point.get("x")}]
    elif kind == 9 and point:
        point.pop(rng.choice(("t", "x")), None)
    elif kind == 10:
        tracks.insert(rng.randint(0, len(tracks)), rng.choice((5, [], None)))
    elif kind == 11:
        doc["scans"] = 0
    elif kind == 12 and track:
        tracks.append(dict(track))  # a duplicate id, or a second implicit label


def _decode_outcome(decode, doc):
    try:
        return decode(doc)
    except (ParseError, ValidationError, BadParametersError) as exc:
        return type(exc), str(exc)


def test_decoder_matches_the_track_by_track_decoder(tmp_path):
    # seeded documents with one to three broken rules each: the columnar
    # decoder raises what the earlier decode path raised, in the same
    # order, and decodes every valid document to the same columns
    rng = random.Random(18)
    path = tmp_path / "set.json"
    kinds = Counter()
    for _ in range(2000):
        doc = _valid_doc(rng)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            _mutate(rng, doc)
        path.write_text(json.dumps(doc))
        reread = json.loads(path.read_text())  # NaN, Infinity and 10**400 as a file holds them
        want = _decode_outcome(legacy_track_set_from_obj, reread)
        got = _decode_outcome(load_track_set, path)
        if isinstance(want, tuple) and isinstance(want[0], type):
            kinds[want[0].__name__] += 1
            if want[0] is BadParametersError:
                # the file decoder reports a count below 1 as a validation error
                want = ValidationError, want[1]
            assert got == want, doc
            continue
        labels, states, exists = want
        assert got.labels == labels
        assert np.array_equal(got.states.view(np.uint64), states.view(np.uint64))
        assert np.array_equal(got.exists, exists)
        kinds["valid"] += 1
    assert set(kinds) == {"valid", "ParseError", "BadParametersError", "EmptyTrackError",
                          "ScanOutOfRangeError", "DimensionMismatchError",
                          "NonFiniteCoordinateError"}, kinds
    assert min(kinds.values()) >= 20, kinds


@pytest.mark.parametrize(
    "tracks, error",
    [
        # a validation error in track 1, a parse error in track 2
        ([{"id": "a", "points": [{"t": 9, "x": [0.0]}]}, {"id": "b", "points": 5}],
         "track b: points must be a list, got 5"),
        # a duplicate scan index, then a fractional one
        ([{"id": "a", "points": [{"t": 1, "x": [0.0]}, {"t": 1, "x": [1.0]},
                                 {"t": 1.5, "x": [1.0]}]}],
         "track a: duplicate scan index 1"),
        # the state of the duplicate point is checked before its scan index
        ([{"id": "a", "points": [{"t": 1, "x": [0.0]}, {"t": 1, "x": [True]}]}],
         "track a: state at scan 1 must be a list of numbers"),
        # a bad coordinate before a track that is not an object
        ([{"id": "a", "points": [{"t": 1, "x": ["0"]}]}, 5],
         "track a: state at scan 1 must be a list of numbers"),
        # an id missing next to an explicit T2
        ([{"id": "T2", "points": []}, {"points": []}], "duplicate track id T2"),
    ],
    ids=["parse-after-validation", "duplicate-then-fractional", "duplicate-bad-state",
         "bad-state-then-bad-track", "implicit-T2"],
)
def test_every_parse_error_comes_first_in_file_order(tmp_path, tracks, error):
    from trackmetric.errors import ParseError

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scans": 0, "state_dim": 1, "tracks": tracks}))
    with pytest.raises(ParseError) as exc:
        load_track_set(path)
    assert str(exc.value) == error


def test_a_loaded_set_builds_its_tracks_on_first_read(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"scans": 3, "state_dim": 1, "tracks": [
        {"id": "a", "points": [{"t": 3, "x": [2]}, {"t": 1, "x": [0.5]}]}, {"points": [
            {"t": 2, "x": [1e300]}]}]}))
    ts = load_track_set(path)
    assert ts._tracks is None and len(ts) == 2 and ts.track_label(2) == "T2"
    # points in scan order, not file order
    assert [(trk.label, list(trk.points.items())) for trk in ts.tracks] == [
        ("a", [(1, (0.5,)), (3, (2.0,))]), ("T2", [(2, (1e300,))])]
    assert ts == TrackSet(3, 1, (Track({3: [2], 1: [0.5]}, "a"), Track({2: 1e300}, "T2")))


def test_scoring_builds_no_track(tmp_path, capsys, monkeypatch):
    truth, est = write_scenario(tmp_path, FigureId.FIG13)
    built = []
    post_init = Track.__post_init__
    monkeypatch.setattr(Track, "__post_init__", lambda trk: built.append(post_init(trk)))
    code, out, _ = run(capsys, "compute", str(truth), str(est), "--metric", "all",
                       "--output", "json", "--report-assignment")
    assert code == 0 and json.loads(out)["metrics"]["ospamt"]["assignment"]
    assert built == []


# ---------------------------------------------------------------- compute


def test_scenario_then_compute_fig5(tmp_path, capsys):
    truth = tmp_path / "t.json"
    est = tmp_path / "e.json"
    code, out, _ = run(capsys, "scenario", "fig5", "--truth", str(truth), "--est", str(est))
    assert code == 0
    assert truth.exists() and est.exists()
    code, out, _ = run(
        capsys, "compute", str(truth), str(est), "--metric", "ospamt", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    want = golden("06_fig5_fig6_and_split", "fig5")
    assert doc["metrics"]["ospamt"]["total"] == pytest.approx(want, rel=1e-9)


def test_compute_identical_files_zero(tmp_path, capsys):
    truth, _ = write_scenario(tmp_path, FigureId.FIG1A)
    code, out, _ = run(
        capsys, "compute", str(truth), str(truth), "--metric", "all", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    for metric in ("ospa", "ospat", "ospamt"):
        assert doc["metrics"][metric]["total"] == pytest.approx(0.0, abs=1e-12)


def test_compute_all_fig9a_at_t1(tmp_path, capsys):
    truth, est = write_scenario(tmp_path, FigureId.FIG9A)
    code, out, _ = run(
        capsys, "compute", str(truth), str(est), "--metric", "all", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    for m in ("ospa", "ospat", "ospamt"):
        want = golden("03_table1_fig9", f"fig9a {m}")
        assert doc["metrics"][m]["per_time"][0]["total"] == pytest.approx(want, rel=1e-9)


def test_compute_empty_truth_set(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"scans": 5, "state_dim": 1, "tracks": []}))
    _, est = write_scenario(tmp_path, FigureId.FIG1A)
    code, out, _ = run(
        capsys, "compute", str(empty), str(est), "--metric", "all", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["ospamt"]["total"] == pytest.approx(80.0, rel=1e-9)
    assert doc["metrics"]["ospa"]["per_time"][0]["total"] == pytest.approx(80.0)


def test_compute_dimension_mismatch_exit_3(tmp_path, capsys):
    truth, _ = write_scenario(tmp_path, FigureId.FIG1A)
    other = tmp_path / "dim2.json"
    save_track_set(
        TrackSet(5, 2, (Track({1: (0.0, 0.0)}),)), other
    )
    code, _, err = run(capsys, "compute", str(truth), str(other))
    assert code == 3
    assert "dimension" in err.lower()


@pytest.mark.parametrize("digits", ["1" + "0" * 400, "-1" + "0" * 400, "1e400"],
                         ids=["integer", "negative-integer", "float"])
def test_compute_coordinate_beyond_float_range_exit_3(tmp_path, capsys, digits):
    # a 400-digit integer coordinate crashed with OverflowError and exit 1
    bad = tmp_path / "huge.json"
    bad.write_text('{"scans": 2, "state_dim": 1, "tracks": [{"id": "h", "points": '
                   '[{"t": 1, "x": [0.0]}, {"t": 2, "x": [%s]}]}]}' % digits)
    code, _, err = run(capsys, "compute", str(bad), str(bad))
    assert code == 3
    assert err == "validation error: track h at scan 2 has a non-finite coordinate\n"


@pytest.mark.parametrize("field, value, message", [
    ("scans", 0, "scans must be >= 1, got 0"),
    ("state_dim", 0, "state_dim must be >= 1, got 0"),
    # beyond numpy's index range, so no array of it is ever allocated
    ("scans", 10**21, f"cannot hold the states of 1 track(s) over {10**21} scans in 1 dimensions"),
    # the 1-D point's own error comes before the arrays are sized
    ("state_dim", 10**21, f"track a at scan 1 has dimension 1, expected {10**21}"),
], ids=["zero-scans", "zero-state_dim", "scans-beyond-index-range",
        "state_dim-beyond-index-range"])
def test_compute_count_out_of_range_exit_3(tmp_path, capsys, field, value, message):
    # a count below 1 exited 4 as a configuration error, and a count beyond
    # the index range crashed with ValueError and exit 1
    doc = {"scans": 2, "state_dim": 1, "tracks": [{"id": "a", "points": [{"t": 1, "x": [0.0]}]}]}
    bad = tmp_path / "count.json"
    bad.write_text(json.dumps({**doc, field: value}))
    code, _, err = run(capsys, "compute", str(bad), str(bad))
    assert (code, err) == (3, f"validation error: {message}\n")


def test_compute_state_dim_beyond_index_range_exit_3(tmp_path, capsys):
    # crashed with ValueError and exit 1 from the coordinates' reshape
    bad = tmp_path / "dim.json"
    bad.write_text(json.dumps({"scans": 2, "state_dim": 10**21, "tracks": []}))
    code, _, err = run(capsys, "compute", str(bad), str(bad))
    assert (code, err) == (3, "validation error: cannot hold the states of 0 track(s) over 2 "
                              f"scans in {10**21} dimensions\n")


def test_compute_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    truth, _ = write_scenario(tmp_path, FigureId.FIG1A)
    code, _, err = run(capsys, "compute", str(bad), str(truth))
    assert code == 2


def test_compute_validation_error_names_track_and_scan(tmp_path, capsys):
    bad = tmp_path / "invalid.json"
    bad.write_text(
        json.dumps(
            {
                "scans": 2,
                "state_dim": 1,
                "tracks": [{"id": "rogue", "points": [{"t": 9, "x": [0.0]}]}],
            }
        )
    )
    truth, _ = write_scenario(tmp_path, FigureId.FIG1A)
    code, _, err = run(capsys, "compute", str(bad), str(bad))
    assert code == 3
    assert "rogue" in err and "9" in err


def test_csv_structure_and_partition(tmp_path, capsys):
    truth, est = write_scenario(tmp_path, FigureId.FIG1B)
    code, out, _ = run(
        capsys, "compute", str(truth), str(est), "--metric", "all", "--output", "csv",
        "--p", "2",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["t", "metric", "total", "loc", "card", "n_t"]
    by_metric = {}
    for row in rows:
        by_metric.setdefault(row["metric"], []).append(row)
    for metric, mrows in by_metric.items():
        assert len(mrows) == 5  # exactly T data rows
        for row in mrows:
            total, loc, card = (float(row[k]) for k in ("total", "loc", "card"))
            assert total**2 == pytest.approx(loc**2 + card**2, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "argv, params",
    [
        ((), MetricParams()),
        (("--p", "2.5", "--c", "10", "--delta", "1", "--alpha", "1"),
         MetricParams(p=2.5, c=10.0, delta=1.0, alpha=1.0)),
        (("--p", "3", "--p-prime", "1.5", "--scale", "2,0.5"),
         MetricParams(p=3.0, p_prime=1.5, scale=(2.0, 0.5))),
    ],
)
def test_json_values_are_the_library_reports(tmp_path, capsys, argv, params):
    for seed in range(6):
        truth, est = tmp_path / "truth.json", tmp_path / "est.json"
        for path, ts in zip((truth, est), random_scenario(
            seed, n_truth=3, scans=8, miss_rate=0.2, false_rate=0.4, break_rate=0.4, noise=4.0
        )):
            save_track_set(ts, path)
        code, out, _ = run(
            capsys, "compute", str(truth), str(est), "--metric", "all", "--output", "json", *argv
        )
        assert code == 0
        doc = json.loads(out)["metrics"]
        reports = library_reports(load_track_set(truth), load_track_set(est), params)
        for name, report in reports.items():
            got = doc[name]
            assert (got["total"], got["loc"], got["card"]) == (report.total, report.loc, report.card)
            assert [(r["total"], r["loc"], r["card"], r["n_t"]) for r in got["per_time"]] == list(
                zip(report.per_time, report.loc_t, report.card_t, report.n_t)
            )


def test_unknown_figure_exit_4(tmp_path, capsys):
    code, _, err = run(
        capsys, "scenario", "fig99",
        "--truth", str(tmp_path / "t.json"), "--est", str(tmp_path / "e.json"),
    )
    assert code == 4


def test_bad_scenario_ordering_exit_4(tmp_path, capsys):
    code, _, err = run(
        capsys, "scenario", "fig9b", "--epsilon", "6", "--eta", "5",
        "--truth", str(tmp_path / "t.json"), "--est", str(tmp_path / "e.json"),
    )
    assert code == 4


def test_fig13_triangle_demo_via_cli(tmp_path, capsys):
    t, e, a = (tmp_path / n for n in ("t.json", "e.json", "a.json"))
    code, _, _ = run(
        capsys, "scenario", "fig13",
        "--truth", str(t), "--est", str(e), "--alt", str(a),
    )
    assert code == 0

    def ospat_at4(x, y):
        code, out, _ = run(
            capsys, "compute", str(x), str(y), "--metric", "ospat", "--output", "json"
        )
        assert code == 0
        return json.loads(out)["metrics"]["ospat"]["per_time"][3]["total"]

    d_te = ospat_at4(t, e)
    d_ea = ospat_at4(e, a)
    d_ta = ospat_at4(t, a)
    assert d_ta > d_te + d_ea  # the documented triangle violation


def test_fig13_requires_alt_path(tmp_path, capsys):
    code, _, err = run(
        capsys, "scenario", "fig13",
        "--truth", str(tmp_path / "t.json"), "--est", str(tmp_path / "e.json"),
    )
    assert code == 4
    assert "--alt" in err
    assert not (tmp_path / "t.json").exists() and not (tmp_path / "e.json").exists()


def test_split_fig5(tmp_path, capsys):
    truth, est = write_scenario(tmp_path, FigureId.FIG5)
    out_path = tmp_path / "split.json"
    code, out, _ = run(capsys, "split", str(truth), str(est), "--out", str(out_path))
    assert code == 0
    assert "split" in out
    new_est = load_track_set(out_path)
    assert len(new_est.tracks) == 2
    code, out, _ = run(
        capsys, "compute", str(truth), str(out_path), "--output", "json"
    )
    want = golden("06_fig5_fig6_and_split", "fig5 after split")
    assert json.loads(out)["metrics"]["ospamt"]["total"] == pytest.approx(want, rel=1e-9)


def test_split_noop(tmp_path, capsys):
    truth, est = write_scenario(tmp_path, FigureId.FIG8)
    out_path = tmp_path / "split.json"
    code, out, _ = run(capsys, "split", str(truth), str(est), "--out", str(out_path))
    assert code == 0
    assert "already one-to-one" in out
    assert same_track_sets(load_track_set(out_path), load_track_set(est))


def test_split_fragment_labels_skip_taken_ones(tmp_path, capsys):
    # e1's second fragment would be e1/2, which another estimate holds: the
    # file written used to hold two tracks e1/2, and compute rejected it
    truth, est, out_path = (tmp_path / name for name in ("t.json", "e.json", "o.json"))
    save_track_set(TrackSet(5, 1, (
        Track(dict.fromkeys((1, 2, 3), 0.0), "t1"), Track(dict.fromkeys((4, 5), 0.0), "t2"),
    )), truth)
    save_track_set(TrackSet(5, 1, (
        Track(dict.fromkeys(range(1, 6), 0.0), "e1"), Track({1: 0.0}, "e1/2"),
    )), est)
    code, out, _ = run(capsys, "split", str(truth), str(est), "--out", str(out_path))
    assert code == 0
    assert out.startswith("split e1 into 2 fragments (cut at scans 4)\n")
    assert [(trk.label, list(trk.points)) for trk in load_track_set(out_path).tracks] == [
        ("e1/1", [1, 2, 3]), ("e1/3", [4, 5]), ("e1/2", [1]),
    ]
    assert run(capsys, "compute", str(truth), str(out_path))[0] == 0


def test_split_no_convergence_exit_5(tmp_path, capsys):
    truth = tmp_path / "t.json"
    est = tmp_path / "e.json"
    save_track_set(
        TrackSet(
            2, 1,
            (Track({1: 1.0, 2: 1.0}, "A"), Track({1: 2.0, 2: 2.0}, "B")),
        ),
        truth,
    )
    save_track_set(
        TrackSet(
            2, 1,
            (Track({1: 0.0, 2: 0.0}, "E1"), Track({1: 50.0, 2: 50.0}, "E2")),
        ),
        est,
    )
    code, _, err = run(
        capsys, "split", str(truth), str(est), "--out", str(tmp_path / "o.json"),
        "--mode", "greedy",
    )
    assert code == 5


def test_env_mode_override(tmp_path, capsys):
    # --mode is the only way to choose the search; twelve tracks exceed the
    # exact search's cap, and auto falls back to greedy
    tracks = tuple(Track({1: float(i)}, f"t{i}") for i in range(6))
    big = TrackSet(1, 1, tracks)
    truth = tmp_path / "t.json"
    save_track_set(big, truth)
    code, _, err = run(capsys, "compute", str(truth), str(truth), "--mode", "exact")
    assert code == 4
    assert "cap" in err
    code, _, _ = run(capsys, "compute", str(truth), str(truth), "--mode", "auto")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "{truth}", "{est}", "--scale", "1,,2"],
        ["compute", "{truth}", "{est}", "--scale", "abc"],
        ["compute", "{truth}", "{est}", "--scale", ""],
        ["split", "{truth}", "{est}", "--out", "{out}", "--scale", "abc"],
        ["scenario", "random", "--seed", "1", "--scans", "0"],
        ["scenario", "random", "--seed", "1", "--n-truth", "-1"],
        ["scenario", "random", "--seed", "1", "--noise", "-1"],
        ["scenario", "random", "--seed", "1", "--noise", "inf"],
        ["scenario", "random", "--seed", "1", "--noise", "1e308"],
    ],
    ids=["scale-empty-field", "scale-word", "scale-empty", "split-scale-word",
         "scans-zero", "n-truth-negative", "noise-negative", "noise-inf",
         "noise-overflow"],
)
def test_bad_cli_values_are_config_errors(tmp_path, capsys, argv):
    # a malformed --scale raised a bare ValueError, --scans 0 crashed inside
    # the generator, negative truth counts or noise were read as zero, and an
    # infinite or overflowing noise was blamed on a generated track
    truth, est = write_scenario(tmp_path, FigureId.FIG1A)
    paths = {"truth": truth, "est": est, "out": tmp_path / "out.json"}
    if argv[0] == "scenario":
        argv = argv + ["--truth", "{out}", "--est", "{out}"]
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 4 and out == ""
    assert err.startswith("configuration error")
    if "--noise" in argv:
        assert "noise" in err
    assert not paths["out"].exists()


def test_scenario_random_round_trips(tmp_path, capsys):
    truth = tmp_path / "t.json"
    est = tmp_path / "e.json"
    code, _, _ = run(
        capsys, "scenario", "random", "--seed", "5", "--n-truth", "3",
        "--scans", "6", "--noise", "0.3", "--miss-rate", "0.2",
        "--truth", str(truth), "--est", str(est),
    )
    assert code == 0
    code, out, _ = run(capsys, "compute", str(truth), str(est), "--output", "json")
    assert code == 0
    assert json.loads(out)["metrics"]["ospamt"]["total"] >= 0.0


def test_scenario_random_requires_seed(tmp_path, capsys):
    code, _, err = run(
        capsys, "scenario", "random",
        "--truth", str(tmp_path / "t.json"), "--est", str(tmp_path / "e.json"),
    )
    assert code == 4


def test_per_time_table_and_assignment(tmp_path, capsys):
    truth, est = write_scenario(tmp_path, FigureId.FIG1A)
    code, out, _ = run(
        capsys, "compute", str(truth), str(est), "--metric", "ospamt",
        "--per-time", "--report-assignment",
    )
    assert code == 0
    assert "t1<-(e1, e2)" in out
    assert out.count("ospamt") >= 6  # summary plus five per-scan rows


def test_at_time_flag(tmp_path, capsys):
    truth, est = write_scenario(tmp_path, FigureId.FIG1A)
    code, out, _ = run(
        capsys, "compute", str(truth), str(est), "--output", "csv", "--at-time", "4"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and rows[0]["t"] == "4"
    code, _, err = run(
        capsys, "compute", str(truth), str(est), "--at-time", "9"
    )
    assert code == 4


def test_at_time_restricts_json_per_time(tmp_path, capsys):
    # --at-time keeps one per-scan row in JSON, as it does in CSV and table
    truth, est = write_scenario(tmp_path, FigureId.FIG1A)
    argv = ("compute", str(truth), str(est), "--metric", "all", "--output", "json")
    _, whole, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--at-time", "2")
    assert code == 0
    whole, doc = json.loads(whole)["metrics"], json.loads(out)["metrics"]
    for name, metric in doc.items():
        assert metric["per_time"] == [whole[name]["per_time"][1]]
        assert {k: v for k, v in metric.items() if k != "per_time"} == {
            k: v for k, v in whole[name].items() if k != "per_time"
        }


def test_global_distance_is_the_pairing_cost(tmp_path, capsys):
    # fig10a: the one pairing mismatches at each of the 4 scans
    truth, est = write_scenario(tmp_path, FigureId.FIG10A)
    code, out, _ = run(capsys, "compute", str(truth), str(est), "--metric", "ospat",
                       "--output", "json")
    assert code == 0
    assert json.loads(out)["metrics"]["ospat"]["global_distance"] == 4 * MetricParams().c


def test_scale_length_mismatch_is_config_error(tmp_path, capsys):
    # Two factors for 1-D states: a configuration error whether or not any
    # pair of tracks coexists.
    truth = tmp_path / "t.json"
    save_track_set(TrackSet(4, 1, (Track({1: 0.0, 2: 0.0}, "t1"),)), truth)
    for scans in ({3: 1.0, 4: 1.0}, {2: 1.0, 3: 1.0}):
        est = tmp_path / "e.json"
        save_track_set(TrackSet(4, 1, (Track(scans, "e1"),)), est)
        code, out, err = run(
            capsys, "compute", str(truth), str(est), "--metric", "all", "--scale", "1,1"
        )
        assert code == 4 and out == ""
        assert "scale" in err


def test_at_time_checked_before_any_metric(tmp_path, capsys, monkeypatch):
    import trackmetric.cli as cli

    called = []

    def refuse(name):
        def evaluate(*args):
            called.append(name)
            raise AssertionError(f"{name} ran before --at-time was checked")

        return evaluate

    for name in list(cli._EVALUATORS):
        monkeypatch.setitem(cli._EVALUATORS, name, refuse(name))
    truth, est = write_scenario(tmp_path, FigureId.FIG1A)
    code, _, err = run(
        capsys, "compute", str(truth), str(est), "--metric", "all", "--at-time", "9"
    )
    assert code == 4 and "at-time" in err
    assert called == []


def test_ospat_reorder_runs_once_per_compute(tmp_path, capsys, monkeypatch):
    import trackmetric.ospat as ospat

    calls = []
    original = ospat.ospat_reorder

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ospat, "ospat_reorder", counting)
    truth, est = write_scenario(tmp_path, FigureId.FIG12)
    code, _, _ = run(capsys, "compute", str(truth), str(est), "--metric", "all")
    assert code == 0
    assert len(calls) == 1


def count_calls(monkeypatch, name):
    """List that grows by one on every call of ``core.<name>``, through
    every module binding of it."""
    import importlib

    import trackmetric.core as core

    calls = []
    original = getattr(core, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name in ("core", "cli", "ospa", "ospat", "ospamt"):
        module = importlib.import_module(f"trackmetric.{module_name}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("extra, builds", [((), 1), (("--p-prime", "2"), 1)])
def test_distance_tensor_built_once_per_norm_order(tmp_path, capsys, monkeypatch, extra, builds):
    # one gather of the coexisting entries feeds all three metrics; OSPAT's
    # reordering reads Euclidean distances of the same gathered states
    calls = count_calls(monkeypatch, "scan_distances")
    truth, est = write_scenario(tmp_path, FigureId.FIG12)
    code, _, _ = run(capsys, "compute", str(truth), str(est), "--metric", "all", *extra)
    assert code == 0
    assert len(calls) == builds


@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize("extra, calls_wanted", [((), 2), (("--p", "2"), 1)])
def test_pair_distances_come_from_the_call_tensors_only(
    tmp_path, capsys, monkeypatch, mode, extra, calls_wanted
):
    # every track-pair distance of a compute call is read from its one
    # gather, at p' and, unless p' = 2, at order 2 for OSPAT's reordering:
    # OSPAMT's scoring and OSPAT's global cost compute none of their own
    calls = count_calls(monkeypatch, "base_distance")
    truth, est = tmp_path / "truth.json", tmp_path / "est.json"
    sets = random_scenario(2, n_truth=4, scans=8, miss_rate=0.2, false_rate=0.3,
                           break_rate=0.3, noise=3.0)
    assert min(map(len, sets)) >= 3 and sum(map(len, sets)) <= 10  # exact runs
    for path, ts in zip((truth, est), sets):
        save_track_set(ts, path)
    code, out, _ = run(capsys, "compute", str(truth), str(est), "--metric", "all",
                       "--mode", mode, "--report-assignment", *extra)
    assert code == 0 and "<-(" in out  # OSPAMT scored an assignment
    assert len(calls) == calls_wanted


@pytest.mark.parametrize("extra, walked", [
    (("--output", "csv", "--per-time"), False),
    (("--per-time",), False),
    (("--output", "json"), True),
    (("--report-assignment",), True),
])
def test_matchings_are_walked_only_when_printed(tmp_path, capsys, monkeypatch, extra, walked):
    # the per-scan totals come from one solve; a scan's lexicographic
    # matching is walked only when JSON or --report-assignment prints it
    import importlib

    ospa = importlib.import_module("trackmetric.ospa")  # the package's `ospa` is the function
    walks = []
    original = ospa.lexicographic_matching

    def counting(*args):
        walks.append(1)
        return original(*args)

    monkeypatch.setattr(ospa, "lexicographic_matching", counting)
    truth, est = tmp_path / "truth.json", tmp_path / "est.json"
    for path, ts in zip((truth, est), random_scenario(3, n_truth=6, scans=10, miss_rate=0.2,
                                                      false_rate=0.3, noise=2.0)):
        save_track_set(ts, path)
    code, out, _ = run(capsys, "compute", str(truth), str(est), "--metric", "all", *extra)
    assert code == 0 and out
    # OSPA prints every scan's matching; OSPAT prints only its global pairing
    assert len(walks) == (10 if walked else 0)


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out


def test_selftest_reports_a_failing_row(capsys, monkeypatch):
    from trackmetric.selftest import GOLDEN

    row = GOLDEN["01_example2_closed_forms"]
    wrong = row._replace(want=lambda params: {**row.want(params), "A2": 6.5})
    monkeypatch.setitem(GOLDEN, row.criterion, wrong)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL  example-2 closed forms  [p=1 A2: got 7.0, want 6.5]"
    assert len(lines) == 6 and all(line.startswith("PASS  ") for line in lines[1:])


def test_one_parser_serves_consecutive_calls(tmp_path, capsys):
    # main builds its parser once per process; calls with other subcommands
    # and flags in between print what fresh calls print, and a bad argument
    # still exits 2
    from trackmetric.cli import build_parser

    truth, est = (str(path) for path in write_scenario(tmp_path, FigureId.FIG12))
    out = str(tmp_path / "split.json")
    calls = [
        ["compute", truth, est, "--metric", "all", "--output", "json", "--p", "2", "--c", "30"],
        ["compute", truth, est, "--per-time"],
        ["compute", truth, est, "--metric", "ospa", "--output", "csv", "--at-time", "2"],
        ["compute", truth, est, "--bogus"],
        ["scenario", "fig1a", "--truth", str(tmp_path / "t.json"), "--est", str(tmp_path / "e.json")],
        ["split", truth, est, "--out", out, "--p", "2"],
        ["compute", truth, est, "--metric", "nope"],
        ["compute", truth, est, "--metric", "all", "--report-assignment"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(call(argv))
    build_parser.cache_clear()
    assert [call(argv) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0, 0, 2, 0]
