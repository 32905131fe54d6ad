"""Track-set file format.

A track-set file is a JSON document::

    {"scans": 5, "state_dim": 1,
     "tracks": [{"id": "t1", "points": [{"t": 1, "x": [0.0]}, ...]}, ...]}

Points may arrive unsorted and are sorted on load.  ``scans``,
``state_dim`` and every ``t`` must be JSON integers, every ``points`` a list,
every ``x`` a list of numbers and every ``id`` a string (a track without
one is labelled ``T<position>``); anything else, a duplicate scan index
within one track or a duplicate track id is a parse error, never coerced.
Coordinates are serialized with repr precision (up to 17 significant
digits), so a write/read round trip is bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .core import Track, TrackSet, validate
from .errors import ParseError


def _is_number(value: Any) -> bool:
    return type(value) is float or type(value) is int


def track_set_from_obj(obj: Any) -> TrackSet:
    """Decode and validate a track set from parsed JSON."""
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    try:
        scans, state_dim, raw_tracks = obj["scans"], obj["state_dim"], obj["tracks"]
    except KeyError as exc:
        raise ParseError(f"missing top-level field: {exc}") from exc
    # JSON true is a Python bool and 1.0 a float: neither is a count or an index
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
            if type(x) is not list or not all(map(_is_number, x)):
                raise ParseError(f"track {label}: state at scan {t} must be a list of numbers")
            if t in points:
                raise ParseError(f"track {label}: duplicate scan index {t}")
            points[t] = x  # Track makes it a tuple of floats
        tracks.append(Track(points, label=label))
    return validate(TrackSet(scans, state_dim, tuple(tracks)))


def track_set_to_obj(track_set: TrackSet) -> dict[str, Any]:
    return {
        "scans": track_set.scans,
        "state_dim": track_set.state_dim,
        "tracks": [
            {
                "id": track_set.track_label(idx),
                "points": [
                    {"t": t, "x": list(x)} for t, x in sorted(trk.points.items())
                ],
            }
            for idx, trk in enumerate(track_set.tracks, start=1)
        ],
    }


def load_track_set(path: str | Path) -> TrackSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return track_set_from_obj(obj)


def save_track_set(track_set: TrackSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(track_set_to_obj(track_set), fh, indent=2)
        fh.write("\n")
