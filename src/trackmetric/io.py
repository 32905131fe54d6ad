"""Track-set file format.

A track-set file is a JSON document::

    {"scans": 5, "state_dim": 1,
     "tracks": [{"id": "t1", "points": [{"t": 1, "x": [0.0]}, ...]}, ...]}

A file is decoded straight into the set's arrays, with no ``Track`` per
track.  File order still decides which invalid point is reported, by
the same rules and messages as ``TrackSet``; ``save_track_set`` writes
from the arrays, each track's points in scan order.  ``scans``, ``state_dim``
and every ``t`` must be JSON integers, every ``points`` a list, every ``x``
a list of numbers and every ``id`` a string (a track without one is
labelled ``T<position>``); anything else, a duplicate scan index within one
track or a duplicate track id is a parse error, never coerced.  A count
below 1 or too large to hold the set is a validation error, as every rule
of ``TrackSet`` is.

orjson parses a file about three times as fast as the stdlib ``json``
module.  It accepts strict RFC 8259 JSON only, and on that returns the
stdlib's objects, except that it reads an integer at or above 2^64 or
below -2^63 as a float: in a coordinate the integer's own float, and as a
count or scan index not an integer, so the decode fails.  When orjson
refuses a file, or its decode raises, the stdlib parser reads the file in
text mode and its outcome stands, so ``NaN``, ``Infinity``, ``1e400``, a
lone surrogate or an integer beyond 64 bits is read as before, and every
rejected file gets the stdlib's error.  A file that is not UTF-8 or nests
too deeply for the stdlib parser is a parse error.
Coordinates are serialized with repr precision (up to 17 significant
digits), so a write/read round trip is bit-exact.  A file holds the bytes
of ``json.dumps(doc, indent=2)``, written by ``_indented``, which sends
every scalar through json's C encoder; ``compute``'s JSON output is
written the same way.
"""

from __future__ import annotations

import json
from io import BytesIO, TextIOWrapper
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any

import numpy as np
import orjson

from .core import TrackSet
from .errors import BadParametersError, ParseError, TrackMetricError, ValidationError


#: The types of a coordinate: JSON true is a Python bool, not a number.
_NUMBERS = frozenset((int, float))
_T_X = itemgetter("t", "x")
#: orjson 3.8 nests by recursion with no depth limit: about 52 000 nested
#: objects (160 B of stack each) or 131 000 arrays overflow an 8 MB stack
#: and kill the process.  A file with at most this many ``[`` and ``{``
#: bytes nests at most this deep, under 3 MB of stack; a larger one goes
#: to the stdlib parser alone.
_ORJSON_MAX_OPENERS = 2**14


#: A scalar's JSON text as ``json.dumps`` spells it (ASCII escapes, float
#: repr, NaN and Infinity bare), from the C encoder, which json skips when
#: ``indent`` is set.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class _Json(str):
    """JSON text already written, which ``_indented`` places as it stands."""


def _indented(value, pad: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it after the line
    break and indentation ``pad``: a non-empty dict or list one item per
    line, anything else through ``_encode``."""
    if isinstance(value, _Json):
        return value
    if not isinstance(value, (dict, list)) or not value:
        return _encode(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{_encode(key)}: {_indented(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return "[" + inner + ("," + inner).join([_indented(item, inner) for item in value]) + pad + "]"


def _state_error(label: str, t: int) -> ParseError:
    return ParseError(f"track {label}: state at scan {t} must be a list of numbers")


def _first_bad_state(records: list[tuple[str, dict[int, list]]]) -> ParseError | None:
    """The error of the first point, in file order, with a coordinate that
    is not a number."""
    for label, points in records:
        for t, x in points.items():
            if not _NUMBERS.issuperset(map(type, x)):
                return _state_error(label, t)
    return None


def track_set_from_obj(obj: Any) -> TrackSet:
    """Decode a track set from parsed JSON straight into its arrays: every
    parse error of the document, in file order, comes before the checks of
    ``TrackSet.from_records``, and no ``Track`` is made."""
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
    # every point read so far, by track; its coordinates' types are checked
    # once for the whole file, and before any later parse error is raised
    records: list[tuple[str, dict[int, list]]] = []
    labels: set[str] = set()
    try:
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
            points: dict[int, list] = {}
            records.append((label, points))
            for entry in raw_points:
                try:
                    t, x = _T_X(entry)
                except (KeyError, TypeError) as exc:
                    raise ParseError(f"track {label}: malformed point: {exc}") from exc
                if type(t) is not int:
                    raise ParseError(f"track {label}: scan index must be an integer, got {t!r}")
                if type(x) is not list:
                    raise _state_error(label, t)
                if t in points:
                    # its coordinates are checked before its scan index
                    raise (_first_bad_state([(label, {t: x})])
                           or ParseError(f"track {label}: duplicate scan index {t}"))
                points[t] = x
    except ParseError:
        error = _first_bad_state(records)
        if error is None:
            raise
        raise error from None
    coords = chain.from_iterable(chain.from_iterable(points.values() for _, points in records))
    if not _NUMBERS.issuperset(map(type, coords)):
        raise _first_bad_state(records)
    try:
        return TrackSet.from_records(scans, state_dim, records)
    except BadParametersError as exc:  # a count below 1: the file is at fault
        raise ValidationError(str(exc)) from None


def track_set_to_obj(track_set: TrackSet) -> dict[str, Any]:
    """The document of a set, from its arrays: no ``Track`` is made."""
    return {
        "scans": track_set.scans,
        "state_dim": track_set.state_dim,
        "tracks": [
            {
                "id": label,
                "points": [
                    {"t": t, "x": x}
                    for t, x in zip((np.flatnonzero(row) + 1).tolist(), states[row].tolist())
                ],
            }
            for label, states, row in zip(track_set.labels, track_set.states, track_set.exists)
        ],
    }


def _openers(data: bytes) -> int:
    """The count of ``[`` and ``{`` bytes: a bound on the nesting depth."""
    codes = np.frombuffer(data, np.uint8)
    return int(np.count_nonzero(codes == ord("[")) + np.count_nonzero(codes == ord("{")))


def load_track_set(path: str | Path) -> TrackSet:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if _openers(data) <= _ORJSON_MAX_OPENERS:
        try:
            return track_set_from_obj(orjson.loads(data))
        except (orjson.JSONDecodeError, TrackMetricError, RecursionError):
            pass  # a file orjson refuses, or whose decode fails: the stdlib decides
    # text mode's universal newlines: an error's line, column and offset
    # count a CRLF as one character
    try:
        with TextIOWrapper(BytesIO(data), encoding="utf-8") as fh:
            obj = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} is nested too deeply: {exc}") from exc
    return track_set_from_obj(obj)


def save_track_set(track_set: TrackSet, path: str | Path) -> None:
    """Write a set's document, the bytes of ``json.dumps(doc, indent=2)``
    and a line break, through ``_indented``; a path that cannot be written,
    such as one in a missing directory or a directory itself, is a
    ``TrackMetricError``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_indented(track_set_to_obj(track_set)) + "\n")
    except OSError as exc:
        raise TrackMetricError(f"cannot write {path}: {exc}") from exc
