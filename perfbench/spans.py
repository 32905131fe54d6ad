"""In-memory spans and counters recorded around calls into trackmetric.

The tracer wraps public functions at the module attributes their callers
actually look up (``cli.ospamt_metric``, ``ospa.solve_one_to_one``, ...), so
``src/`` is never edited.  A span records name, start, end and parent; self
time is a span's length minus the time its direct children cover.
Functions too hot to time get a count-only wrapper.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

#: (module, attribute, span name) for every timed layer boundary.
SPANS = (
    ("trackmetric.cli", "load_track_set", "io.load_track_set"),
    ("trackmetric.io", "validate", "io.validate"),
    ("trackmetric.cli", "ospamt_metric", "ospamt.ospamt_metric"),
    ("trackmetric.cli", "ospa_per_scan", "ospa.ospa_per_scan"),
    ("trackmetric.cli", "ospat_per_scan", "ospat.ospat_per_scan"),
    ("trackmetric.cli", "ospat_global", "ospat.ospat_global"),
    ("trackmetric.ospamt", "quasi_ospamt", "ospamt.quasi_ospamt"),
    ("trackmetric.ospamt", "cost_matrix", "ospamt.cost_matrix"),
    ("trackmetric.ospamt", "greedy_many_to_one", "assign.greedy_many_to_one"),
    ("trackmetric.ospamt", "directional_terms", "ospamt.directional_terms"),
    ("trackmetric.ospat", "ospat_reorder", "ospat.ospat_reorder"),
    ("trackmetric.ospa", "solve_one_to_one", "assign.solve_one_to_one"),
    ("trackmetric.ospat", "solve_one_to_one", "assign.solve_one_to_one"),
)

#: (module, attribute, counter name) for calls counted but not timed.
COUNTERS = (
    ("trackmetric.assign", "linear_sum_assignment", "assign.lsa"),
    ("trackmetric.core", "base_distance", "core.base_distance"),
    ("trackmetric.ospat", "base_distance", "core.base_distance"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, perf_counter(), 0.0, parent])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return wrapper

    def counter(self, name: str, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, float]:
        """Totals over all spans: ``<name>.s``, ``<name>.self_s``,
        ``<name>.calls`` and ``<counter>.calls``."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[idx]
            out[f"{name}.calls"] += 1
        for name, cell in self.counts.items():
            out[f"{name}.calls"] += cell[0]
        return dict(out)


def install(tracer: Tracer) -> tuple[callable, list[str]]:
    """Wrap every listed boundary; return an undo function and the
    boundaries this version of the library does not have."""
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def patch(owner, attr: str, wrap) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    for module_name, attr, name in SPANS:
        patch(importlib.import_module(module_name), attr, functools.partial(tracer.span, name))
    for module_name, attr, name in COUNTERS:
        patch(importlib.import_module(module_name), attr, functools.partial(tracer.counter, name))
    patch(importlib.import_module("trackmetric.core").MetricParams, "__post_init__",
          functools.partial(tracer.counter, "core.params_built"))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo, missing
