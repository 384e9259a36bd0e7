"""In-memory spans around the benchmark's calls into fairdual's layers.

A span records (id, name, start, end, parent id, operation id, error). Calls
that happen too often for one span each (the per-pair criterion check) are
aggregated instead: one (parent id, name) entry holding a call count and
total time. A layer's self time is its span duration minus the time of its
child spans and aggregated children.

Inner layers are reached through shims installed on the names one fairdual
module imports from another (`fairdual.shares.maximize`,
`fairdual.search.criterion_eval`, `fairdual.leveled.require_leveled`). The
shims exist only while `Tracer.shims` is active and are removed afterwards;
a name a later version no longer imports is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, metric name, recorded as spans or aggregated)
SHIMS = (
    ("fairdual.shares", "maximize", "exactlp.maximize", "span"),
    ("fairdual.search", "criterion_eval", "criteria.criterion_eval", "aggregate"),
    ("fairdual.leveled", "require_leveled", "leveled.require_leveled", "span"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op, error)
        self.aggregates = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.absent = set()  # shim metric names whose target no longer exists
        self.op = None
        self._stack = []  # ids of the open spans, innermost last
        self._started = 0

    def call(self, name, fn, *args, **kwargs):
        span_id = self._started
        self._started += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        error = None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op, error))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def aggregated(self, name, fn):
        stack, aggregates = self._stack, self.aggregates

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = aggregates[(stack[-1] if stack else None, name)]
                entry[0] += 1
                entry[1] += perf_counter() - start

        return counted

    @contextlib.contextmanager
    def shims(self):
        """Install the inner-layer shims for the duration of the block."""
        installed = []
        try:
            for module_name, attr, name, mode in SHIMS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.add(name)
                    continue
                shim = self.wrap(name, original) if mode == "span" else self.aggregated(name, original)
                setattr(module, attr, shim)
                installed.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)

    def totals(self) -> dict:
        """Per name: calls, failed, total seconds and self seconds."""
        child = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (parent, _), (_, seconds) in self.aggregates.items():
            if parent is not None:
                child[parent] += seconds
        out = defaultdict(lambda: {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
        for span_id, name, start, end, _, _, error in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["failed"] += error is not None
            entry["s"] += end - start
            entry["self_s"] += end - start - child[span_id]
        for (_, name), (calls, seconds) in self.aggregates.items():
            entry = out[name]
            entry["calls"] += calls
            entry["s"] += seconds
            entry["self_s"] += seconds
        return dict(out)

    def calls_by_parent_name(self, name: str) -> Counter:
        """Aggregated calls of `name`, keyed by the name of the enclosing span."""
        names = {span[0]: span[1] for span in self.spans}
        out = Counter()
        for (parent, agg_name), (calls, _) in self.aggregates.items():
            if agg_name == name:
                out[names.get(parent)] += calls
        return out

    def write(self, path) -> None:
        spans = [
            dict(zip(("id", "name", "start", "end", "parent", "op", "error"), span))
            for span in sorted(self.spans)
        ]
        aggregates = [
            {"parent": parent, "name": name, "calls": calls, "s": seconds}
            for (parent, name), (calls, seconds) in self.aggregates.items()
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "aggregates": aggregates, "absent": sorted(self.absent)}, fh)
