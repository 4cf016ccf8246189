"""Span tracing for the benchmark's traced passes.

A span is one call of a wrapped function: name, start, end and the span that
was open when it began.  Every span is folded into per-name aggregates (calls,
total time, self time) and into per-edge call counts (parent name, child
name), so ratios are measured where the work happens.  Individual spans are
kept in memory only for the first HOT_CALLS calls of each name; names called
more often than that (FieldElement methods, kernel chunks, oracle calls) are
reported by their aggregates alone.  Spans are written out when the run ends.

Self time is a span's duration minus the durations of its direct children.
The benchmark runs single-threaded with jobs=1, so spans nest strictly and
no work ever waits in a queue: waiting time is zero by construction.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time
from collections import Counter

HOT_CALLS = 10_000


class Aggregate:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Nested-span recorder; ``phase`` tags spans as "run" or "verify"."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.phase = "run"
        self.stack: list[list] = []          # open spans: [name, start, child_time, id]
        self.aggregates: dict[tuple[str, str], Aggregate] = {}
        self.edges: Counter = Counter()      # (phase, parent name, child name) -> calls
        self.counters: Counter = Counter()   # (phase, key) -> summed value
        self.spans: list[tuple] = []         # (id, parent id, phase, name, start, end)
        self._ids = itertools.count(1)

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0, next(self._ids)])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_time, span_id = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        key = (self.phase, name)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = Aggregate()
        agg.calls += 1
        agg.total += duration
        agg.self += duration - child_time
        self.edges[(self.phase, parent[0] if parent else None, name)] += 1
        if agg.calls <= HOT_CALLS:
            self.spans.append((span_id, parent[3] if parent else None,
                               self.phase, name, start, end))

    def count(self, key: str, value: float = 1) -> None:
        self.counters[(self.phase, key)] += value

    def to_json(self) -> dict:
        """Spans and aggregates, for writing out once the run has ended."""
        return {
            "hot_calls": HOT_CALLS,
            "spans": [dict(zip(("id", "parent", "phase", "name", "start", "end"), s))
                      for s in self.spans],
            "aggregates": [
                {"phase": phase, "name": name, "calls": a.calls,
                 "total_s": a.total, "self_s": a.self}
                for (phase, name), a in sorted(self.aggregates.items())
            ],
        }


def wrap(tracer: Tracer, fn, name, *, on_result=None, on_error=None):
    """Wrap ``fn`` so each call is a span.

    ``name`` is a string or a function of the call's arguments (FieldElement
    methods name their span by the field degree).  ``on_result(tracer, args,
    result)`` and ``on_error(tracer, args, exc)`` record layer counters.
    A generator function's work happens while its caller iterates, so it gets
    one span per ``next`` and ``on_result`` sees each yielded item; its calls
    are counted under ``<name>:calls``.
    """
    name_of = name if callable(name) else (lambda *args: name)

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            span_name = name_of(*args)
            tracer.count(f"{span_name}:calls")
            inner = fn(*args, **kwargs)
            while True:
                tracer.enter(span_name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                if on_result is not None:
                    on_result(tracer, args, item)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name_of(*args))
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit()
            if on_error is not None:
                on_error(tracer, args, exc)
            raise
        tracer.exit()
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return wrapper


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, replacement, modules) -> int:
        """Replace ``original`` at every module binding site; returns the count.

        Modules that did ``from .x import f`` hold their own reference to f,
        so patching only the defining module would miss those calls.
        """
        hits = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    hits += 1
        return hits

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)
