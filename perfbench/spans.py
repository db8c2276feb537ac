"""In-memory spans recorded around the package's entry points.

A `Tracer` replaces module functions and class methods with wrappers that
record one `Span` per call (name, start, end, parent span, op id) and puts
the originals back in `restore`.  The package itself is never edited: the
wrappers live on the attributes that callers look up at call time, so an
untraced run, before `install` or after `restore`, runs the original code.

Self time is a span's duration minus the part of it that its child spans
cover; `self_times` computes it for every span at once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped callables; one tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Wrap `owner.attr` (a module function, a plain method or a
        staticmethod) so that each call records a span called `name`.

        `info(args, kwargs, result)`, if given, returns a dict stored on the
        span, for counts such as boxes per call.
        """
        raw = owner.__dict__[attr]
        func = raw.__func__ if isinstance(raw, staticmethod) else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        self._saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod)
                else wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Map span id to its duration minus its children's coverage."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.duration - covered(span.start, span.end, children[span.id])
            for span in spans}


def inside(spans, name: str) -> set[int]:
    """Ids of the spans named `name` and of every span below one."""
    # a span is recorded when it starts, so its parent always precedes it
    ids: set[int] = set()
    for span in spans:
        if span.name == name or span.parent in ids:
            ids.add(span.id)
    return ids
