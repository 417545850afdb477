"""An in-memory span recorder that traces the program from outside.

``SpanRecorder.install`` wraps public entry points of the measured layers
(class attributes, restored by ``uninstall``).  Each call records a span
``(name, start, end, parent, op)``; ``self_times`` then charges every
span its duration minus the part of it its children cover.  Nothing in the
measured program changes: with no recorder installed, the classes are
untouched.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping children
    are counted once, so self times are never negative and the self times
    of one tree add up to its root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


class SpanRecorder:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[type, str, object]] = []

    def reset(self) -> None:
        """Drop what was recorded so far (the end of warm-up)."""
        self.spans.clear()
        self.counters.clear()

    def add_child(self, parent: int, name: str, offset: float, duration: float) -> None:
        """A span measured elsewhere (store time) placed inside ``parent``."""
        start = self.spans[parent].start + offset
        self.spans.append(Span(name, start, start + duration, parent, self.spans[parent].op))

    def wrap(self, owner: type, attribute: str, name: str | Callable[[tuple], str],
             after: Callable[["SpanRecorder", int, tuple, object], None] | None = None) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``name`` may be a function of the call's arguments; ``after`` sees the
        finished span's index, the arguments and the result.
        """
        original = owner.__dict__[attribute]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(recorder.spans)
            recorder.spans.append(None)
            parent = recorder._stack[-1] if recorder._stack else -1
            recorder._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                label = name(args) if callable(name) else name
                recorder.spans[index] = Span(label, start, end, parent, recorder.op)
            if after is not None:
                after(recorder, index, args, result)
            return result

        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (called once, after the run)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
