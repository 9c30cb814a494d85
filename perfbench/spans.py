"""In-memory spans and the self-time arithmetic over them.

A span is one call across a layer boundary: its name, layer, start and end
(``time.perf_counter`` seconds), the span that was open when it started, and
the id of the run it belongs to.  Spans are kept in memory while a campaign
runs and written out once it has finished.  A span's *self time* is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "run")

    def __init__(
        self,
        id: int,
        name: str,
        layer: str,
        start: float,
        end: float = 0.0,
        parent: Optional[int] = None,
        run: str = "",
    ) -> None:
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_obj(self) -> Dict[str, Any]:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Span stack plus named counters for one run.

    The traced campaign runs its layers on one thread (serial backend, or
    the parent side of the process backend), so a plain stack gives every
    span its parent.
    """

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[Span] = []

    def open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), parent=parent, run=self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Pop through ``span``: a span left open by an exception unwinding
        # past it is closed with its ancestor instead of corrupting the stack.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.end = span.end

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``after(result)`` runs once
        the span is closed, so its bookkeeping is never timed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result)
            return result

        return traced


def covered_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        ]
        out[span.id] = span.seconds - covered_seconds(clipped)
    return out


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Layer -> summed self time of its spans."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + own[span.id]
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Patches:
    """Attribute replacements that are undone, in reverse, on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
