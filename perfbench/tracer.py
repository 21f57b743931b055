"""Span tracer for the benchmark's traced run.

The tracer wraps entry points of the program from outside: it replaces a
class attribute or module global with a wrapper that records one span per
call.  A span is (name, start, end, parent); the parent is the span that
was open when the call began, so synchronous calls nest.  Spans are kept
in flat arrays in memory and reduced to per-name totals when the run ends.

A layer's *self time* is its spans' duration minus the part of that
interval its child spans cover (:func:`self_times`).  Time spent inside
code that has no span of its own counts towards the nearest enclosing
span; time under no span at all is the un-spanned remainder.

The wrappers cost roughly a microsecond per call, so end-to-end numbers
always come from an untraced run; the traced run only attributes time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

#: (span name, callable returning a count to add to the span's quantity)
Measure = Callable[[tuple, Any], int]


def self_times(
    starts: Sequence[int],
    ends: Sequence[int],
    parents: Sequence[int],
    window: tuple[int, int],
) -> tuple[list[int], int, int]:
    """Self time of every span, plus the un-spanned remainder.

    ``starts``/``ends``/``parents`` describe spans in the order they were
    opened (so a child always follows its parent and siblings follow each
    other in start order); ``parents[i]`` is the index of the enclosing
    span or -1 for a root.  ``window`` is the (start, end) of the traced
    interval, which acts as the parent of every root span.

    A span's self time is its duration minus the union of its children's
    intervals, each clipped to the parent.  Returns ``(self_time,
    remainder, misnested)``: ``remainder`` is the window's own self time
    (the time no root span covers) and ``misnested`` counts children that
    started before or ended after their parent, which proper call nesting
    never produces.
    """
    n = len(starts)
    covered = [0] * n
    frontier = list(starts)
    window_covered = 0
    window_frontier = window[0]
    misnested = 0
    for i in range(n):
        start = starts[i]
        end = ends[i]
        p = parents[i]
        if p < 0:
            p_start, p_end = window
            lo = start if start > window_frontier else window_frontier
        else:
            p_start = starts[p]
            p_end = ends[p]
            lo = start if start > frontier[p] else frontier[p]
        if start < p_start or end > p_end:
            misnested += 1
        hi = end if end < p_end else p_end
        if hi > lo:
            if p < 0:
                window_covered += hi - lo
                window_frontier = hi
            else:
                covered[p] += hi - lo
                frontier[p] = hi
    own = [ends[i] - starts[i] - covered[i] for i in range(n)]
    remainder = window[1] - window[0] - window_covered
    return own, remainder, misnested


@dataclass
class SpanTotals:
    """Per-name reduction of the recorded spans."""

    calls: dict[str, int] = field(default_factory=dict)
    total_ns: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    quantity: dict[str, int] = field(default_factory=dict)
    wall_ns: int = 0
    remainder_ns: int = 0
    misnested: int = 0
    spans: int = 0


class Tracer:
    """Records spans around patched callables.

    ``patch(module, qualname, span)`` wraps ``Class.method`` or a module
    global; ``patch_generator`` wraps a generator function so that every
    resumption is its own span (the consumer's work between resumptions
    is not charged to the generator); ``patch_attribute`` wraps a method
    of one object.  ``restore()`` puts every original back.  Patches must be installed before the objects that capture
    bound methods (timers, fabric callbacks) are built.
    """

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self._names: list[str] = []
        self._span_name = array("i")
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("i")
        self._stack: list[int] = []
        self._quantity: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._window: Optional[list[int]] = None

    # -- patching --------------------------------------------------------
    def _name_id(self, span: str) -> int:
        if span not in self._name_ids:
            self._name_ids[span] = len(self._names)
            self._names.append(span)
            self._quantity[span] = 0
        return self._name_ids[span]

    @staticmethod
    def _resolve(module: str, qualname: str) -> tuple[Any, str]:
        owner: Any = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if not hasattr(owner, attr):
            raise AttributeError(f"{module}.{qualname} does not exist")
        return owner, attr

    def patch(
        self, module: str, qualname: str, span: str, measure: Optional[Measure] = None
    ) -> None:
        """Wrap ``module.qualname`` (a function or ``Class.method``)."""
        owner, attr = self._resolve(module, qualname)
        original = owner.__dict__[attr]
        self._install(owner, attr, self._wrap(original, self._name_id(span), span, measure))

    def patch_generator(self, module: str, qualname: str, span: str) -> None:
        """Wrap a generator function; each resumption is one span."""
        owner, attr = self._resolve(module, qualname)
        original = owner.__dict__[attr]
        self._install(owner, attr, self._wrap_generator(original, self._name_id(span)))

    def patch_attribute(self, owner: Any, attr: str, span: str) -> None:
        """Wrap a callable attribute of one object (a bound method)."""
        original = getattr(owner, attr)
        self._install(owner, attr, self._wrap(original, self._name_id(span), span, None))

    def _install(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__", {}).get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # the attribute came from the class
            else:
                setattr(owner, attr, original)

    def _wrap(
        self, fn: Callable, name_id: int, span: str, measure: Optional[Measure]
    ) -> Callable:
        names, starts, ends, parents = (
            self._span_name, self._starts, self._ends, self._parents
        )
        stack = self._stack
        quantity = self._quantity
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if measure is not None:
                quantity[span] += measure(args, result)
            return result

        return traced

    def _wrap_generator(self, fn: Callable, name_id: int) -> Callable:
        names, starts, ends, parents = (
            self._span_name, self._starts, self._ends, self._parents
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            generator = fn(*args, **kwargs)
            while True:
                index = len(names)
                names.append(name_id)
                parents.append(stack[-1] if stack else -1)
                ends.append(0)
                stack.append(index)
                starts.append(clock())
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    ends[index] = clock()
                    stack.pop()
                yield item

        return traced

    # -- recording window -------------------------------------------------
    def begin(self) -> None:
        """Open the traced window; spans recorded before it are dropped."""
        for buffer in (self._span_name, self._starts, self._ends, self._parents):
            del buffer[:]
        for span in self._quantity:
            self._quantity[span] = 0
        self._window = [time.perf_counter_ns(), 0]

    def end(self) -> None:
        if self._window is None:
            raise RuntimeError("end() without begin()")
        self._window[1] = time.perf_counter_ns()

    def totals(self) -> SpanTotals:
        """Reduce the recorded spans to per-name calls, total and self time."""
        if self._window is None or not self._window[1]:
            raise RuntimeError("totals() needs a closed begin()/end() window")
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        own, remainder, misnested = self_times(
            self._starts, self._ends, self._parents, tuple(self._window)
        )
        out = SpanTotals(
            wall_ns=self._window[1] - self._window[0],
            remainder_ns=remainder,
            misnested=misnested,
            spans=len(own),
        )
        for span in self._names:
            out.calls[span] = 0
            out.total_ns[span] = 0
            out.self_ns[span] = 0
            out.quantity[span] = self._quantity[span]
        names = self._names
        for i, name_id in enumerate(self._span_name):
            span = names[name_id]
            out.calls[span] += 1
            out.total_ns[span] += self._ends[i] - self._starts[i]
            out.self_ns[span] += own[i]
        return out
