"""Outside-in tracing for the benchmark: method wrappers and spans.

The benchmark measures the program from the outside.  It never edits
the program; instead :func:`patched` swaps selected functions and
methods for wrappers while a block runs and puts the originals back on
exit, even when the block raises.  Each wrapped call appends one span
to a :class:`Recorder` held in memory; :func:`summarize` turns the
spans into per-call and per-layer figures once the run is over.

Span names read ``<layer>.<call>``: the text before the first dot is
the layer the call belongs to.

Times: a span's *duration* is end minus start.  Its *self time* is its
duration minus the durations of the wrapped calls made directly inside
it.  A layer's *busy time* counts only its outermost spans, so a layer
that calls itself is not counted twice.  The *residual* is the traced
wall time not covered by any top-level span; the self times of all
spans plus the residual add up to the wall time exactly.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

_MISSING = object()


class Recorder:
    """In-memory span store fed by :meth:`wrap` wrappers.

    Spans are ``[name, parent, start, end]`` lists; ``parent`` is the
    index of the enclosing span or ``-1`` at top level.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        """A wrapper around ``func`` that records one span per call."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced


@contextmanager
def patched(
    targets: Iterable[tuple[object, str, str]],
    wrap: Callable[[str, Callable], Callable],
) -> Iterator[None]:
    """Replace ``owner.attr`` with ``wrap(name, original)`` for a block.

    ``targets`` holds ``(owner, attr, name)`` triples; an owner is a
    class or a module.  Static and class methods keep their kind.  On
    exit every attribute is restored exactly as it was: an attribute
    the owner only inherited is deleted again, so the owner's own
    namespace ends up unchanged.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name in targets:
            raw = vars(owner).get(attr, _MISSING)
            current = getattr(owner, attr)
            if isinstance(raw, staticmethod):
                replacement = staticmethod(wrap(name, raw.__func__))
            elif isinstance(raw, classmethod):
                replacement = classmethod(wrap(name, raw.__func__))
            else:
                replacement = wrap(name, current)
            saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def tail_count(count: int, share: float) -> int:
    """How many of ``count`` samples lie beyond the ``share`` rank."""
    return count - max(1, math.ceil(share * count)) if count else 0


def summarize(spans: list[list], wall_s: float) -> dict:
    """Per-call and per-layer figures for one traced run.

    Returns ``{"calls": {name: {...}}, "layers": {layer: {...}},
    "residual_s": float, "wall_s": float}``.
    """
    durations = [span[3] - span[2] for span in spans]
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[1] >= 0:
            child_time[span[1]] += durations[index]

    calls: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    top_level = 0.0
    for index, span in enumerate(spans):
        name, parent = span[0], span[1]
        layer = layer_of(name)
        own = durations[index] - child_time[index]
        outer_of_name = outer_of_layer = True
        ancestor = parent
        while ancestor >= 0 and (outer_of_name or outer_of_layer):
            above = spans[ancestor][0]
            if above == name:
                outer_of_name = False
            if layer_of(above) == layer:
                outer_of_layer = False
            ancestor = spans[ancestor][1]
        row = calls.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += own
        if outer_of_name:
            row["busy_s"] += durations[index]
        layer_row = layers.setdefault(
            layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        layer_row["calls"] += 1
        layer_row["self_s"] += own
        if outer_of_layer:
            layer_row["busy_s"] += durations[index]
        if parent < 0:
            top_level += durations[index]
    return {
        "calls": calls,
        "layers": layers,
        "residual_s": wall_s - top_level,
        "wall_s": wall_s,
    }


def durations_of(spans: list[list], name: str) -> list[float]:
    return [span[3] - span[2] for span in spans if span[0] == name]
