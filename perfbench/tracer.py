"""Span recorder that times calls into c2f from outside the program.

`Tracer.wrap(owner, attr, name)` replaces a function or method with a
wrapper that records one span per call: name, duration, self time (the
duration minus the time its direct child spans cover) and the outermost
open span it ran under (its "phase", e.g. codec.encode_array).  Counts
computed from the call's arguments and result are attached after the
clock stops, so counting is never billed to the layer.

Spans are aggregated per segment (one operation, or set-up) and cleared,
so memory stays bounded however long a run lasts.  `uninstall()` puts
every original back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class LayerStats:
    """Totals of one span name inside one segment."""

    __slots__ = ("calls", "seconds", "self_seconds", "counts")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.counts: dict[str, float] = defaultdict(float)


class Segment:
    """Aggregated spans of one operation or of set-up."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        # (phase, name) -> seconds, where phase is the outermost span
        self.by_phase: dict[tuple[str, str], float] = defaultdict(float)

    def seconds(self, name: str) -> float:
        return self.layers[name].seconds if name in self.layers else 0.0

    def self_seconds(self, name: str) -> float:
        return self.layers[name].self_seconds if name in self.layers else 0.0

    def calls(self, name: str) -> int:
        return self.layers[name].calls if name in self.layers else 0

    def count(self, name: str, key: str) -> float:
        return self.layers[name].counts.get(key, 0.0) if name in self.layers else 0.0


class _Open:
    __slots__ = ("name", "t0", "child_seconds", "phase")

    def __init__(self, name: str, t0: float, phase: str):
        self.name = name
        self.t0 = t0
        self.child_seconds = 0.0
        self.phase = phase


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.segment = Segment()
        self._stack: list[_Open] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Time every call of owner.attr as span `name`.

        `name` is a string, or a function of (args, kwargs) that names the
        span from the call's arguments.  `count(args, kwargs, result)` may
        return a dict of counts to add to the span's layer.  For a class,
        the method is wrapped on the class so every instance is traced.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._push(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                layer = tracer._pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    layer.counts[key] += value
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------

    def _push(self, name: str) -> None:
        phase = self._stack[0].name if self._stack else name
        self._stack.append(_Open(name, self.clock(), phase))

    def _pop(self) -> LayerStats:
        span = self._stack.pop()
        seconds = self.clock() - span.t0
        if self._stack:
            self._stack[-1].child_seconds += seconds
        layer = self.segment.layers[span.name]
        layer.calls += 1
        layer.seconds += seconds
        layer.self_seconds += seconds - span.child_seconds
        self.segment.by_phase[(span.phase, span.name)] += seconds
        return layer

    def take_segment(self) -> Segment:
        """Return the spans recorded since the last call and start afresh."""
        if self._stack:
            raise RuntimeError(f"segment ended inside open span {self._stack[-1].name}")
        segment, self.segment = self.segment, Segment()
        return segment
