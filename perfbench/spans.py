"""In-memory span recorder for the benchmark's traced runs.

A span covers one call into a layer of the package. It carries a name
(``<layer>.<what>``), a start and an end on the ``time.perf_counter`` clock,
the index of the span that was open when it started (its parent, -1 at the
top level), an operation id shared by every span under one top-level span, and
the number of symbols the call handled (0 when it handled no sequence).

Spans are appended to a list and only summarised after the run; nothing is
written while the run is being measured.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from noisymarkov import PosteriorMarginals, SimulatedPath, SpinSequence


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    symbols: int = 0

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def symbol_count(args, result) -> int:
    """Length of the first sequence among the call's arguments and its result."""
    for obj in (*args, result):
        if isinstance(obj, SimulatedPath):
            return len(obj.y)
        if isinstance(obj, (np.ndarray, SpinSequence, PosteriorMarginals)):
            return len(obj)
    return 0


class Tracer:
    """Records nested spans; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._ops = 0

    def open(self, name: str) -> int:
        if self._open:
            parent = self._open[-1]
            op = self.spans[parent].op
        else:
            parent, op = -1, self._ops
            self._ops += 1
        self.spans.append(Span(name, self.clock(), 0.0, parent, op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int, symbols: int = 0) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.symbols = symbols
        self._open.pop()

    @contextmanager
    def span(self, name: str, symbols: int = 0):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index, symbols)

    def wrap(self, fn, name):
        """``fn`` recording one span per call; ``name`` may be a callable of (args, kwargs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name(args, kwargs) if callable(name) else name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(index, symbol_count(args, out))

        return traced


@contextmanager
def patched(module, replacements: dict):
    """Temporarily rebind attributes of ``module``."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name in saved:
            setattr(module, name, replacements[name])
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out
