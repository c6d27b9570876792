"""In-memory spans around the public layer calls the CLI makes.

:class:`Tracer` wraps a function so that each call records a span: its
layer name, start, end, the span that was open when it started, and the
experiment it belongs to.  A ``keep`` hook may save a few facts about the
call (sizes, or references for analysis after the pass); it runs after the
span has ended.  Self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    exp: int  # experiment index, -1 outside any experiment
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``experiments`` maps an experiment index to its input."""

    def __init__(self):
        self.spans: list[Span] = []
        self.experiments: list = []
        self._stack: list[int] = []
        self._exp = -1

    def wrap(self, name, fn, keep=None, starts_experiment=False):
        def traced(*args, **kwargs):
            if starts_experiment:
                self.experiments.append(args[0])
                self._exp = len(self.experiments) - 1
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._exp)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if starts_experiment:
                    self._exp = -1
            if keep is not None:
                span.info = keep(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "exp": s.exp}
            for s in self.spans
        ]


@contextmanager
def patched(module, replacements: dict):
    """Set attributes of ``module`` for the duration of the block."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
