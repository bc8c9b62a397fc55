"""In-memory spans for the traced benchmark run.

A span records its name, the scan it belongs to, start and end
(``time.perf_counter``), the span that was open when it started, and
counters. Spans are taken from the benchmark's own files: the tracer
replaces public module-level functions of ``cmbpipe`` with timing wrappers
for the traced run only and puts the originals back afterwards. Nothing
under ``src/`` changes.
"""

from __future__ import annotations

import functools
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    scan: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; wrappers record only inside an open root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.scan = ""
        self.context: dict = {}  # per-call facts shared between wrappers, e.g. which mask is the prediction
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, self.scan, 0.0, parent=parent)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name, counters=None, before=None, catch_warnings: bool = False) -> None:
        """Replace ``module.attr`` with a wrapper that records a span per call.

        ``name`` is a string or ``f(args, kwargs) -> str``. ``counters(args,
        kwargs, result, caught)`` returns counters computed after the span
        ends, so their cost stays out of it. A call made while a span of the
        same name is innermost (``read_mask`` calling ``read_volume``) and a
        call made outside any root span (the benchmark's output checks) pass
        straight through.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if not self._open or self.spans[self._open[-1]].name == span_name:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            caught: list = []
            with self.span(span_name) as s:
                if catch_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                else:
                    result = original(*args, **kwargs)
            for w in caught:  # pass recorded warnings on as if never caught
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            if counters is not None:
                s.counters.update(counters(args, kwargs, result, caught))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out
