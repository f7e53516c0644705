"""Spans the benchmark records around its own calls into the system.

Only the traced run records anything: the timed run hands every workload
:data:`OFF`, whose ``span`` is a shared no-op context manager.  A
:class:`Trace` keeps every span in memory until the run ends; layer
times are sums over span names.

:func:`wrapped` is the one place the benchmark reaches inside a call: for
the traced run only, it replaces a few public methods on their classes
with timing shims that record a span per call, and puts the originals
back on exit.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter


class _Off:
    """The untraced stand-in: ``span`` costs one call and records nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


OFF = _Off()


class _Span:
    __slots__ = ("trace", "name", "parent", "start", "end")

    def __init__(self, trace: "Trace", name: str, parent: int) -> None:
        self.trace = trace
        self.name = name
        self.parent = parent

    def __enter__(self) -> "_Span":
        self.trace._stack.append(len(self.trace.spans))
        self.trace.spans.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter()
        self.trace._stack.pop()
        return False


class Trace:
    """A flat list of spans; ``parent`` is the index of the enclosing one
    (-1 for a top-level span)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name, self._stack[-1] if self._stack else -1)

    def totals(self, first: int = 0) -> dict[str, float]:
        """Inclusive seconds per span name, over spans from ``first`` on."""
        out: dict[str, float] = {}
        for span in self.spans[first:]:
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start
        return out

    def counts(self, first: int = 0) -> dict[str, int]:
        """Spans per name, over spans from ``first`` on."""
        out: dict[str, int] = {}
        for span in self.spans[first:]:
            out[span.name] = out.get(span.name, 0) + 1
        return out


@contextlib.contextmanager
def wrapped(trace: Trace, targets: list[tuple[type, str, str]]):
    """Record a span named ``span_name`` around every call of
    ``cls.method`` while the block runs."""
    originals = []
    for cls, method, span_name in targets:
        original = cls.__dict__[method]
        originals.append((cls, method, original))

        def shim(*args, __original=original, __name=span_name, **kwargs):
            with trace.span(__name):
                return __original(*args, **kwargs)

        setattr(cls, method, functools.wraps(original)(shim))
    try:
        yield trace
    finally:
        for cls, method, original in originals:
            setattr(cls, method, original)
