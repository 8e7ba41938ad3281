"""In-memory spans and call counters recorded from outside the program.

A Tracer rebinds module attributes that wicrep's own callers look up at
call time (``wicrep.train.adam_step``, ``wicrep.model.sigmoid``, ...), so
the program itself carries no timers. Spans are kept in a list and only
summarised or written out after the measured region. NullTracer offers the
same ``span`` interface at no cost for the untraced run, which is the only
source of end-to-end numbers.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    work: dict = field(default_factory=dict)    # e.g. {"tokens": 14}
    counts: Counter = field(default_factory=Counter)  # counted calls made while innermost

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Span interface that records nothing."""

    def span(self, name: str, **work):
        return nullcontext()


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, **work):
        parent = self._open[-1].sid if self._open else None
        sp = Span(len(self.spans), parent, name, self.clock(), work=work)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def timed(self, fn: Callable, name: str, work: Callable | None = None) -> Callable:
        """fn wrapped so every call records a span; work(args) names its size."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(work(*args, **kwargs) if work else {})):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """fn wrapped so each call increments a counter on the innermost open span.

        Used for functions called hundreds of thousands of times per update,
        where one span per call would cost more than the call.
        """
        stack = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                stack[-1].counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, module, attr: str, wrapper_for: Callable[[Callable], Callable]) -> bool:
        """Rebind module.attr to wrapper_for(original); False when attr is gone."""
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper_for(original))
        return True

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- queries ---------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                out.setdefault(sp.parent, []).append(sp)
        return out

    def subtree(self, root: Span, kids: dict[int, list[Span]] | None = None) -> list[Span]:
        """root and every span it caused, depth first."""
        kids = self.children() if kids is None else kids
        out, todo = [], [root]
        while todo:
            sp = todo.pop()
            out.append(sp)
            todo.extend(kids.get(sp.sid, ()))
        return out


def self_time(span: Span, kids: dict[int, list[Span]]) -> float:
    """The span's duration minus that of its direct children.

    The tracer is one stack, so a span's direct children never overlap.
    """
    return span.duration - sum(c.duration for c in kids.get(span.sid, ()))


def ratio(numerator: float, base: float) -> float:
    """numerator / base, or 0.0 when the base is empty (the layer did no work)."""
    return numerator / base if base else 0.0
