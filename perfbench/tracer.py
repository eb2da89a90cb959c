"""In-memory spans around calls into the cascades package.

``Tracer.install`` replaces chosen functions with timing wrappers in
every ``cascades`` module namespace that binds them, so a call made
through ``from .engine import fit`` is recorded as well as one made
through ``engine.fit``. A name that no longer exists is skipped and
listed in ``absent``, so a refactor that deletes a function marks its
layer absent instead of breaking the benchmark.

Spans nest: each records its parent, so a span's self time is its
duration minus that of its direct children. Only calls from the
tracing process are seen; forked workers' spans are not collected.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    work: int | None = None  # events, pairs or rows the call handled

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}  # call counters without spans
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _timed(self, fn, name: str, work):
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if sig is not None:
                named = sig.bind(*args, **kwargs).arguments
                self.spans[idx].work = int(work(named, result))
            return result
        return wrapper

    def _counted(self, fn, name: str):
        self.calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets) -> None:
        """Wrap each (module, attribute, span name, work) target.

        ``attribute`` may be ``Class.method``. ``work`` maps (arguments
        by parameter name, result) to a count stored on the span; the
        string "count" instead makes a call counter with no span.
        """
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cascades" or n.startswith("cascades."))]
        for module_name, attr, name, work in targets:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = (self._counted(original, name) if work == "count"
                       else self._timed(original, name, work))
            if path:
                self._set(owner, leaf, wrapper)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def outermost(self, name: str) -> list[int]:
        """Spans called ``name`` with no ancestor of the same name."""
        out = []
        for i, s in enumerate(self.spans):
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != name:
                p = self.spans[p].parent
            if p < 0:
                out.append(i)
        return out

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "calls": dict(self.calls),
                "absent": list(self.absent)}
