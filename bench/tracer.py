"""In-memory spans recorded around calls into the package's public functions.

Nothing inside the package is instrumented. A traced run rebinds public
names (module attributes and class methods) to wrappers that record a span
and restores them afterwards, so the code under test runs unchanged apart
from the cost of the wrapper itself.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        sp = Span(len(self.spans), name, self._stack[-1] if self._stack else None, self.run_id, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, fn: Callable, name: str | Callable[..., str], on_result: Callable | None = None) -> Callable:
        """Wrapper recording a span per call; `name` may derive from the arguments."""

        def traced(*args, **kwargs):
            sp = self._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def patched(self, targets: list[tuple[Any, str, Any, Callable | None]]):
        """Rebind (owner, attribute, span name, result hook) entries for the block."""
        saved = []
        try:
            for owner, attr, name, hook in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, hook)))
                else:
                    setattr(owner, attr, self.wrap(raw, name, hook))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def _kids(self) -> dict[int | None, list[Span]]:
        kids: dict[int | None, list[Span]] = {}
        for s in self.spans:
            kids.setdefault(s.parent, []).append(s)
        return kids

    def descendants(self, root: Span) -> list[Span]:
        kids = self._kids()
        out, frontier = [], [root]
        while frontier:
            frontier = [k for s in frontier for k in kids.get(s.id, [])]
            out.extend(frontier)
        return out

    def self_by_module(self, root: Span) -> dict[str, float]:
        """Self time per module over a root span's subtree: span duration minus the
        time its direct children cover (one thread, so children nest). The root's
        own self time is the harness's, reported as `bench`."""
        kids = self._kids()

        def own(s: Span) -> float:
            return s.duration - sum(c.duration for c in kids.get(s.id, []))

        out = {"bench": own(root)}
        for s in self.descendants(root):
            out[s.module] = out.get(s.module, 0.0) + own(s)
        return out

    def total(self, name: str, within: Span | None = None) -> tuple[float, int]:
        """Summed duration and call count of spans with this name."""
        pool = self.descendants(within) if within is not None else self.spans
        hits = [s for s in pool if s.name == name]
        return sum(s.duration for s in hits), len(hits)

    def to_records(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "run_id": s.run_id, "start": s.start, "end": s.end}
            for s in self.spans
        ]
