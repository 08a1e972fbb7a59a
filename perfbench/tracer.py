"""Spans around calls into icuseq's layers, recorded from outside the program.

A ``Patcher`` swaps a module or class attribute for a wrapper and puts the
original back on ``restore``. Wrappers must replace the name the caller looks
up: ``icuseq.training`` imports ``encode_batch`` and friends by name, so those
are patched on ``icuseq.training``; the encoder reaches ops as ``ad.<op>``, so
those are patched on ``icuseq.autodiff``.

``Tracer`` keeps one open span per active wrapped call on a stack. When a span
closes, its duration is added to its name's total, the part not covered by
child spans to its self time, and the parent-child edge is counted, all keyed
by the outermost open span (the root), so the self times under one root add up
to the root's wall time. Work the benchmark itself does at a wrapped call (an
``after`` callback that counts what the call returned) is timed under a span of
its own, ``trace.counters``, so it is charged to no layer of the program.
Spans are aggregated in memory as they close, so tracing many thousands of
calls costs no more memory than tracing one.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Optional, Union


COUNTERS = "trace.counters"  # span name of the benchmark's own work at wrapped calls


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregated span tree: calls, inclusive and self time per (root, name), and parent edges."""

    def __init__(self):
        self.stats: dict[tuple[str, str], LayerStats] = {}
        self.edges: Counter = Counter()  # (parent name or "", child name) -> calls
        self._stack: list[list] = []     # [name, seconds covered by children]

    def span(self, name: Union[str, Callable[..., str]], fn: Callable,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``name`` may be a function of the call's arguments (for instance to
        split encoder passes by mode). ``after(result, *args, **kwargs)``
        runs once the span has closed, under a ``trace.counters`` span, so its
        cost lands neither in the layer's self time nor in the parent's.
        """
        stack, record = self._stack, self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                record(label, dt, frame[1])
            if after is not None:
                t0 = perf_counter()
                after(result, *args, **kwargs)
                record(COUNTERS, perf_counter() - t0, 0.0)
            return result

        return traced

    def _record(self, label: str, dt: float, covered: float) -> None:
        """Add a closed span of ``dt`` seconds, ``covered`` of them by child spans."""
        stack = self._stack
        key = (stack[0][0] if stack else label, label)
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = LayerStats()
        s.calls += 1
        s.total_s += dt
        s.self_s += dt - covered
        if stack:
            stack[-1][1] += dt
        self.edges[(stack[-1][0] if stack else "", label)] += 1

    def _sum(self, name: str, attr: str) -> float:
        return sum(getattr(s, attr) for (_root, label), s in self.stats.items() if label == name)

    def calls(self, name: str) -> int:
        return int(self._sum(name, "calls"))

    def total_s(self, name: str) -> float:
        return self._sum(name, "total_s")

    def self_s(self, name: str) -> float:
        return self._sum(name, "self_s")

    def by_root(self) -> dict[str, dict[str, float]]:
        """Self seconds of every name under each root; each root's values sum to its wall time."""
        out: dict[str, dict[str, float]] = {}
        for (root, label), s in self.stats.items():
            out.setdefault(root, {})[label] = s.self_s
        return out
