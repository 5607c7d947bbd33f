"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, item): the parent is the index of the
span that was open when this one started, and item names the workload item
(row, graph, grammar run or command) the work belongs to.  Spans are only
kept in memory; run.py writes them out when the run ends.

Spans come from the benchmark's own files: either around a call the
benchmark makes, or from a wrapper that `instrument` puts on a public zfnets
function for the length of one traced pass, so that calls the library makes
internally (sweep -> build -> diameter) nest under their caller.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable

_NULL = nullcontext()


class Tracer:
    """Records spans and counters when enabled; every method is a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int | None, str | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.step_times: list[float] = []
        self._stack: list[int] = []
        self._item: str | None = None
        self._paused = False

    def span(self, name: str, item: str | None = None):
        if not self.enabled or self._paused:
            return _NULL
        return self._span(name, item)

    @contextmanager
    def _span(self, name: str, item: str | None):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        outer_item = self._item
        if item is not None:
            self._item = item
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._item))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_, item_ = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent_, item_)
            self._item = outer_item

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled and not self._paused:
            self.counts[name] += amount

    @contextmanager
    def paused(self):
        """Record nothing inside: used while the benchmark checks results."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def step_hook(self) -> Callable | None:
        """An `on_step` callback for grammar.run_to_fixpoint, or None when disabled.

        Latency of step i is the time since step i-1 (or since the hook was
        made, for the first step of a run).
        """
        if not self.enabled:
            return None
        last = [time.perf_counter()]

        def on_step(_idx, _state, _match) -> None:
            now = time.perf_counter()
            self.step_times.append(now - last[0])
            last[0] = now

        return on_step

    def busy(self) -> dict[str, float]:
        """Summed span duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_time(self) -> dict[str, float]:
        """Busy time minus the time covered by direct child spans, per name.

        Children of one span run one after another (single-threaded), so
        their durations do not overlap and can simply be summed.
        """
        out = self.busy()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out


def instrument(tracer: Tracer, targets: list[tuple[object, str, str, Callable | None]]):
    """Wrap `owner.attr` so each call records a span called `name` (no span when None).

    `on_result(tracer, args, result)` may record counters.  Returns a function
    that puts the original attributes back; call it when the pass ends.
    """
    saved = []
    for owner, attr, name, on_result in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))

        def wrapper(*args, _original=original, _name=name, _on_result=on_result, **kwargs):
            if _name is None:
                result = _original(*args, **kwargs)
            else:
                with tracer.span(_name):
                    result = _original(*args, **kwargs)
            if _on_result is not None:
                _on_result(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
