"""In-memory span tracer for the benchmark's traced run.

Spans are recorded at the layer boundaries of the ``fadepower`` package:
every public function a module imports from another ``fadepower`` module
is replaced, in this process only, by a wrapper that opens a span named
``<callee layer>.<function>``.  The benchmark's own calls go through the
package namespace, which is wrapped the same way.  ``uninstall`` restores
every original.

A span opened on a thread that has no open span (a worker of the sweep's
thread pool) is parented to the innermost span open on the thread that
installed the tracer.  The benchmark is a closed loop with one call in
flight, so that span is the caller waiting for the worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field

# Layers, in import order; each is a module of the fadepower package.
LAYERS = ("channel", "markov", "policy", "closed_form", "annealer", "simulator", "cli")

# Calls inside one module that are still worth a span of their own.
_SAME_MODULE = (("simulator", "simulate"),)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        with self._lock:
            span = Span(len(self.spans) + 1, parent, name, layer, time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span; solver results leave their counts in span.info."""
        span = self.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if hasattr(exc, "evaluated_count"):
                span.info.update(evaluated=exc.evaluated_count, feasible=0, accepted=0)
            raise
        finally:
            self.close(span)
        if hasattr(result, "evaluated_count"):
            span.info.update(
                evaluated=result.evaluated_count,
                feasible=result.feasible_count,
                accepted=result.accepted_count,
            )
        return result

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every cross-module public function reference in fadepower."""
        modules = {"fadepower": importlib.import_module("fadepower")}
        for layer in LAYERS:
            modules[layer] = importlib.import_module(f"fadepower.{layer}")
        targets = []
        for owner, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home in LAYERS and (home != owner or (owner, attr) in _SAME_MODULE):
                    targets.append((module, attr, obj, home))
        # The benchmark drives the sweep through cli.main.
        targets.append((modules["cli"], "main", modules["cli"].main, "cli"))
        for module, attr, obj, home in targets:
            setattr(module, attr, self._wrap(obj, home))
            self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }
