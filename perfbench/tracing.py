"""In-memory spans at layer boundaries, and the per-layer numbers from them.

The benchmark never edits the program: :meth:`SpanRecorder.install`
replaces a layer's public entry points (module functions, methods and
classmethods) with timing wrappers, everywhere the running process has
bound them, and :meth:`SpanRecorder.uninstall` puts the originals back.
Each call records one span ``(layer, name, start, end, parent, op)``:
``name`` is the entry point called and ``op`` the benchmark op it ran
under; the parent is the index of the innermost span open when the call
began, so nested layer calls form a tree and a layer's *self time*
excludes its children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

#: Span fields, in the order they are stored and written out.
SPAN_FIELDS = ("layer", "name", "start", "end", "parent", "op")


@dataclass(frozen=True)
class LayerTotals:
    """One layer's share of a traced run."""

    self_s: float
    calls: int


class SpanRecorder:
    """Collects spans in memory; spans are lists in ``SPAN_FIELDS`` order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, layer: str, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """Record the enclosed block as one span ``name`` of ``layer``."""
        index = self._open(layer, name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``."""
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(
        self,
        entry_points: Mapping[str, Sequence[str]],
        module_prefixes: Sequence[str],
    ) -> None:
        """Wrap every ``module:attr`` or ``module:Class.method`` entry point.

        A module-level function is also rebound in every loaded module
        whose name starts with one of ``module_prefixes`` and that
        imported it by name, so ``from x import f`` call sites are traced
        too.  Entry points must already be importable.
        """
        for layer, targets in entry_points.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                if isinstance(owner, type):
                    self._patch_method(layer, owner, attr)
                else:
                    self._patch_function(layer, getattr(owner, attr), module_prefixes)

    def _patch_method(self, layer: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(layer, raw.__func__))
        else:
            wrapped = self.wrap(layer, raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(
        self, layer: str, fn: Callable, module_prefixes: Sequence[str]
    ) -> None:
        wrapped = self.wrap(layer, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(tuple(module_prefixes)):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span_cost_s(calls: int = 20_000, rounds: int = 5) -> float:
    """Host seconds one traced call adds to an untraced one (median of rounds).

    Spans times this cost estimates the wrapper overhead of a traced run
    without the host noise that a traced-minus-untraced difference carries.
    """
    recorder = SpanRecorder()

    def noop() -> None:
        return None

    traced = recorder.wrap("calibration", noop)
    costs = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        end = time.perf_counter()
        recorder.spans.clear()
        costs.append(((middle - start) - (end - middle)) / calls)
    return statistics.median(costs)


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to their parent and overlapping children are
    merged, so covered time is never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for layer, name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (layer, name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_totals(spans: Sequence[Sequence]) -> dict[str, LayerTotals]:
    """Summed self time and call count per layer, in first-seen order."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0]
        seconds[layer] = seconds.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
    return {layer: LayerTotals(seconds[layer], calls[layer]) for layer in seconds}


def layer_diff(
    base: Mapping[str, Mapping[str, float]], new: Mapping[str, Mapping[str, float]]
) -> list[tuple[str, float, float, int, int]]:
    """Per-layer ``(layer, self_s base, self_s new, calls base, calls new)``.

    ``base``/``new`` map layer → ``{"self_s": ..., "calls": ...}``; a layer
    missing on one side reads as zero there.
    """
    rows = []
    for layer in sorted(set(base) | set(new)):
        old_layer, new_layer = base.get(layer, {}), new.get(layer, {})
        rows.append(
            (
                layer,
                float(old_layer.get("self_s", 0.0)),
                float(new_layer.get("self_s", 0.0)),
                int(old_layer.get("calls", 0)),
                int(new_layer.get("calls", 0)),
            )
        )
    return rows
