"""Closed-loop op execution, failure accounting and the result line.

An op is one call into the program's public entry points.  Ops run back
to back on one client: each starts after the previous one returns.  An
op *fails* when it raises or when its output check rejects what it
returned; either way the failure is recorded and the remaining ops
still run, so one bad op costs one count in ``failed``, not the run.
"""

from __future__ import annotations

import json
import re
import sys
import time
import traceback
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from perfbench.hostspeed import HostSpeedProbe
from perfbench.tracing import SpanRecorder

#: Metric and workload names: a letter or digit, then up to 63 of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class CheckFailed(Exception):
    """An op returned output that fails the benchmark's correctness bar."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``experiment`` groups ops for the ``experiments.<experiment>.wall_s``
    metrics; ``check`` validates the returned value and raises
    :class:`CheckFailed` (it runs after the op's timer stops).
    """

    id: str
    experiment: str
    run: Callable[[], object]
    check: Callable[[object], None] | None = None


@dataclass(frozen=True)
class OpOutcome:
    """What one op did: host seconds, its return value, or why it failed.

    ``nominal_s`` is ``seconds`` scaled to the nominal host when the ops
    ran with a host-speed probe, else ``None``.
    """

    op: str
    experiment: str
    seconds: float
    value: object
    error: str | None
    nominal_s: float | None = None


def run_ops(
    ops: Sequence[Op],
    recorder: SpanRecorder | None = None,
    probe: HostSpeedProbe | None = None,
) -> list[OpOutcome]:
    """Run ``ops`` in order; every op runs even when an earlier one failed.

    With a running ``probe``, an op's seconds exclude the probe's sampling
    and its ``nominal_s`` is set.
    """
    outcomes = []
    for op in ops:
        value, error = None, None
        if recorder is not None:
            recorder.op = op.id
        mark = probe.mark() if probe is not None else None
        start = time.perf_counter()
        try:
            if recorder is None:
                value = op.run()
            else:
                with recorder.span(f"experiments.{op.experiment}", op.id):
                    value = op.run()
        except Exception as exc:  # the op boundary: record, report, go on
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
        nominal_s = None
        if probe is not None:
            sampling_s, host_factor = probe.since(mark)
            seconds -= sampling_s
            nominal_s = seconds / host_factor
        if error is None and op.check is not None:
            try:
                op.check(value)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
        if error is not None:
            print(f"op {op.id} failed: {error}", file=sys.stderr)
        outcomes.append(
            OpOutcome(op.id, op.experiment, seconds, value, error, nominal_s)
        )
    return outcomes


def experiment_seconds(outcomes: Sequence[OpOutcome]) -> dict[str, float]:
    """Host seconds per experiment, summed over its ops."""
    totals: dict[str, float] = {}
    for outcome in outcomes:
        seconds = totals.get(outcome.experiment, 0.0) + outcome.seconds
        totals[outcome.experiment] = seconds
    return totals


def check_names(names: Sequence[str]) -> None:
    """Raise ``ValueError`` unless every name fits the grammar, once each."""
    seen = set()
    for name in names:
        if not NAME_PATTERN.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, tuple[float, str]],
) -> str:
    """The final stdout line: ``{"correct", "attempted", "failed", "metrics"}``."""
    check_names(list(metrics))
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
