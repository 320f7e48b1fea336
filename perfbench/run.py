"""Run one benchmark workload, or compare two traced runs layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-campaign --seed 7 --seconds 5 --trace 0
    python3 perfbench/run.py --diff BASE NEW

One client runs the workload's ops back to back (closed loop, serial,
one process).  A *pass* is one run of the workload's op list on fresh
state built from the seed.  With ``--trace 0`` passes repeat until
``--seconds`` of op time is spent (always at least one pass), and the
last stdout line reports the end-to-end metrics: ``nominal_wall_s``
(median pass time, set-up excluded, scaled to a nominal host speed; see
:mod:`perfbench.hostspeed`), ``setup_s`` (median over several set-ups,
each from process start to the first op) and ``peak_rss_mb``.  The
unscaled pass time is printed as ``wall_s`` above the result line.  With
``--trace 1`` the run makes one untraced pass, then a traced set-up and
pass with spans at every layer boundary, reports the per-layer metrics
and its own overhead, and writes the spans and per-layer totals to
``.perfbench/trace-<workload>-seed<seed>.json``.

Any two passes of one run must agree exactly on work counts, simulated
figures and output digest; a difference marks the run incorrect.  An op
that raises or fails its output check counts in ``failed`` and the other
ops still run.  ``--diff BASE NEW`` takes two traced-run outputs (files,
or directories of them) and prints per-layer ``self_s`` and ``calls``
deltas for each workload found in both.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 -- the clock above starts before any import
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import experiment_seconds, result_line, run_ops  # noqa: E402
from perfbench.hostspeed import HostSpeedProbe  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    SPAN_FIELDS,
    SpanRecorder,
    layer_diff,
    layer_totals,
    span_cost_s,
)

# ``perfbench.workloads`` imports the program, so functions import it only
# after ``main`` has put ``src`` on the path.

#: Set-ups per run whose median is ``setup_s``: this process's own, plus
#: fresh child processes that import, set up and exit.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120
#: Cheapest first, so a harness that warms up on the first workload pays least.
WORKLOAD_NAMES = ("serving", "online-control", "paper-campaign")


@dataclass
class PassResult:
    """One pass: host seconds of its ops, their outcomes, and its report.

    ``nominal_s`` is ``wall_s`` scaled to the nominal host when the pass
    ran with a host-speed probe, else ``None``.
    """

    wall_s: float
    outcomes: list
    report: object
    nominal_s: float | None = None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("BASE", "NEW"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.diff is None and args.workload is None:
        parser.error("--workload is required unless --diff is given")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh child process."""
    completed = subprocess.run(
        [
            sys.executable,
            __file__,
            "--setup-probe",
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(json.loads(completed.stdout.splitlines()[-1])["setup_s"])


def run_pass(workload, state, recorder=None, probe=None) -> PassResult:
    """One pass of ``workload``'s ops; its time is the sum of the op timers."""
    from perfbench.workloads import fastsim_counters, pass_report

    before = fastsim_counters()
    ops = workload.ops(state)
    gc.collect()  # garbage left by set-up or an earlier pass is not this pass's cost
    outcomes = run_ops(ops, recorder, probe)
    after = fastsim_counters()
    delta = {key: after[key] - before[key] for key in after}
    nominal_s = None
    if probe is not None:
        nominal_s = sum(o.nominal_s for o in outcomes)
    return PassResult(
        sum(o.seconds for o in outcomes),
        outcomes,
        pass_report(workload, state, outcomes, delta),
        nominal_s,
    )


def passes_agree(passes: list[PassResult]) -> bool:
    """True when every pass repeats the first one's counts, sim and digest."""
    first = passes[0].report
    agree = True
    for index, other in enumerate(passes[1:], start=1):
        for field in ("counts", "sim", "digest"):
            if getattr(other.report, field) != getattr(first, field):
                print(
                    f"determinism: pass {index} {field} differs from pass 0: "
                    f"{getattr(other.report, field)} != {getattr(first, field)}",
                    file=sys.stderr,
                )
                agree = False
    return agree


def print_pass_summary(name: str, seed: int, passes: list[PassResult]) -> None:
    """Human-readable lines: sim figures, error rate, digest, per-op time."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(o.error is not None for p in passes for o in p.outcomes)
    print(f"workload {name} seed {seed}: {len(passes)} pass(es), {attempted} ops")
    print(
        f"  error_rate {failed / attempted:.4f} ratio "
        f"({failed}/{attempted} ops failed)"
    )
    report = passes[0].report
    for metric, unit in workload.sim_units.items():
        value = report.sim.get(metric)
        shown = "missing" if value is None else f"{value:.4f}"
        print(f"  {metric} {shown} {unit} (sim)")
    print(f"  output sha256 {report.digest}")
    for experiment, seconds in experiment_seconds(passes[-1].outcomes).items():
        print(f"  experiments.{experiment}.wall_s {seconds:.4f} s")


#: Metric name -> (value, unit), in report order.
Metrics = dict[str, tuple[float, str]]


def measure(args: argparse.Namespace) -> tuple[list[PassResult], Metrics]:
    """``--trace 0``: passes until ``--seconds`` of op time; end-to-end metrics."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setups = [time.perf_counter() - PROCESS_START]
    setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    with HostSpeedProbe() as probe:
        passes = [run_pass(workload, state, probe=probe)]
        while sum(p.wall_s for p in passes) < args.seconds:
            passes.append(run_pass(workload, workload.setup(args.seed), probe=probe))
    factors = sorted(probe.factors)
    print(
        f"  wall_s {statistics.median(p.wall_s for p in passes):.6g} s (unscaled); "
        f"host factor median {statistics.median(factors):.4f}, quartiles "
        f"{factors[len(factors) // 4]:.4f}-{factors[3 * len(factors) // 4]:.4f} "
        f"over {len(factors)} samples"
    )
    metrics = {
        "nominal_wall_s": (statistics.median(p.nominal_s for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return passes, metrics


def per_layer_metric_names() -> dict[str, str]:
    """Every ``--trace 1`` metric name with its unit, in report order."""
    from perfbench.workloads import COUNT_UNITS, LAYER_ENTRY_POINTS, WORKLOADS

    names = {}
    for layer in LAYER_ENTRY_POINTS:
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.calls"] = "count"
    for workload in WORKLOADS.values():
        for experiment in workload.experiments:
            names[f"experiments.{experiment}.wall_s"] = "s"
    names.update(COUNT_UNITS)
    names["bench.trace_overhead_s"] = "s"
    return names


def trace(args: argparse.Namespace) -> tuple[list[PassResult], Metrics]:
    """``--trace 1``: an untraced then a traced pass; per-layer metrics."""
    from perfbench.workloads import (
        LAYER_ENTRY_POINTS,
        TRACED_MODULE_PREFIXES,
        WORKLOADS,
    )

    workload = WORKLOADS[args.workload]
    untraced = run_pass(workload, workload.setup(args.seed))
    recorder = SpanRecorder()
    recorder.install(LAYER_ENTRY_POINTS, TRACED_MODULE_PREFIXES)
    try:
        traced = run_pass(workload, workload.setup(args.seed), recorder)
    finally:
        recorder.uninstall()
    totals = layer_totals(recorder.spans)
    overhead_s = traced.wall_s - untraced.wall_s
    wrapper_s = len(recorder.spans) * span_cost_s()
    op_seconds = experiment_seconds(traced.outcomes)

    values: dict[str, float] = {}
    for layer in LAYER_ENTRY_POINTS:
        layer_total = totals.get(layer)
        values[f"{layer}.self_s"] = layer_total.self_s if layer_total else 0.0
        values[f"{layer}.calls"] = layer_total.calls if layer_total else 0
    for experiment in (e for w in WORKLOADS.values() for e in w.experiments):
        values[f"experiments.{experiment}.wall_s"] = op_seconds.get(experiment, 0.0)
    values.update(traced.report.counts)
    values["bench.trace_overhead_s"] = overhead_s
    metrics = {
        name: (values[name], unit) for name, unit in per_layer_metric_names().items()
    }

    out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s_untraced": untraced.wall_s,
        "wall_s_traced": traced.wall_s,
        "overhead_s": overhead_s,
        "wrapper_overhead_s": wrapper_s,
        "layers": {
            layer: {"self_s": t.self_s, "calls": t.calls} for layer, t in totals.items()
        },
        "counts": traced.report.counts,
        "sim": traced.report.sim,
        "digest": traced.report.digest,
        "span_fields": list(SPAN_FIELDS),
        "spans": recorder.spans,
    }
    out.write_text(json.dumps(document))
    print(f"trace: {len(recorder.spans)} spans written to {out}")
    print(
        f"trace: overhead {overhead_s:+.4f} s on an untraced pass of "
        f"{untraced.wall_s:.4f} s; "
        f"wrapper cost alone {wrapper_s:.4f} s ({len(recorder.spans)} spans)"
    )
    return [untraced, traced], metrics


def load_traces(path: Path) -> dict[str, dict]:
    """Traced-run documents under ``path`` (a file or a directory), by workload."""
    files = sorted(path.glob("trace-*.json")) if path.is_dir() else [path]
    documents = [json.loads(file.read_text()) for file in files]
    return {document["workload"]: document for document in documents}


def diff(base_path: Path, new_path: Path) -> int:
    """Print per-layer self-time and call deltas, workload by workload."""
    base, new = load_traces(base_path), load_traces(new_path)
    common = [name for name in base if name in new]
    if not common:
        print("no workload is traced in both inputs", file=sys.stderr)
        return 2
    for name in common:
        old_wall, new_wall = base[name]["wall_s_traced"], new[name]["wall_s_traced"]
        print(f"== {name}: traced wall_s {old_wall:.4f} -> {new_wall:.4f}")
        print(
            f"{'layer':32} {'self_s base':>12} {'self_s new':>12} {'delta':>10} "
            f"{'calls base':>11} {'calls new':>10} {'delta':>8}"
        )
        for layer, old_s, new_s, old_calls, new_calls in layer_diff(
            base[name]["layers"], new[name]["layers"]
        ):
            print(
                f"{layer:32} {old_s:12.4f} {new_s:12.4f} {new_s - old_s:+10.4f} "
                f"{old_calls:11d} {new_calls:10d} {new_calls - old_calls:+8d}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.diff is not None:
        return diff(*args.diff)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"program source not found at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source.parent))
    from perfbench.workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload].setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - PROCESS_START}))
        return 0
    passes, metrics = (trace if args.trace else measure)(args)
    print_pass_summary(args.workload, args.seed, passes)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(o.error is not None for p in passes for o in p.outcomes)
    correct = failed == 0 and passes_agree(passes)
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
