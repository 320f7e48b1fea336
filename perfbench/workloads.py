"""The benchmark's three workloads and the layer map used for tracing.

Every op calls the program's public entry points: an experiment module's
``run(preset)``, or one epoch of the adaptive way-partitioning loop
rebuilt from public calls.  A workload's
inputs come from the seed alone; host time never reaches them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from perfbench.harness import CheckFailed, Op, OpOutcome
from repro.cachesim import fastsim, mattson
from repro.experiments import adaptive, hurryup, slo
from repro.experiments.common import ExperimentResult, RunPreset
from repro.experiments.runner import ALL_MODULES
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.search.cachectl import CacheControlConfig, WayPartitionController
from repro.search.cluster import SearchCluster
from repro.search.documents import CorpusConfig
from repro.search.querygen import QueryGenerator, QueryGeneratorConfig
from repro.search.simmem import LeafCacheMonitor

#: Public entry points of each layer, as ``module:function`` or
#: ``module:Class.method``.  Coarse on purpose: one span per call into a
#: layer, never per access or per branch.
LAYER_ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "memtrace": (
        "repro.memtrace.synthetic:generate_trace",
        "repro.memtrace.synthetic:generate_segment_streams",
        "repro.memtrace.synthetic:SyntheticWorkload.segment_streams",
    ),
    "cachesim.composed": (
        "repro.cachesim.composed:ComposedHierarchy.__init__",
        "repro.cachesim.composed:ComposedHierarchy.solve_l3_sweep",
        "repro.cachesim.composed:ComposedHierarchy.l4_demand",
    ),
    "cachesim.fused": (
        "repro.cachesim.fused:simulate_hierarchy_sweep",
        "repro.cachesim.hierarchy:simulate_hierarchy",
    ),
    "cachesim.mattson": (
        "repro.cachesim.mattson:hit_rate_for_ways",
        "repro.cachesim.mattson:hit_rate_for_capacities",
    ),
    "cachesim.directmapped": ("repro.cachesim.directmapped:simulate_direct_mapped",),
    "cachesim.shards": (
        "repro.cachesim.shards:ShardsEnsemble.feed",
        "repro.cachesim.shards:ShardsEnsemble.curve",
        "repro.search.simmem:LeafCacheMonitor.observe",
        "repro.search.simmem:LeafCacheMonitor.end_epoch",
    ),
    "cpu": (
        "repro.cpu.branch:measure_branch_mpki",
        "repro.cpu.branch:simulate_predictor",
    ),
    "core": (
        "repro.core.optimizer:HierarchyDesignEvaluator.evaluate",
        "repro.core.rebalance:CacheForCoresOptimizer.sweep",
        "repro.core.l4cache:L4Cache.simulate",
        "repro.core.l4cache:L4Cache.capacity_sweep",
    ),
    "dse": ("repro.dse.explorer:DesignSpaceExplorer.explore",),
    "search.build": ("repro.search.cluster:SearchCluster.build",),
    "search.engine": (
        "repro.search.cluster:SearchCluster.serve_open_loop",
        "repro.search.loadgen:run_open_loop",
    ),
    "search.root": (
        "repro.search.cluster:SearchCluster.serve_with_outcomes",
        "repro.search.root:RootServer.search",
    ),
    "search.leaf": (
        "repro.search.leaf:LeafServer.search",
        "repro.search.leaf:LeafServer.snippet",
    ),
    "search.cachectl": ("repro.search.cachectl:WayPartitionController.update",),
}

#: Modules in which by-name imports of traced functions are rebound.
TRACED_MODULE_PREFIXES = ("repro.", "perfbench.")

#: Work counts every pass reports, with their units; they repeat exactly
#: for a given seed and program.
COUNT_UNITS: dict[str, str] = {
    "cachesim.fastsim.accesses": "count",
    "cachesim.fastsim.kernel_calls": "count",
    "cachesim.fastsim.fallback_ratio": "ratio",
    "cachesim.shards.sampled_accesses": "count",
    "cachesim.shards.sample_ratio": "ratio",
    "search.leaf.queries": "count",
    "search.leaf.postings_scored": "count",
    "search.root.retry_ratio": "ratio",
    "search.queue.shed_ratio": "ratio",
    "search.simmem.trace_accesses": "count",
    "dse.designs_scored": "count",
}


@dataclass
class PassReport:
    """What one pass produced besides host time.

    ``sim`` holds simulated quality figures (deterministic per seed),
    ``counts`` the work counts, ``digest`` the SHA-256 of the rendered
    tables and metrics JSON.
    """

    sim: dict[str, float]
    counts: dict[str, float]
    digest: str


@dataclass
class Workload:
    """A named op list built from a seed.

    ``setup(seed)`` builds the state the ops need (it is the part timed
    as ``setup_s``); ``ops(state)`` lists the ops of one pass.  From the
    values the pass's successful ops returned, ``results`` gives the
    experiment results it produced and ``sim`` its simulated figures.
    """

    name: str
    why: str
    setup: Callable[[int], object]
    ops: Callable[[object], list[Op]]
    results: Callable[[object, dict[str, object]], list[ExperimentResult]]
    sim: Callable[[object, dict[str, object]], dict[str, float]]
    sim_units: dict[str, str]
    #: Experiment ids of the ops, for the ``experiments.<id>.wall_s`` metrics.
    experiments: tuple[str, ...]


def _preset(seed: int) -> RunPreset:
    """The quick preset at ``seed``, with a fresh composed-run memo."""
    return dataclasses.replace(RunPreset.quick(), seed=seed)


def _op_results(state: object, values: dict[str, object]) -> list[ExperimentResult]:
    """Results of ops that each return one ``ExperimentResult``."""
    return list(values.values())


def _rows(result: ExperimentResult, **match: object) -> list[dict]:
    return [
        row
        for row in result.rows
        if all(row.get(key) == value for key, value in match.items())
    ]


# -- paper-campaign ----------------------------------------------------

# ``adaptive`` is left out whole: its control loop is the online-control
# workload, and its long-stream SHARDS accuracy table (about 10 s more per
# run) does not fit the benchmark's time budget.
_SERVING_IDS = ("slo", "hurryup")
_CAMPAIGN_MODULES = tuple(
    module
    for module in ALL_MODULES
    if module.EXPERIMENT_ID not in (*_SERVING_IDS, adaptive.EXPERIMENT_ID)
)
_CAMPAIGN_IDS = tuple(m.EXPERIMENT_ID for m in _CAMPAIGN_MODULES)
#: Paper QPS gains (percent) that ``paper_gap_pp`` compares against.
_PAPER_FIG10_OPTIMUM_PCT = 14.0
_PAPER_FIG14_PCT = {"baseline": 27.0, "future": 38.0}


def _fig10_optimum(result: ExperimentResult) -> float:
    rows = _rows(result, series="smt-on-quantized")
    if not rows:
        raise CheckFailed("fig10 has no smt-on-quantized rows")
    return max(row["improvement_pct"] for row in rows)


def _fig14_at_1g(result: ExperimentResult, scenario: str) -> float:
    rows = _rows(result, scenario=scenario, l4_mib=1024)
    if len(rows) != 1:
        raise CheckFailed(f"fig14 has {len(rows)} {scenario}/1 GiB rows")
    return rows[0]["combined_pct"]


def _check_fig14(result: ExperimentResult) -> None:
    for scenario in _PAPER_FIG14_PCT:
        _fig14_at_1g(result, scenario)


_CAMPAIGN_CHECKS: dict[str, Callable[[object], None]] = {
    "fig10": _fig10_optimum,
    "fig14": _check_fig14,
}


def _campaign_ops(preset: RunPreset) -> list[Op]:
    """Every campaign experiment in canonical order, sharing one preset memo."""
    return [
        Op(
            module.EXPERIMENT_ID,
            module.EXPERIMENT_ID,
            functools.partial(module.run, preset),
            _CAMPAIGN_CHECKS.get(module.EXPERIMENT_ID),
        )
        for module in _CAMPAIGN_MODULES
    ]


def _campaign_sim(state: object, values: dict[str, object]) -> dict[str, float]:
    if "fig10" not in values or "fig14" not in values:
        return {}
    gaps = [abs(_fig10_optimum(values["fig10"]) - _PAPER_FIG10_OPTIMUM_PCT)]
    gaps += [
        abs(_fig14_at_1g(values["fig14"], scenario) - paper)
        for scenario, paper in _PAPER_FIG14_PCT.items()
    ]
    return {"paper_gap_pp": sum(gaps) / len(gaps)}


# -- serving -----------------------------------------------------------

#: Measured-vs-closed-form M/M/1 quantile bars at rho = 0.5, percent: the
#: multi-seed tolerances of tests/search/test_loadgen.py.  The p99 sample
#: quantile is noisier than the p50, so its bar is wider.
_QUEUE_ERR_BARS_PCT = {"p50_err_pct": 5.0, "p99_err_pct": 10.0}


def _engine_row(result: ExperimentResult) -> dict:
    rows = _rows(result, series="queueing-model-check", source="event-driven engine")
    if len(rows) != 1:
        raise CheckFailed(f"hurryup has {len(rows)} engine model-check rows")
    return rows[0]


def _check_hurryup(result: ExperimentResult) -> None:
    row = _engine_row(result)
    for key, bar in _QUEUE_ERR_BARS_PCT.items():
        if not row[key] < bar:
            raise CheckFailed(f"hurryup {key} {row[key]} >= {bar}")


def _serving_ops(preset: RunPreset) -> list[Op]:
    return [
        Op("slo", "slo", functools.partial(slo.run, preset)),
        Op(
            "hurryup",
            "hurryup",
            functools.partial(hurryup.run, preset),
            _check_hurryup,
        ),
    ]


def _serving_sim(state: object, values: dict[str, object]) -> dict[str, float]:
    if "hurryup" not in values:
        return {}
    return {"queue_p99_err_pct": float(_engine_row(values["hurryup"])["p99_err_pct"])}


# -- online-control ----------------------------------------------------
# The closed loop of ``adaptive.control_rows`` with the same constants,
# shortened from three phases of four epochs to two phases of three, so
# that one run stays well under a minute.  With two epochs per phase the
# controller's one-epoch lag leaves some seeds below the even split.

_TOTAL_WAYS = 10
_WAY_LINES = 512
_PHASES = ((4, 1), (1, 4))
_EPOCHS_PER_PHASE = 3
_CORPUS_DOCS = (8000, 6000)
_VOCABULARY = 20_000
_MONITOR_RATE = 0.1
_MONITOR_REPLICAS = 8
_QUERIES_PER_UNIT = 15
_QPS = 250.0
#: The quick preset's Mattson engine, which ``adaptive.control_rows`` uses.
_ENGINE = RunPreset.quick().engine
_SPLITS = tuple((ways, _TOTAL_WAYS - ways) for ways in range(1, _TOTAL_WAYS))


class _Tenant:
    """One single-leaf serving stack with its query stream and monitor."""

    def __init__(
        self, index: int, docs: int, seed: int, metrics: MetricsRegistry
    ) -> None:
        self.cluster = SearchCluster.build(
            CorpusConfig(
                num_documents=docs, vocabulary_size=_VOCABULARY, seed=seed + index
            ),
            num_leaves=1,
            fanout=2,
            result_cache_capacity=0,
            record_traces=True,
            seed=seed + index,
            metrics=metrics,
        )
        self.generator = QueryGenerator(
            QueryGeneratorConfig(
                vocabulary_size=_VOCABULARY,
                distinct_queries=2000,
                query_zipf=0.7,
                seed=seed + 20 + index,
            )
        )
        self.monitor = LeafCacheMonitor(
            self.cluster.recorders[0],
            drift_capacities_lines=np.arange(1, _TOTAL_WAYS) * _WAY_LINES,
            rate=_MONITOR_RATE,
            replicas=_MONITOR_REPLICAS,
            seed=seed + index,
            metrics=metrics,
            leaf=str(index),
        )

    def serve_epoch(self, num_queries: int, epoch: int, index: int) -> np.ndarray:
        """Serve one epoch open-loop; feed and return its line stream."""
        queries = self.generator.generate(num_queries)
        self.cluster.serve_open_loop(queries, qps=_QPS, seed=1000 * epoch + index)
        recorder = self.cluster.recorders[0]
        trace = recorder.to_trace()
        recorder.reset()
        lines = (trace.addr // 64).astype(np.int64)
        self.monitor.observe(lines)
        return lines


@dataclass
class ControlLoop:
    """State of one run of the closed loop, epoch by epoch."""

    metrics: MetricsRegistry
    tenants: list[_Tenant]
    controller: WayPartitionController
    in_force: list[tuple[int, ...]] = field(default_factory=list)
    counts: list[list[int]] = field(default_factory=list)
    ladders: list[list[np.ndarray]] = field(default_factory=list)

    def hit_rate(self, epoch: int, allocation: Sequence[int]) -> float:
        """Replayed hit rate of ``allocation`` over one epoch's streams."""
        counts, ladders = self.counts[epoch], self.ladders[epoch]
        hits = sum(
            counts[i] * ladders[i][ways - 1] for i, ways in enumerate(allocation)
        )
        return float(hits / sum(counts))

    def run_rate(self, allocations: Sequence[Sequence[int]]) -> float:
        """Access-weighted hit rate over the run, one allocation per epoch."""
        hits = sum(
            sum(counts) * self.hit_rate(epoch, allocation)
            for epoch, (counts, allocation) in enumerate(zip(self.counts, allocations))
        )
        return hits / sum(sum(counts) for counts in self.counts)

    def fixed_rate(self, split: Sequence[int]) -> float:
        return self.run_rate([split] * len(self.counts))

    def epoch(self, epoch: int) -> dict:
        """One epoch: serve, replay the way ladders, estimate, re-partition."""
        weights = _PHASES[epoch // _EPOCHS_PER_PHASE]
        self.in_force.append(self.controller.allocation)
        counts, ladders = [], []
        for index, (tenant, weight) in enumerate(zip(self.tenants, weights)):
            lines = tenant.serve_epoch(weight * _QUERIES_PER_UNIT, epoch, index)
            counts.append(len(lines))
            ladders.append(
                mattson.hit_rate_for_ways(
                    lines, _WAY_LINES, list(range(1, _TOTAL_WAYS)), engine=_ENGINE
                )
            )
        self.counts.append(counts)
        self.ladders.append(ladders)
        decision = self.controller.update([t.monitor.end_epoch() for t in self.tenants])
        return {
            "x": epoch,
            "ways": "/".join(map(str, self.in_force[epoch])),
            "measured_hit_rate": round(self.hit_rate(epoch, self.in_force[epoch]), 4),
            "accesses": sum(counts),
            "fallback": decision.fallback,
            "next_ways": "/".join(map(str, decision.allocation)),
        }

    def check_epoch(self, epoch: int) -> None:
        """Phase-end checks: the busy tenant gained ways; the run beats even."""
        phase, offset = divmod(epoch, _EPOCHS_PER_PHASE)
        if offset != _EPOCHS_PER_PHASE - 1:
            return
        weights = _PHASES[phase]
        busy = weights.index(max(weights))
        first, last = self.in_force[epoch - offset], self.in_force[epoch]
        if not last[busy] > first[busy]:
            raise CheckFailed(
                f"phase {phase}: busy tenant {busy} held {first[busy]} ways "
                f"at the phase start and {last[busy]} at its end"
            )
        if epoch == len(_PHASES) * _EPOCHS_PER_PHASE - 1:
            adaptive_rate = self.run_rate(self.in_force)
            even_rate = self.fixed_rate(self.controller.static_allocation)
            if not adaptive_rate > even_rate:
                raise CheckFailed(
                    f"adaptive hit rate {adaptive_rate:.4f} does not beat "
                    f"the even split's {even_rate:.4f}"
                )


def _control_setup(seed: int) -> ControlLoop:
    metrics = MetricsRegistry()
    tenants = [
        _Tenant(index, docs, seed, metrics) for index, docs in enumerate(_CORPUS_DOCS)
    ]
    controller = WayPartitionController(
        CacheControlConfig(total_ways=_TOTAL_WAYS, way_lines=_WAY_LINES),
        num_workloads=len(tenants),
        metrics=metrics,
    )
    return ControlLoop(metrics, tenants, controller)


def _control_ops(loop: ControlLoop) -> list[Op]:
    return [
        Op(
            f"adaptive.control.e{epoch}",
            "adaptive.control",
            functools.partial(loop.epoch, epoch),
            lambda row, epoch=epoch: loop.check_epoch(epoch),
        )
        for epoch in range(len(_PHASES) * _EPOCHS_PER_PHASE)
    ]


def _control_sim(loop: ControlLoop, values: dict[str, object]) -> dict[str, float]:
    if len(loop.in_force) != len(_PHASES) * _EPOCHS_PER_PHASE:
        return {}
    best_fixed = max(loop.fixed_rate(split) for split in _SPLITS)
    return {"control_gain_pp": 100 * (loop.run_rate(loop.in_force) - best_fixed)}


def _control_results(
    loop: ControlLoop, values: dict[str, object]
) -> list[ExperimentResult]:
    """The loop's epoch rows and metrics as one renderable result."""
    if not values:
        return []
    result = ExperimentResult("adaptive.control", adaptive.TITLE)
    for row in values.values():
        result.add(series="adaptive-control", **row)
    result.attach_metrics(loop.metrics)
    return [result]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "serving",
            "slo and hurryup: the synchronous fault-tolerant tree and the open-loop "
            "event engine; the search stack does the work and cachesim none",
            _preset,
            _serving_ops,
            _op_results,
            _serving_sim,
            {"queue_p99_err_pct": "%"},
            _SERVING_IDS,
        ),
        Workload(
            "online-control",
            "the adaptive way-partitioning loop: serving with trace recording on, "
            "short-stream SHARDS at R=0.1 and Mattson ladders on per-epoch streams",
            _control_setup,
            _control_ops,
            _control_results,
            _control_sim,
            {"control_gain_pp": "pp"},
            ("adaptive.control",),
        ),
        Workload(
            "paper-campaign",
            "every offline experiment: trace generation, cache simulators, branch "
            "predictor, L4, core models and DSE do the work and the search stack none",
            _preset,
            _campaign_ops,
            _op_results,
            _campaign_sim,
            {"paper_gap_pp": "pp"},
            _CAMPAIGN_IDS,
        ),
    )
}


# -- counts and digest -------------------------------------------------

_DESIGNS = re.compile(r"evaluated (\d+) candidates")


def _snapshot_sum(snapshots: Sequence[MetricsSnapshot], name: str) -> float:
    return float(sum(s.value(name) for s in snapshots if name in s))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_report(
    workload: Workload,
    state: object,
    outcomes: Sequence[OpOutcome],
    fastsim_delta: dict[str, float],
) -> PassReport:
    """Sim figures, work counts and output digest of one pass."""
    values = {o.op: o.value for o in outcomes if o.error is None}
    results = workload.results(state, values)
    snapshots = [r.metrics for r in results if r.metrics is not None]

    # Sampled accesses sum over ensemble members, so the ratio's base is
    # accesses fed times members: the effective per-member sampling rate.
    sampled = _snapshot_sum(snapshots, "repro.cachesim.shards.sampled")
    member_accesses = _MONITOR_REPLICAS * _snapshot_sum(
        snapshots, "repro.cachesim.shards.accesses"
    )
    queue_snapshots = [s for s in snapshots if "repro.search.queue.shed" in s]
    designs = [
        int(match.group(1))
        for r in results
        for note in r.notes
        if (match := _DESIGNS.search(note))
    ]
    kernel_calls = fastsim_delta["kernel_calls"]
    # A fallback is an engine request the fast kernel could not serve, so
    # attempts are kernel calls plus fallbacks.
    counts = {
        "cachesim.fastsim.accesses": fastsim_delta["accesses"],
        "cachesim.fastsim.kernel_calls": kernel_calls,
        "cachesim.fastsim.fallback_ratio": _ratio(
            fastsim_delta["fallbacks"], kernel_calls + fastsim_delta["fallbacks"]
        ),
        "cachesim.shards.sampled_accesses": sampled,
        "cachesim.shards.sample_ratio": _ratio(sampled, member_accesses),
        "search.leaf.queries": _snapshot_sum(snapshots, "repro.search.leaf.queries"),
        "search.leaf.postings_scored": _snapshot_sum(
            snapshots, "repro.search.leaf.postings_scored"
        ),
        "search.root.retry_ratio": _ratio(
            _snapshot_sum(snapshots, "repro.search.root.retries")
            + _snapshot_sum(snapshots, "repro.search.root.hedged_rpcs"),
            _snapshot_sum(snapshots, "repro.search.root.leaf_rpcs"),
        ),
        "search.queue.shed_ratio": _ratio(
            _snapshot_sum(queue_snapshots, "repro.search.queue.shed"),
            _snapshot_sum(queue_snapshots, "repro.search.root.leaf_rpcs"),
        ),
        "search.simmem.trace_accesses": _snapshot_sum(
            snapshots, "repro.mem.trace.accesses"
        ),
        "dse.designs_scored": float(sum(designs)),
    }
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.render().encode())
        if result.metrics is not None:
            digest.update(result.metrics.to_json().encode())
    return PassReport(workload.sim(state, values), counts, digest.hexdigest())


def fastsim_counters() -> dict[str, float]:
    """The fast-kernel work counters (host-time fields dropped)."""
    snapshot = fastsim.counters_snapshot()
    keys = ("accesses", "kernel_calls", "fallbacks")
    return {key: float(snapshot[key]) for key in keys}
