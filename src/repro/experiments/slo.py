"""Serving robustness under the latency SLO (the §IV-B check, end to end).

The paper evaluates throughput and notes (§IV-B) that per-query tail
latency "remained well within the margins of our service level objective"
— an analytic claim our :class:`~repro.search.latency.QueryLatencyModel`
makes checkable.  This experiment closes the loop behaviourally: it
pushes real query streams through the functional serving tree — each
query run to completion on the event-driven
:class:`~repro.search.engine.ServingEngine`, its leaf sojourns sampled
from the M/M/1 model — while a
:class:`~repro.search.faults.FaultInjector` makes leaves spike, error,
and die, and reports what a front end actually observes:

* **model-check** — with no faults injected, the empirical mean and p99
  of the simulated fan-out agree with the analytic M/M/1 formulas (the
  two views describe the same distribution).
* **fault-sweep** — availability, degraded-result rate, and p99 versus
  the injected fault rate at a fixed deadline; both degradation metrics
  respond monotonically.
* **slo-sweep** — the deadline itself swept at a fixed fault rate:
  looser SLOs trade latency for completeness.
* **hedging** — duplicate RPCs for slow leaves cut the degraded rate by
  an order of magnitude, for a bounded duplicate-work cost.
* **fail-stop** — a permanent leaf death degrades every subsequent query
  until repair, but availability holds (partial aggregation).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, RunPreset
from repro.search.cluster import SearchCluster
from repro.search.documents import CorpusConfig
from repro.search.faults import FaultSpec
from repro.search.latency import QueryLatencyModel
from repro.search.policies import HedgePolicy, RetryPolicy, ServingPolicy
from repro.search.querygen import QueryGenerator, QueryGeneratorConfig

EXPERIMENT_ID = "slo"
TITLE = "Serving robustness: availability, degraded rate, p99 vs faults + SLO"

#: The serving tree under test: 8 leaves behind one intermediate level.
_NUM_LEAVES = 8
_FANOUT = 4
#: Leaf queueing model (service time at 50% utilization → 16 ms mean).
_UTILIZATION = 0.5
_DEADLINE_MS = 150.0
_FAULT_RATES = (0.0, 0.08, 0.20, 0.35)
_SLO_SWEEP_MS = (60.0, 120.0, 240.0)
_SPIKE_MULTIPLIER = 6.0


def _model() -> QueryLatencyModel:
    return QueryLatencyModel(
        base_service_ms=8.0, fanout=_NUM_LEAVES, overhead_ms=2.0
    )


def _spec(rate: float, hard: float = 0.0) -> FaultSpec:
    """Fault mix at one sweep point: spikes plus half as many errors."""
    return FaultSpec(
        latency_spike_rate=rate,
        spike_multiplier=_SPIKE_MULTIPLIER,
        transient_error_rate=rate / 2,
        hard_failure_rate=hard,
        utilization=_UTILIZATION,
    )


def _build(preset: RunPreset) -> tuple[SearchCluster, list[list[int]]]:
    """One cluster and one query stream, reused (re-faulted) per config."""
    num_queries = max(300, int(25_000 * preset.scale))
    cluster = SearchCluster.build(
        corpus_config=CorpusConfig(
            num_documents=max(150, int(9_600 * preset.scale)),
            vocabulary_size=300,
            seed=preset.seed,
        ),
        num_leaves=_NUM_LEAVES,
        fanout=_FANOUT,
        record_traces=False,
        seed=preset.seed,
    )
    generator = QueryGenerator(
        QueryGeneratorConfig(
            vocabulary_size=300, distinct_queries=200, seed=preset.seed
        )
    )
    return cluster, generator.generate(num_queries)


def model_check_rows(
    result: ExperimentResult,
    cluster: SearchCluster,
    queries: list[list[int]],
    preset: RunPreset,
) -> None:
    """Fault-free serving agrees with the analytic tail formulas."""
    model = _model()
    faulted = cluster.with_faults(
        _spec(0.0), latency_model=model, seed=preset.seed
    )
    __, outcomes = faulted.serve_with_outcomes(queries)  # no deadline
    result.add(
        series="model-check",
        source="analytic M/M/1",
        mean_ms=round(model.mean_query_ms(_UTILIZATION), 1),
        p99_ms=round(model.query_quantile_ms(0.99, _UTILIZATION), 1),
    )
    result.add(
        series="model-check",
        source="simulated serving tree",
        mean_ms=round(outcomes.mean_ms(), 1),
        p99_ms=round(outcomes.p99_ms(), 1),
    )


def fault_sweep_rows(
    result: ExperimentResult,
    cluster: SearchCluster,
    queries: list[list[int]],
    preset: RunPreset,
) -> None:
    """Degradation versus injected fault rate at the 150 ms deadline."""
    for rate in _FAULT_RATES:
        faulted = cluster.with_faults(
            _spec(rate), latency_model=_model(), seed=preset.seed
        )
        __, outcomes = faulted.serve_with_outcomes(
            queries, deadline_ms=_DEADLINE_MS
        )
        injector = faulted.frontend.injector
        result.add(
            series="fault-sweep",
            x=round(rate * 100, 1),
            availability=round(outcomes.availability, 4),
            degraded_rate=round(outcomes.degraded_rate, 4),
            p99_ms=round(outcomes.p99_ms(), 1),
            mean_ms=round(outcomes.mean_ms(), 1),
            spikes=injector.spikes,
            transient_errors=injector.transient_errors,
        )
    result.note(
        f"fault-sweep x is the injected spike rate in % (errors at half "
        f"that); deadline {_DEADLINE_MS:g} ms caps p99 by construction — "
        "degraded results, not latency, absorb the faults."
    )


def slo_sweep_rows(
    result: ExperimentResult,
    cluster: SearchCluster,
    queries: list[list[int]],
    preset: RunPreset,
) -> None:
    """Deadline sweep at a fixed 10%-spike / 5%-error fault mix."""
    for slo_ms in _SLO_SWEEP_MS:
        faulted = cluster.with_faults(
            _spec(0.10), latency_model=_model(), seed=preset.seed
        )
        __, outcomes = faulted.serve_with_outcomes(queries, deadline_ms=slo_ms)
        result.add(
            series="slo-sweep",
            x=slo_ms,
            degraded_rate=round(outcomes.degraded_rate, 4),
            p99_ms=round(outcomes.p99_ms(), 1),
            mean_ms=round(outcomes.mean_ms(), 1),
        )
    result.note(
        "slo-sweep: a tighter deadline converts tail latency into "
        "degraded results — the completeness/latency trade the serving "
        "tree navigates."
    )


def hedging_rows(
    result: ExperimentResult,
    cluster: SearchCluster,
    queries: list[list[int]],
    preset: RunPreset,
) -> None:
    """Hedged requests against a spike-heavy leaf population."""
    spike_spec = FaultSpec(
        latency_spike_rate=0.25,
        spike_multiplier=_SPIKE_MULTIPLIER,
        utilization=_UTILIZATION,
    )
    for name, hedge in (("off", None), ("after 45 ms", HedgePolicy(45.0))):
        policy = ServingPolicy(retry=RetryPolicy(), hedge=hedge)
        faulted = cluster.with_faults(
            spike_spec, policy=policy, latency_model=_model(), seed=preset.seed
        )
        __, outcomes = faulted.serve_with_outcomes(
            queries, deadline_ms=_DEADLINE_MS
        )
        injector = faulted.frontend.injector
        duplicate_work = injector.calls / (len(queries) * _NUM_LEAVES) - 1.0
        result.add(
            series="hedging",
            hedge=name,
            degraded_rate=round(outcomes.degraded_rate, 4),
            p99_ms=round(outcomes.p99_ms(), 1),
            extra_rpcs_pct=round(duplicate_work * 100, 1),
        )
    result.note(
        "hedging: duplicating RPCs slower than 45 ms buys back nearly all "
        "deadline misses for a bounded amount of extra leaf work — the "
        "tail-at-scale trade."
    )


def fail_stop_rows(
    result: ExperimentResult,
    cluster: SearchCluster,
    queries: list[list[int]],
    preset: RunPreset,
) -> None:
    """A permanent leaf death part-way through the run."""
    faulted = cluster.with_faults(
        _spec(0.0, hard=0.002), latency_model=_model(), seed=preset.seed
    )
    __, outcomes = faulted.serve_with_outcomes(queries, deadline_ms=_DEADLINE_MS)
    injector = faulted.frontend.injector
    result.add(
        series="fail-stop",
        dead_leaves=len(injector.died_at_ms),
        availability=round(outcomes.availability, 4),
        degraded_rate=round(outcomes.degraded_rate, 4),
        p99_ms=round(outcomes.p99_ms(), 1),
    )
    result.note(
        "fail-stop: partial aggregation keeps availability at "
        f"{outcomes.availability:.1%} with {len(injector.died_at_ms)} "
        "leaf(s) permanently dead — queries degrade instead of erroring."
    )


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """All serving-robustness studies."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    cluster, queries = _build(preset)
    model_check_rows(result, cluster, queries, preset)
    fault_sweep_rows(result, cluster, queries, preset)
    slo_sweep_rows(result, cluster, queries, preset)
    hedging_rows(result, cluster, queries, preset)
    fail_stop_rows(result, cluster, queries, preset)
    # Cumulative across every sweep configuration (the faulted views all
    # share the base cluster's registry).
    result.attach_metrics(cluster.metrics_snapshot())
    return result
