"""Figure 14: QPS improvement of the combined design (L4 + rebalance).

Scores the full proposal against the 18-core / 45 MiB baseline for the
paper's four scenarios and L4 capacities 128 MiB – 2 GiB.  Every score
comes from :class:`~repro.core.optimizer.HierarchyDesignEvaluator`, the
scorer the design-space exploration uses; a scenario is only a choice of
its inputs:

* **baseline** — the proposed design's spec (40 ns direct-mapped L4,
  overlapped miss path);
* **pessimistic** — the same evaluator at points with a 60 ns hit and a
  5 ns un-overlapped miss penalty;
* **associative** — the spec with a fully-associative L4 (``assoc=0``);
* **future** — the spec with memory latency grown 10%, and the L3 hit
  curve with 10% more misses.

The L3 term uses the effective hit curve (the same one behind Figures
9–11); the L4 hit rates come from simulating the composed run's L3 miss
stream, so the smaller-L3-feeds-hotter-L4 synergy is captured by
construction.

Paper anchors: +14% from rebalancing alone; +27% combined at 1 GiB/40 ns;
>+23% pessimistic; ~+1 point for a fully-associative L4; +38% future.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.hitcurve import LogLinearHitCurve, MissScaledHitCurve
from repro.core.optimizer import DesignPoint, HierarchyDesignEvaluator
from repro.experiments import common
from repro.experiments.common import ExperimentResult, RunPreset, composed_run
from repro.hw.catalog import proposed
from repro.hw.spec import HardwareSpec

EXPERIMENT_ID = "fig14"
TITLE = "QPS improvement combining an L4 cache with cache-for-cores"

SCENARIOS = ("baseline", "pessimistic", "associative", "future")
L4_SIZES_MIB = (128, 256, 512, 1024, 2048)
#: The pessimistic scenario's L4 (hit, un-overlapped miss penalty), ns.
PESSIMISTIC_L4_NS = (60.0, 5.0)
#: The future scenario's growth of memory latency and of L3 misses.
FUTURE_GROWTH = 1.10


def scenario_spec(scenario: str) -> HardwareSpec:
    """The proposed design's spec as one scenario sees it."""
    spec = proposed()
    if scenario == "associative":
        return replace(
            spec, name=f"{spec.name}-associative", l4=replace(spec.l4, assoc=0)
        )
    if scenario == "future":
        memory = replace(
            spec.memory, latency_ns=spec.memory.latency_ns * FUTURE_GROWTH
        )
        return replace(spec, name=f"{spec.name}-future", memory=memory)
    return spec


def design_point(scenario: str, l4_mib: int = 0) -> DesignPoint:
    """The proposed design's point; ``l4_mib=0`` is the rebalance alone.

    Units: ``l4_mib`` is paper-scale MiB.
    """
    spec = proposed()
    hit_ns, penalty_ns = (
        PESSIMISTIC_L4_NS if scenario == "pessimistic" else (spec.l4.latency_ns, 0.0)
    )
    return DesignPoint(
        cores=spec.cores_per_socket,
        l3_mib=spec.l3.size_mib,
        l4_mib=l4_mib,
        l4_hit_ns=hit_ns,
        l4_miss_penalty_ns=penalty_ns,
    )


def evaluators(preset: RunPreset) -> dict[str, HierarchyDesignEvaluator]:
    """One evaluator per scenario; baseline and pessimistic share one."""
    run_ = composed_run("s1-leaf", preset, platform="plt1")
    curve = LogLinearHitCurve.fig10_effective()

    def scorer(scenario: str, hit_curve) -> HierarchyDesignEvaluator:
        models = common.paper_models(scenario_spec(scenario))
        return HierarchyDesignEvaluator(run_, preset.scale, models, hit_curve)

    baseline = scorer("baseline", curve)
    return {
        "baseline": baseline,
        "pessimistic": baseline,
        "associative": scorer("associative", curve),
        "future": scorer("future", MissScaledHitCurve(curve, FUTURE_GROWTH)),
    }


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """The full scenario x capacity grid."""
    preset = preset or RunPreset.quick()
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    combined = {}
    rebalance = {}
    for scenario, evaluator in evaluators(preset).items():
        rebalance[scenario] = evaluator.evaluate(design_point(scenario))
        for paper_mib in L4_SIZES_MIB:
            design = evaluator.evaluate(design_point(scenario, paper_mib))
            combined[(scenario, paper_mib)] = design
            result.add(
                scenario=scenario,
                l4_mib=paper_mib,
                l4_hit=round(design.l4_hit_rate, 3),
                rebalance_pct=round(rebalance[scenario].qps_improvement * 100, 1),
                combined_pct=round(design.qps_improvement * 100, 1),
            )

    base_1g = combined[("baseline", 1024)]
    result.note(
        f"baseline 1 GiB: {base_1g.qps_improvement:+.1%} combined "
        f"({rebalance['baseline'].qps_improvement:+.1%} from rebalance alone) "
        "— paper: +27% (+14%)"
    )
    pess = combined[("pessimistic", 1024)]
    result.note(
        f"pessimistic 1 GiB: {pess.qps_improvement:+.1%} (paper: >+23%)"
    )
    assoc = combined[("associative", 1024)]
    result.note(
        "associative vs direct at 1 GiB: "
        f"{(assoc.qps_improvement - base_1g.qps_improvement) * 100:+.1f} points "
        "(paper: ~+1 point)"
    )
    future = combined[("future", 1024)]
    result.note(
        f"future 1 GiB: {future.qps_improvement:+.1%} (paper: +38%)"
    )
    return result
