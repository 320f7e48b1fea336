"""Design-space exploration: Figures 9–14 re-derived as one search.

Sweeps the full :meth:`~repro.dse.space.DesignSpace.paper_default`
candidate set (~4k hierarchies) under the paper's iso-area / iso-power
framing and reports the head of the Pareto frontier over
(QPS, area, energy per query).  The paper's chosen designs fall out as
special cases: the (23 cores, 23 MiB) candidate reproduces Figure 10's
quantized optimum bit-for-bit, and the (23 cores, 23 MiB, 1 GiB L4)
candidate is Figure 14's baseline scenario — both are scored by the same
:class:`~repro.core.optimizer.HierarchyDesignEvaluator`.
"""

from __future__ import annotations

from repro.dse import DesignPoint, DesignSpaceExplorer, ExplorationResult
from repro.experiments.common import ExperimentResult, RunPreset

EXPERIMENT_ID = "dse"
TITLE = "Design-space exploration under iso-area / iso-power"

#: Figure 10's chosen rebalance (c = 1 MiB/core on the 117 MiB budget).
REBALANCE_POINT = DesignPoint(cores=23, l3_mib=23.0)
#: The paper's final design: rebalanced L3 plus a 1 GiB, 40 ns L4.
PAPER_POINT = DesignPoint(
    cores=23, l3_mib=23.0, l4_mib=1024, l4_hit_ns=40.0, l4_miss_penalty_ns=0.0
)

#: Frontier rows to tabulate (the frontier itself has ~200 members).
_TOP_ROWS = 12


def run(preset: RunPreset | None = None) -> ExperimentResult:
    """Sweep, filter, and tabulate the head of the Pareto frontier."""
    return tabulate(DesignSpaceExplorer(preset=preset).explore())


def tabulate(exploration: ExplorationResult) -> ExperimentResult:
    """The frontier head and the paper cross-check notes of a sweep."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    for design in exploration.frontier[:_TOP_ROWS]:
        point = design.point
        result.add(
            cores=point.cores,
            l3_mib=point.l3_mib,
            l4_mib=point.l4_mib,
            l4_ns=point.l4_hit_ns if point.has_l4 else 0.0,
            qps_pct=round(design.qps_improvement * 100, 1),
            area_mib=round(design.area_mib, 1),
            watts=round(design.watts, 1),
            energy=round(design.energy_per_query, 3),
            l4_hit=round(design.l4_hit_rate, 3) if point.has_l4 else 0.0,
        )

    result.note(
        f"evaluated {len(exploration.evaluated)} candidates; "
        f"{len(exploration.feasible)} feasible under "
        f"area <= {exploration.constraints.max_area_mib:.0f} MiB-equiv and "
        f"{exploration.constraints.max_socket_watts:.1f} W; "
        f"frontier has {len(exploration.frontier)} points"
    )

    rebalance = exploration.find(REBALANCE_POINT)
    result.note(
        f"rebalance-only (23c / 23 MiB): {rebalance.qps_improvement:+.1%} "
        "— equals Figure 10's SMT-on quantized optimum (paper: +14%)"
    )
    paper = exploration.find(PAPER_POINT)
    on_frontier = exploration.frontier_contains(PAPER_POINT)
    result.note(
        f"chosen design (23c / 23 MiB + 1 GiB L4 @ 40 ns): "
        f"{paper.qps_improvement:+.1%}, "
        f"{'on' if on_frontier else 'NOT on'} the Pareto frontier "
        "— equals Figure 14's baseline scenario (paper: +27%)"
    )
    best = exploration.best_qps()
    result.note(
        f"highest-QPS feasible design: {best.point.describe()} at "
        f"{best.qps_improvement:+.1%} — trades "
        f"{best.energy_per_query / paper.energy_per_query - 1.0:+.1%} "
        "energy per query against the chosen design"
    )
    return result
