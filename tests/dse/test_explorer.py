"""The exploration engine: paper cross-checks and frontier acceptance.

The expensive full sweep (~4k candidates at the quick preset) runs once,
module-scoped; the tests then pin it:

* the ``dse`` experiment's table and metrics, rendered from that sweep,
  equal the stored golden recorded before Figure 14 and the explorer
  shared one scorer;
* the (23 cores, 23 MiB) candidate's QPS improvement equals Figure 10's
  SMT-on quantized optimum exactly;
* the paper's chosen design sits on the Pareto frontier under the
  iso-area / iso-power constraints.
"""

import pathlib

import pytest

from repro.core.optimizer import L3_GRID_MIB, HierarchyDesignEvaluator
from repro.dse.explorer import (
    Constraints,
    DesignSpaceExplorer,
    ExplorationResult,
)
from repro.dse.pareto import dominates, pareto_frontier
from repro.dse.space import DesignPoint, DesignSpace
from repro.errors import ConfigurationError
from repro.experiments import dse, fig10
from repro.experiments.common import RunPreset
from repro.experiments.runner import _fallback_metrics

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"

REBALANCE = DesignPoint(cores=23, l3_mib=23.0)
CHOSEN = DesignPoint(
    cores=23, l3_mib=23.0, l4_mib=1024, l4_hit_ns=40.0, l4_miss_penalty_ns=0.0
)


@pytest.fixture(scope="module")
def preset():
    return RunPreset.quick()


@pytest.fixture(scope="module")
def explorer(preset):
    return DesignSpaceExplorer(preset=preset)


@pytest.fixture(scope="module")
def exploration(explorer) -> ExplorationResult:
    return explorer.explore()


class TestConstraints:
    def test_iso_plt1_budgets(self):
        constraints = Constraints.iso_plt1()
        assert constraints.max_area_mib == 117.0  # 18 x 4 + 45
        assert constraints.max_socket_watts == pytest.approx(181.5)

    def test_invalid_budgets_raise(self):
        with pytest.raises(ConfigurationError):
            Constraints(max_area_mib=0.0)
        with pytest.raises(ConfigurationError):
            Constraints(max_socket_watts=-1.0)
        with pytest.raises(ConfigurationError):
            Constraints.iso_plt1(power_slack=-0.1)

    def test_none_disables_a_bound(self, exploration):
        unbounded = Constraints()
        assert all(unbounded.allows(d) for d in exploration.evaluated)


class TestGridQuantization:
    def test_paper_design_point_is_on_the_grid(self):
        assert 23.0 in L3_GRID_MIB
        assert HierarchyDesignEvaluator.quantized_l3_mib(23.0) == 23.0

    def test_nearest_capacity_wins(self):
        assert HierarchyDesignEvaluator.quantized_l3_mib(22.4) == 23.0
        assert HierarchyDesignEvaluator.quantized_l3_mib(6.0) == 4.5

    def test_ties_break_toward_the_smaller_capacity(self):
        assert HierarchyDesignEvaluator.quantized_l3_mib(20.5) == 18.0


class TestFigureCrossChecks:
    def test_rebalance_point_equals_fig10_optimum_bitwise(self, explorer):
        groups = fig10.sweeps()
        optimum = max(groups["smt-on-quantized"], key=lambda p: p.improvement)
        assert optimum.cores == 23 and optimum.l3_mib == 23.0
        design = explorer.evaluator.evaluate(REBALANCE)
        assert design.qps_improvement == optimum.improvement

    def test_dse_table_and_metrics_equal_the_stored_golden(
        self, exploration, preset
    ):
        result = dse.tabulate(exploration)
        _fallback_metrics(result, preset)
        assert result.render() + "\n" == (GOLDEN / "dse.quick.txt").read_text()
        assert result.metrics.to_json() == (
            GOLDEN / "dse.quick.metrics.json"
        ).read_text()

    def test_pessimistic_latencies_cost_throughput(self, explorer):
        pessimistic = explorer.evaluator.evaluate(
            DesignPoint(
                cores=23, l3_mib=23.0, l4_mib=1024, l4_hit_ns=60.0,
                l4_miss_penalty_ns=5.0,
            )
        )
        chosen = explorer.evaluator.evaluate(CHOSEN)
        assert pessimistic.qps < chosen.qps
        # ... but the L4 hit rate is latency-independent (shared memo).
        assert pessimistic.l4_hit_rate == chosen.l4_hit_rate


class TestExploration:
    def test_sweeps_thousands_of_candidates(self, exploration):
        assert len(exploration.evaluated) >= 1000
        assert len(exploration.evaluated) == len(DesignSpace.paper_default())

    def test_feasible_set_respects_constraints(self, exploration):
        constraints = exploration.constraints
        for design in exploration.feasible:
            assert design.area_mib <= constraints.max_area_mib
            assert design.watts <= constraints.max_socket_watts
        infeasible = set(exploration.evaluated) - set(exploration.feasible)
        for design in infeasible:
            assert not constraints.allows(design)

    def test_frontier_is_the_feasible_pareto_set(self, exploration):
        assert set(exploration.frontier) <= set(exploration.feasible)
        for a in exploration.frontier:
            for b in exploration.frontier:
                assert not dominates(a, b)

    def test_paper_design_is_on_the_frontier(self, exploration):
        assert exploration.frontier_contains(CHOSEN)
        design = exploration.find(CHOSEN)
        assert design is not None and design.qps_improvement > 0.20

    def test_find_unknown_point_returns_none(self, exploration):
        assert exploration.find(DesignPoint(cores=1, l3_mib=1.0)) is None
        assert not exploration.frontier_contains(DesignPoint(cores=1, l3_mib=1.0))

    def test_best_qps_is_feasible_and_maximal(self, exploration):
        best = exploration.best_qps()
        assert best in exploration.feasible
        assert all(d.qps <= best.qps for d in exploration.feasible)
        assert best.qps_improvement > 0.20  # the search beats the baseline
        assert best.area_mib <= 117.0  # within PLT1's iso-area budget

    def test_best_qps_raises_when_nothing_is_feasible(self, exploration):
        starved = ExplorationResult(
            evaluated=exploration.evaluated,
            feasible=(),
            frontier=(),
            constraints=Constraints(max_area_mib=1.0),
        )
        with pytest.raises(ConfigurationError, match="feasible"):
            starved.best_qps()

    def test_area_relaxation_only_grows_the_frontier(self, exploration):
        """The engine-level twin of the Hypothesis property in test_pareto."""
        watts = exploration.constraints.max_socket_watts
        frontiers = []
        for budget in (105.0, 117.0):
            feasible = [
                d
                for d in exploration.evaluated
                if Constraints(max_area_mib=budget, max_socket_watts=watts).allows(d)
            ]
            frontiers.append(set(pareto_frontier(feasible)))
        tight, relaxed = frontiers
        assert tight and tight <= relaxed

    def test_rebalance_only_point_evaluates_without_l4(self, exploration):
        design = exploration.find(REBALANCE)
        assert design is not None
        assert design.l4_hit_rate is None
        assert design.point.l4_mib == 0
        assert design.watts == pytest.approx(143.0 + 5 * 143.0 * 0.0377)
