"""Tests for the one design scorer (Figure 14 and the design-space search)."""

import numpy as np
import pytest

from repro._units import MiB
from repro.core.hitcurve import LogLinearHitCurve, MissScaledHitCurve
from repro.core.optimizer import (
    L3_GRID_MIB,
    DesignPoint,
    EvaluatedDesign,
    HierarchyDesignEvaluator,
)
from repro.errors import ConfigurationError
from repro.experiments import fig14
from repro.hw.adapters import derive_models
from repro.hw.catalog import proposed


class FakeStreamSource:
    """A stream source with heap-like reuse, standing in for a composed run."""

    block_size = 64

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        heap = (rng.zipf(1.25, 40_000) % 20_000).astype(np.int64)
        shard = rng.integers(1 << 22, 1 << 26, 20_000)
        self._lines = np.concatenate([heap, shard])[rng.permutation(60_000)]
        self._segments = np.where(self._lines < 1 << 22, 1, 2).astype(np.uint8)
        self.demand_calls = 0
        self.sweeps = []

    def _miss_mask(self, capacity_bytes):
        from repro.cachesim.misscurve import MissRatioCurve

        curve = MissRatioCurve(self._lines)
        return curve.miss_mask(max(1, capacity_bytes // 64))

    def l4_demand(self, l3_capacity_bytes):
        self.demand_calls += 1
        miss = self._miss_mask(l3_capacity_bytes)
        return self._lines[miss], self._segments[miss]

    def l3_mpki(self, capacity_bytes):
        return float(np.count_nonzero(self._miss_mask(capacity_bytes))) / 60.0

    def solve_l3_sweep(self, capacities_bytes):
        self.sweeps.append(list(capacities_bytes))
        return []


def _evaluator(scenario="baseline", source=None):
    curve = LogLinearHitCurve.fig10_effective()
    if scenario == "future":
        curve = MissScaledHitCurve(curve, fig14.FUTURE_GROWTH)
    return HierarchyDesignEvaluator(
        source if source is not None else FakeStreamSource(),
        1 / 512,
        derive_models(fig14.scenario_spec(scenario)),
        curve,
    )


@pytest.fixture(scope="module")
def evaluator():
    return _evaluator()


REBALANCE = DesignPoint(cores=23, l3_mib=23.0)


def _with_l4(l4_mib, hit_ns=40.0, penalty_ns=0.0):
    return DesignPoint(
        cores=23,
        l3_mib=23.0,
        l4_mib=l4_mib,
        l4_hit_ns=hit_ns,
        l4_miss_penalty_ns=penalty_ns,
    )


class TestScenarios:
    def test_all_four(self):
        assert fig14.SCENARIOS == ("baseline", "pessimistic", "associative", "future")
        names = {fig14.scenario_spec(s).name for s in fig14.SCENARIOS}
        # baseline and pessimistic differ only in the scored points.
        assert len(names) == 3
        assert fig14.scenario_spec("associative").l4.assoc == 0
        assert fig14.design_point("pessimistic", 1024) == _with_l4(1024, 60.0, 5.0)
        assert fig14.design_point("baseline", 1024) == _with_l4(1024)
        assert fig14.design_point("future") == REBALANCE

    def test_future_scales_misses(self):
        spec = fig14.scenario_spec("future")
        assert spec.memory.latency_ns == pytest.approx(110.0 * 1.10)
        curve = LogLinearHitCurve.fig10_effective()
        scaled = MissScaledHitCurve(curve, 1.10)
        for capacity in (18 * MiB, 23 * MiB, 45 * MiB):
            assert 1.0 - scaled(capacity) == pytest.approx(
                (1.0 - curve(capacity)) * 1.10
            )

    def test_miss_scale_validated(self):
        with pytest.raises(ConfigurationError):
            MissScaledHitCurve(LogLinearHitCurve.fig10_effective(), 0.9)


class TestEvaluate:
    def test_rebalance_improvement_matches_fig10(self, evaluator):
        design = evaluator.evaluate(REBALANCE)
        assert design.qps_improvement == pytest.approx(0.14, abs=0.02)
        assert design.l4_hit_rate is None

    def test_l4_adds_on_top(self, evaluator):
        design = evaluator.evaluate(_with_l4(1024))
        assert design.qps_improvement > evaluator.evaluate(REBALANCE).qps_improvement
        assert design.watts > evaluator.evaluate(REBALANCE).watts

    def test_bigger_l4_bigger_gain(self, evaluator):
        small = evaluator.evaluate(_with_l4(128))
        large = evaluator.evaluate(_with_l4(2048))
        assert large.qps_improvement >= small.qps_improvement

    def test_pessimistic_worse_than_baseline(self, evaluator):
        base = evaluator.evaluate(_with_l4(1024))
        pessimistic = evaluator.evaluate(_with_l4(1024, 60.0, 5.0))
        assert pessimistic.qps_improvement < base.qps_improvement
        assert pessimistic.l4_hit_rate == base.l4_hit_rate

    def test_associative_at_least_as_good(self, evaluator):
        base = evaluator.evaluate(_with_l4(256))
        assoc = _evaluator("associative").evaluate(_with_l4(256))
        assert assoc.l4_hit_rate >= base.l4_hit_rate - 0.02

    def test_future_slower_memory_costs_rebalance_gain(self, evaluator):
        future = _evaluator("future").evaluate(REBALANCE)
        assert future.qps_improvement < evaluator.evaluate(REBALANCE).qps_improvement

    def test_render(self, evaluator):
        design = evaluator.evaluate(_with_l4(1024))
        assert isinstance(design, EvaluatedDesign)
        assert "23c/23MiB+L4:1024MiB@40ns" in design.render()
        assert "no L4" in evaluator.evaluate(REBALANCE).render()

    def test_sweep_grid_size(self):
        """A 20-point grid on one L3 size costs one demand stream."""
        source = FakeStreamSource()
        evaluator = _evaluator(source=source)
        designs = [
            evaluator.evaluate(_with_l4(size, hit_ns, penalty_ns))
            for size in (128, 256, 512, 1024, 2048)
            for hit_ns, penalty_ns in ((40.0, 0.0), (60.0, 5.0))
            for __ in range(2)
        ]
        assert len(designs) == 4 * 5
        assert source.demand_calls == 1

    def test_scale_validated(self):
        with pytest.raises(ConfigurationError):
            HierarchyDesignEvaluator(
                FakeStreamSource(), 2.0, derive_models(proposed())
            )

    def test_prime_solves_points_and_grid_in_one_sweep(self):
        source = FakeStreamSource()
        evaluator = _evaluator(source=source)
        evaluator.prime([23.0, 7.0, 7.0])
        (sweep,) = source.sweeps
        assert sweep == sorted(sweep)
        expected = {int(mib * MiB / 512) for mib in (*L3_GRID_MIB, 7.0)}
        assert set(sweep) == expected
