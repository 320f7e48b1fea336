"""Tests for the simulated-clock fault-injection substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.search.faults import FaultInjector, FaultSpec, SimulatedClock
from repro.search.latency import QueryLatencyModel


class TestSimulatedClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimulatedClock()
        assert clock.now_ms == 0.0
        assert clock.advance(12.5) == 12.5
        clock.advance(0.0)
        assert clock.now_ms == 12.5

    def test_monotonic(self):
        clock = SimulatedClock(start_ms=5.0)
        with pytest.raises(ConfigurationError):
            clock.advance(-1.0)

    def test_advance_to_sets_the_reading(self):
        clock = SimulatedClock(start_ms=0.1)
        assert clock.advance_to(0.3) == 0.3
        assert clock.now_ms == 0.3
        with pytest.raises(ConfigurationError):
            clock.advance_to(0.2)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatedClock(start_ms=-1.0)


class TestFaultSpec:
    def test_defaults_are_healthy(self):
        spec = FaultSpec()
        assert spec.latency_spike_rate == 0.0
        assert spec.transient_error_rate == 0.0
        assert spec.hard_failure_rate == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_spike_rate": 1.5},
            {"transient_error_rate": -0.1},
            {"hard_failure_rate": 2.0},
            {"spike_multiplier": 0.5},
            {"hard_fail_detect_ms": -1.0},
            {"utilization": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)


class TestFaultInjector:
    def model(self):
        return QueryLatencyModel(base_service_ms=8.0, fanout=4, overhead_ms=2.0)

    def test_deterministic_given_seed(self):
        a = FaultInjector(FaultSpec(latency_spike_rate=0.3), seed=42)
        b = FaultInjector(FaultSpec(latency_spike_rate=0.3), seed=42)
        assert [a.plan_rpc(0) for __ in range(50)] == [
            b.plan_rpc(0) for __ in range(50)
        ]

    def test_healthy_draws_match_model_mean(self):
        spec = FaultSpec(utilization=0.5)
        injector = FaultInjector(spec, model=self.model(), seed=7)
        draws = [injector.plan_rpc(0) for __ in range(4000)]
        assert {draw.kind for draw in draws} == {"ok"}
        # M/M/1 sojourn at rho=0.5: mean 8 / 0.5 = 16 ms.
        assert np.mean([d.latency_ms for d in draws]) == pytest.approx(16.0, rel=0.1)

    def test_spikes_multiply_latency(self):
        calm = FaultInjector(FaultSpec(utilization=0.0), seed=3)
        spiky = FaultInjector(
            FaultSpec(latency_spike_rate=1.0, spike_multiplier=6.0, utilization=0.0),
            seed=3,
        )
        # Same seed, same variate consumption: draws are coupled 6x.
        for __ in range(20):
            draw = spiky.plan_rpc(1)
            assert draw.spiked
            assert draw.latency_ms == pytest.approx(6.0 * calm.plan_rpc(1).latency_ms)
        assert spiky.spikes == 20

    def test_transient_errors_classified_and_counted(self):
        injector = FaultInjector(FaultSpec(transient_error_rate=1.0), seed=0)
        draw = injector.plan_rpc(2)
        assert draw.kind == "transient" and draw.failed
        # The error surfaces after the reply's full latency.
        assert draw.latency_ms > 0
        assert injector.transient_errors == 1
        # Retryable: the leaf stays alive.
        assert not injector.is_dead(2)

    def test_hard_failure_is_fail_stop(self):
        injector = FaultInjector(FaultSpec(hard_failure_rate=1.0), seed=0)
        injector.clock.advance(100.0)
        draw = injector.plan_rpc(5)
        assert draw.kind == "hard" and draw.failed
        assert draw.latency_ms == injector.spec.hard_fail_detect_ms
        assert injector.is_dead(5)
        assert injector.died_at_ms[5] == 100.0
        # Dead leaves keep failing even when the dice would be kind.
        healthy_other = FaultSpec(hard_failure_rate=0.0)
        injector.spec = healthy_other
        assert injector.plan_rpc(5).kind == "dead"
        # ... but other leaves still answer.
        other = injector.plan_rpc(6)
        assert other.kind == "ok" and other.latency_ms > 0

    def test_revive(self):
        injector = FaultInjector(FaultSpec(hard_failure_rate=1.0), seed=0)
        assert injector.plan_rpc(1).kind == "hard"
        injector.revive(1)
        injector.spec = FaultSpec()
        draw = injector.plan_rpc(1)
        assert draw.kind == "ok" and draw.latency_ms > 0

    def test_variate_consumption_is_rate_independent(self):
        """Runs at different fault rates share one latency stream."""
        quiet = FaultInjector(FaultSpec(utilization=0.3), seed=9)
        noisy = FaultInjector(
            FaultSpec(transient_error_rate=0.5, utilization=0.3), seed=9
        )
        quiet_draws = [quiet.plan_rpc(0).latency_ms for __ in range(30)]
        noisy_draws = [noisy.plan_rpc(0) for __ in range(30)]
        assert {d.kind for d in noisy_draws} == {"ok", "transient"}
        assert [d.latency_ms for d in noisy_draws] == pytest.approx(quiet_draws)
