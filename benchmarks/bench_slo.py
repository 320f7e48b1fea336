"""Regenerate the serving-robustness (SLO) experiment."""

import math

import pytest

from repro.experiments import slo


def _binomial_bound(n, p, alpha):
    """Smallest k with P(Bin(n, p) > k) < alpha."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if 1.0 - cdf < alpha:
            return k
    return n


def test_slo_regeneration(run_once, preset, benchmark):
    result = run_once(slo.run, preset)
    rows = result.rows

    # Degraded-result rate and p99 respond monotonically to the injected
    # fault rate (p99 saturates at the deadline).
    sweep = [r for r in rows if r["series"] == "fault-sweep"]
    rates = [r["x"] for r in sweep]
    assert rates == sorted(rates)
    degraded = [r["degraded_rate"] for r in sweep]
    assert degraded == sorted(degraded)
    assert degraded[-1] > 0.2
    # The fault-free row still serves under the 150 ms deadline, and M/M/1
    # leaf sojourns (mean 16 ms) have unbounded tails: a leaf misses its
    # 146 ms cutoff (the deadline less two 2 ms aggregation levels) with
    # probability e^(-146/16), so one of 8 leaves does with p0 ~ 8.7e-4.
    # Only degradation beyond what that tail explains fails the check.
    num_queries = max(300, int(25_000 * preset.scale))  # slo's query stream
    p0 = 1.0 - (1.0 - math.exp(-146.0 / 16.0)) ** 8
    allowed = _binomial_bound(num_queries, p0, 1e-3)
    assert round(degraded[0] * num_queries) <= allowed
    p99 = [r["p99_ms"] for r in sweep]
    assert p99 == sorted(p99)
    assert all(r["availability"] > 0.99 for r in sweep)

    # Looser SLOs mean fewer degraded results.
    slo_rows = [r for r in rows if r["series"] == "slo-sweep"]
    slo_degraded = [r["degraded_rate"] for r in slo_rows]
    assert slo_degraded == sorted(slo_degraded, reverse=True)

    # Hedging pays for itself against a spiky leaf population.
    hedged = {r["hedge"]: r for r in rows if r["series"] == "hedging"}
    assert hedged["after 45 ms"]["degraded_rate"] < hedged["off"]["degraded_rate"] / 2

    # The fault-free tree agrees with the analytic latency model.
    check = {r["source"]: r for r in rows if r["series"] == "model-check"}
    analytic = check["analytic M/M/1"]
    empirical = check["simulated serving tree"]
    assert empirical["mean_ms"] == pytest.approx(analytic["mean_ms"], rel=0.25)
    assert empirical["p99_ms"] == pytest.approx(analytic["p99_ms"], rel=0.40)

    benchmark.extra_info["degraded_at_max_fault"] = degraded[-1]
    benchmark.extra_info["p99_no_faults_ms"] = p99[0]
