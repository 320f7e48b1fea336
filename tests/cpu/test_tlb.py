"""Tests for the TLB simulator."""

import numpy as np
import pytest

from repro._units import KiB, MiB
from repro.cpu.tlb import TlbConfig, simulate_tlb
from repro.errors import ConfigurationError
from repro.memtrace.trace import AccessKind, Segment, Trace


def trace_over_pages(num_pages, accesses, page=4096, seed=0):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, num_pages, accesses) * page + rng.integers(
        0, page, accesses
    )
    n = len(addrs)
    return Trace(
        addr=addrs.astype(np.uint64),
        kind=np.full(n, AccessKind.LOAD, np.uint8),
        segment=np.full(n, Segment.HEAP, np.uint8),
        thread=np.zeros(n, np.uint16),
        instruction_count=accesses * 3,
    )


class TestTlbConfig:
    def test_page_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            TlbConfig(page_size=3000)

    def test_platform_presets(self):
        assert TlbConfig.plt1_small_pages().page_size == 4 * KiB
        assert TlbConfig.plt1_huge_pages().page_size == 2 * MiB
        assert TlbConfig.plt2_huge_pages().page_size == 16 * MiB


class TestSimulateTlb:
    def test_small_working_set_hits(self):
        trace = trace_over_pages(num_pages=8, accesses=5000)
        result = simulate_tlb(trace, TlbConfig(l1_entries=64, stlb_entries=1024))
        assert result.l1_misses <= 8
        assert result.stlb_misses <= 8

    def test_large_working_set_misses(self):
        trace = trace_over_pages(num_pages=50_000, accesses=5000)
        result = simulate_tlb(trace, TlbConfig(l1_entries=64, stlb_entries=1024))
        assert result.stlb_misses > 3000

    def test_huge_pages_cut_misses(self):
        trace = trace_over_pages(num_pages=4000, accesses=8000)
        small = simulate_tlb(trace, TlbConfig(page_size=4096, stlb_entries=256))
        huge = simulate_tlb(
            trace, TlbConfig(page_size=2 * MiB, l1_entries=32, stlb_entries=256)
        )
        assert huge.stlb_misses < small.stlb_misses / 10

    def test_stlb_mpki(self):
        trace = trace_over_pages(num_pages=50_000, accesses=1000)
        result = simulate_tlb(trace, TlbConfig())
        assert result.stlb_mpki == pytest.approx(
            result.stlb_misses / (trace.instruction_count / 1000)
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_tlb(Trace.empty(), TlbConfig())
