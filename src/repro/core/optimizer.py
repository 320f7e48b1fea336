"""The design scorer: one candidate hierarchy against the PLT1 baseline.

The paper's §IV result is one question asked at many points: how much
throughput does a (cores, L3, L4) design gain over the 18-core / 45 MiB
PLT1 baseline?  :class:`HierarchyDesignEvaluator` is the one place that
answers it.  Figure 14 asks it at the proposed design under four
scenarios; the design-space explorer (:mod:`repro.dse`) asks it for
thousands of candidates.  Both score through this class.

An evaluator binds three inputs:

1. a :class:`~repro.hw.adapters.DerivedModels` bundle — Eq. 1's
   latencies, the area and power models and the L4 geometry of one
   hardware spec (Figure 14's scenarios are spec variants: a
   fully-associative L4, or memory 10% slower);
2. an **L3 hit curve** in paper-scale bytes, by default the Figure 9/10
   effective curve;
3. an **L4 demand stream source** — anything exposing ``block_size``,
   ``l4_demand``, ``l3_mpki`` and ``solve_l3_sweep``;
   :class:`~repro.cachesim.composed.ComposedHierarchy` provides these
   natively.

The L4 demand stream is taken at the candidate's L3 capacity rounded to
the nearest :data:`L3_GRID_MIB` point, so the synergy the paper
highlights — a smaller L3 feeds the L4 hotter data, raising its hit rate
~10% — emerges from simulation rather than being assumed.  Demand
streams (per grid capacity), L4 hit rates (per grid capacity and L4
size; hit rates do not depend on latencies) and L3 MPKI (per capacity)
are memoized, so scoring thousands of candidates costs a few dozen
simulations.

Experiments run at reduced ``scale``; capacities accepted by this module
are paper-scale and are scaled internally before touching streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

import numpy as np

from repro._units import MiB
from repro.core.hitcurve import LogLinearHitCurve
from repro.core.l4cache import L4Cache
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.hw.adapters import DerivedModels

#: L3 capacities (paper-scale MiB) at which L4 demand streams are taken.
#: The grid is the CAT half-way ladder with 22.5 MiB replaced by the
#: paper's 23 MiB design point, so the proposed design's L4 sees exactly
#: the demand stream Figures 13/14 simulate.
L3_GRID_MIB = (4.5, 9.0, 13.5, 18.0, 23.0, 27.0, 31.5, 36.0, 40.5, 45.0)


class L4DemandSource(Protocol):
    """What the evaluator needs from a simulated hierarchy.

    Units: every capacity is stream-scale bytes.
    """

    block_size: int

    def l4_demand(self, l3_capacity_bytes: int) -> tuple[np.ndarray, np.ndarray]:
        """(lines, segments) of the L3 miss stream at a capacity."""

    def l3_mpki(self, capacity_bytes: int) -> float:
        """Per-thread L3 misses per kilo-instruction at a capacity."""

    def solve_l3_sweep(self, capacities_bytes: list[int]) -> list:
        """Solve the L3 at many capacities in one batch."""


@dataclass(frozen=True)
class DesignPoint:
    """One candidate hierarchy: cores + L3, optionally an L4.

    ``l4_mib == 0`` means no L4; the latency fields are then inert.

    Units: ``l3_mib`` and ``l4_mib`` are paper-scale MiB; ``l4_hit_ns``
    and ``l4_miss_penalty_ns`` are nanoseconds.
    """

    cores: int
    l3_mib: float
    l4_mib: int = 0
    l4_hit_ns: float = 40.0
    l4_miss_penalty_ns: float = 0.0

    def __post_init__(self) -> None:
        """Validate every field; units per the class docstring.

        Units: ``l3_mib``/``l4_mib`` are MiB; ``l4_hit_ns`` and
        ``l4_miss_penalty_ns`` are nanoseconds.
        """
        if not isinstance(self.cores, int) or isinstance(self.cores, bool):
            raise ConfigurationError(f"cores must be an int, got {self.cores!r}")
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {self.cores}")
        if self.l3_mib <= 0:
            raise ConfigurationError(f"l3_mib must be positive, got {self.l3_mib}")
        if self.l4_mib < 0:
            raise ConfigurationError(f"l4_mib must be >= 0, got {self.l4_mib}")
        if self.l4_hit_ns <= 0:
            raise ConfigurationError("l4_hit_ns must be positive")
        if self.l4_miss_penalty_ns < 0:
            raise ConfigurationError("l4_miss_penalty_ns must be >= 0")

    @property
    def has_l4(self) -> bool:
        """Whether this design includes an L4."""
        return self.l4_mib > 0

    @property
    def sort_key(self) -> tuple:
        """Canonical ordering tuple (the enumeration order of a space)."""
        return (
            self.cores,
            self.l3_mib,
            self.l4_mib,
            self.l4_hit_ns,
            self.l4_miss_penalty_ns,
        )

    def describe(self) -> str:
        """Compact human-readable label, e.g. ``23c/23.0MiB+L4:1024MiB``."""
        label = f"{self.cores}c/{self.l3_mib:g}MiB"
        if self.has_l4:
            label += f"+L4:{self.l4_mib}MiB@{self.l4_hit_ns:g}ns"
        return label


@dataclass(frozen=True)
class EvaluatedDesign:
    """One scored candidate — the objective vector plus its diagnostics.

    Units: ``qps`` is relative throughput (cores x IPC, same unit as the
    figure experiments); ``area_mib`` is core-equivalent MiB;
    ``watts`` is watts; ``energy_per_query`` is watts per unit of
    relative QPS (relative joules/query); ``memory_nj_per_ki`` is
    nanojoules per kilo-instruction.
    """

    point: DesignPoint
    qps: float
    qps_improvement: float
    area_mib: float
    watts: float
    energy_per_query: float
    l3_hit_rate: float
    l4_hit_rate: float | None
    memory_nj_per_ki: float

    def render(self) -> str:
        """One-line summary for reports."""
        l4 = f"h(L4)={self.l4_hit_rate:5.1%}" if self.l4_hit_rate is not None else "no L4     "
        return (
            f"{self.point.describe():<26} QPS {self.qps_improvement:+6.1%}  "
            f"area {self.area_mib:6.1f} MiB  {self.watts:6.1f} W  "
            f"E/q {self.energy_per_query:6.3f}  {l4}"
        )


class HierarchyDesignEvaluator:
    """Scores candidate designs against the 18-core / 45 MiB PLT1 baseline.

    Parameters
    ----------
    stream_source:
        The simulated hierarchy whose L3 miss stream feeds the L4.
    scale:
        Stream scale of ``stream_source`` (paper bytes x scale = stream
        bytes).
    models:
        The calibrated model bundle of one hardware spec.
    hit_rate_fn:
        L3 hit rate vs. paper-scale capacity in bytes; defaults to the
        Figure 10 effective curve.
    """

    def __init__(
        self,
        stream_source: L4DemandSource,
        scale: float,
        models: DerivedModels,
        hit_rate_fn: Callable[[int], float] | None = None,
    ) -> None:
        """Bind the inputs and score the PLT1 baseline once."""
        # Deferred: repro.hw's adapters import repro.core.
        from repro.hw.catalog import plt1

        if not 0 < scale <= 1:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        self.source = stream_source
        self.scale = scale
        self.models = models
        self.hit_rate_fn = hit_rate_fn or LogLinearHitCurve.fig10_effective()
        baseline = plt1()
        self.baseline_qps = models.perf.qps(
            baseline.cores_per_socket,
            self.hit_rate_fn(int(baseline.l3.size_mib * MiB)),
        )
        self._l4_hits: dict[tuple[float, int], float] = {}
        self._demands: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._mpki: dict[int, float] = {}

    # ------------------------------------------------------------------

    def _scaled_bytes(self, paper_bytes: float) -> int:
        """Paper-scale bytes -> stream-scale bytes (block-size floored).

        Units: ``paper_bytes`` is bytes at paper scale.
        """
        return max(self.source.block_size, int(paper_bytes * self.scale))

    @staticmethod
    def quantized_l3_mib(l3_mib: float) -> float:
        """The :data:`L3_GRID_MIB` capacity nearest to an L3 size.

        Ties break toward the smaller grid point (hotter demand stream).

        Units: ``l3_mib`` is paper-scale MiB.
        """
        return min(L3_GRID_MIB, key=lambda grid: (abs(grid - l3_mib), grid))

    def _l4_demand(self, grid_mib: float) -> tuple[np.ndarray, np.ndarray]:
        if grid_mib not in self._demands:
            self._demands[grid_mib] = self.source.l4_demand(
                self._scaled_bytes(grid_mib * MiB)
            )
        return self._demands[grid_mib]

    def l4_hit_rate(self, grid_mib: float, l4_mib: int) -> float:
        """Simulated L4 hit rate over the grid capacity's miss stream.

        Memoized per (grid capacity, L4 size): hit rates are independent
        of the candidate's L4 latencies, so all latency variants of one
        geometry share a single simulation.

        Units: ``grid_mib`` and ``l4_mib`` are paper-scale MiB.
        """
        key = (grid_mib, l4_mib)
        if key not in self._l4_hits:
            lines, segments = self._l4_demand(grid_mib)
            config = self.models.l4_config(self._scaled_bytes(l4_mib * MiB))
            self._l4_hits[key] = L4Cache(config).simulate(lines, segments).hit_rate
        return self._l4_hits[key]

    def _l3_mpki(self, capacity_bytes: int) -> float:
        """Memoized per-thread L3 MPKI at a stream-scale capacity.

        Units: ``capacity_bytes`` is stream-scale bytes.
        """
        if capacity_bytes not in self._mpki:
            self._mpki[capacity_bytes] = self.source.l3_mpki(capacity_bytes)
        return self._mpki[capacity_bytes]

    def prime(self, l3_mibs: Iterable[float]) -> None:
        """Batch-solve the L3 at every capacity later scores will touch.

        One :meth:`~L4DemandSource.solve_l3_sweep` call covers the given
        L3 sizes and the L4 demand grid, so per-point scoring afterwards
        needs no further L3 solves.

        Units: ``l3_mibs`` are paper-scale MiB.
        """
        capacities = {self._scaled_bytes(mib * MiB) for mib in l3_mibs}
        capacities.update(self._scaled_bytes(grid * MiB) for grid in L3_GRID_MIB)
        self.source.solve_l3_sweep(sorted(capacities))

    # ------------------------------------------------------------------

    def evaluate(self, point: DesignPoint) -> EvaluatedDesign:
        """Score one candidate against the 18-core / 45 MiB baseline."""
        models = self.models
        h3 = self.hit_rate_fn(int(point.l3_mib * MiB))
        if point.has_l4:
            h4 = self.l4_hit_rate(self.quantized_l3_mib(point.l3_mib), point.l4_mib)
            latencies = replace(
                models.latencies,
                l4_hit_ns=point.l4_hit_ns,
                l4_miss_penalty_ns=point.l4_miss_penalty_ns,
            )
            qps = models.perf.with_latencies(latencies).qps(
                point.cores, h3, l4_hit_rate=h4
            )
            watts = models.power.socket_watts(point.cores) + models.l4_static_watts(
                float(point.l4_mib)
            )
        else:
            h4 = None
            qps = models.perf.qps(point.cores, h3)
            watts = models.power.socket_watts(point.cores)
        mpki = self._l3_mpki(self._scaled_bytes(point.l3_mib * MiB))
        return EvaluatedDesign(
            point=point,
            qps=qps,
            qps_improvement=qps / self.baseline_qps - 1.0,
            area_mib=models.area.total_area_mib(point.cores, point.l3_mib),
            watts=watts,
            energy_per_query=models.power.energy_per_query(watts, qps),
            l3_hit_rate=h3,
            l4_hit_rate=h4,
            memory_nj_per_ki=models.power.memory_energy_per_ki(
                mpki, l4_hit_rate=h4
            ),
        )
