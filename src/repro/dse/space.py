"""Enumeration of candidate memory-hierarchy designs.

A :class:`~repro.core.optimizer.DesignPoint` names one candidate: a
core count, a shared L3 capacity, and an optional eDRAM L4 (size plus
hit/miss-penalty latencies).  :meth:`DesignSpace.paper_default` spans the axes the paper
explores — the L3-vs-cores split of Figure 10 (both as MiB-per-core
ratios and as CAT way counts), and the L4 size/latency grid of
Figures 13–14 — yielding several thousand deduplicated candidates in a
deterministic order.  The paper's chosen designs (18c/45 MiB baseline,
23c/23 MiB rebalance, and 23c/23 MiB + 1 GiB L4) are all members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.optimizer import DesignPoint
from repro.errors import ConfigurationError

#: Figure 10's L3-per-core sweep, 2.25 MiB down to 0.5 MiB.
RATIOS_MIB_PER_CORE = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5)
#: CAT way counts on PLT1's 20-way, 45 MiB L3 (2.25 MiB per way).
CAT_WAY_COUNTS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
CAT_WAY_MIB = 2.25
#: Figure 13/14's L4 capacity sweep.
L4_SIZES_MIB = (128, 256, 512, 1024, 2048)
#: (hit, miss-penalty) latency pairs: the proposed overlapped-lookup
#: design and the paper's pessimistic scenario.
L4_LATENCY_PAIRS_NS = ((40.0, 0.0), (60.0, 5.0))


@dataclass(frozen=True)
class DesignSpace:
    """An ordered, duplicate-free collection of candidate designs."""

    points: tuple[DesignPoint, ...]

    def __post_init__(self) -> None:
        """Reject construction with duplicate candidate points."""
        if len(set(self.points)) != len(self.points):
            raise ConfigurationError("design space contains duplicate points")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[DesignPoint]:
        return iter(self.points)

    def __contains__(self, point: DesignPoint) -> bool:
        """Membership test over the candidate set."""
        return point in set(self.points)

    @classmethod
    def from_points(cls, points: Sequence[DesignPoint]) -> "DesignSpace":
        """Deduplicate and canonically order an arbitrary candidate list."""
        unique = sorted(set(points), key=lambda p: p.sort_key)
        return cls(points=tuple(unique))

    @classmethod
    def paper_default(
        cls,
        core_counts: Sequence[int] = tuple(range(8, 29)),
        l4_sizes_mib: Sequence[int] = L4_SIZES_MIB,
    ) -> "DesignSpace":
        """The paper-spanning space: ~4k candidates over all four axes.

        For every core count, L3 capacities come from both the
        MiB-per-core ratio sweep (Figure 10) and the CAT way grid
        (Figure 9); each geometry is tried without an L4 and with every
        (size, latency-pair) L4 variant.

        Units: ``l4_sizes_mib`` are paper-scale MiB.
        """
        points = []
        for cores in core_counts:
            l3_sizes = {cores * ratio for ratio in RATIOS_MIB_PER_CORE}
            l3_sizes.update(ways * CAT_WAY_MIB for ways in CAT_WAY_COUNTS)
            for l3_mib in l3_sizes:
                points.append(DesignPoint(cores=cores, l3_mib=l3_mib))
                for l4_mib in l4_sizes_mib:
                    for hit_ns, penalty_ns in L4_LATENCY_PAIRS_NS:
                        points.append(
                            DesignPoint(
                                cores=cores,
                                l3_mib=l3_mib,
                                l4_mib=l4_mib,
                                l4_hit_ns=hit_ns,
                                l4_miss_penalty_ns=penalty_ns,
                            )
                        )
        return cls.from_points(points)
