"""The design-space exploration engine (iso-area / iso-power search).

:class:`DesignSpaceExplorer` scores every
:class:`~repro.core.optimizer.DesignPoint` of a :class:`DesignSpace`
through one :class:`~repro.core.optimizer.HierarchyDesignEvaluator` —
the scorer Figure 14 uses — bound to the composed run, the Figure 10
effective L3 curve and the proposed design's spec-derived models:

* **QPS** — Eq. 1, with the L4 term fed by simulating the composed
  run's L3 miss stream at the nearest grid capacity, so the
  smaller-L3-feeds-hotter-L4 synergy is captured.
* **Area** — core-equivalent MiB of cores + L3 (the L4 sits on-package,
  off the processor die, and is excluded, as in the paper's iso-area
  framing).
* **Power / energy** — linear socket power plus the L4's standby
  watts; energy per query is watts over relative QPS.

This module adds what a search needs on top of scoring: batch priming
of the L3 solves, the feasibility :class:`Constraints`, and the Pareto
frontier of the feasible set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.optimizer import (
    DesignPoint,
    EvaluatedDesign,
    HierarchyDesignEvaluator,
)
from repro.dse.pareto import pareto_frontier
from repro.dse.space import DesignSpace
from repro.errors import ConfigurationError
from repro.hw.adapters import DerivedModels, derive_models
from repro.hw.catalog import plt1, proposed


@dataclass(frozen=True)
class Constraints:
    """Feasibility bounds for the search; ``None`` disables a bound.

    Units: ``max_area_mib`` is core-equivalent MiB of cores + L3;
    ``max_socket_watts`` is watts (socket power plus L4 standby power).
    """

    max_area_mib: float | None = None
    max_socket_watts: float | None = None

    def __post_init__(self) -> None:
        """Validate that every active bound is positive."""
        if self.max_area_mib is not None and self.max_area_mib <= 0:
            raise ConfigurationError("max_area_mib must be positive")
        if self.max_socket_watts is not None and self.max_socket_watts <= 0:
            raise ConfigurationError("max_socket_watts must be positive")

    def allows(self, design: "EvaluatedDesign") -> bool:
        """Whether an evaluated design satisfies every active bound."""
        if self.max_area_mib is not None and design.area_mib > self.max_area_mib:
            return False
        if (
            self.max_socket_watts is not None
            and design.watts > self.max_socket_watts
        ):
            return False
        return True

    @classmethod
    def iso_plt1(cls, power_slack: float = 0.10) -> "Constraints":
        """The paper's framing: PLT1's area, near PLT1's published TDP.

        The area budget is the baseline 18-core / 45 MiB design in
        core-equivalent MiB (117); the power budget is the published TDP
        plus ``power_slack`` headroom — the paper's 23-core design sits
        within 3.8% of TDP, so a zero-slack budget would exclude it.
        """
        if power_slack < 0:
            raise ConfigurationError("power_slack must be >= 0")
        spec = plt1()
        models = derive_models(spec)
        return cls(
            max_area_mib=models.area.total_area_mib(
                spec.cores_per_socket, spec.l3.size_mib
            ),
            max_socket_watts=spec.published_tdp_watts * (1.0 + power_slack),
        )


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of one exploration: all scores, the feasible set, the frontier."""

    evaluated: tuple[EvaluatedDesign, ...]
    feasible: tuple[EvaluatedDesign, ...]
    frontier: tuple[EvaluatedDesign, ...]
    constraints: Constraints

    def find(self, point: DesignPoint) -> EvaluatedDesign | None:
        """The evaluation of an exact design point, or None."""
        for design in self.evaluated:
            if design.point == point:
                return design
        return None

    def frontier_contains(self, point: DesignPoint) -> bool:
        """Whether a design point survived to the Pareto frontier."""
        return any(design.point == point for design in self.frontier)

    def best_qps(self) -> EvaluatedDesign:
        """The feasible design with the highest throughput."""
        if not self.feasible:
            raise ConfigurationError("no feasible design under the constraints")
        return max(self.feasible, key=lambda d: (d.qps, d.point.sort_key))


class DesignSpaceExplorer:
    """Scores a design space against the PLT1 baseline design.

    Parameters
    ----------
    preset:
        Stream scale for the L4 demand simulations (quick by default).
    hit_rate_fn:
        L3 hit rate vs. paper-scale capacity in bytes; defaults to the
        Figure 10 effective curve (the figure experiments' curve).
    models:
        The calibrated model bundle; defaults to the proposed design's
        spec-derived models.
    """

    def __init__(
        self,
        preset=None,
        profile: str = "s1-leaf",
        platform: str = "plt1",
        hit_rate_fn: Callable[[int], float] | None = None,
        models: DerivedModels | None = None,
    ) -> None:
        """Bind the scorer to the profile's composed run."""
        from repro.experiments.common import RunPreset, composed_run

        preset = preset or RunPreset.quick()
        self.evaluator = HierarchyDesignEvaluator(
            composed_run(profile, preset, platform=platform),
            preset.scale,
            models or derive_models(proposed()),
            hit_rate_fn,
        )

    def prime(self, space: DesignSpace) -> None:
        """Batch-solve every distinct L3 capacity the space will touch."""
        self.evaluator.prime(point.l3_mib for point in space)

    def explore(
        self,
        space: DesignSpace | None = None,
        constraints: Constraints | None = None,
    ) -> ExplorationResult:
        """Evaluate a space, filter by constraints, take the frontier."""
        space = space if space is not None else DesignSpace.paper_default()
        constraints = constraints if constraints is not None else Constraints.iso_plt1()
        self.prime(space)
        evaluated = tuple(self.evaluator.evaluate(point) for point in space)
        feasible = tuple(d for d in evaluated if constraints.allows(d))
        frontier = tuple(pareto_frontier(feasible))
        return ExplorationResult(
            evaluated=evaluated,
            feasible=feasible,
            frontier=frontier,
            constraints=constraints,
        )
