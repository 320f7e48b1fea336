"""Design-space exploration over declarative hardware specs.

Enumerates thousands of candidate memory hierarchies (cores-vs-L3
split, CAT way partitioning, L4 size and latency) from
:class:`~repro.dse.space.DesignSpace`, scores each through the same
:class:`~repro.core.optimizer.HierarchyDesignEvaluator` Figure 14 uses
(driven by :class:`~repro.dse.explorer.DesignSpaceExplorer`), filters
by iso-area and iso-power constraints, and reports the Pareto frontier
over (QPS, area, energy-per-query) via
:func:`~repro.dse.pareto.pareto_frontier`.  Figures 9, 10, 13, and 14
are single points or slices of this space.
"""

from repro.core.optimizer import DesignPoint, EvaluatedDesign
from repro.dse.explorer import (
    Constraints,
    DesignSpaceExplorer,
    ExplorationResult,
)
from repro.dse.pareto import OBJECTIVES, dominates, pareto_frontier
from repro.dse.space import DesignSpace

__all__ = [
    "Constraints",
    "DesignPoint",
    "DesignSpace",
    "DesignSpaceExplorer",
    "EvaluatedDesign",
    "ExplorationResult",
    "OBJECTIVES",
    "dominates",
    "pareto_frontier",
]
