"""The root of the aggregation tree: one query at a time.

Queries "propagate down to all leaf nodes; results propagate up the tree,
with intermediate parents scoring and ordering content" (Figure 1).  A
:class:`RootServer` holds the leaves and the tree's fanout and serves
each query closed loop: it submits the query to a
:class:`~repro.search.engine.ServingEngine` and runs it to completion.
The engine fans out, retries, hedges, enforces the deadline level by
level, merges the hits and asks the owning leaves for snippets of the
winning documents; the root only chooses the engine and decides what an
incomplete page means.

A query may carry a deadline (milliseconds of simulated time, per
:mod:`repro._units` convention).  Leaf RPC latencies and failures come
from an optional :class:`~repro.search.faults.FaultInjector`.  Leaves
that miss the deadline or fail outright are left out of the merge: the
query returns a *degraded* :class:`SearchResultPage` (``complete``
False, ``leaves_answered < leaves_total``) instead of an error — the
graceful-degradation behaviour real serving trees exhibit under the
paper's §IV-B latency SLO.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.errors import ConfigurationError, DeadlineExceededError, ServingError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, SpanContext, Tracer
from repro.search.engine import SearchResultPage, ServingEngine
from repro.search.faults import FaultInjector, RpcDraw
from repro.search.leaf import LeafServer
from repro.search.policies import ServingPolicy

#: Robustness defaults for searches not given a policy.
_DEFAULT_POLICY = ServingPolicy()
#: Searches without an injector merge at no cost.
_IDEAL_POLICY = ServingPolicy(overhead_ms=0.0)


class _IdealInjector(FaultInjector):
    """Every leaf answers at once; nothing is drawn from an RNG."""

    def plan_rpc(
        self, leaf_id: int, query_key: int | None = None, attempt: int = 1
    ) -> RpcDraw:
        return RpcDraw(kind="ok", latency_ms=0.0)


class RootServer:
    """Aggregates results from all leaves through a balanced tree.

    ``fanout`` bounds each aggregation node's children; intermediate
    parents are inserted whenever a level exceeds it (None: one flat
    level).  ``metrics`` receives the ``repro.search.root.*`` fan-out
    counters and the engine's page metrics.
    """

    def __init__(
        self,
        leaves: Sequence[LeafServer],
        fanout: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not leaves:
            raise ConfigurationError("a root server needs at least one leaf")
        if fanout is not None and fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {fanout}")
        self.leaves = list(leaves)
        self.fanout = fanout
        self._metrics = metrics
        self._ideal = _IdealInjector()
        self._engine: ServingEngine | None = None
        self._queries = Counter(
            "repro.search.root.queries",
            help="Queries aggregated by the root server.",
            unit="queries",
        )
        if metrics is not None:
            metrics.register(self._queries, replace=True)

    @property
    def queries_served(self) -> int:
        """Queries this aggregator has served (registry-backed)."""
        return self._queries.value

    def _engine_for(
        self, injector: FaultInjector, policy: ServingPolicy, tracer: Tracer
    ) -> ServingEngine:
        """The engine serving this configuration (kept while it repeats)."""
        engine = self._engine
        if (
            engine is None
            or engine.injector is not injector
            or engine.policy is not policy
            or engine.tracer is not tracer
        ):
            engine = self._engine = ServingEngine(
                leaves=self.leaves,
                injector=injector,
                policy=policy,
                metrics=self._metrics,
                fanout=self.fanout,
                tracer=tracer,
            )
        return engine

    def search(
        self,
        terms: list[int],
        top_k: int = 10,
        deadline_ms: float | None = None,
        injector: FaultInjector | None = None,
        policy: ServingPolicy | None = None,
        on_incomplete: str = "degrade",
        tracer: Tracer | None = None,
        parent_span: SpanContext | None = None,
        query_key: int | None = None,
    ) -> SearchResultPage:
        """Serve one query through the whole tree.

        Without an injector this is the ideal, zero-latency path (every
        leaf answers, ``latency_ms`` is None).  With one, leaves may
        spike, error, or die; ``on_incomplete`` selects between returning
        a degraded page (``"degrade"``, the default) and raising
        (``"raise"`` → :class:`DeadlineExceededError` when the deadline
        expired, :class:`ServingError` when leaves failed outright).

        ``tracer``/``parent_span`` continue the front end's query span;
        leave them unset to serve untraced.  ``query_key`` (the query's
        arrival sequence number) keys the injector's per-(leaf, query,
        attempt) RNG streams; None uses the engine's query count.

        Units: ``deadline_ms`` is milliseconds of simulated time.
        """
        if on_incomplete not in ("degrade", "raise"):
            raise ConfigurationError(
                f"on_incomplete must be 'degrade' or 'raise', got {on_incomplete!r}"
            )
        tracer = tracer if tracer is not None else NULL_TRACER
        if injector is None:
            engine = self._engine_for(self._ideal, _IDEAL_POLICY, tracer)
        else:
            engine = self._engine_for(injector, policy or _DEFAULT_POLICY, tracer)
        page, missed_deadline = engine.run_query(
            terms,
            top_k=top_k,
            deadline_ms=deadline_ms,
            query_key=query_key,
            parent_span=parent_span,
        )
        self._queries.inc()
        if not page.complete and on_incomplete == "raise":
            if missed_deadline:
                assert deadline_ms is not None
                raise DeadlineExceededError(
                    deadline_ms, page.leaves_answered, page.leaves_total
                )
            raise ServingError(
                f"{page.leaves_total - page.leaves_answered} of "
                f"{page.leaves_total} leaves failed and retries were exhausted"
            )
        return page if injector is not None else replace(page, latency_ms=None)

    @classmethod
    def build_tree(
        cls,
        leaves: Sequence[LeafServer],
        fanout: int = 4,
        metrics: MetricsRegistry | None = None,
    ) -> "RootServer":
        """A root over the leaves with at most ``fanout`` children per node."""
        return cls(leaves, fanout=fanout, metrics=metrics)
