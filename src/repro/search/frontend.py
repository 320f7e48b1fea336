"""Front-end web server with result caching.

"Popular queries can consume a significant amount of resources, so caching
is used in various levels of the hierarchy to improve throughput and
latency" (§II-A).  The front end normalizes the query, consults its result
cache, and only forwards misses to the root.  The cache is also why leaf
traffic loses query-level locality — repeated queries are absorbed here,
leaving the leaves the long Zipf tail (the paper's explanation for the
shard's poor temporal locality, §III-B).

The front end is also where robustness policy is applied: queries may
carry a deadline (ms), outcomes are stamped on the returned page, and —
critically — *degraded* pages are never cached, so one leaf hiccup cannot
poison the result cache for the lifetime of an entry.

Observability: the front end owns the *query* span — one
``frontend.query`` span per request, tagged with the cache outcome and
the page's completeness, parenting the ``root.aggregate`` / ``leaf.rpc``
spans the serving engine records underneath (see :mod:`repro.obs.tracing`).  Its counters
(queries, degraded pages, cache hits/misses/evictions) are
registry-backed :class:`~repro.obs.metrics.Counter` objects behind the
same attribute names the pre-registry code exposed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Hashable

from repro.errors import ConfigurationError
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, log_spaced_bounds
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.search.documents import Vocabulary
from repro.search.faults import FaultInjector
from repro.search.policies import ServingPolicy
from repro.search.root import RootServer, SearchResultPage
from repro.search.tokenizer import terms_for_query

#: Latency-histogram buckets: 0.1 ms .. 100 s of simulated time.
_LATENCY_BOUNDS = log_spaced_bounds(lo=0.1, hi=100_000.0, per_decade=4)


class ResultCache:
    """A bounded LRU cache of query results.

    ``capacity=0`` is a legitimate configuration — a disabled cache that
    stores nothing and counts every lookup as a miss (useful when an
    experiment must see every query reach the leaves).

    ``hits``/``misses``/``evictions`` are cumulative counters for the
    cache's lifetime; with a ``metrics`` registry they are published as
    ``repro.search.frontend.cache.*`` (latest cache instance wins the
    name, so snapshots describe the current serving topology).
    """

    def __init__(
        self, capacity: int = 4096, metrics: MetricsRegistry | None = None
    ) -> None:
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, SearchResultPage] = OrderedDict()
        self._hits = Counter(
            "repro.search.frontend.cache.hits",
            help="Result-cache lookups answered from the cache.",
            unit="lookups",
        )
        self._misses = Counter(
            "repro.search.frontend.cache.misses",
            help="Result-cache lookups forwarded to the root.",
            unit="lookups",
        )
        self._evictions = Counter(
            "repro.search.frontend.cache.evictions",
            help="LRU evictions caused by capacity pressure.",
            unit="entries",
        )
        if metrics is not None:
            for counter in (self._hits, self._misses, self._evictions):
                metrics.register(counter, replace=True)

    def get(self, key: Hashable) -> SearchResultPage | None:
        page = self._entries.get(key)
        if page is None:
            self._misses.inc()
            return None
        self._entries.move_to_end(key)
        self._hits.inc()
        return page

    def put(self, key: Hashable, page: SearchResultPage) -> None:
        """Insert or refresh an entry; never grows past ``capacity``.

        Overwriting an existing key updates the stored page in place (no
        spurious eviction of a neighbour) and counts as a refresh, not an
        eviction.
        """
        if self.capacity == 0:
            return
        self._entries[key] = page
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions.inc()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        """Cumulative cache hits (registry-backed)."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Cumulative cache misses (registry-backed)."""
        return self._misses.value

    @property
    def evictions(self) -> int:
        """Cumulative LRU evictions (registry-backed)."""
        return self._evictions.value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FrontendServer:
    """Entry point of the serving system (Figure 1's front-end web server)."""

    def __init__(
        self,
        root: RootServer,
        vocabulary: Vocabulary | None = None,
        cache: ResultCache | None = None,
        injector: FaultInjector | None = None,
        policy: ServingPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.root = root
        self.vocabulary = vocabulary
        # `cache or ResultCache()` would discard an explicitly passed
        # *empty* cache: ResultCache defines __len__, so one with no
        # entries (any fresh cache, and any capacity-0 cache forever) is
        # falsy.  Compare against None.
        self.cache = cache if cache is not None else ResultCache(metrics=metrics)
        self.injector = injector
        self.policy = policy or ServingPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._queries = Counter(
            "repro.search.frontend.queries",
            help="Queries received by the front end.",
            unit="queries",
        )
        self._degraded = Counter(
            "repro.search.frontend.degraded",
            help="Pages served from an incomplete leaf set.",
            unit="pages",
        )
        self._latency = Histogram(
            "repro.search.frontend.latency_ms",
            help="Simulated end-to-end query latency (fault-injected runs).",
            unit="ms",
            bounds=_LATENCY_BOUNDS,
        )
        if metrics is not None:
            metrics.register(self._queries, replace=True)
            metrics.register(self._degraded, replace=True)
            metrics.register(self._latency, replace=True)

    @property
    def queries_received(self) -> int:
        """Queries this front end has accepted (registry-backed)."""
        return self._queries.value

    @property
    def degraded_served(self) -> int:
        """Degraded pages this front end has served (registry-backed)."""
        return self._degraded.value

    def search_terms(
        self,
        terms: list[int],
        top_k: int = 10,
        deadline_ms: float | None = None,
        on_incomplete: str = "degrade",
    ) -> SearchResultPage:
        """Serve a pre-tokenized query (term ids).

        Cache hits are free in simulated time (the paper's point: the
        caches absorb popular queries before they cost fan-out work), so
        a cached page is restamped with zero latency.  Only *complete*
        pages are cached.
        """
        self._queries.inc()
        # Arrival sequence number: the stable key for the injector's
        # per-(leaf, query, attempt) RNG streams.
        query_key = self.queries_received - 1
        tracer = self.tracer
        span = None
        if tracer.enabled:
            start_ms = (
                self.injector.clock.now_ms if self.injector is not None else 0.0
            )
            span = tracer.start_span("frontend.query", start_ms=start_ms).tag(
                terms=len(terms), top_k=top_k, **self.policy.as_tags()
            )
            if deadline_ms is not None:
                span.tag(deadline_ms=deadline_ms)
        # Normalize: order-independent bag of terms, like a query
        # rewriter.  The result depends on top_k as well — a page cached
        # for top_k=10 must not answer a top_k=20 request.
        key = (tuple(sorted(terms)), top_k)
        cached = self.cache.get(key)
        if cached is not None:
            if span is not None:
                span.tag(cache="hit", complete=cached.complete).finish(0.0)
            if cached.latency_ms is None:
                return cached
            return replace(cached, latency_ms=0.0)
        page = self.root.search(
            list(terms),
            top_k=top_k,
            deadline_ms=deadline_ms,
            injector=self.injector,
            policy=self.policy,
            on_incomplete=on_incomplete,
            tracer=tracer,
            parent_span=span.context if span is not None else None,
            query_key=query_key,
        )
        if page.complete:
            self.cache.put(key, page)
        else:
            self._degraded.inc()
        if self.injector is not None and page.latency_ms is not None:
            self._latency.observe(page.latency_ms)
            # Closed-loop client: simulated time advances as queries finish.
            self.injector.clock.advance(page.latency_ms)
        if span is not None:
            span.tag(
                cache="miss",
                complete=page.complete,
                leaves_answered=page.leaves_answered,
                leaves_total=page.leaves_total,
            ).finish(page.latency_ms if page.latency_ms is not None else 0.0)
        return page

    def search_text(
        self,
        query: str,
        top_k: int = 10,
        deadline_ms: float | None = None,
    ) -> SearchResultPage:
        """Serve a text query through the tokenizer (needs a vocabulary)."""
        if self.vocabulary is None:
            raise ConfigurationError(
                "text queries need a vocabulary; use search_terms instead"
            )
        terms = terms_for_query(query, self.vocabulary)
        return self.search_terms(terms, top_k=top_k, deadline_ms=deadline_ms)
