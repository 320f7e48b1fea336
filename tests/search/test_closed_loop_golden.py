"""Golden closed-loop serving: pages, metrics and span trees pinned.

Scenario: the slo experiment's serving tree (8 leaves, fanout 4, 150 ms
deadline, 2 ms per aggregation level) answering a 60-query stream under
three of its fault mixes — the 20% fault-sweep point, hedging at 45 ms,
and fail-stop deaths — with a tracer attached.  Every page's latency
(by ``repr``, so bit-exact), completeness and hits, the shared registry
after each mix, and the span JSONL are compared against recorded data.

Regenerate the data (only when a change to the closed loop is
intended) with::

    PYTHONPATH=src python tests/search/test_closed_loop_golden.py
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path

import pytest

from repro.obs.tracing import Tracer
from repro.search.cluster import SearchCluster
from repro.search.documents import CorpusConfig
from repro.search.faults import FaultSpec
from repro.search.latency import QueryLatencyModel
from repro.search.policies import HedgePolicy, RetryPolicy, ServingPolicy
from repro.search.querygen import QueryGenerator, QueryGeneratorConfig

DATA = Path(__file__).parent / "data"
_SEED = 3
_QUERIES = 60
_DEADLINE_MS = 150.0

#: name -> (fault spec, serving policy), in serving order.
_SCENARIOS: dict[str, tuple[FaultSpec, ServingPolicy]] = {
    "fault-sweep-20": (
        FaultSpec(
            latency_spike_rate=0.20,
            spike_multiplier=6.0,
            transient_error_rate=0.10,
            utilization=0.5,
        ),
        ServingPolicy(),
    ),
    "hedging": (
        FaultSpec(latency_spike_rate=0.25, spike_multiplier=6.0, utilization=0.5),
        ServingPolicy(retry=RetryPolicy(), hedge=HedgePolicy(45.0)),
    ),
    "fail-stop": (
        FaultSpec(hard_failure_rate=0.002, utilization=0.5),
        ServingPolicy(),
    ),
}


def record() -> dict[str, dict]:
    """Serve every scenario in order on one cluster; what each produced."""
    cluster = SearchCluster.build(
        corpus_config=CorpusConfig(
            num_documents=240, vocabulary_size=300, seed=_SEED
        ),
        num_leaves=8,
        fanout=4,
        record_traces=False,
        seed=_SEED,
    )
    queries = QueryGenerator(
        QueryGeneratorConfig(vocabulary_size=300, distinct_queries=200, seed=_SEED)
    ).generate(_QUERIES)
    recorded = {}
    for name, (spec, policy) in _SCENARIOS.items():
        tracer = Tracer(capacity=100_000)
        faulted = cluster.with_faults(
            spec,
            policy=policy,
            latency_model=QueryLatencyModel(
                base_service_ms=8.0, fanout=8, overhead_ms=2.0
            ),
            seed=_SEED,
            tracer=tracer,
        )
        pages, __ = faulted.serve_with_outcomes(queries, deadline_ms=_DEADLINE_MS)
        spans = io.StringIO()
        tracer.export_jsonl(spans)
        recorded[name] = {
            "pages": [
                {
                    "latency_ms": repr(page.latency_ms),
                    "complete": page.complete,
                    "leaves_answered": page.leaves_answered,
                    "hits": [[hit.doc_id, hit.score] for hit in page.hits],
                }
                for page in pages
            ],
            "metrics": cluster.metrics_snapshot().to_dict(),
            "spans": spans.getvalue(),
        }
    return recorded


def _pages_path() -> Path:
    return DATA / "closed_loop_golden.json"


def _spans_path(name: str) -> Path:
    return DATA / f"closed_loop_spans_{name}.jsonl.gz"


def write() -> None:
    """Record the golden data files from the current program."""
    DATA.mkdir(exist_ok=True)
    recorded = record()
    pages = {
        name: {key: run[key] for key in ("pages", "metrics")}
        for name, run in recorded.items()
    }
    _pages_path().write_text(json.dumps(pages, indent=1, sort_keys=True) + "\n")
    for name, run in recorded.items():
        _spans_path(name).write_bytes(gzip.compress(run["spans"].encode(), mtime=0))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(_pages_path().read_text())


@pytest.fixture(scope="module")
def recorded() -> dict:
    return record()


@pytest.mark.parametrize("name", list(_SCENARIOS))
class TestClosedLoopGolden:
    def test_pages(self, name, golden, recorded):
        assert recorded[name]["pages"] == golden[name]["pages"]

    def test_registry_snapshot(self, name, golden, recorded):
        metrics = dict(recorded[name]["metrics"])
        # The engine's own page counters are additions on top of the
        # pinned families; they must agree with the front end's.
        engine = {
            key: metrics.pop(key)
            for key in list(metrics)
            if key.startswith("repro.search.engine.")
        }
        assert metrics == golden[name]["metrics"]
        if engine:
            assert engine["repro.search.engine.queries"]["value"] == (
                metrics["repro.search.root.queries"]["value"]
            )

    def test_span_jsonl(self, name, recorded):
        expected = gzip.decompress(_spans_path(name).read_bytes()).decode()
        assert recorded[name]["spans"] == expected


def test_scenarios_exercise_the_robustness_paths(golden):
    """The recorded mixes hit retries, hedges, deadlines and a death."""
    final = golden["fail-stop"]["metrics"]
    assert final["repro.search.root.retries"]["value"] > 0
    assert final["repro.search.root.hedged_rpcs"]["value"] > 0
    assert final["repro.search.root.deadline_misses"]["value"] > 0
    assert golden["fail-stop"]["metrics"]["repro.search.faults.hard_failures"][
        "value"
    ] > 0


if __name__ == "__main__":
    write()
