"""Differential battery: spec-derived models are byte-identical to hand-coded.

PR 10 rerouted the figure experiments through ``common.paper_models()``
and the declarative ``repro.hw`` catalog.  This suite replays the old
hand-coded construction — literal ``AreaModel()``/``PowerModel()``/
``SearchPerfModel()``/``L4Config`` objects and ``HierarchyConfig``
factory calls — by monkeypatching the two seams in
``repro.experiments.common``, then byte-compares the rendered tables and
the ``--metrics-out`` JSON document of every affected experiment.  Same
harness style as ``TestFusedByteEquality`` in ``test_engine_golden.py``:
module-scoped runs, ``jobs=1`` so the patches apply in-process.

Figure 14 asks the seam for three specs (the proposed design and its
associative and future variants); the stand-in answers each by name with
the literal objects the scenarios used to carry.  The spec-derived
Figure 14 is also compared with its stored golden table.
"""

import pathlib
from types import SimpleNamespace

import pytest

from repro._units import MiB
from repro.cachesim.hierarchy import HierarchyConfig
from repro.core.area import AreaModel
from repro.core.l4cache import L4Config
from repro.core.perf_model import MemoryLatencies, SearchPerfModel
from repro.core.power import PowerModel
from repro.errors import ConfigurationError
from repro.experiments import common, fig14, runner
from repro.experiments.common import RunPreset
from repro.experiments.parallel import run_report

#: Every experiment that consumes spec-derived models or hierarchies.
_IDS = ["fig9", "fig10", "fig11", "fig13", "fig14", "power"]

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"


def _hand_coded_models(spec=None):
    """The literal objects the experiments built before the spec catalog.

    Figure 14's scenario variants map, by spec name, to the literal
    latencies and L4 associativity its scenarios carried.
    """
    name = "PLT1-proposed" if spec is None else spec.name
    latencies, associativity = {
        "PLT1-proposed": (MemoryLatencies(), "direct"),
        "PLT1-proposed-associative": (MemoryLatencies(), "full"),
        "PLT1-proposed-future": (MemoryLatencies(mem_ns=110.0 * 1.10), "direct"),
    }[name]
    return SimpleNamespace(
        area=AreaModel(),
        power=PowerModel(),
        latencies=latencies,
        perf=SearchPerfModel(latencies=latencies),
        l4_config=lambda capacity_bytes=None: L4Config(
            capacity=capacity_bytes if capacity_bytes is not None else 1024 * MiB,
            associativity=associativity,
        ),
        l4_static_watts=lambda l4_mib: 6.0 * l4_mib / 1000.0,
    )


def _hand_coded_hierarchy(platform, preset):
    """The literal factory dispatch ``platform_hierarchy`` used to do."""
    if platform == "plt1":
        return HierarchyConfig.plt1_like().scaled(preset.scale)
    if platform == "plt2":
        return HierarchyConfig.plt2_like().scaled(preset.scale)
    raise ConfigurationError(f"unknown platform {platform!r}")


@pytest.fixture(scope="module")
def spec_report():
    return run_report(RunPreset.quick(), only=_IDS, jobs=1)


@pytest.fixture(scope="module")
def hand_coded_report():
    patcher = pytest.MonkeyPatch()
    patcher.setattr(common, "paper_models", _hand_coded_models)
    patcher.setattr(common, "platform_hierarchy", _hand_coded_hierarchy)
    try:
        yield run_report(RunPreset.quick(), only=_IDS, jobs=1)
    finally:
        patcher.undo()


class TestSpecByteEquality:
    def test_canonical_order(self, spec_report, hand_coded_report):
        assert [r.experiment_id for r in spec_report.results] == _IDS
        assert [r.experiment_id for r in hand_coded_report.results] == _IDS

    def test_rendered_tables_identical(self, spec_report, hand_coded_report):
        for spec, hand in zip(spec_report.results, hand_coded_report.results):
            assert spec.render() == hand.render(), spec.experiment_id

    def test_metrics_snapshots_identical(self, spec_report, hand_coded_report):
        for spec, hand in zip(spec_report.results, hand_coded_report.results):
            assert spec.metrics.to_json() == hand.metrics.to_json(), (
                spec.experiment_id
            )

    def test_fig14_equals_stored_golden(self, spec_report):
        (fig14,) = [r for r in spec_report.results if r.experiment_id == "fig14"]
        assert fig14.render() + "\n" == (GOLDEN / "fig14.quick.txt").read_text()
        assert fig14.metrics.to_json() == (
            GOLDEN / "fig14.quick.metrics.json"
        ).read_text()

    def test_metrics_document_identical(
        self, spec_report, hand_coded_report, tmp_path
    ):
        runner.write_metrics(spec_report.results, str(tmp_path / "spec.json"))
        runner.write_metrics(
            hand_coded_report.results, str(tmp_path / "hand.json")
        )
        assert (tmp_path / "spec.json").read_bytes() == (
            tmp_path / "hand.json"
        ).read_bytes()


class TestSeamSanity:
    """The monkeypatched stand-ins really are the hand-coded objects."""

    def test_paper_models_match_hand_coded_values(self):
        models = common.paper_models()
        hand = _hand_coded_models()
        assert models.area == hand.area
        assert models.power == hand.power
        assert models.latencies == hand.latencies
        assert models.perf == hand.perf
        assert models.l4_config(64 * MiB) == hand.l4_config(64 * MiB)
        assert models.l4_config() == hand.l4_config()
        assert models.l4_static_watts(1024.0) == hand.l4_static_watts(1024.0)

    def test_fig14_variants_match_hand_coded_values(self):
        for scenario in ("associative", "future"):
            spec = fig14.scenario_spec(scenario)
            models = common.paper_models(spec)
            hand = _hand_coded_models(spec)
            assert models.latencies == hand.latencies, scenario
            assert models.perf == hand.perf, scenario
            assert models.l4_config(64 * MiB) == hand.l4_config(64 * MiB), scenario

    def test_platform_hierarchy_matches_hand_coded_factories(self):
        preset = RunPreset.quick()
        for platform in ("plt1", "plt2"):
            assert common.platform_hierarchy(
                platform, preset
            ) == _hand_coded_hierarchy(platform, preset)
        with pytest.raises(ConfigurationError, match="plt3"):
            common.platform_hierarchy("plt3", preset)
