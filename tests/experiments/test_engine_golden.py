"""Golden equivalence of the reference and fast engines at the experiment layer.

The fig6 (composed sweeps), fig7 (exact trace replay) and fig12 (L4
demand read from the shared composed run) quick-preset runs must be
byte-identical between ``engine="reference"`` and ``engine="fast"`` —
rendered tables and the ``--metrics-out`` JSON document alike.  The fast
engine is the campaign-fused one (one-pass Mattson ladders, batched
window solves, memoized traces), so this is also its byte-level oracle.
Same pattern as ``tests/experiments/test_parallel.py``: module-scoped
runs, then byte-level diffs.
"""

import dataclasses

import pytest

from repro.cachesim.composition import CompositeCache
from repro.errors import ConfigurationError
from repro.experiments import ablations, discussion, fig2, runner
from repro.experiments.common import ExperimentResult, RunPreset
from repro.experiments.parallel import run_report

_ENGINE_IDS = ["fig6", "fig7", "fig12"]


def _report(engine):
    # A fresh preset instance carries a fresh composed-run cache, so the
    # two engines cannot serve each other memoized runs.
    preset = dataclasses.replace(RunPreset.quick(), engine=engine)
    return run_report(preset, only=_ENGINE_IDS, jobs=1)


@pytest.fixture(scope="module")
def reference_report():
    return _report("reference")


@pytest.fixture(scope="module")
def fast_report():
    return _report("fast")


class TestEngineByteEquality:
    def test_canonical_order(self, reference_report, fast_report):
        assert [r.experiment_id for r in reference_report.results] == _ENGINE_IDS
        assert [r.experiment_id for r in fast_report.results] == _ENGINE_IDS

    def test_rendered_tables_identical(self, reference_report, fast_report):
        for a, b in zip(reference_report.results, fast_report.results):
            assert a.render() == b.render()

    def test_metrics_snapshots_identical(self, reference_report, fast_report):
        for a, b in zip(reference_report.results, fast_report.results):
            assert a.metrics.to_json() == b.metrics.to_json()

    def test_metrics_document_identical(
        self, reference_report, fast_report, tmp_path
    ):
        runner.write_metrics(
            reference_report.results, str(tmp_path / "reference.json")
        )
        runner.write_metrics(fast_report.results, str(tmp_path / "fast.json"))
        assert (tmp_path / "reference.json").read_bytes() == (
            tmp_path / "fast.json"
        ).read_bytes()


class TestEnginePlumbing:
    def test_preset_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(RunPreset.quick(), engine="turbo")

    def test_default_preset_engine_is_auto(self):
        assert RunPreset.quick().engine == "auto"
        assert RunPreset.standard().engine == "auto"

    def test_runner_engine_flag(self, capsys):
        runner.main(["--list", "--engine", "reference"])
        with pytest.raises(SystemExit):
            runner.main(["--engine", "turbo", "--list"])

    def test_composed_caches_follow_preset_engine(self, monkeypatch):
        """Regression: composed caches built outside ``composed_run``
        (fig2's STLB, discussion's split/bigger L2, the composition
        ablation) fell back to the reference solver whatever the preset's
        engine was."""
        engines = []
        original = CompositeCache.__init__

        def recording_init(
            self, components, capacity_lines, engine="reference", **kwargs
        ):
            engines.append(engine)
            original(self, components, capacity_lines, engine, **kwargs)

        monkeypatch.setattr(CompositeCache, "__init__", recording_init)
        preset = dataclasses.replace(RunPreset.quick(), engine="fast")
        result = ExperimentResult("probe", "engine plumbing probe")
        fig2.huge_page_rows(result, preset)
        discussion.split_l2_rows(result, preset)
        discussion.bigger_l2_rows(result, preset)
        ablations.composition_vs_flat_rows(result, preset)
        assert engines
        assert "reference" not in engines
