"""Tests for RPR201/RPR202 (experiment invariants) over scaffolded trees."""

import json
from pathlib import Path

from repro.analysis import lint_paths

GOOD_EXPERIMENT = (
    'EXPERIMENT_ID = "fig99"\n'
    'TITLE = "synthetic fixture"\n'
    "def run(preset):\n"
    "    return None\n"
)

RUNNER_WITH_FIG99 = (
    "from repro.experiments import fig99\n"
    "ALL_MODULES = (fig99,)\n"
)

RUNNER_EMPTY = "ALL_MODULES = ()\n"


def scaffold(
    tmp_path: Path,
    experiment_source: str = GOOD_EXPERIMENT,
    runner_source: str = RUNNER_WITH_FIG99,
    with_benchmark: bool = True,
) -> Path:
    """Lay out a minimal project tree with one experiment module."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
    package = tmp_path / "src" / "repro" / "experiments"
    package.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "fig99.py").write_text(experiment_source)
    (package / "runner.py").write_text(runner_source)
    benchmarks = tmp_path / "benchmarks"
    benchmarks.mkdir()
    if with_benchmark:
        (benchmarks / "bench_fig99.py").write_text("def test_bench():\n    pass\n")
    return tmp_path / "src"


def rules(src_dir: Path, select=("RPR2",)):
    report = lint_paths([src_dir], select=select)
    return [v.rule for v in report.violations]


class TestEntryPoint:
    def test_good_tree_is_clean(self, tmp_path):
        assert rules(scaffold(tmp_path)) == []

    def test_missing_run(self, tmp_path):
        src = scaffold(
            tmp_path,
            experiment_source='EXPERIMENT_ID = "fig99"\nTITLE = "t"\n',
        )
        report = lint_paths([src], select=("RPR201",))
        assert [v.rule for v in report.violations] == ["RPR201"]
        assert "run()" in report.violations[0].message

    def test_missing_experiment_id_and_title(self, tmp_path):
        src = scaffold(tmp_path, experiment_source="def run(preset):\n    pass\n")
        report = lint_paths([src], select=("RPR201",))
        messages = " ".join(v.message for v in report.violations)
        assert "EXPERIMENT_ID" in messages and "TITLE" in messages

    def test_unregistered_module(self, tmp_path):
        src = scaffold(tmp_path, runner_source=RUNNER_EMPTY)
        report = lint_paths([src], select=("RPR201",))
        assert [v.rule for v in report.violations] == ["RPR201"]
        assert "ALL_MODULES" in report.violations[0].message

    def test_non_experiment_modules_ignored(self, tmp_path):
        src = scaffold(tmp_path)
        (src / "repro" / "experiments" / "common.py").write_text("X = 1\n")
        assert rules(src) == []


class TestBenchmarkPresence:
    def test_missing_benchmark(self, tmp_path):
        src = scaffold(tmp_path, with_benchmark=False)
        report = lint_paths([src], select=("RPR202",))
        assert [v.rule for v in report.violations] == ["RPR202"]
        assert "bench_fig99.py" in report.violations[0].message

    def test_benchmark_present(self, tmp_path):
        assert rules(scaffold(tmp_path), select=("RPR202",)) == []

    def test_campaign_benchmark_metric_counts(self, tmp_path):
        src = scaffold(tmp_path, with_benchmark=False)
        ledger = {"per_layer": [{"name": "experiments.fig99.wall_s"}]}
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(ledger))
        assert rules(src, select=("RPR202",)) == []

    def test_campaign_benchmark_must_name_the_experiment(self, tmp_path):
        src = scaffold(tmp_path, with_benchmark=False)
        ledger = {"per_layer": [{"name": "experiments.fig9.wall_s"}]}
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(ledger))
        report = lint_paths([src], select=("RPR202",))
        assert [v.rule for v in report.violations] == ["RPR202"]

    def test_unreadable_ledger_counts_as_absent(self, tmp_path):
        src = scaffold(tmp_path, with_benchmark=False)
        (tmp_path / "BENCHMARK.json").write_text("{not json")
        assert rules(src, select=("RPR202",)) == ["RPR202"]


class TestRealTree:
    def test_repo_experiments_satisfy_invariants(self):
        repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
        report = lint_paths([repo_src / "experiments"], select=("RPR2",))
        assert report.violations == []
