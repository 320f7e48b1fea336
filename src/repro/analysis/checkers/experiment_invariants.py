"""Experiment-invariant rules (RPR201, RPR202).

The experiment layer has a contract the runner and the benchmark suite
both rely on: every figure/table module exposes a module-level
``EXPERIMENT_ID``, ``TITLE``, and a ``run(preset)`` entry point, is listed
in ``repro.experiments.runner.ALL_MODULES``, and has a benchmark guarding
its runtime: a matching ``benchmarks/bench_<name>.py``, or an
``experiments.<name>.*`` per-layer metric in the repo's
``BENCHMARK.json`` (the campaign benchmark times every experiment).  A
module that drops out of any of these silently vanishes from reports and
perf tracking — exactly the failure mode a repro cannot afford — so these
are checked as whole-project invariants rather than per-file style.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

from repro.analysis.base import (
    FileContext,
    ProjectChecker,
    ProjectContext,
    Rule,
    Violation,
)
from repro.analysis.registry import register

RPR201 = Rule(
    id="RPR201",
    name="experiment-entry-point",
    summary="Experiment module missing run()/EXPERIMENT_ID/TITLE or not "
    "registered with the runner.",
    suggestion="define EXPERIMENT_ID, TITLE, and run(preset), and add the "
    "module to ALL_MODULES in repro/experiments/runner.py",
    category="experiment-invariant",
)

RPR202 = Rule(
    id="RPR202",
    name="missing-benchmark",
    summary="Experiment module has no matching benchmarks/bench_*.py and no "
    "per-layer metric in BENCHMARK.json.",
    suggestion="add benchmarks/bench_<module>.py exercising the module's "
    "run() at the quick preset, or time it in the campaign benchmark",
    category="experiment-invariant",
)

#: Experiment modules follow these stem patterns under repro.experiments.
_EXPERIMENT_STEM_RE = re.compile(
    r"^(fig\d+|table\d+|power|discussion|ablations|slo|hurryup|adaptive|dse)$"
)
_RUNNER_MODULE = "repro.experiments.runner"
_EXPERIMENTS_PACKAGE = "repro.experiments"

#: Module-level names every experiment module must bind.
_REQUIRED_GLOBALS = ("EXPERIMENT_ID", "TITLE")


def _experiment_stem(module: str) -> str | None:
    prefix = _EXPERIMENTS_PACKAGE + "."
    if not module.startswith(prefix):
        return None
    stem = module[len(prefix) :]
    if "." in stem or not _EXPERIMENT_STEM_RE.match(stem):
        return None
    return stem


def _module_globals(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _top_level_functions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _registered_modules(runner: FileContext) -> set[str] | None:
    """Names listed in the runner's ``ALL_MODULES`` tuple, if parseable."""
    for node in runner.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "ALL_MODULES" not in targets:
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            return {
                element.id
                for element in node.value.elts
                if isinstance(element, ast.Name)
            }
    return None


def _ledger_metrics(root: Path) -> set[str]:
    """Per-layer metric names the repo benchmark declares, if any."""
    ledger = root / "BENCHMARK.json"
    if not ledger.is_file():
        return set()
    try:
        declared = json.loads(ledger.read_text()).get("per_layer", [])
    except (json.JSONDecodeError, AttributeError):
        return set()
    return {
        entry["name"]
        for entry in declared
        if isinstance(entry, dict) and isinstance(entry.get("name"), str)
    }


@register
class ExperimentInvariantChecker(ProjectChecker):
    """Cross-file contract between experiments, runner, and benchmarks."""

    rules = (RPR201, RPR202)

    def check_project(self, project: ProjectContext) -> list[Violation]:
        violations: list[Violation] = []
        by_module = project.by_module()
        runner = by_module.get(_RUNNER_MODULE)
        registered = _registered_modules(runner) if runner is not None else None
        if runner is not None and registered is None:
            violations.append(
                self.project_report(
                    runner.path,
                    RPR201,
                    "could not find an ALL_MODULES tuple of module names "
                    "in the runner",
                )
            )

        benchmarks_dir = None
        ledger: set[str] = set()
        if project.root is not None:
            candidate = project.root / "benchmarks"
            if candidate.is_dir():
                benchmarks_dir = candidate
            ledger = _ledger_metrics(project.root)

        for ctx in project.files:
            stem = _experiment_stem(ctx.module)
            if stem is None:
                continue
            violations.extend(self._check_entry_point(ctx, stem, registered))
            if benchmarks_dir is not None:
                bench = benchmarks_dir / f"bench_{stem}.py"
                timed = any(
                    name.startswith(f"experiments.{stem}.") for name in ledger
                )
                if not bench.exists() and not timed:
                    violations.append(
                        self.project_report(
                            ctx.path,
                            RPR202,
                            f"no benchmark found for experiment module "
                            f"{stem!r} (expected {bench.name} or an "
                            f"experiments.{stem}.* metric in BENCHMARK.json)",
                        )
                    )
        return violations

    def _check_entry_point(
        self, ctx: FileContext, stem: str, registered: set[str] | None
    ) -> list[Violation]:
        violations: list[Violation] = []
        functions = _top_level_functions(ctx.tree)
        if "run" not in functions:
            violations.append(
                self.project_report(
                    ctx.path,
                    RPR201,
                    f"experiment module {stem!r} has no top-level run() "
                    "entry point",
                )
            )
        missing = [
            name
            for name in _REQUIRED_GLOBALS
            if name not in _module_globals(ctx.tree)
        ]
        if missing:
            violations.append(
                self.project_report(
                    ctx.path,
                    RPR201,
                    f"experiment module {stem!r} missing module-level "
                    f"{', '.join(missing)}",
                )
            )
        if registered is not None and stem not in registered:
            violations.append(
                self.project_report(
                    ctx.path,
                    RPR201,
                    f"experiment module {stem!r} is not listed in "
                    "ALL_MODULES in repro/experiments/runner.py",
                )
            )
        return violations
