#!/usr/bin/env python3
"""Coverage ratchet for the gated packages (cachesim, analysis, search).

``tools/coverage_ratchet.json`` maps package prefixes to per-file and
aggregate line-coverage floors.  Two modes:

``check`` (default)
    Read a ``coverage.json`` report produced by pytest-cov, e.g.::

        pytest tests/cachesim tests/analysis \
            --cov=repro.cachesim --cov=repro.analysis --cov-report=json

    and fail if any ratcheted file — or a package aggregate — has
    dropped below its recorded floor.  CI runs this; the ratchet only
    moves up.

``measure``
    Re-measure line coverage locally with a stdlib ``sys.settrace``
    tracer (no pytest-cov needed): runs every ratcheted package's test
    directory and prints per-file percentages.  Use it to pick new
    floors after adding tests.  The stdlib tracer counts a few lines
    (docstrings, guarded imports) differently from coverage.py, so
    floors in the ratchet carry a few points of margin below measured
    values.

Usage::

    python tools/coverage_gate.py check coverage.json
    python tools/coverage_gate.py measure
"""

from __future__ import annotations

import json
import pathlib
import sys
import types

REPO = pathlib.Path(__file__).resolve().parent.parent
RATCHET = REPO / "tools" / "coverage_ratchet.json"


def _load_ratchet() -> dict[str, dict]:
    return json.loads(RATCHET.read_text())["packages"]


def _relative_name(path: str, package: str) -> str | None:
    """Map a coverage.json file key to a name relative to ``package``."""
    normalized = path.replace("\\", "/")
    if package not in normalized:
        return None
    return normalized.rsplit(package, 1)[1]


def check(report_path: str) -> int:
    packages = _load_ratchet()
    report = json.loads(pathlib.Path(report_path).read_text())

    failures: list[str] = []
    held = 0
    for package, ratchet in sorted(packages.items()):
        summaries: dict[str, dict] = {}
        for path, data in report.get("files", {}).items():
            name = _relative_name(path, package)
            if name is not None:
                summaries[name] = data["summary"]

        covered = sum(s["covered_lines"] for s in summaries.values())
        statements = sum(s["num_statements"] for s in summaries.values())
        total = 100.0 * covered / statements if statements else 0.0
        floor = ratchet["total"]
        if total < floor:
            failures.append(
                f"{package} total {total:.1f}% < ratchet floor {floor:.1f}%"
            )

        for name, file_floor in sorted(ratchet["files"].items()):
            summary = summaries.get(name)
            if summary is None:
                failures.append(
                    f"{package}{name}: missing from the coverage report"
                )
                continue
            percent = summary["percent_covered"]
            if percent < file_floor:
                failures.append(
                    f"{package}{name}: {percent:.1f}% < ratchet floor "
                    f"{file_floor:.1f}%"
                )
        held += len(ratchet["files"])
        print(f"coverage: {package} total {total:.1f}% (floor {floor:.1f}%)")

    if failures:
        print("coverage ratchet FAILED:")
        for failure in failures:
            print(f"  {failure}")
        print(
            "Coverage only ratchets upward: add tests, or raise the floors\n"
            "in tools/coverage_ratchet.json only alongside an intentional\n"
            "code removal."
        )
        return 1

    print(f"coverage ratchet OK: {held} file floors held")
    return 0


def _executable_lines(source: bytes, path: pathlib.Path) -> set[int]:
    """All line numbers that carry bytecode, via the code-object tree."""
    code = compile(source, str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        current = stack.pop()
        for _, _, line in current.co_lines():
            if line is not None:
                lines.add(line)
        for const in current.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
    return lines


def _sources(targets: dict[str, pathlib.Path]) -> dict[pathlib.Path, bytes]:
    """The bytes of every measured file, keyed by path."""
    return {
        path: path.read_bytes()
        for target in targets.values()
        for path in sorted(target.rglob("*.py"))
    }


def measure() -> int:
    import threading

    import pytest

    packages = _load_ratchet()
    targets = {
        package: REPO / "src" / package.rstrip("/")
        for package in packages
    }
    prefixes = {package: str(target) + "/" for package, target in targets.items()}
    executed: dict[str, set[int]] = {}

    def local_tracer(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local_tracer

    def global_tracer(frame, event, arg):
        if event == "call" and any(
            frame.f_code.co_filename.startswith(prefix)
            for prefix in prefixes.values()
        ):
            executed.setdefault(frame.f_code.co_filename, set())
            return local_tracer
        return None

    test_dirs = sorted({ratchet["tests"] for ratchet in packages.values()})
    before = _sources(targets)
    lines_of = {
        path: _executable_lines(source, path) for path, source in before.items()
    }
    threading.settrace(global_tracer)
    sys.settrace(global_tracer)
    try:
        exit_code = pytest.main([*test_dirs, "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if exit_code != 0:
        print(f"pytest failed with exit code {exit_code}; not measuring")
        return int(exit_code)

    after = _sources(targets)
    changed = sorted(
        path
        for path in before.keys() | after.keys()
        if before.get(path) != after.get(path)
    )
    if changed:
        print("source files changed during the measurement; not measuring:")
        for path in changed:
            print(f"  {path.relative_to(REPO)}")
        return 1

    for package, target in sorted(targets.items()):
        print(f"\nstdlib-tracer line coverage for {package} (approximate):")
        total_hit = total_lines = 0
        for path in sorted(target.rglob("*.py")):
            lines = lines_of[path]
            hit = executed.get(str(path), set()) & lines
            total_hit += len(hit)
            total_lines += len(lines)
            percent = 100.0 * len(hit) / len(lines) if lines else 100.0
            name = str(path.relative_to(target))
            print(f"  {name:<32} {percent:6.1f}%  ({len(hit)}/{len(lines)})")
        total = 100.0 * total_hit / total_lines if total_lines else 0.0
        print(f"  {'TOTAL':<32} {total:6.1f}%  ({total_hit}/{total_lines})")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "measure":
        return measure()
    if argv and argv[0] == "check":
        argv = argv[1:]
    if len(argv) != 1:
        print(__doc__)
        return 2
    return check(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
