"""``tools/coverage_gate.py measure`` refuses a measurement of edited files.

The stdlib tracer records executed line numbers while the tests run; the
percentages compare them with each file's executable lines.  Those are
read from a snapshot taken before the run, and a file whose bytes
changed during the run makes ``measure`` exit nonzero and name it.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """The gate module, pointed at a one-package scratch tree."""
    if sys.gettrace() is not None:
        pytest.skip("a trace hook is active; measure() would replace it")
    spec = importlib.util.spec_from_file_location(
        "coverage_gate_under_test", REPO_ROOT / "tools" / "coverage_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text("def f():\n    return 1\n\n\nf()\n")
    ratchet = tmp_path / "ratchet.json"
    ratchet.write_text(
        json.dumps(
            {"packages": {"pkg/": {"tests": "tests", "total": 0, "files": {}}}}
        )
    )
    monkeypatch.setattr(module, "REPO", tmp_path)
    monkeypatch.setattr(module, "RATCHET", ratchet)
    return module


def _fake_run(source_path, edit):
    def main(args):
        code = compile(source_path.read_text(), str(source_path), "exec")
        exec(code, {})
        if edit is not None:
            source_path.write_text(edit)
        return 0

    return main


def test_edit_during_measure_is_refused(gate, tmp_path, monkeypatch, capsys):
    mod = tmp_path / "src" / "pkg" / "mod.py"
    edited = "# a comment shifts every line\n" + mod.read_text()
    monkeypatch.setattr(pytest, "main", _fake_run(mod, edited))
    assert gate.measure() == 1
    out = capsys.readouterr().out
    assert "changed during the measurement" in out
    assert "src/pkg/mod.py" in out
    assert "%" not in out


def test_file_added_during_measure_is_refused(gate, tmp_path, monkeypatch, capsys):
    mod = tmp_path / "src" / "pkg" / "mod.py"

    def main(args):
        (tmp_path / "src" / "pkg" / "new.py").write_text("X = 1\n")
        return 0

    monkeypatch.setattr(pytest, "main", main)
    assert gate.measure() == 1
    out = capsys.readouterr().out
    assert "src/pkg/new.py" in out and str(mod.name) not in out


def test_unchanged_tree_is_measured(gate, tmp_path, monkeypatch, capsys):
    mod = tmp_path / "src" / "pkg" / "mod.py"
    monkeypatch.setattr(pytest, "main", _fake_run(mod, None))
    assert gate.measure() == 0
    out = capsys.readouterr().out
    assert "mod.py" in out and "TOTAL" in out
    assert "(0/" not in out  # the traced lines were attributed
