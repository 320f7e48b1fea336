"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import signal
import sys
import types
from pathlib import Path

import pytest

from perfbench.harness import CheckFailed, Op, check_names, result_line, run_ops
from perfbench.hostspeed import HostSpeedProbe, calibration_round
from perfbench.tracing import SpanRecorder, layer_diff, layer_totals, self_times

ROOT = Path(__file__).resolve().parent.parent


def _span(layer, start, end, parent):
    return [layer, f"{layer}-call", start, end, parent, "op"]


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("b", 5.0, 9.0, 0),
            _span("c", 6.0, 7.0, 2),
        ]
        assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])

    def test_overlapping_children_are_merged_and_clipped(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 2.0, 6.0, 0),
            _span("a", 4.0, 8.0, 0),
            _span("a", 9.0, 12.0, 0),
        ]
        # Covered: [2, 8] plus [9, 10] inside the parent.
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_layer_totals_sum_self_time_and_count_calls(self):
        spans = [
            _span("x", 0.0, 10.0, -1),
            _span("y", 1.0, 3.0, 0),
            _span("x", 4.0, 6.0, 0),
            _span("y", 4.5, 5.0, 2),
        ]
        totals = layer_totals(spans)
        assert totals["x"].self_s == pytest.approx((10 - 2 - 2) + (2 - 0.5))
        assert totals["x"].calls == 2
        assert totals["y"].self_s == pytest.approx(2.5)
        assert totals["y"].calls == 2

    def test_self_times_sum_to_the_root_span(self):
        recorder = SpanRecorder()
        inner = recorder.wrap("inner", lambda: sum(range(1000)))
        outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
        with recorder.span("op", "op-1"):
            outer()
        root_layer, name, start, end, parent, op = recorder.spans[0]
        assert (root_layer, name, parent) == ("op", "op-1", -1)
        assert [s[4] for s in recorder.spans] == [-1, 0, 1, 1, 1]
        assert recorder.spans[2][1].endswith("<lambda>")
        assert sum(self_times(recorder.spans)) == pytest.approx(end - start)
        assert layer_totals(recorder.spans)["inner"].calls == 3


class TestInstall:
    def test_wraps_functions_methods_and_classmethods_then_restores(self, monkeypatch):
        module = types.ModuleType("fakepkg.layer")

        def work(x):
            return x + 1

        class Thing:
            def method(self):
                return work(1)

            @classmethod
            def build(cls):
                return cls()

        module.work, module.Thing = work, Thing
        Thing.__module__ = module.__name__
        caller = types.ModuleType("fakepkg.caller")
        caller.work = work
        monkeypatch.setitem(sys.modules, module.__name__, module)
        monkeypatch.setitem(sys.modules, caller.__name__, caller)

        recorder = SpanRecorder()
        recorder.install(
            {
                "fn": ("fakepkg.layer:work",),
                "cls": ("fakepkg.layer:Thing.method", "fakepkg.layer:Thing.build"),
            },
            ("fakepkg.",),
        )
        try:
            assert caller.work(1) == 2
            assert isinstance(module.Thing.build(), Thing)
            assert Thing().method() == 2
        finally:
            recorder.uninstall()
        assert [s[0] for s in recorder.spans] == ["fn", "cls", "cls"]
        assert [s[1].rsplit(".", 1)[-1] for s in recorder.spans] == [
            "work",
            "build",
            "method",
        ]
        assert module.work is work and caller.work is work
        assert Thing.__dict__["method"].__name__ == "method"
        assert isinstance(Thing.__dict__["build"], classmethod)
        assert not hasattr(Thing.__dict__["method"], "__wrapped__")


class TestNames:
    @pytest.mark.parametrize(
        "name", ["wall_s", "cachesim.shards.self_s", "a-b.c_9", "x" * 64]
    )
    def test_accepts_the_grammar(self, name):
        check_names([name])

    @pytest.mark.parametrize(
        "name", ["", ".x", "_x", "a b", "a/b", "x" * 65, "wall_s\n"]
    )
    def test_rejects_names_outside_the_grammar(self, name):
        with pytest.raises(ValueError):
            check_names([name])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            check_names(["a", "a"])

    def test_benchmark_json_matches_what_the_runs_report(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "src"))
        from perfbench.run import WORKLOAD_NAMES, per_layer_metric_names
        from perfbench.workloads import WORKLOADS

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        end_to_end = [m["name"] for m in spec["end_to_end"]]
        check_names(list(per_layer) + end_to_end)
        assert per_layer == per_layer_metric_names()
        assert end_to_end == ["nominal_wall_s", "setup_s", "peak_rss_mb"]
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
        assert list(WORKLOADS) == list(WORKLOAD_NAMES)


class TestFailureAccounting:
    def test_a_raising_op_fails_and_the_rest_still_report(self):
        def boom():
            raise RuntimeError("broken op")

        def reject(value):
            raise CheckFailed(f"bad output {value}")

        outcomes = run_ops(
            [
                Op("first", "e1", lambda: 1),
                Op("raises", "e2", boom),
                Op("rejected", "e3", lambda: 3, reject),
                Op("last", "e4", lambda: 4, lambda value: None),
            ]
        )
        assert [o.op for o in outcomes] == ["first", "raises", "rejected", "last"]
        assert [o.error is None for o in outcomes] == [True, False, False, True]
        assert "RuntimeError: broken op" in outcomes[1].error
        assert "bad output 3" in outcomes[2].error
        assert (outcomes[0].value, outcomes[3].value) == (1, 4)
        assert all(o.seconds >= 0 for o in outcomes)

    def test_result_line_carries_the_counts(self):
        line = json.loads(result_line(False, 4, 2, {"wall_s": (1.5, "s")}))
        assert line == {
            "correct": False,
            "attempted": 4,
            "failed": 2,
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}},
        }


class TestHostSpeed:
    def test_since_takes_off_sampling_and_averages_factors_inside(self):
        probe = HostSpeedProbe()
        probe.factors, probe.spent_s = [2.0], 0.5
        mark = probe.mark()
        probe.factors += [1.0, 1.5]
        probe.spent_s += 0.25
        assert probe.since(mark) == (0.25, 1.25)

    def test_an_op_without_samples_uses_the_latest_factor(self):
        probe = HostSpeedProbe()
        probe.factors = [1.2, 0.8]
        assert probe.since(probe.mark()) == (0.0, 0.8)

    def test_ops_under_a_running_probe_get_nominal_seconds(self):
        def busy():
            deadline = calibration_round() * 20
            total = 0.0
            while total < deadline:
                total += calibration_round()

        with HostSpeedProbe(interval_s=0.01) as probe:
            outcomes = run_ops(
                [Op("busy", "e", busy), Op("quick", "e", lambda: 1)], probe=probe
            )
        assert len(probe.factors) > 2
        for outcome in outcomes:
            assert outcome.seconds >= 0 and outcome.nominal_s > 0
        # The probe stopped and put the previous handler back.
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_layer_diff_reads_missing_layers_as_zero():
    rows = layer_diff(
        {"a": {"self_s": 2.0, "calls": 3}},
        {"a": {"self_s": 1.5, "calls": 3}, "b": {"self_s": 0.5, "calls": 1}},
    )
    assert rows == [("a", 2.0, 1.5, 3, 3), ("b", 0.0, 0.5, 0, 1)]
