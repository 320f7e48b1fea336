"""Tests for terminal chart rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.charts import line_chart, render_experiment_charts
from repro.experiments.common import ExperimentResult


class TestLineChart:
    def test_contains_markers_and_legend(self):
        text = line_chart([1, 10, 100], {"hit": [0.1, 0.5, 0.9]})
        assert "o" in text
        assert "o=hit" in text
        assert "log x" in text

    def test_multiple_series_distinct_markers(self):
        text = line_chart(
            [1, 2, 3], {"a": [1, 2, 3], "b": [3, 2, 1]}, logx=False
        )
        assert "o=a" in text and "x=b" in text

    def test_axis_labels(self):
        text = line_chart([1, 100], {"y": [0.0, 1.0]})
        assert "1" in text and "100" in text

    def test_flat_series_no_crash(self):
        line_chart([1, 2], {"y": [5.0, 5.0]}, logx=False)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            line_chart([1, 2], {})
        with pytest.raises(ConfigurationError):
            line_chart([1, 2], {"y": [1.0]})


class TestRenderExperimentCharts:
    def test_sweeps_become_charts(self):
        result = ExperimentResult("x", "t")
        for capacity in (4, 16, 64, 256):
            result.add(series="sweep", x=capacity, hit=capacity / 256)
        text = render_experiment_charts(result)
        assert "sweep" in text
        assert "o=hit" in text

    def test_non_sweep_rows_skipped(self):
        result = ExperimentResult("x", "t")
        result.add(series="bars", x="L1", mpki=3.0)
        assert render_experiment_charts(result) == "(no sweep series to chart)"

    def test_short_series_skipped(self):
        result = ExperimentResult("x", "t")
        result.add(series="s", x=1, y=1.0)
        result.add(series="s", x=2, y=2.0)
        assert "no sweep" in render_experiment_charts(result)
