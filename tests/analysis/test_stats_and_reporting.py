"""Unit tests for the statistics and reporting helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.reporting import format_table
from repro.analysis.stats import boxplot_stats, mean, percentile


class TestPercentile:
    def test_empty_sequence(self):
        assert percentile([], 50) == 0.0
        assert mean([]) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 100) == 7.0

    def test_interpolation(self):
        data = [0.0, 10.0]
        assert percentile(data, 50) == pytest.approx(5.0)
        assert percentile(data, 25) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5.0, 1.0, 9.0, 3.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_property_percentile_within_range(self, data, q):
        value = percentile(data, q)
        assert min(data) <= value <= max(data)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_property_percentiles_are_monotone(self, data):
        values = [percentile(data, q) for q in (1, 25, 50, 75, 99)]
        assert values == sorted(values)


class TestSummaries:
    def test_boxplot_stats(self):
        data = list(range(1, 101))
        stats = boxplot_stats(data)
        assert stats.p50 == pytest.approx(50.5)
        assert stats.maximum == 100
        assert stats.count == 100
        assert stats.p25 < stats.p50 < stats.p75 < stats.p99
        assert len(stats.as_row()) == 6

    def test_boxplot_stats_empty(self):
        stats = boxplot_stats([])
        assert stats.maximum == 0.0
        assert stats.count == 0

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"],
            [["relaxation", 0.123456], ["cost scaling", 12.0]],
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "relaxation" in lines[2]
        assert "0.1235" in lines[2]
