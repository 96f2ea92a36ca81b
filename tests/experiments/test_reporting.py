"""Unit tests for plain-text reporting."""

import math

from repro.experiments.reporting import (
    format_series,
    format_table,
    format_value,
)


class TestFormatValue:
    def test_floats_rounded(self):
        assert format_value(2.567, precision=2) == "2.57"

    def test_none_and_nan_rendered_as_dash(self):
        assert format_value(None) == "-"
        assert format_value(float("nan")) == "-"

    def test_ints_and_strings_passed_through(self):
        assert format_value(7) == "7"
        assert format_value("abc") == "abc"


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["name", "value"], [["x", 1], ["longer", 2.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines padded to equal width

    def test_title_prepended(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert len(text.splitlines()) == 2


class TestFormatSeries:
    def test_basic_series(self):
        text = format_series("x", [1, 2, 3], [("y", [10, 20, 30])])
        lines = text.splitlines()
        assert len(lines) == 5
        assert "10" in lines[2]

    def test_thinning_keeps_first_and_last(self):
        x = list(range(100))
        text = format_series("x", x, [("y", x)], max_rows=5)
        lines = text.splitlines()
        assert len(lines) == 7  # header + rule + 5 rows
        assert lines[2].split()[0] == "0"
        assert lines[-1].split()[0] == "99"

    def test_short_series_kept_whole(self):
        text = format_series("x", [1, 2], [("y", [5, 6])], max_rows=10)
        assert len(text.splitlines()) == 4

    def test_missing_values_rendered_as_dash(self):
        text = format_series("x", [1, 2], [("y", [5])])
        assert text.splitlines()[-1].split()[-1] == "-"
