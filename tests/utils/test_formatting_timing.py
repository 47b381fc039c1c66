"""Unit tests for repro.utils.formatting."""

from repro.utils.formatting import format_series, format_table


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]])
        assert "a" in text and "bb" in text and "33" in text

    def test_title_rendered(self):
        text = format_table(["x"], [[1]], title="My Title")
        assert text.splitlines()[0] == "My Title"

    def test_column_alignment(self):
        text = format_table(["col"], [["x"], ["longer"]])
        lines = text.splitlines()
        # All data lines padded to the same width as the longest cell.
        assert len(lines[-1]) >= len("longer")

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestFormatSeries:
    def test_one_row_per_x(self):
        text = format_series({"s1": [1.0, 2.0], "s2": [3.0, 4.0]}, [10, 20])
        assert len(text.splitlines()) == 4  # header, separator, two rows

    def test_missing_values_rendered_as_dash(self):
        text = format_series({"s1": [1.0]}, [10, 20])
        assert "-" in text.splitlines()[-1]
