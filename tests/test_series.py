"""TimeSeries container and its CSV round trip."""

import dataclasses
import io
import re

import numpy as np
import pytest

from pemix import InvalidInputError, TimeSeries, read_series_csv, write_series_csv
from pemix.series import _REVERSAL_TAG, _SWEEP_TAG, _TRACE_TAG, _check_number


class TestTimeSeries:
    def test_coerces_to_float64(self):
        series = TimeSeries(np.array([1, 2, 3]))
        assert series.values.dtype == np.float64

    def test_times(self):
        series = TimeSeries(np.zeros(4), spacing=0.5, origin=10.0)
        np.testing.assert_array_equal(series.times(), [10.0, 10.5, 11.0, 11.5])

    def test_length(self):
        assert len(TimeSeries(np.zeros(7))) == 7

    def test_fields_are_what_a_series_file_holds(self):
        names = [f.name for f in dataclasses.fields(TimeSeries)]
        assert names == ["values", "spacing", "unit", "origin"]

    def test_rejects_2d(self):
        with pytest.raises(InvalidInputError):
            TimeSeries(np.zeros((3, 2)))

    def test_rejects_bad_spacing(self):
        with pytest.raises(InvalidInputError):
            TimeSeries(np.zeros(3), spacing=0.0)
        with pytest.raises(InvalidInputError):
            TimeSeries(np.zeros(3), spacing=-1.0)

    @pytest.mark.parametrize("origin", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_origin(self, origin):
        with pytest.raises(InvalidInputError, match="^origin must be finite"):
            TimeSeries(np.zeros(3), origin=origin)

    @pytest.mark.parametrize("unit", ["sec\nfoo", "sec\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_rejects_a_unit_with_a_line_break(self, unit):
        # The unit is one header line of a series file.
        with pytest.raises(InvalidInputError, match="^unit must not contain a line break"):
            TimeSeries(np.zeros(3), unit=unit)

    @pytest.mark.parametrize("unit", [" sec ", "sec ", "\tsec"])
    def test_rejects_a_unit_with_surrounding_whitespace(self, unit):
        # A header value is stripped on read, so such a unit would not round-trip.
        with pytest.raises(InvalidInputError, match="^unit must not have surrounding whitespace"):
            TimeSeries(np.zeros(3), unit=unit)


class TestCheckNumber:
    @pytest.mark.parametrize(
        "value, bounds, message",
        [
            (np.nan, {}, "x must be finite, got nan"),
            (np.inf, {"above": 0}, "x must be finite, got inf"),
            (-np.inf, {"minimum": 0}, "x must be finite, got -inf"),
            (0.0, {"above": 0}, "x must be > 0, got 0.0"),
            (-0.5, {"minimum": 0}, "x must be >= 0, got -0.5"),
            (2.5, {"minimum": 1, "integer": True}, "x must be an integer >= 1, got 2.5"),
            (np.int64(0), {"minimum": 1, "integer": True}, "x must be an integer >= 1, got 0"),
            (2.0, {"integer": True}, "x must be an integer, got 2.0"),
            ("3", {"integer": True}, "x must be an integer, got 3"),
        ],
    )
    def test_each_form_names_the_parameter_and_the_value(self, value, bounds, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            _check_number("x", value, **bounds)

    @pytest.mark.parametrize(
        "value, bounds",
        [(-1e300, {}), (5e-324, {"above": 0}), (0.0, {"minimum": 0}),
         (1, {"minimum": 1, "integer": True}), (np.int32(7), {"minimum": 0, "integer": True}),
         (-10**30, {"integer": True}), (np.int64(-3), {"integer": True})],
    )
    def test_accepts_a_number_in_range(self, value, bounds):
        assert _check_number("x", value, **bounds) is None


class TestSeriesCsv:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(
            rng.standard_normal(50), spacing=0.0625, unit="seconds", origin=1.375
        )
        buffer = io.StringIO()
        write_series_csv(buffer, series, {"note": "round-trip"})
        buffer.seek(0)
        loaded, metadata = read_series_csv(buffer)
        np.testing.assert_array_equal(loaded.values, series.values)
        assert loaded.spacing == series.spacing
        assert loaded.origin == series.origin
        assert loaded.unit == "seconds"
        assert metadata["note"] == "round-trip"

    def test_header_metadata_survives(self):
        series = TimeSeries(np.arange(3.0))
        buffer = io.StringIO()
        write_series_csv(buffer, series, {"seed": 7, "k": 3})
        text = buffer.getvalue()
        assert "# seed: 7" in text
        assert "# k: 3" in text
        assert text.startswith("# pemix-series v1\n")

    def test_missing_header_infers_spacing(self):
        buffer = io.StringIO("time,value\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
        loaded, _ = read_series_csv(buffer)
        assert loaded.spacing == 0.5
        assert loaded.origin == 0.0

    def test_other_column_header_raises(self):
        buffer = io.StringIO("# pemix-trace v1\nanchor,pe_tau1\n99,0.5\n100,0.6\n")
        with pytest.raises(InvalidInputError, match="line 2.*'time,value'"):
            read_series_csv(buffer)

    def test_dropped_row_raises(self):
        series = TimeSeries(np.arange(6.0), spacing=0.25, origin=1.6e9)
        buffer = io.StringIO()
        write_series_csv(buffer, series)
        lines = buffer.getvalue().splitlines(keepends=True)
        del lines[-3]
        with pytest.raises(InvalidInputError, match="uneven time column"):
            read_series_csv(io.StringIO("".join(lines)))
        untagged = "time,value\n0.0,1.0\n0.5,2.0\n1.5,3.0\n2.0,4.0\n"
        message = "^uneven time column: the step from time 0.5 to 1.5 is not the spacing 0.5$"
        with pytest.raises(InvalidInputError, match=message):
            read_series_csv(io.StringIO(untagged))

    def test_grid_times_pass_the_step_check(self):
        # 0.1 is inexact and ulp(1.6e9) is 2.4e-7, so the written steps are
        # off from 0.1 by far more than 1e-9 relative: the time rounding
        # allowance must absorb it.
        series = TimeSeries(np.arange(1000.0), spacing=0.1, origin=1.6e9 + 0.3)
        buffer = io.StringIO()
        write_series_csv(buffer, series)
        buffer.seek(0)
        loaded, _ = read_series_csv(buffer)
        np.testing.assert_array_equal(loaded.times(), series.times())

    @pytest.mark.parametrize(
        "tag", [_TRACE_TAG, _REVERSAL_TAG, _SWEEP_TAG], ids=["traces", "reversal", "sweep"]
    )
    def test_other_pemix_tag_raises(self, tag):
        buffer = io.StringIO(f"# {tag}\ntime,value\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(InvalidInputError, match=f"'{tag}'"):
            read_series_csv(buffer)

    def test_empty_file_raises(self):
        with pytest.raises(InvalidInputError):
            read_series_csv(io.StringIO(""))

    def test_bad_row_raises(self):
        buffer = io.StringIO("time,value\n0.0,1.0\nnot-a-row\n")
        with pytest.raises(InvalidInputError, match="line 3"):
            read_series_csv(buffer)

    @pytest.mark.parametrize("row", ["1.0,1,234", "1.0,2.0,"])
    def test_row_with_a_third_cell_raises(self, row):
        # Read as "1.0,1" the first row would pass as the value 1.
        buffer = io.StringIO(f"# pemix-series v1\ntime,value\n0.0,1.0\n{row}\n2.0,3.0\n")
        with pytest.raises(InvalidInputError, match="^line 4: .*2 columns but 3 were found"):
            read_series_csv(buffer)

    @pytest.mark.parametrize("key", ["spacing", "origin"])
    def test_header_number_that_is_not_a_number_raises(self, key):
        buffer = io.StringIO(f"# pemix-series v1\n# {key}: abc\ntime,value\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(InvalidInputError, match=f"^header {key} 'abc' is not a number$"):
            read_series_csv(buffer)

    def test_first_time_off_the_origin_raises(self):
        text = "# pemix-series v1\n# spacing: 1.0\n# origin: 7.0\ntime,value\n0.0,1.0\n1.0,2.0\n"
        with pytest.raises(InvalidInputError, match="^the first time 0.0 is not the origin 7.0$"):
            read_series_csv(io.StringIO(text))
        # A first time within the step check's rounding allowance passes.
        loaded, _ = read_series_csv(io.StringIO(text.replace("7.0", repr(1e-12))))
        assert loaded.origin == 1e-12
