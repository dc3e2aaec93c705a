"""Loading, gridding, gap filling, and prefiltering of raw exports."""

import tracemalloc
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pemix.ingest as ingest_module
from pemix import (
    CleaningReport,
    InsufficientDataError,
    InvalidInputError,
    TimeSeries,
    fill_gaps,
    load_csv,
    prefilter,
    regularize,
)

from oracles import clipped_median, gap_report, load_records


class TestLoadCsv:
    def test_comma_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("timestamp,level\n0,10.5\n60,11.0\n120,11.5\n")
        records = load_csv(path)
        assert records.tolist() == [(0.0, 10.5), (60.0, 11.0), (120.0, 11.5)]

    def test_columns_by_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,t,v\n9,0,1.5\n9,10,2.5\n")
        records = load_csv(path, time_column="t", value_column="v")
        assert records.tolist() == [(0.0, 1.5), (10.0, 2.5)]

    def test_whitespace_delimited(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0 1.0\n1 2.0\n2 3.0\n")
        records = load_csv(path, header_policy="none")
        assert records.tolist() == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_iso_timestamps(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "time,value\n2020-01-01T00:00:00Z,1.0\n2020-01-01T00:15:00Z,2.0\n"
        )
        records = load_csv(path)
        assert records[1][0] - records[0][0] == 900.0

    def test_missing_values_become_nan_records(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,v\n0,1.0\n1,NaN\n2,\n3,bad\n4,2.0\n")
        records = load_csv(path)
        assert len(records) == 5
        assert np.isnan([r[1] for r in records[1:4]]).all()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# comment\n\nt,v\n0,1.0\n\n1,2.0\n")
        assert len(load_csv(path)) == 2

    def test_out_of_order_names_offending_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,v\n0,1.0\n10,2.0\n5,3.0\n")
        with pytest.raises(InvalidInputError, match="row 4"):
            load_csv(path)

    def test_zero_usable_rows_raises(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,v\n")
        with pytest.raises(InsufficientDataError):
            load_csv(path)

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,v\n0,1.0\n")
        with pytest.raises(InvalidInputError):
            load_csv(path, value_column="humidity")
        with pytest.raises(InvalidInputError):
            load_csv(path, value_column=5)

    @pytest.mark.parametrize(
        "text, time_column",
        [("timestamp,value\n0,1.5\n10,2.5\n", "timestamp"), ("0,1.5\n10,2.5\n", 0)],
        ids=["header", "headerless"],
    )
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, text, time_column):
        # Spreadsheet exports often start with one; it is not part of the first cell.
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        records = load_csv(path, time_column=time_column)
        assert records.tolist() == [(0.0, 1.5), (10.0, 2.5)]

    def test_unreadable_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")

    def test_skip_header_policy(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0\n1,2.0\n")
        assert len(load_csv(path, header_policy="skip")) == 1
        assert len(load_csv(path, header_policy="none")) == 2
        with pytest.raises(InvalidInputError, match="^header_policy must be 'auto', 'skip' or"):
            load_csv(path, header_policy="first")

    def test_records_are_a_structured_time_value_array(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,v\n0,1.0\n1,bad\n")
        records = load_csv(path)
        assert records.shape == (2,)
        assert records.dtype.names == ("time", "value")
        assert records["time"].dtype == records["value"].dtype == np.float64
        np.testing.assert_array_equal(records["time"], [0.0, 1.0])
        assert records["value"][0] == 1.0 and np.isnan(records["value"][1])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", " NaN "])
    def test_non_finite_time_names_its_row(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"t,v\n0,1.0\n{cell},2.0\n2,3.0\n")
        with pytest.raises(InvalidInputError, match=r"^row 3: time .* is not finite"):
            load_csv(path)

    def test_timestamp_first_row_is_data_whatever_its_value(self, tmp_path):
        # No cell of the first row is a number, but its time cell is a stamp.
        path = tmp_path / "data.csv"
        path.write_text(
            "2021-03-01T00:00:00Z,ERR\n2021-03-01T00:00:01Z,1.0\n"
            "2021-03-01T00:00:02Z,2.0\n2021-03-01T00:00:03Z,3.0\n"
        )
        records = load_csv(path)
        assert len(records) == 4
        assert records["time"][0] == datetime(2021, 3, 1, tzinfo=timezone.utc).timestamp()
        assert np.isnan(records["value"][0])
        assert len(load_csv(path, header_policy="skip")) == 3

    def test_peak_memory_grows_by_a_few_bytes_per_row(self, tmp_path):
        peaks = {}
        for n in (50_000, 200_000):
            start = np.datetime64("2021-03-01T00:00:00.000")
            stamps = np.datetime_as_string(start + np.arange(n) * np.timedelta64(250, "ms"))
            values = np.linspace(-9.0, 9.0, n)
            rows = [f"{stamp}Z,{value!r}" for stamp, value in zip(stamps, values.tolist())]
            path = tmp_path / f"export{n}.csv"
            path.write_text("timestamp,value\n" + "\n".join(rows) + "\n")
            tracemalloc.start()
            records = load_csv(path)
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(records) == n
        # The records take 16 bytes a row and are joined from their blocks
        # once; the lines, cells and arrays of one block do not grow with
        # the file.  A list of (time, value) tuples grows by about 110.
        assert peaks[200_000] - peaks[50_000] <= 40 * 150_000


# Time cells: strict UTC stamps, other ISO-8601 forms, epoch seconds, and
# cells that fail or only pass the per-cell parser.
_ODD_TIMES = [
    "2021-03-01T24:00:00Z",
    "2021-03-01T00:00:60Z",
    "2021-02-29T00:00:00Z",
    "0000-01-01T00:00:00Z",
    "2021-03-01T00:00:00.1234567Z",
    "2021-03-01T00:00:00Z\x00",
    "2021-03-01T00:00:00ZZ",
    "\u0661\u0662\u0663",
    "nan",
    "-inf",
    "",
    "bad",
]
_VALUES = [
    "1.5", "-0", "", "ERR", "nan", "-nan", "inf", "1e400",
    " 2.5 ", "1_000", "0x10", "\u00a03\u00a0", '"4,5"',
]
_SPACE_FREE_VALUES = [v for v in _VALUES if v and v.strip() == v and "," not in v]


def _iso(stamp: datetime, digits: int, zone: str) -> str:
    text = (
        f"{stamp.year:04d}-{stamp.month:02d}-{stamp.day:02d}"
        f"T{stamp.hour:02d}:{stamp.minute:02d}:{stamp.second:02d}"
    )
    if digits:
        text += "." + f"{stamp.microsecond:06d}"[:digits]
    return text + zone


@st.composite
def _time_cells(draw, size, faulty):
    years_1_to_9999 = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999999))
    stamps = sorted(draw(st.lists(years_1_to_9999, min_size=size, max_size=size)))
    forms = ["Z", "Z", "Z", "", "+00:00", "-03:30", "epoch"] + (["odd", "swap"] if faulty else [])
    cells = []
    for stamp in stamps:
        form = draw(st.sampled_from(forms))
        if form == "epoch":
            cells.append(repr((stamp - datetime(1970, 1, 1)).total_seconds()))
        elif form == "odd":
            cells.append(draw(st.sampled_from(_ODD_TIMES)))
        elif form == "swap" and cells:
            cells.insert(-1, _iso(stamp, 0, "Z"))
        else:
            zone = "Z" if form == "swap" else form
            cells.append(_iso(stamp, draw(st.integers(0, 6)), zone))
    return cells


@st.composite
def _exports(draw):
    """Export text, (time, value) column selectors and header policy.

    A faulty export may hold bad or unordered stamps and short rows; any
    export may hold blank and comment lines, quoted stamps, rows with an
    extra cell and whitespace-delimited rows.
    """
    faulty = draw(st.booleans())
    times = draw(_time_cells(draw(st.integers(0, 20)), faulty))
    lead = draw(st.booleans())
    extra = draw(st.integers(0, 2))
    shapes = ["row"] * 8 + ["wide", "spaced", "blank", "comment"] + (["short"] if faulty else [])
    lines = []
    has_header = draw(st.booleans())
    if has_header:
        names = (["a"] if lead else []) + ["t", "v"] + [f"x{i}" for i in range(extra)]
        lines.append(",".join(names))
    for t in times:
        shape = draw(st.sampled_from(shapes))
        if shape == "spaced":
            value = draw(st.sampled_from(_SPACE_FREE_VALUES))
        else:
            value = draw(st.sampled_from(_VALUES))
            if draw(st.integers(0, 9)) == 0:
                t = f'"{t}"'
        cells = (["9"] if lead else []) + [t, value] + ["x"] * extra
        if shape == "short":
            cells = cells[:1]
        elif shape == "wide":
            cells.append("y")
        elif shape == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif shape == "comment":
            lines.append("# note, " + t)
        lines.append(" ".join(cells) if shape == "spaced" else ",".join(cells))
    by_name = has_header and draw(st.booleans())
    columns = ("t", "v") if by_name else (int(lead), int(lead) + 1)
    policy = draw(st.sampled_from(["auto", "auto", "skip", "none"]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + ending, columns, policy


def _outcome(load, path, columns, policy):
    try:
        records = load(path, *columns, header_policy=policy)
    except (InvalidInputError, InsufficientDataError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(records, list):
        pairs = np.array(records, dtype=np.float64).reshape(-1, 2)
    else:
        pairs = np.column_stack([records["time"], records["value"]])
    return "records", pairs.view(np.int64).tolist()


class TestLoadCsvMatchesRowOracle:
    """``load_csv`` against the row-by-row loop in ``oracles.load_records``:
    the same records bit for bit, or the same error type, message and row."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(export=_exports(), block_lines=st.sampled_from([1, 2, 3, 4, 1 << 15]))
    def test_records_and_errors_match(self, tmp_path, export, block_lines):
        text, columns, policy = export
        path = tmp_path / "export.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(load_records, path, columns, policy)
        with mock.patch.object(ingest_module, "_BLOCK_LINES", block_lines):
            assert _outcome(load_csv, path, columns, policy) == expected

    @pytest.mark.parametrize(
        "rows",
        [
            "0,1\n2,1\n1,1\nbad,1\n5\n",
            "0,1\nbad,1\n1,1\n5\n",
            "0,1\n5\nbad,1\n1,1\n",
            '0,1\n2,1\n"1",1\nnan,1\n',
            "0,1\n2,1\n2021-03-01T24:00:00Z,1\n1,1\n",
        ],
    )
    @pytest.mark.parametrize("block_lines", [1, 2, 3, 1 << 15])
    def test_first_fault_in_file_order_wins(self, tmp_path, rows, block_lines):
        path = tmp_path / "export.csv"
        path.write_text("t,v\n" + rows)
        expected = _outcome(load_records, path, (0, 1), "auto")
        assert expected[0] == "InvalidInputError"
        with mock.patch.object(ingest_module, "_BLOCK_LINES", block_lines):
            assert _outcome(load_csv, path, (0, 1), "auto") == expected

    @pytest.mark.parametrize("cell", _ODD_TIMES)
    @pytest.mark.parametrize("block_lines", [1, 2, 1 << 15])
    def test_odd_time_cells_match(self, tmp_path, cell, block_lines):
        path = tmp_path / "export.csv"
        path.write_text(
            "t,v\n2021-03-01T00:00:00Z,1.0\n2021-03-01T00:00:01Z,2.0\n"
            f"{cell},3.0\n2021-03-01T00:00:02Z,4.0\n"
        )
        expected = _outcome(load_records, path, (0, 1), "auto")
        with mock.patch.object(ingest_module, "_BLOCK_LINES", block_lines):
            assert _outcome(load_csv, path, (0, 1), "auto") == expected

    @pytest.mark.parametrize("year", [1, 1684, 1970, 2255, 2262, 9999])
    def test_strict_stamps_equal_timestamp_in_every_year(self, tmp_path, year):
        # Microsecond counts reach 2**53 before 1685 and after 2255.
        rng = np.random.default_rng(year)
        micros = np.sort(rng.integers(0, 365 * 86_400_000_000, size=400))
        stamps = np.datetime64(f"{year:04d}-01-01T00:00:00", "us") + micros.astype("m8[us]")
        rows = [f"{stamp}Z,1.0" for stamp in np.datetime_as_string(stamps).tolist()]
        path = tmp_path / "export.csv"
        path.write_text("\n".join(rows) + "\n")
        expected = np.array(load_records(path))[:, 0]
        got = load_csv(path)["time"]
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestRegularize:
    def test_decreasing_time_is_rejected_naming_the_first_pair(self):
        records = [(0, 1), (1, 2), (2, 3), (10, 9), (3, 4), (4, 5)]
        with pytest.raises(InvalidInputError, match="^record times must not decrease: 10.0 then 3.0$"):
            regularize(records, 1.0)

    def test_equal_times_stay_legal(self):
        # The nearest-record rule picks between records at one time.
        series, _ = regularize([(0, 1), (1, 2), (1, 5), (2, 3)], 1.0)
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_downsample_keeps_nearest_record(self):
        # 5-minute records onto a 15-minute grid: every third survives.
        records = [(300.0 * i, float(i)) for i in range(12)]
        series, _ = regularize(records, 900.0)
        assert series.spacing == 900.0
        np.testing.assert_array_equal(series.values, [0.0, 3.0, 6.0, 9.0])

    def test_grid_length_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            diffs = rng.uniform(0.5, 3.0, size=n)
            times = np.cumsum(diffs)
            records = [(float(t), 1.0) for t in times]
            spacing = float(np.median(diffs[1:]) if n > 1 else 1.0)
            spacing *= float(rng.uniform(1.0, 3.0))
            series, _ = regularize(records, spacing)
            expected = int(np.floor((times[-1] - times[0]) / spacing)) + 1
            assert len(series) == expected

    def test_empty_cells_hold_nan(self):
        # A run of 1 s records, a dropout, then one more record.
        records = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (10.0, 4.0)]
        series, suspect = regularize(records, 1.0)
        assert not suspect.any()
        assert len(series) == 11
        assert np.isnan(series.values[3:10]).all()
        np.testing.assert_array_equal(series.values[:3], [1.0, 2.0, 3.0])
        assert series.values[10] == 4.0

    def test_damaged_record_flagged_suspect(self):
        records = [(0.0, 1.0), (1.0, float("nan")), (2.0, 3.0)]
        series, suspect = regularize(records, 1.0)
        assert np.isnan(series.values[1])
        assert suspect.dtype == bool
        np.testing.assert_array_equal(suspect, [False, True, False])

    def test_target_finer_than_native_raises(self):
        records = [(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)]
        with pytest.raises(InvalidInputError):
            regularize(records, 1.0)

    def test_no_records_raises(self):
        with pytest.raises(InvalidInputError):
            regularize([], 1.0)
        # A zero-length record array, as load_csv's dtype, takes the other path.
        with pytest.raises(InvalidInputError, match="^no records to regularize$"):
            regularize(np.zeros(0, dtype=[("time", "f8"), ("value", "f8")]), 1.0)

    def test_loaded_records_grid_like_their_pairs(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,v\n0,1.0\n1,bad\n2,3.0\n4.1,4.0\n")
        records = load_csv(path)
        from_array, array_suspect = regularize(records, 1.0)
        from_pairs, pairs_suspect = regularize(records.tolist(), 1.0)
        np.testing.assert_array_equal(from_array.values, from_pairs.values)
        np.testing.assert_array_equal(array_suspect, [False, True, False, False, False])
        np.testing.assert_array_equal(array_suspect, pairs_suspect)
        assert from_array.origin == from_pairs.origin == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_times_raise(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            regularize([(0.0, 1.0), (bad, 2.0), (2.0, 3.0)], 1.0)

    def test_lists_and_arrays_of_pairs_grid_like_tuples(self):
        pairs = [(0.0, 1.0), (1.0, np.nan), (3.2, 3.0), (4.0, 4.0)]
        from_tuples, tuples_suspect = regularize(pairs, 1.0)
        for records in ([list(p) for p in pairs], np.array(pairs)):
            series, suspect = regularize(records, 1.0)
            np.testing.assert_array_equal(series.values, from_tuples.values)
            np.testing.assert_array_equal(suspect, tuples_suspect)
            assert series.origin == from_tuples.origin

    @pytest.mark.parametrize(
        "records",
        [
            [(0.0, 1.0), (1.0,)],
            [(0.0, 1.0, 5.0), (1.0, 2.0, 6.0)],
            np.zeros((3, 3)),
            [0.0, 1.0, 2.0],
        ],
    )
    def test_records_must_be_pairs(self, records):
        with pytest.raises(InvalidInputError, match="pairs"):
            regularize(records, 1.0)


class TestFillGaps:
    def test_forward_fill_and_report(self):
        series = TimeSeries(
            np.array([1.0, np.nan, np.nan, 4.0, np.nan, 6.0]), spacing=2.0, unit="hours", origin=5.0
        )
        filled, report = fill_gaps(series)
        np.testing.assert_array_equal(filled.values, [1.0, 1.0, 1.0, 4.0, 4.0, 6.0])
        assert (filled.spacing, filled.unit, filled.origin) == (2.0, "hours", 5.0)
        assert report.n_missing_filled == 3
        assert report.n_suspect_removed == 0
        assert report.gap_spans == ((1, 2), (4, 4))

    def test_suspect_values_replaced_and_counted(self):
        series = TimeSeries(np.array([1.0, 99.0, 3.0, np.nan]))
        filled, report = fill_gaps(series, np.array([False, True, False, False]))
        np.testing.assert_array_equal(filled.values, [1.0, 1.0, 3.0, 3.0])
        assert report.n_suspect_removed == 1
        assert report.n_missing_filled == 1
        assert report.gap_spans == ((1, 1), (3, 3))

    def test_suspect_mask_must_match_length(self):
        series = TimeSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(InvalidInputError, match="suspect mask"):
            fill_gaps(series, np.zeros(2, dtype=bool))

    def test_counts_match_quality_flags(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(100)
        values[rng.choice(np.arange(1, 100), size=20, replace=False)] = np.nan
        filled, report = fill_gaps(TimeSeries(values))
        n_spanned = sum(last - first + 1 for first, last in report.gap_spans)
        assert report.n_missing_filled + report.n_suspect_removed == n_spanned == 20
        assert np.isfinite(filled.values).all()

    def test_idempotent(self):
        series = TimeSeries(np.array([1.0, np.nan, 3.0]))
        once, _ = fill_gaps(series)
        twice, report = fill_gaps(once)
        np.testing.assert_array_equal(once.values, twice.values)
        assert report.n_missing_filled == 0
        assert report.gap_spans == ()

    @settings(max_examples=80, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.sampled_from([1.5, -0.0, np.nan, np.inf, -np.inf]),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_random_masks_match_oracle_and_refill_is_a_no_op(self, points):
        values = np.array([1.0] + [v for v, _ in points])
        suspect = np.array([False] + [s for _, s in points])
        filled, report = fill_gaps(TimeSeries(values), suspect)
        assert (
            report.n_missing_filled, report.n_suspect_removed, report.gap_spans
        ) == gap_report(values, suspect)
        again, second = fill_gaps(filled)
        np.testing.assert_array_equal(again.values.view(np.int64), filled.values.view(np.int64))
        assert second == CleaningReport()

    def test_leading_gap_suggests_trimming(self):
        series = TimeSeries(np.array([np.nan, 1.0]))
        with pytest.raises(InvalidInputError, match="trim"):
            fill_gaps(series)
        with pytest.raises(InvalidInputError, match="^cannot fill an empty series$"):
            fill_gaps(TimeSeries(np.array([])))


class TestPrefilter:
    def test_none_is_identity(self):
        series = TimeSeries(np.arange(5.0))
        assert prefilter(series, "none") is series

    def test_median_suppresses_spike(self):
        values = np.ones(21)
        values[10] = 50.0
        series = TimeSeries(values, spacing=2.0, unit="hours", origin=5.0)
        out = prefilter(series, "moving_median", width=3)
        assert out.values[10] == 1.0
        assert (out.spacing, out.unit, out.origin) == (2.0, "hours", 5.0)

    def test_matches_clipped_naive_median(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(40)
        series = TimeSeries(values)
        for width in (3, 5, 9):
            out = prefilter(series, "moving_median", width=width)
            expected = [clipped_median(values, i, width // 2) for i in range(40)]
            np.testing.assert_array_equal(out.values, expected)

    def test_width_validation(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(InvalidInputError):
            prefilter(series, "moving_median", width=4)
        with pytest.raises(InvalidInputError):
            prefilter(series, "moving_median", width=1)
        with pytest.raises(InvalidInputError):
            prefilter(series, "moving_median")

    def test_unknown_method_raises(self):
        with pytest.raises(InvalidInputError):
            prefilter(TimeSeries(np.arange(5.0)), "lowpass")

    def test_requires_finite_values(self):
        series = TimeSeries(np.array([1.0, np.nan, 3.0]))
        with pytest.raises(InvalidInputError):
            prefilter(series, "moving_median", width=3)


class TestPipeline:
    def test_messy_export_becomes_analysis_ready(self, tmp_path):
        # Irregular 5-minute-ish export with duplicates, gaps and damage.
        rows = ["time,co2"]
        t = 0.0
        rng = np.random.default_rng(13)
        for i in range(200):
            t += 300.0 + float(rng.uniform(-5, 5))
            if i % 37 in (5, 6, 7):
                continue  # dropout wide enough to empty a 600 s cell
            value = "NaN" if i % 53 == 7 else f"{400 + np.sin(i / 8.0):.3f}"
            rows.append(f"{t:.1f},{value}")
        path = tmp_path / "export.csv"
        path.write_text("\n".join(rows) + "\n")

        records = load_csv(path)
        series, suspect = regularize(records, 600.0)
        filled, report = fill_gaps(series, suspect)
        smooth = prefilter(filled, "moving_median", width=5)
        assert np.isfinite(smooth.values).all()
        assert report.n_missing_filled > 0
        assert len(smooth) == len(series)
