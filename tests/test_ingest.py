"""Loading, gridding, gap filling, and prefiltering of raw exports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pemix import (
    InsufficientDataError,
    InvalidInputError,
    Quality,
    TimeSeries,
    fill_gaps,
    load_csv,
    prefilter,
    regularize,
)

from oracles import clipped_median, gap_report


class TestLoadCsv:
    def test_comma_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("timestamp,level\n0,10.5\n60,11.0\n120,11.5\n")
        records = load_csv(path)
        assert records == [(0.0, 10.5), (60.0, 11.0), (120.0, 11.5)]

    def test_columns_by_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,t,v\n9,0,1.5\n9,10,2.5\n")
        records = load_csv(path, time_column="t", value_column="v")
        assert records == [(0.0, 1.5), (10.0, 2.5)]

    def test_whitespace_delimited(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0 1.0\n1 2.0\n2 3.0\n")
        records = load_csv(path, header_policy="none")
        assert records == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

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

    def test_unreadable_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")

    def test_skip_header_policy(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.0\n1,2.0\n")
        assert len(load_csv(path, header_policy="skip")) == 1
        assert len(load_csv(path, header_policy="none")) == 2


class TestRegularize:
    def test_downsample_keeps_nearest_record(self):
        # 5-minute records onto a 15-minute grid: every third survives.
        records = [(300.0 * i, float(i)) for i in range(12)]
        series = regularize(records, 900.0)
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
            series = regularize(records, spacing)
            expected = int(np.floor((times[-1] - times[0]) / spacing)) + 1
            assert len(series) == expected

    def test_empty_cells_hold_nan(self):
        # A run of 1 s records, a dropout, then one more record.
        records = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (10.0, 4.0)]
        series = regularize(records, 1.0)
        assert len(series) == 11
        assert np.isnan(series.values[3:10]).all()
        np.testing.assert_array_equal(series.values[:3], [1.0, 2.0, 3.0])
        assert series.values[10] == 4.0

    def test_damaged_record_flagged_suspect(self):
        records = [(0.0, 1.0), (1.0, float("nan")), (2.0, 3.0)]
        series = regularize(records, 1.0)
        assert np.isnan(series.values[1])
        assert series.quality[1] == int(Quality.SUSPECT)
        assert series.quality[0] == int(Quality.GOOD)

    def test_target_finer_than_native_raises(self):
        records = [(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)]
        with pytest.raises(InvalidInputError):
            regularize(records, 1.0)

    def test_no_records_raises(self):
        with pytest.raises(InvalidInputError):
            regularize([], 1.0)


class TestFillGaps:
    def test_forward_fill_and_report(self):
        series = TimeSeries(np.array([1.0, np.nan, np.nan, 4.0, np.nan, 6.0]))
        filled, report = fill_gaps(series)
        np.testing.assert_array_equal(filled.values, [1.0, 1.0, 1.0, 4.0, 4.0, 6.0])
        assert report.n_missing_filled == 3
        assert report.n_suspect_removed == 0
        assert report.gap_spans == ((1, 2), (4, 4))
        np.testing.assert_array_equal(
            filled.quality, [0, 1, 1, 0, 1, 0]
        )

    def test_suspect_values_replaced_and_counted(self):
        quality = np.array([0, 2, 0], dtype=np.uint8)
        series = TimeSeries(np.array([1.0, 99.0, 3.0]), quality=quality)
        filled, report = fill_gaps(series)
        np.testing.assert_array_equal(filled.values, [1.0, 1.0, 3.0])
        assert report.n_suspect_removed == 1
        assert report.n_missing_filled == 0
        assert filled.quality[1] == int(Quality.FILLED)

    def test_counts_match_quality_flags(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(100)
        values[rng.choice(np.arange(1, 100), size=20, replace=False)] = np.nan
        filled, report = fill_gaps(TimeSeries(values))
        n_flagged = int((filled.quality == int(Quality.FILLED)).sum())
        assert report.n_missing_filled + report.n_suspect_removed == n_flagged
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
                st.sampled_from([int(Quality.GOOD), int(Quality.FILLED), int(Quality.SUSPECT)]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_random_masks_match_oracle_and_refill_is_a_no_op(self, points):
        values = np.array([1.0] + [v for v, _ in points])
        quality = np.array([0] + [q for _, q in points], dtype=np.uint8)
        filled, report = fill_gaps(TimeSeries(values, quality=quality))
        assert (
            report.n_missing_filled, report.n_suspect_removed, report.gap_spans
        ) == gap_report(values, quality)
        again, second = fill_gaps(filled)
        np.testing.assert_array_equal(again.values.view(np.int64), filled.values.view(np.int64))
        np.testing.assert_array_equal(again.quality, filled.quality)
        assert second.as_dict() == {"n_missing_filled": 0, "n_suspect_removed": 0, "gap_spans": []}

    def test_leading_gap_suggests_trimming(self):
        series = TimeSeries(np.array([np.nan, 1.0]))
        with pytest.raises(InvalidInputError, match="trim"):
            fill_gaps(series)


class TestPrefilter:
    def test_none_is_identity(self):
        series = TimeSeries(np.arange(5.0))
        assert prefilter(series, "none") is series

    def test_median_suppresses_spike(self):
        values = np.ones(21)
        values[10] = 50.0
        out = prefilter(TimeSeries(values), "moving_median", width=3)
        assert out.values[10] == 1.0

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
        series = regularize(records, 600.0)
        filled, report = fill_gaps(series)
        smooth = prefilter(filled, "moving_median", width=5)
        assert np.isfinite(smooth.values).all()
        assert report.n_missing_filled > 0
        assert len(smooth) == len(series)
