"""End-to-end checks of the command line interface.

Every test drives ``pemix.cli.main`` in process with an argv list, so exit
codes and file contents can be asserted without spawning subprocesses.
"""

import io
import json
import tempfile
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pemix import (
    BinSweepResult,
    LorenzParams,
    MackeyGlassParams,
    PEConfig,
    bin_average,
    bin_sweep,
    fill_gaps,
    load_csv,
    mackey_glass_series,
    mixing_ansatz,
    multi_tau_pe,
    read_series_csv,
    regularize,
    reversal_series,
    sine_series,
    write_series_csv,
)
from pemix import TimeSeries
from pemix import cli
from pemix import entropy as entropy_module
from pemix.cli import main, read_trace_csv
from pemix.series import _REVERSAL_TAG, _SERIES_TAG, _SWEEP_TAG, write_table


# Every float field of the generator parameters with each value it rejects:
# not a number, infinite, and, where the field has a range, below it.
_RANGED = {"h", "beta", "gamma", "q", "t0"}
_BAD_GENERATOR_FLOATS = [
    (system, f.name, value)
    for system, cls in (("lorenz", LorenzParams), ("mackey-glass", MackeyGlassParams))
    for f in fields(cls)
    if isinstance(f.default, float)
    for value in ("nan", "inf", *(("-1",) if f.name in _RANGED else ()))
]


_MEDIAN = ["--prefilter", "moving_median"]


def run(*argv):
    return main([str(a) for a in argv])


def read_series(path):
    with open(path, "r", encoding="utf-8") as stream:
        return read_series_csv(stream)


def read_rows(path):
    """Split a pemix CSV into (metadata dict, header, data rows)."""
    metadata = {}
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    metadata[key.strip()] = value.strip()
                continue
            if header is None:
                header = line
            else:
                rows.append(line.split(","))
    return metadata, header, rows


class TestGenerate:
    def test_sine_matches_library(self, tmp_path):
        out = tmp_path / "sine.csv"
        assert run("generate", "sine", "--period", 50, "--n", 2000, "-o", out) == 0
        series, meta = read_series(out)
        expected = sine_series(1.0, 50, 2000)
        np.testing.assert_array_equal(series.values, expected.values)
        assert series.spacing == expected.spacing
        assert meta["command"] == "generate sine"
        assert meta["seed"] == "none"

    def test_lorenz_matches_library(self, tmp_path):
        out = tmp_path / "lorenz.csv"
        assert run("generate", "lorenz", "--steps", 500, "-o", out) == 0
        from pemix import LorenzParams, lorenz_series

        series, _ = read_series(out)
        expected = lorenz_series(LorenzParams(steps=500))
        np.testing.assert_array_equal(series.values, expected.values)

    def test_mackey_glass_matches_library(self, tmp_path):
        out = tmp_path / "mg.csv"
        assert run("generate", "mackey-glass", "--steps", 400, "-o", out) == 0
        from pemix import MackeyGlassParams, mackey_glass_series

        series, _ = read_series(out)
        expected = mackey_glass_series(MackeyGlassParams(steps=400))
        np.testing.assert_array_equal(series.values, expected.values)


class TestAnsatz:
    def test_deterministic_given_seed(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run("ansatz", "-i", src, "-k", 3, "--seed", 9, "-o", out_a) == 0
        assert run("ansatz", "-i", src, "-k", 3, "--seed", 9, "-o", out_b) == 0

        def stable_lines(path):
            with open(path, "r", encoding="utf-8") as stream:
                return [ln for ln in stream if not ln.startswith("# created:")]

        assert stable_lines(out_a) == stable_lines(out_b)

    def test_matches_library_and_records_rng(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        out = tmp_path / "mixed.csv"
        run("ansatz", "-i", src, "-k", 2, "--seed", 5, "-o", out)
        series, meta = read_series(out)
        expected = mixing_ansatz(sine_series(1.0, 40, 400), k=2, seed=5)
        np.testing.assert_array_equal(series.values, expected.values)
        assert meta["rng"] == "pcg64"
        assert meta["k"] == "2"

    def test_different_seed_differs(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run("ansatz", "-i", src, "-k", 3, "--seed", 1, "-o", out_a)
        run("ansatz", "-i", src, "-k", 3, "--seed", 2, "-o", out_b)
        a, _ = read_series(out_a)
        b, _ = read_series(out_b)
        assert not np.array_equal(a.values, b.values)


class TestPeAndReversal:
    def test_pe_round_trips_exactly(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 50, "--n", 1500, "-o", src)
        out = tmp_path / "pe.csv"
        code = run(
            "pe", "-i", src, "--window", 300, "--tau-max", 3, "--hop", 10, "-o", out
        )
        assert code == 0
        with open(out, "r", encoding="utf-8") as stream:
            traces, meta = read_trace_csv(stream)
        config = PEConfig(window=300, tau_max=3, hop=10)
        expected = multi_tau_pe(sine_series(1.0, 50, 1500), config)
        np.testing.assert_array_equal(traces.traces, expected.traces)
        np.testing.assert_array_equal(traces.anchors, expected.anchors)
        np.testing.assert_array_equal(traces.taus, expected.taus)
        assert meta["window"] == "300"

    def test_one_stride_file_reads_back_exactly(self):
        config = PEConfig(window=300, tau_min=2, tau_max=2, hop=7)
        traces = multi_tau_pe(sine_series(1.0, 50, 1500), config)
        stream = io.StringIO()
        cli.write_trace_csv(stream, [traces], {})
        stream.seek(0)
        back, _ = read_trace_csv(stream)
        assert back.traces.shape == (1, len(traces))
        np.testing.assert_array_equal(back.traces.view(np.int64), traces.traces.view(np.int64))
        np.testing.assert_array_equal(back.anchors, traces.anchors)
        np.testing.assert_array_equal(back.taus, [2])

    def test_reversal_scores_match_library(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 50, "--n", 1500, "-o", src)
        pe_out = tmp_path / "pe.csv"
        run("pe", "-i", src, "--window", 300, "--tau-max", 3, "--hop", 10, "-o", pe_out)
        rev_out = tmp_path / "rev.csv"
        assert run("reversal", "-i", pe_out, "-o", rev_out) == 0

        config = PEConfig(window=300, tau_max=3, hop=10)
        traces = multi_tau_pe(sine_series(1.0, 50, 1500), config)
        expected = reversal_series(traces)
        meta, header, rows = read_rows(rev_out)
        assert header == "anchor,reversal"
        values = np.array([float(r[1]) for r in rows])
        anchors = np.array([int(r[0]) for r in rows])
        np.testing.assert_array_equal(values, expected.r_values)
        np.testing.assert_array_equal(anchors, expected.anchors)
        assert float(meta["r_bar"]) == expected.r_bar

    def test_reversal_window_emits_sliding_mean(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 50, "--n", 1500, "-o", src)
        pe_out = tmp_path / "pe.csv"
        run("pe", "-i", src, "--window", 300, "--tau-max", 3, "--hop", 10, "-o", pe_out)
        rev_out = tmp_path / "rev.csv"
        assert run("reversal", "-i", pe_out, "--window", 20, "-o", rev_out) == 0
        _, _, rows = read_rows(rev_out)

        from pemix import windowed_rbar

        config = PEConfig(window=300, tau_max=3, hop=10)
        traces = multi_tau_pe(sine_series(1.0, 50, 1500), config)
        expected = windowed_rbar(reversal_series(traces), window=20)
        assert len(rows) == len(expected.r_values)
        np.testing.assert_array_equal(
            [float(r[1]) for r in rows], expected.r_values
        )


    @pytest.mark.parametrize("block", [1, 3, 512])
    def test_pe_streams_the_bytes_of_the_whole_matrix(self, tmp_path, block):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 50, "--n", 1501, "-o", src)
        out = tmp_path / "pe.csv"
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", block):
            assert run("pe", "-i", src, "--window", 300, "--hop", 7, "-o", out) == 0
        traces = multi_tau_pe(sine_series(1.0, 50, 1501), PEConfig(window=300, hop=7))
        whole = io.StringIO()
        cli.write_trace_csv(whole, [traces], {})

        def rows(text):
            return [line for line in text.splitlines() if not line.startswith("#")]

        assert rows(out.read_text(encoding="utf-8")) == rows(whole.getvalue())

    @settings(max_examples=60, deadline=None)
    @given(
        half=st.integers(8, 40),
        levels=st.integers(2, 50),
        seed=st.integers(0, 2**16),
        window=st.integers(7, 12),
        tau_max=st.integers(2, 3),
        hop=st.integers(1, 4),
        block=st.integers(1, 5),
    )
    def test_streamed_study_files_equal_the_whole_matrix_tables(
        self, half, levels, seed, window, tau_max, hop, block
    ):
        # Odd lengths and few distinct values, so windows tie and repeat;
        # blocks of 1-5 anchors put block edges everywhere.
        values = np.random.default_rng(seed).integers(0, levels, 2 * half + 1).astype(float)
        series = TimeSeries(values)
        config = PEConfig(ell=3, window=window, tau_min=1, tau_max=tau_max, hop=hop)
        traces = multi_tau_pe(series, config)
        rev = reversal_series(traces)
        columns = "anchor," + ",".join(f"pe_tau{tau}" for tau in config.taus)
        tables = {"pe": io.StringIO(), "reversal": io.StringIO()}
        write_table(tables["pe"], "pemix-traces v1", asdict(config), columns,
                    [[traces.anchors, *traces.traces]])
        write_table(tables["reversal"], "pemix-reversal v1", {"r_bar": repr(rev.r_bar)},
                    "anchor,reversal", [(rev.anchors, rev.r_values)])
        with tempfile.TemporaryDirectory() as tmp:
            stem = Path(tmp) / "s"
            with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", block):
                r_bar = cli._write_study_series(stem, "test", series, config)
            for kind, table in tables.items():
                text = Path(f"{stem}_{kind}.csv").read_text(encoding="utf-8")
                assert text == table.getvalue(), kind
        assert np.float64(r_bar).view(np.int64) == np.float64(rev.r_bar).view(np.int64)


    def test_study_series_peak_is_one_block_plus_a_byte_per_anchor(self, tmp_path):
        # Above the input series, writing a series, its traces and its scores
        # holds one block's working set and one displacement byte per anchor:
        # 2.55 and 2.68 MB measured at 200k and 250k Mackey-Glass points,
        # against 10.3 and 10.7 MB with a float score and an anchor per point
        # and the time column made whole.
        config = PEConfig()
        for n in (200_000, 250_000):
            series = mackey_glass_series(MackeyGlassParams(steps=n))
            anchors = len(config.anchor_grid(n))
            tracemalloc.start()
            cli._write_study_series(tmp_path / f"s{n}", "test", series, config)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 3_000_000 + anchors, f"{peak} bytes for {anchors} anchors"


class TestBinCommands:
    def test_bin_matches_library(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 401, "-o", src)
        out = tmp_path / "binned.csv"
        assert run("bin", "-i", src, "-j", 4, "-o", out) == 0
        series, _ = read_series(out)
        expected = bin_average(sine_series(1.0, 40, 401), 4)
        np.testing.assert_array_equal(series.values, expected.values)
        assert series.spacing == expected.spacing
        assert series.origin == expected.origin

    def test_bin_writes_the_centre_of_the_first_bin_as_first_time(self, tmp_path):
        src = tmp_path / "src.csv"
        with open(src, "w", encoding="utf-8") as stream:
            write_series_csv(stream, TimeSeries(np.arange(1.0, 8.0), spacing=2.0, origin=10.0))
        out = tmp_path / "binned.csv"
        assert run("bin", "-i", src, "-j", 3, "-o", out) == 0
        meta, _, rows = read_rows(out)
        assert meta["origin"] == "12.0"
        assert rows == [["12.0", "2.0"], ["18.0", "5.0"]]

    def test_binsweep_reports_recommendation(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 60, "--n", 3000, "-o", src)
        out = tmp_path / "sweep.csv"
        code = run(
            "binsweep", "-i", src, "--j-min", 1, "--j-max", 3,
            "--window", 300, "--tau-max", 3, "--hop", 25, "-o", out,
        )
        assert code == 0
        meta, header, rows = read_rows(out)
        assert header == "bin_size,mean_reversal,data_sufficient"
        assert "recommended_bin" in meta
        assert meta["achieved_zero"] in ("true", "false")
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        for r in rows:
            assert r[2] in ("true", "false")

    def test_sweep_rows_pin_their_bytes(self):
        # An insufficient size is written as nan, not dropped or zeroed.
        result = BinSweepResult([1, 2, 3], [0.5, 1 / 3, np.nan])
        stream = io.StringIO()
        cli.write_sweep_csv(stream, result, {"command": "test"})
        assert stream.getvalue() == (
            "# pemix-sweep v1\n# command: test\n# recommended_bin: 2\n# achieved_zero: false\n"
            "bin_size,mean_reversal,data_sufficient\n"
            "1,0.5,true\n2,0.3333333333333333,true\n3,nan,false\n"
        )


class TestIngestCommand:
    def test_unit_with_surrounding_whitespace_is_2_and_writes_nothing(self, tmp_path, capsys):
        # A header strips the unit on read, so " sec " would come back as "sec".
        raw = tmp_path / "raw.csv"
        raw.write_text("time,value\n0,1.0\n1,2.0\n2,3.0\n", encoding="utf-8")
        out = tmp_path / "out" / "clean.csv"
        assert run("ingest", "-i", raw, "--target-spacing", 1.0, "--unit", " sec ", "-o", out) == 2
        assert "error: unit must not have surrounding whitespace, got ' sec '" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [raw]

    def test_writes_series_and_report(self, tmp_path):
        raw = tmp_path / "raw.csv"
        lines = ["time,value"]
        t = 0.0
        for i in range(60):
            t += 10.0
            if i in (20, 21):
                continue
            value = "NaN" if i == 40 else f"{np.sin(i / 5.0):.6f}"
            lines.append(f"{t:.1f},{value}")
        raw.write_text("\n".join(lines) + "\n")

        out = tmp_path / "clean.csv"
        code = run(
            "ingest", "-i", raw, "--target-spacing", 10.0,
            "--prefilter", "moving_median", "--median-width", 3, "-o", out,
        )
        assert code == 0
        series, meta = read_series(out)
        assert np.isfinite(series.values).all()
        assert meta["command"] == "ingest"

        report_path = out.with_suffix(out.suffix + ".report.json")
        with open(report_path, "r", encoding="utf-8") as stream:
            report = json.load(stream)
        assert report["n_records"] == 58
        assert report["n_missing_filled"] + report["n_suspect_removed"] > 0
        assert report["output"] == str(out)

        # The same keys, in the same order, as the library's own report.
        records = load_csv(raw)
        _, cleaning = fill_gaps(*regularize(records, 10.0))
        expected = {"n_records": len(records), "n_displaced": 0, **asdict(cleaning)}
        expected.update(input=str(raw), output=str(out), created=report["created"])
        expected = json.loads(json.dumps(expected))  # spans as JSON lists
        assert list(report.items()) == list(expected.items())
        assert len(report["gap_spans"]) >= 2
        # One line per key and per gap span, not one per number.
        n_lines = len(report_path.read_text(encoding="utf-8").splitlines())
        assert n_lines <= len(report["gap_spans"]) + 12

    def test_report_text_is_pinned(self, tmp_path):
        # Rows 3, 7 and 8 are missing: two gap spans, each on one line.
        raw = tmp_path / "raw.csv"
        rows = [f"{t}.0,{t / 2}" for t in range(12) if t not in (3, 7, 8)]
        raw.write_text("time,value\n" + "\n".join(rows) + "\n")
        out = tmp_path / "clean.csv"
        assert run("ingest", "-i", raw, "--target-spacing", 1.0, "-o", out) == 0
        text = out.with_suffix(".csv.report.json").read_text(encoding="utf-8")
        created = json.loads(text)["created"]
        assert text == (
            '{\n  "n_records": 9,\n  "n_displaced": 0,\n  "n_missing_filled": 3,\n'
            '  "n_suspect_removed": 0,\n'
            '  "gap_spans": [\n    [3, 3],\n    [7, 8]\n  ],\n'
            f'  "input": {json.dumps(str(raw))},\n  "output": {json.dumps(str(out))},\n'
            f'  "created": "{created}"\n}}\n'
        )


    def test_report_counts_records_that_lost_their_cell(self, tmp_path):
        # Two records at time 1: the first wins the cell, the second is in no point.
        raw = tmp_path / "raw.csv"
        raw.write_text("0,1\n1,2\n1,5\n2,3\n")
        out = tmp_path / "clean.csv"
        assert run("ingest", "-i", raw, "--target-spacing", 1.0, "-o", out) == 0
        series, _ = read_series(out)
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])
        report = json.loads(out.with_suffix(".csv.report.json").read_text(encoding="utf-8"))
        assert list(report)[:2] == ["n_records", "n_displaced"]
        assert (report["n_records"], report["n_displaced"]) == (4, 1)
        assert (report["n_missing_filled"], report["n_suspect_removed"]) == (0, 0)

    @pytest.mark.parametrize("fill", ["ffill", "none"])
    def test_records_are_the_points_that_hold_one_plus_the_displaced(self, tmp_path, fill):
        # Repeated times, a NaN that wins its cell, one that loses, and gaps.
        raw = tmp_path / "raw.csv"
        rows = ["0,1", "1,2", "1.2,7", "1.4,nan", "2,nan", "2.3,4", "5,6", "5,8", "7.1,9"]
        raw.write_text("\n".join(rows) + "\n")
        out = tmp_path / "clean.csv"
        assert run("ingest", "-i", raw, "--target-spacing", 1.0, "--fill", fill,
                   "-o", out) == 0
        report = json.loads(out.with_suffix(".csv.report.json").read_text(encoding="utf-8"))
        series, suspect = regularize(load_csv(raw), 1.0)
        held = np.isfinite(series.values) | suspect
        assert report["n_records"] == len(rows) == held.sum() + report["n_displaced"]
        assert report["n_displaced"] == 4


class TestExitCodes:
    def test_invalid_parameter_is_2(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        code = run("pe", "-i", src, "--ell", 1, "--window", 100, "-o", tmp_path / "x.csv")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_series_row_with_a_third_cell_is_2(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("150.0,"))
        lines[row] = lines[row].rstrip("\n") + ",234\n"
        src.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "x.csv"
        assert run("pe", "-i", src, "--window", 100, "-o", out) == 2
        assert f"line {row + 1}: " in capsys.readouterr().err
        assert not out.exists()

    def test_too_short_series_is_3(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 200, "-o", src)
        code = run("pe", "-i", src, "--window", 5000, "-o", tmp_path / "x.csv")
        assert code == 3

    def test_trace_table_as_series_input_is_2(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        traces = tmp_path / "traces.csv"
        assert run("pe", "-i", src, "--window", 100, "--tau-max", 2, "-o", traces) == 0
        code = run("pe", "-i", traces, "--window", 50, "-o", tmp_path / "x.csv")
        assert code == 2
        assert "time,value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tag", [_SERIES_TAG, _REVERSAL_TAG, _SWEEP_TAG], ids=["series", "reversal", "sweep"]
    )
    def test_trace_columns_under_another_tables_tag_are_2(self, tmp_path, capsys, tag):
        table = tmp_path / "sweep.csv"
        table.write_text(
            f"# {tag}\nanchor,pe_tau1,pe_tau2\n10,0.5,0.4\n11,0.5,0.4\n", encoding="utf-8"
        )
        assert run("reversal", "-i", table, "-o", tmp_path / "rev.csv") == 2
        err = capsys.readouterr().err
        assert f"error: expected a 'pemix-traces v1' file, got '{tag}'" in err
        assert not (tmp_path / "rev.csv").exists()

    def test_untagged_trace_table_still_reads(self):
        traces, _ = read_trace_csv(io.StringIO("anchor,pe_tau1,pe_tau2\n10,0.5,0.4\n"))
        np.testing.assert_array_equal(traces.traces, [[0.5], [0.4]])

    @pytest.mark.parametrize("system, name, value", _BAD_GENERATOR_FLOATS)
    def test_bad_generator_float_is_2_naming_its_flag(self, tmp_path, capsys, system, name, value):
        out = tmp_path / "g.csv"
        assert run("generate", system, f"--{name}", value, "--steps", 100, "-o", out) == 2
        message = capsys.readouterr().err.partition("error: ")[2]
        assert message.startswith(f"{name} must be "), message
        assert not out.exists()

    def test_non_finite_trace_cell_is_2(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        traces = tmp_path / "traces.csv"
        assert run("pe", "-i", src, "--window", 100, "--tau-max", 2, "-o", traces) == 0
        lines = traces.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("150,"))
        anchor, _, tau2 = lines[row].split(",")
        lines[row] = f"{anchor},nan,{tau2}"
        traces.write_text("".join(lines), encoding="utf-8")
        code = run("reversal", "-i", traces, "-o", tmp_path / "rev.csv")
        assert code == 2
        assert "non-finite entropy nan at anchor 150, column pe_tau1" in capsys.readouterr().err

    def test_trace_anchors_out_of_order_is_2(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        traces = tmp_path / "traces.csv"
        assert run("pe", "-i", src, "--window", 100, "--tau-max", 2, "-o", traces) == 0
        lines = traces.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("150,"))
        lines[row], lines[row + 1] = lines[row + 1], lines[row]
        traces.write_text("".join(lines), encoding="utf-8")
        code = run("reversal", "-i", traces, "-o", tmp_path / "rev.csv")
        assert code == 2
        assert "anchor 150 follows anchor 151" in capsys.readouterr().err

    def test_non_contiguous_trace_columns_is_2(self, tmp_path, capsys):
        traces = tmp_path / "traces.csv"
        traces.write_text("anchor,pe_tau1,pe_tau3\n10,0.5,0.4\n11,0.5,0.4\n", encoding="utf-8")
        code = run("reversal", "-i", traces, "-o", tmp_path / "rev.csv")
        assert code == 2
        assert "contiguous" in capsys.readouterr().err

    def test_trace_strides_below_one_is_2(self, tmp_path, capsys):
        traces = tmp_path / "traces.csv"
        traces.write_text("anchor,pe_tau-1,pe_tau0\n10,0.5,0.4\n11,0.5,0.4\n", encoding="utf-8")
        code = run("reversal", "-i", traces, "-o", tmp_path / "rev.csv")
        assert code == 2
        assert "strides must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "rev.csv").exists()

    def test_one_stride_traces_is_2(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 50, "--n", 1500, "-o", src)
        traces = tmp_path / "traces.csv"
        assert run("pe", "-i", src, "--window", 300, "--tau-max", 1, "-o", traces) == 0
        assert "\nanchor,pe_tau1\n" in traces.read_text(encoding="utf-8")
        code = run("reversal", "-i", traces, "-o", tmp_path / "rev.csv")
        assert code == 2
        assert "reversal needs traces for at least two strides" in capsys.readouterr().err
        assert not (tmp_path / "rev.csv").exists()

    @pytest.mark.parametrize(
        "columns, message",
        [
            ("anchor,1,2", "trace file must have columns"),
            ("anchor,pe_tau1,pe_tau+2", "are not the contiguous strides 'anchor,pe_tau1,pe_tau2'"),
            ("anchor,pe_tau1,pe_tau 2", "are not the contiguous strides 'anchor,pe_tau1,pe_tau2'"),
            ("anchor,pe_tau0_1,pe_tau0_2", "trace file must have columns"),
        ],
    )
    def test_trace_columns_pemix_never_writes_are_2(self, tmp_path, capsys, columns, message):
        # int() reads each of these stride columns as 1, 2.
        traces = tmp_path / "traces.csv"
        traces.write_text(f"{columns}\n10,0.5,0.4\n11,0.5,0.4\n", encoding="utf-8")
        code = run("reversal", "-i", traces, "-o", tmp_path / "rev.csv")
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rev.csv").exists()

    @pytest.mark.parametrize(
        "header, message",
        [
            ("# spacing: abc", "header spacing 'abc' is not a number"),
            ("# origin: inf", "origin must be finite, got inf"),
            ("# origin: 7.0", "the first time 0.0 is not the origin 7.0"),
        ],
    )
    def test_bad_series_header_is_2(self, tmp_path, capsys, header, message):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        lines = [line for line in src.read_text(encoding="utf-8").splitlines(keepends=True)
                 if not line.startswith(header.partition(":")[0])]
        src.write_text(lines[0] + header + "\n" + "".join(lines[1:]), encoding="utf-8")
        for argv in (("pe", "--window", 100), ("bin", "-j", 2)):
            out = tmp_path / "x.csv"
            assert run(argv[0], "-i", src, *argv[1:], "-o", out) == 2
            assert f"error: {message}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "rows, bad_row",
        [("0,1.0\n1,2.0\n2,3.0\ninf,4.0\n", 5), ("0,1.0\nnan,2.0\n2,3.0\n3,4.0\n", 3)],
    )
    def test_non_finite_time_is_2(self, tmp_path, capsys, rows, bad_row):
        raw = tmp_path / "raw.csv"
        raw.write_text("t,v\n" + rows, encoding="utf-8")
        out = tmp_path / "clean.csv"
        code = run("ingest", "-i", raw, "--target-spacing", 1.0, "-o", out)
        assert code == 2
        assert f"row {bad_row}: time" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lorenz", "--x0", "nan"], "x0 must be finite, got nan"),
            (["lorenz", "--a", "nan"], "a must be finite, got nan"),
            (["mackey-glass", "--x0", "nan"], "x0 must be finite, got nan"),
            (["mackey-glass", "--x0", "-1", "--q", "10.5"], "x0 must be >= 0 unless q is an integer"),
            (["lorenz", "--h", "1.0"], "integration diverged at step 3;"),
            (["mackey-glass", "--x0", "-1", "--q", "1"], "must keep 1 + x0**q finite and nonzero, "
             "got x0=-1.0, q=1.0"),
            (["mackey-glass", "--x0", "1e40"], "must keep 1 + x0**q finite and nonzero, "
             "got x0=1e+40, q=10.0"),
        ],
    )
    def test_bad_generator_input_is_2_and_writes_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out" / "g.csv"
        assert run("generate", *argv, "--steps", 1000, "-o", out) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_negative_x0_with_an_integer_q_still_generates(self, tmp_path):
        out = tmp_path / "g.csv"
        argv = ("--steps", 1000, "--x0", -1, "--q", 10.0, "-o", out)
        assert run("generate", "mackey-glass", *argv) == 0
        assert np.isfinite(read_series(out)[0].values).all()

    @pytest.mark.parametrize("target", ["mackey-glass", "sweeps"])
    def test_negative_reproduce_seed_is_2_and_writes_nothing(self, tmp_path, capsys, target):
        outdir = tmp_path / "out" / "rep"
        assert run("reproduce", target, "--seed", -1, "--outdir", outdir) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_negative_ansatz_seed_is_2_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        out = tmp_path / "out" / "mixed.csv"
        assert run("ansatz", "-i", src, "-k", 2, "--seed", -5, "-o", out) == 2
        assert "seed must be an integer >= 0, got -5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [src]

    def test_reversal_hop_without_window_is_2(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        traces = tmp_path / "traces.csv"
        assert run("pe", "-i", src, "--window", 100, "--tau-max", 2, "-o", traces) == 0
        code = run("reversal", "-i", traces, "--hop", 5, "-o", tmp_path / "rev.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: hop needs window: it sets the step of the sliding mean\n"
        assert not (tmp_path / "rev.csv").exists()

    def test_reversal_window_without_hop_steps_by_one(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        traces = tmp_path / "traces.csv"
        assert run("pe", "-i", src, "--window", 100, "--tau-max", 2, "-o", traces) == 0
        rev = tmp_path / "rev.csv"
        assert run("reversal", "-i", traces, "--window", 10, "-o", rev) == 0
        lines = rev.read_text(encoding="utf-8").splitlines()
        assert "# rbar_window: 10" in lines
        assert "# rbar_hop: 1" in lines
        _, _, rows = read_rows(rev)
        assert len(rows) == 301 - 10 + 1

    def test_ingest_median_width_without_moving_median_is_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("t,v\n0,1.0\n1,2.0\n2,3.0\n", encoding="utf-8")
        out = tmp_path / "clean.csv"
        code = run("ingest", "-i", raw, "--target-spacing", 1.0, "--median-width", 3, "-o", out)
        assert code == 2
        assert capsys.readouterr().err == "error: median_width needs prefilter moving_median\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pe", "binsweep"])
    def test_non_finite_series_value_is_2_and_named_by_input_position(
        self, tmp_path, capsys, command
    ):
        # Blocks of 64 anchors and bins of 2: the NaN lies in neither the
        # first block nor at its own index in the binned series.
        values = np.sin(np.arange(1000) / 7.0)
        values[731] = np.nan
        src = tmp_path / "src.csv"
        with open(src, "w", encoding="utf-8") as stream:
            write_series_csv(stream, TimeSeries(values))
        out = tmp_path / "out.csv"
        flags = ["--window", 100, "--tau-max", 3, "-o", out]
        if command == "binsweep":
            flags = ["--j-min", 2, "--j-max", 3, *flags]
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", 64):
            assert run(command, "-i", src, *flags) == 2
        assert "non-finite value at position 731: nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--unit", "sec\nfoo"], "unit must not contain a line break, got 'sec\\nfoo'"),
            (["--time-column", "\n0"], "time_column must not contain a line break, got '\\n0'"),
            (["--value-column", "1\r"], "value_column must not contain a line break, got '1\\r'"),
        ],
        ids=["unit", "time-column", "value-column"],
    )
    def test_line_break_in_a_header_value_is_2_and_writes_nothing(
        self, tmp_path, capsys, flags, message
    ):
        # int() strips the break from a column index, so the export loads,
        # but a header line cannot hold the value.
        raw = tmp_path / "raw.csv"
        raw.write_text("time,value\n0,1.0\n1,2.0\n2,3.0\n", encoding="utf-8")
        out = tmp_path / "out" / "clean.csv"
        assert run("ingest", "-i", raw, "--target-spacing", 1.0, *flags, "-o", out) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [raw]

    @pytest.mark.parametrize(
        "argv",
        [("pe", "--window", 100), ("bin", "-j", 2), ("binsweep", "--window", 100, "--j-max", 2),
         ("ansatz", "-k", 1), ("reversal",)],
    )
    def test_table_that_is_not_utf8_is_2(self, tmp_path, capsys, argv):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        if argv[0] == "reversal":
            traces = tmp_path / "traces.csv"
            run("pe", "-i", src, "--window", 100, "--tau-max", 2, "-o", traces)
            src = traces
        text = src.read_bytes()
        # One Latin-1 byte in the header, and one in a row far past the
        # first block the reader decodes.
        for bad in (text.replace(b"# command: ", b"# command: s\xe9c "),
                    text[:-20] + b"\xff" + text[-19:]):
            src.write_bytes(bad)
            out = tmp_path / "out.csv"
            assert run(argv[0], "-i", src, *argv[1:], "-o", out) == 2
            assert f"error: {src} is not UTF-8 text" in capsys.readouterr().err
            assert not out.exists()

    def test_pemix_table_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        for inp in (src, marked):
            assert run("bin", "-i", inp, "-j", 2, "-o", tmp_path / f"{inp.stem}_j2.csv") == 0
        assert read_rows(tmp_path / "src_j2.csv")[1:] == read_rows(tmp_path / "marked_j2.csv")[1:]

    def test_binsweep_j_max_past_the_series_length_is_2(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        out = tmp_path / "sweep.csv"
        flags = ["--window", 100, "--tau-max", 3, "-o", out]
        assert run("binsweep", "-i", src, "--j-max", 1_000_000, *flags) == 2
        assert "error: j_max must be <= the series length 400, got 1000000" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        # Up to the length, the sizes that leave too few points keep their rows.
        assert run("binsweep", "-i", src, "--j-max", 400, *flags) == 0
        _, _, rows = read_rows(out)
        assert len(rows) == 400
        assert rows[-1] == ["400", "nan", "false"]

    @pytest.mark.parametrize("j_min", [0, -2])
    def test_binsweep_j_min_below_one_is_2_naming_its_flag(self, tmp_path, capsys, j_min):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        out = tmp_path / "sweep.csv"
        argv = ("--j-min", j_min, "--j-max", 3, "--window", 100, "--tau-max", 3, "-o", out)
        assert run("binsweep", "-i", src, *argv) == 2
        message = capsys.readouterr().err.partition("error: ")[2]
        assert message == f"j_min must be an integer >= 1, got {j_min}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("binsweep", ["--j-min", 3, "--j-max", 2], "j_max must be an integer >= 3, got 2"),
            ("binsweep", ["--j-max", 1_000_000],
             "j_max must be <= the series length 400, got 1000000"),
            ("ingest", [*_MEDIAN, "--median-width", 4], "median_width must be odd, got 4"),
            ("ingest", [*_MEDIAN, "--median-width", 1],
             "median_width must be an integer >= 3, got 1"),
            ("ingest", _MEDIAN, "median_width must be an integer >= 3, got None"),
            ("ingest", ["--time-column", -1], "time_column must be an integer >= 0, got -1"),
        ],
        ids=["j_max-below-j_min", "j_max-past-length", "median_width-even",
             "median_width-below-3", "median_width-missing", "time_column-negative"],
    )
    def test_bad_flag_value_is_2_naming_its_parameter_first(
        self, tmp_path, capsys, command, flags, message
    ):
        src = tmp_path / "src.csv"
        run("generate", "sine", "--period", 40, "--n", 400, "-o", src)
        out = tmp_path / "out.csv"
        common = {"binsweep": ["--window", 100, "--tau-max", 3], "ingest": ["--target-spacing", 1]}
        assert run(command, "-i", src, *common[command], *flags, "-o", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_input_is_4(self, tmp_path):
        code = run("pe", "-i", tmp_path / "absent.csv", "-o", tmp_path / "x.csv")
        assert code == 4

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run("frobnicate")
        assert info.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("--version")
        assert info.value.code == 0
        assert "pemix" in capsys.readouterr().out


class TestOutDirEnv:
    def test_relative_outputs_land_in_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PEMIX_OUT_DIR", str(tmp_path))
        assert run("generate", "sine", "--period", 40, "--n", 400, "-o", "sine.csv") == 0
        assert (tmp_path / "sine.csv").exists()

    def test_absolute_outputs_ignore_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PEMIX_OUT_DIR", str(tmp_path / "elsewhere"))
        out = tmp_path / "direct.csv"
        assert run("generate", "sine", "--period", 40, "--n", 400, "-o", out) == 0
        assert out.exists()
        assert not (tmp_path / "elsewhere").exists()


def _study_files(name, k):
    """The tables a ``reproduce`` study writes; ``{j}`` is its recommended bin."""
    labels = ("raw", f"mixed_k{k}", "binned_j{j}")
    tables = {f"{name}_{label}{end}.csv" for label in labels for end in ("", "_pe", "_reversal")}
    return tables | {f"{name}_sweep.csv"}


class TestReproduce:
    def test_study_computes_the_mixed_traces_once(self, tmp_path, monkeypatch):
        # The mixed series' traces are both written and the sweep's j = 1
        # point; no other call may see the mixed series.
        mixed = []
        calls = []

        def mix(series, k, seed):
            mixed.append(mixing_ansatz(series, k, seed))
            return mixed[-1]

        def count(series, config, **state):
            calls.append(series.values)
            return multi_tau_pe(series, config, **state)

        monkeypatch.setattr(cli, "mixing_ansatz", mix)
        # Every trace computation goes through the block iterator's binding,
        # and one block covers a whole series here.
        monkeypatch.setattr(entropy_module, "multi_tau_pe", count)
        monkeypatch.setattr(entropy_module, "_BLOCK_ANCHORS", 1 << 15)
        series = mackey_glass_series(MackeyGlassParams(steps=22_000))
        r_bars, sweep = cli._run_study(tmp_path, "mackey-glass", series, 4, 5, 3)
        (values,) = (m.values for m in mixed)
        assert sum(np.array_equal(v, values) for v in calls) == 1
        assert sum(v.shape == values.shape for v in calls) == 2  # raw and mixed
        expected = bin_sweep(mixed[0], range(1, 6), PEConfig())
        np.testing.assert_array_equal(sweep.bin_sizes, expected.bin_sizes)
        np.testing.assert_array_equal(sweep.r_bars.view(np.int64), expected.r_bars.view(np.int64))
        np.testing.assert_array_equal(sweep.sufficient, expected.sufficient)
        assert (sweep.recommended_j, sweep.achieved_zero) == (
            expected.recommended_j, expected.achieved_zero
        )
        assert r_bars[1] == expected.r_bars[0]
        _, _, rows = read_rows(tmp_path / "mackey_glass_sweep.csv")
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "target, checks, files",
        [
            ("lorenz",
             ["lorenz_raw_rbar", "lorenz_mixed_rbar", "lorenz_recommended_bin",
              "lorenz_binned_rbar"],
             _study_files("lorenz", 3)),
            ("mackey-glass", ["mg_raw_rbar", "mg_mixed_rbar", "mg_binned_rbar"],
             _study_files("mackey_glass", 4)),
            ("sweeps", ["lorenz_k3_recommended_bin", "mg_k4_recommended_bin"],
             {"lorenz_k3_sweep.csv", "mackey_glass_k4_sweep.csv"}),
        ],
        ids=["lorenz", "mackey-glass", "sweeps"],
    )
    def test_desk_target_passes_its_checks(self, tmp_path, target, checks, files):
        outdir = tmp_path / "rep"
        code = run("reproduce", target, "--outdir", outdir, "--scale", "desk")
        assert code == 0
        with open(outdir / "summary.json", "r", encoding="utf-8") as stream:
            summary = json.load(stream)
        assert summary["all_pass"] is True
        assert summary["target"] == target
        assert summary["scale"] == "desk"
        assert [c["name"] for c in summary["checks"]] == checks
        sweep, _, _ = read_rows(outdir / min(f for f in files if f.endswith("_sweep.csv")))
        written = {p.name for p in outdir.iterdir()}
        assert written == {"summary.json"} | {f.format(j=sweep["recommended_bin"]) for f in files}
