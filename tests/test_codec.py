"""The shared table codec: writer bytes, exact round trips, memory, errors.

The per-row writers in ``oracles`` are the reference for the bytes; the
codec must match them for any finite float64, including ``-0.0``,
subnormals, values near ``1e16`` (where ``repr`` switches to exponent
form) and the largest double, and for blocks that repeat a few values,
where each distinct bit pattern is formatted once and reused.
"""

import io
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pemix.series
import pemix.entropy
from pemix import (
    InvalidInputError, MackeyGlassParams, PEConfig, PETraceSet,
    TimeSeries, mackey_glass_series, mixing_ansatz, multi_tau_pe, trace_blocks,
)
from pemix import read_series_csv, write_series_csv
from pemix.cli import read_trace_csv, write_reversal_csv, write_trace_csv
from pemix.reversal import ReversalSeries

from oracles import write_reversal_rows, write_series_rows, write_trace_rows

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
    9999999999999998.0, 1.0000000000000002e16, 0.1, 1.0 / 3.0, sys.float_info.max,
    -sys.float_info.max,
]
finite = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
# A few values drawn again and again put repeats and both signed zeros in
# one write block, where each distinct bit pattern is formatted once.
POOL = [0.0, -0.0, 5e-324, 1e16, 0.1]


def cell_lists(min_size, max_size, nan=False):
    """Lists of any finite values, or of values from ``POOL`` (plus NaN when
    ``nan``: series only, since the trace reader rejects it)."""
    pool = st.sampled_from(POOL + [float("nan")] * nan)
    return st.one_of(
        st.lists(finite, min_size=min_size, max_size=max_size),
        st.lists(pool, min_size=min_size, max_size=max_size),
    )


# 1 and 3 split even short tables into several write blocks.
chunk_rows = st.sampled_from([1, 3, pemix.series._CHUNK_ROWS])
codec = settings(max_examples=60, deadline=None)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _write(writer, *args, chunk=None):
    buffer = io.StringIO()
    with mock.patch.object(pemix.series, "_CHUNK_ROWS", chunk or pemix.series._CHUNK_ROWS):
        writer(buffer, *args)
    return buffer.getvalue()


@st.composite
def trace_sets(draw):
    n = draw(st.integers(1, 40))
    n_taus = draw(st.integers(2, 6))
    tau_min = draw(st.integers(1, 3))
    first = draw(st.integers(0, 10**12))
    hop = draw(st.integers(1, 1000))
    anchors = first + hop * np.arange(n, dtype=np.int64)
    return PETraceSet(tau_min, anchors, [draw(cell_lists(n, n)) for _ in range(n_taus)])


class TestWriterMatchesRowOracle:
    @codec
    @given(
        values=cell_lists(1, 40, nan=True),
        spacing=st.floats(1e-6, 1e6),
        origin=st.floats(-1e12, 1e12),
        chunk=chunk_rows,
    )
    def test_series(self, values, spacing, origin, chunk):
        series = TimeSeries(values, spacing=spacing, unit="s", origin=origin)
        meta = {"command": "test", "seed": 3}
        oracle = io.StringIO()
        write_series_rows(oracle, series, meta)
        assert _write(write_series_csv, series, meta, chunk=chunk) == oracle.getvalue()

    @codec
    @given(traces=trace_sets(), chunk=chunk_rows)
    def test_traces(self, traces, chunk):
        meta = {"ell": 4, "window": 5000}
        oracle = io.StringIO()
        write_trace_rows(oracle, traces, meta)
        assert _write(write_trace_csv, [traces], meta, chunk=chunk) == oracle.getvalue()

    @codec
    @given(
        displacements=st.lists(st.integers(0, 2**53), min_size=1, max_size=40),
        scale=st.integers(1, 10**9),
        chunk=chunk_rows,
    )
    def test_reversal(self, displacements, scale, chunk):
        # Scores are displacements over a scale; large ones reach every digit count.
        rev = ReversalSeries(np.arange(len(displacements)) + 99, np.asarray(displacements), scale)
        oracle = io.StringIO()
        write_reversal_rows(oracle, rev, {"r_bar": "0.5"})
        assert _write(write_reversal_csv, [rev], {"r_bar": "0.5"}, chunk=chunk) == oracle.getvalue()

    def test_mixed_mackey_glass_traces(self):
        series = mackey_glass_series(MackeyGlassParams(steps=20_000))
        traces = multi_tau_pe(mixing_ansatz(series, k=4, seed=3), PEConfig())
        block = traces.traces[:, : pemix.series._CHUNK_ROWS]
        # The traces repeat values within a block, so the reuse path runs.
        assert max(len(np.unique(row)) for row in block) < block.shape[1]
        oracle = io.StringIO()
        write_trace_rows(oracle, traces, {"ell": 4})
        got = _write(write_trace_csv, [traces], {"ell": 4}).splitlines()
        want = oracle.getvalue().splitlines()
        # Name the first differing line: a diff of the whole table is slow.
        assert len(got) == len(want)
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert first is None, f"line {first + 1}: {got[first]!r} != {want[first]!r}"

    def test_empty_tables_write_only_the_header(self):
        rev = ReversalSeries(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8), 18)
        assert _write(write_reversal_csv, [rev], {}) == "# pemix-reversal v1\nanchor,reversal\n"


class TestRoundTripIsBitExact:
    @codec
    @given(
        values=st.lists(finite, min_size=1, max_size=40),
        spacing=st.floats(1e-6, 1e6),
        origin=st.floats(-1e12, 1e12),
    )
    def test_series(self, values, spacing, origin):
        series = TimeSeries(values, spacing=spacing, unit="s", origin=origin)
        loaded, _ = read_series_csv(io.StringIO(_write(write_series_csv, series)))
        np.testing.assert_array_equal(_bits(loaded.values), _bits(series.values))
        assert (loaded.spacing, loaded.origin) == (series.spacing, series.origin)

    @codec
    @given(traces=trace_sets())
    def test_traces(self, traces):
        loaded, _ = read_trace_csv(io.StringIO(_write(write_trace_csv, [traces], {})))
        np.testing.assert_array_equal(loaded.anchors, traces.anchors)
        np.testing.assert_array_equal(loaded.taus, traces.taus)
        np.testing.assert_array_equal(_bits(loaded.traces), _bits(traces.traces))
        assert loaded.traces.flags.c_contiguous and loaded.anchors.flags.c_contiguous


def _trace_set(n, n_taus=6, seed=0):
    rng = np.random.default_rng(seed)
    anchors = np.arange(4999, 4999 + n, dtype=np.int64)
    return PETraceSet(1, anchors, rng.random((n_taus, n)))


class TestCodecMemory:
    def test_trace_read_peak_is_a_small_multiple_of_the_table(self, tmp_path):
        path = tmp_path / "traces.csv"
        with open(path, "w", encoding="utf-8") as stream:
            write_trace_csv(stream, [_trace_set(100_000)], {"ell": 4})
        table_bytes = 100_000 * (1 + 6) * 8
        with open(path, "r", encoding="utf-8") as stream:
            tracemalloc.start()
            traces, _ = read_trace_csv(stream)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert len(traces.anchors) == 100_000
        # One Python string per cell costs about 60 bytes for every 8 parsed.
        assert peak < 4 * table_bytes, f"peak {peak} bytes for a {table_bytes}-byte table"

    def test_trace_write_peak_does_not_grow_with_rows(self):
        peaks = {}
        for n in (50_000, 200_000):
            traces = _trace_set(n, n_taus=2)
            with open(os.devnull, "w", encoding="utf-8") as sink:
                tracemalloc.start()
                write_trace_csv(sink, [traces], {"ell": 4})
                peaks[n] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        # Both sizes hold one write block of cell strings at a time; a
        # stacked copy of the values would add 16 bytes per extra row.
        assert peaks[200_000] - peaks[50_000] < 64 * 1024, peaks

    def test_series_write_peak_does_not_grow_with_rows(self):
        peaks = {}
        for n in (50_000, 200_000):
            series = TimeSeries(np.random.default_rng(0).random(n), spacing=0.1, origin=1.6e9)
            with open(os.devnull, "w", encoding="utf-8") as sink:
                tracemalloc.start()
                write_series_csv(sink, series, {"command": "test"})
                peaks[n] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        # The time column is made a write block at a time; the whole column
        # would add 8 bytes per extra row.
        assert peaks[200_000] - peaks[50_000] < 64 * 1024, peaks


    def test_streamed_trace_write_does_not_grow_with_anchors(self):
        config = PEConfig(window=1000)
        grown = {}
        def matrix(series, config):
            return [multi_tau_pe(series, config)]

        for name, traces in (("streamed", trace_blocks), ("matrix", matrix)):
            peaks = {}
            for n in (12_000, 36_000):
                series = TimeSeries(np.random.default_rng(5).standard_normal(n))
                with open(os.devnull, "w", encoding="utf-8") as sink:
                    # Blocks of 1024 anchors, so both lengths fill whole blocks.
                    with mock.patch.object(pemix.entropy, "_BLOCK_ANCHORS", 1024):
                        tracemalloc.start()
                        write_trace_csv(sink, traces(series, config), {"ell": 4})
                        peaks[n] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            grown[name] = (peaks[36_000] - peaks[12_000]) / 24_000
        # One block at a time; the whole strides x anchors matrix alone
        # takes 48 bytes per anchor at six strides.
        assert grown["streamed"] <= 4, grown
        assert grown["matrix"] >= 48, grown

    def test_streamed_trace_write_lets_go_of_each_block_once_written(self):
        series = TimeSeries(np.random.default_rng(5).standard_normal(45_000))
        block_bytes = 7 * 8192 * 8  # anchors and six strides
        held = []
        compute = pemix.entropy.multi_tau_pe

        def probe(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return compute(*args)

        with open(os.devnull, "w", encoding="utf-8") as sink:
            with mock.patch.object(pemix.entropy, "_BLOCK_ANCHORS", 8192), \
                    mock.patch.object(pemix.entropy, "multi_tau_pe", probe):
                tracemalloc.start()
                write_trace_csv(sink, trace_blocks(series, PEConfig(window=1000)), {})
                tracemalloc.stop()
        # While each block is computed, no earlier block is still held: only
        # the cell strings of the last 512 rows written, about half a block.
        assert len(held) == 6
        assert max(held) - held[0] < block_bytes, (held, block_bytes)


class TestErrorsNameTheFileLine:
    def test_bad_trace_cell(self):
        text = (
            "# pemix-traces v1\n# ell: 4\nanchor,pe_tau1,pe_tau2\n"
            "10,0.5,0.6\n\n# a comment\n11,0.5,0.6\n12,0.5,oops\n13,0.5,0.6\n"
        )
        with pytest.raises(InvalidInputError, match=r"^line 8: could not convert string 'oops'"):
            read_trace_csv(io.StringIO(text))

    def test_short_trace_row(self):
        text = "anchor,pe_tau1,pe_tau2\n10,0.5,0.6\n11,0.5\n"
        with pytest.raises(InvalidInputError, match=r"^line 3: .*3 columns but 2 were found$"):
            read_trace_csv(io.StringIO(text))

    def test_fractional_anchor(self):
        text = "anchor,pe_tau1,pe_tau2\n10,0.5,0.6\n11.0,0.5,0.6\n"
        with pytest.raises(InvalidInputError, match=r"^line 3: .*'11\.0' to int64"):
            read_trace_csv(io.StringIO(text))

    def test_header_without_rows(self):
        text = "# pemix-traces v1\nanchor,pe_tau1,pe_tau2\n\n"
        with pytest.raises(InvalidInputError, match="no data rows after .* on line 2$"):
            read_trace_csv(io.StringIO(text))
