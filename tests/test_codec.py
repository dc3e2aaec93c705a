"""The shared table codec: writer bytes, exact round trips, memory, errors.

The per-row writers in ``oracles`` are the reference for the bytes; the
codec must match them for any finite float64, including ``-0.0``,
subnormals, values near ``1e16`` (where ``repr`` switches to exponent
form) and the largest double, and for columns that repeat a few values,
where each run of one bit pattern is formatted once and copied.  The cell
kernel itself is checked against ``repr`` cell by cell.
"""

import io
import math
import os
import sys
import tracemalloc
from decimal import Decimal
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


# 1 and 3 split even short tables into several pieces; None keeps the
# writer's own piece size.
piece_rows = st.sampled_from([1, 3, None])
codec = settings(max_examples=60, deadline=None)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _write(writer, *args, rows=None, columns=2):
    """The text ``writer`` writes, in pieces of ``rows`` rows of a table of
    ``columns`` columns when ``rows`` is given."""
    cells = pemix.series._PIECE_CELLS
    if rows is not None:
        cells = rows << (columns - 1).bit_length()
    buffer = io.StringIO()
    with mock.patch.object(pemix.series, "_PIECE_CELLS", cells):
        assert rows is None or pemix.series._piece_rows(columns) == rows
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
        rows=piece_rows,
    )
    def test_series(self, values, spacing, origin, rows):
        series = TimeSeries(values, spacing=spacing, unit="s", origin=origin)
        meta = {"command": "test", "seed": 3}
        oracle = io.StringIO()
        write_series_rows(oracle, series, meta)
        assert _write(write_series_csv, series, meta, rows=rows) == oracle.getvalue()

    @codec
    @given(traces=trace_sets(), rows=piece_rows)
    def test_traces(self, traces, rows):
        meta = {"ell": 4, "window": 5000}
        oracle = io.StringIO()
        write_trace_rows(oracle, traces, meta)
        got = _write(write_trace_csv, [traces], meta, rows=rows, columns=len(traces.taus) + 1)
        assert got == oracle.getvalue()

    @codec
    @given(
        displacements=st.lists(st.integers(0, 2**53), min_size=1, max_size=40),
        scale=st.integers(1, 10**9),
        rows=piece_rows,
    )
    def test_reversal(self, displacements, scale, rows):
        # Scores are displacements over a scale; large ones reach every digit count.
        rev = ReversalSeries(np.arange(len(displacements)) + 99, np.asarray(displacements), scale)
        oracle = io.StringIO()
        write_reversal_rows(oracle, rev, {"r_bar": "0.5"})
        assert _write(write_reversal_csv, [rev], {"r_bar": "0.5"}, rows=rows) == oracle.getvalue()

    def test_mixed_mackey_glass_traces(self):
        series = mackey_glass_series(MackeyGlassParams(steps=20_000))
        traces = multi_tau_pe(mixing_ansatz(series, k=4, seed=3), PEConfig())
        piece = traces.traces[:, : pemix.series._piece_rows(len(traces.taus) + 1)]
        # The traces repeat values down a stride within a piece, so runs of
        # one bit pattern are formatted once and copied.
        assert (piece[:, 1:] == piece[:, :-1]).any()
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


def _kernel_text(*columns):
    """The text of one piece of ``columns``, made by the cell kernel."""
    buffer = np.empty(len(columns[0]) * len(columns) * pemix.series._WIDTH, np.uint8)
    return pemix.series._piece_text(columns, buffer)


def _repr_lines(values):
    return [repr(v) for v in values.tolist()]


def _assert_cells_are_repr(values):
    got = _kernel_text(values).split("\n")
    assert got.pop() == ""
    want = _repr_lines(values)
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} cells differ from repr, such as {bad[:5]}"


def _neighbours(values, steps=3):
    """Each value and the doubles up to ``steps`` apart on either side."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (-np.inf, np.inf):
        near = out[0]
        for _ in range(steps):
            near = np.nextafter(near, direction)
            out.append(near)
    both = np.concatenate(out)
    return np.concatenate([both, -both])


class TestCellKernelIsRepr:
    """Each cell of ``_piece_text`` against ``repr``, one cell at a time."""

    def test_repr_is_the_short_style(self):
        # The kernel computes the shortest round-trip digits, which is what
        # repr prints only on builds with the "short" float repr.
        assert sys.float_repr_style == "short"

    def test_random_bit_patterns_of_every_exponent(self):
        rng = np.random.default_rng(20181)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, sys.float_info.max]
        values = np.concatenate([bits.view(np.float64), specials])
        # Random bits put subnormals, NaN payloads and every exponent in.
        assert np.isnan(values).any() and (np.abs(values) < 2.2250738585072014e-308).any()
        _assert_cells_are_repr(values)

    def test_random_doubles_around_the_fixed_range(self):
        rng = np.random.default_rng(1990)
        exponents = rng.integers(995, 1085, 200_000).astype(np.uint64)
        mantissas = rng.integers(0, 2**52, 200_000, dtype=np.uint64)
        values = ((exponents << np.uint64(52)) | mantissas).view(np.float64)
        _assert_cells_are_repr(np.concatenate([values, -values]))

    def test_neighbours_of_range_ends_powers_of_ten_and_of_two(self):
        _assert_cells_are_repr(_neighbours([1e-4, 2.0**48]))
        _assert_cells_are_repr(_neighbours(10.0 ** np.arange(-4, 16)))
        _assert_cells_are_repr(_neighbours(np.ldexp(1.0, np.arange(-16, 50))))

    def test_short_decimals_and_integers(self):
        rng = np.random.default_rng(7)
        digits = rng.integers(1, 10**6, 50_000)
        values = digits / 10.0 ** rng.integers(0, 10, 50_000)
        quarters = np.arange(-4000, 4000) * 0.25
        _assert_cells_are_repr(np.concatenate([values, quarters, np.arange(-5.0, 2.0**16)]))

    @pytest.mark.parametrize("length", [15, 16, 17])
    def test_exact_decimals(self, length):
        # Dyadic fractions are exact decimals; a repr of up to 15 digits is
        # that decimal, and a longer one may be shorter than it.
        rng = np.random.default_rng(length)
        sizes = rng.integers(1, 53, 400_000)
        mantissas = (rng.integers(0, 2**53, 400_000, dtype=np.uint64) >> (53 - sizes).astype(np.uint64))
        values = np.ldexp(mantissas.astype(np.float64), -rng.integers(0, 40, 400_000))
        values = values[(values >= 1e-4) & (values < 2.0**48)]
        exact = np.array([len(Decimal(v).normalize().as_tuple().digits) for v in values.tolist()])
        chosen = values[exact == length]
        assert len(chosen) > 1000
        _assert_cells_are_repr(np.concatenate([chosen, -chosen]))

    def test_int64_extremes(self):
        edges = [-(2**63), 2**63 - 1, 0, 1, -1]
        edges += [sign * (10**k + delta) for k in range(19) for delta in (-1, 0)
                  for sign in (1, -1) if 10**k + delta != 0]
        values = np.array(edges, dtype=np.int64)
        got = _kernel_text(values).split("\n")[:-1]
        assert got == _repr_lines(values)

    def test_columns_of_both_dtypes_with_runs(self):
        rng = np.random.default_rng(3)
        pool = np.array([0.0, -0.0, 0.5, np.nan, 1e-5, 1 / 3, 7.0, 1e20])
        anchors = np.repeat(np.arange(-50, 50, dtype=np.int64) * 10**15, 7)
        first, second = (pool[rng.integers(0, len(pool), len(anchors))] for _ in range(2))
        first[::3] = first[0]  # long runs as well as short ones
        want = "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in
                       zip(anchors.tolist(), first.tolist(), second.tolist()))
        assert _kernel_text(anchors, first, second) == want
        assert _kernel_text(first, anchors) == "".join(
            f"{b!r},{a!r}\n" for a, b in zip(anchors.tolist(), first.tolist()))

    def test_decimal_power_table(self):
        # Every exponent of the fixed range scales into [1e17, 1e18) with a
        # shift of at least 4, so the interval bounds are never integers.
        lowest, highest = (int(np.float64(v).view(np.uint64)) >> 52 for v in (1e-4, 2.0**48))
        for e in range(lowest, highest):
            k, shift = int(pemix.series._K[e]), int(pemix.series._SHIFT[e])
            low = math.ldexp(1.0, e - 1023)
            assert 10**17 <= Decimal(low) * 10**k < 10**18, e
            assert shift == 1077 - e - k and 4 <= shift < 64, e

    def test_rejects_other_dtypes(self):
        with pytest.raises(TypeError, match="int64 or float64, got int32"):
            _kernel_text(np.zeros(3, dtype=np.int32))


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
        # Both sizes hold one piece's work arrays and text at a time; a
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
        # The time column is made a piece at a time; the whole column would
        # add 8 bytes per extra row.
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

        def probe(*args, **state):
            held.append(tracemalloc.get_traced_memory()[0])
            return compute(*args, **state)

        with open(os.devnull, "w", encoding="utf-8") as sink:
            with mock.patch.object(pemix.entropy, "_BLOCK_ANCHORS", 8192), \
                    mock.patch.object(pemix.entropy, "multi_tau_pe", probe):
                tracemalloc.start()
                write_trace_csv(sink, trace_blocks(series, PEConfig(window=1000)), {})
                tracemalloc.stop()
        # While each block is computed, no earlier block is still held, nor
        # the writer's work arrays, which it lets go of after each block.
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
