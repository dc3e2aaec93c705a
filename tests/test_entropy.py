"""Permutation entropy: scalar values, sliding windows, stride sets."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pemix.entropy as entropy_module
import pemix.series
from pemix import (
    InsufficientDataError,
    InvalidInputError,
    MackeyGlassParams,
    PEConfig,
    TimeSeries,
    encode_patterns,
    global_pe,
    mackey_glass_series,
    mixing_ansatz,
    multi_tau_pe,
    pattern_distribution,
    permutation_entropy,
    trace_blocks,
    windowed_pe,
)

from oracles import entropy_from_tally, pattern_tally, sliding_entropy_fsum


class TestPermutationEntropy:
    def test_single_pattern_is_zero(self):
        counts = np.zeros(6, dtype=np.int64)
        counts[2] = 9
        value = permutation_entropy(counts, 3)
        assert value == 0.0

    def test_uniform_is_one(self):
        counts = np.ones(24, dtype=np.int64)
        value = permutation_entropy(counts, 4)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert value <= 1.0

    def test_two_equal_patterns(self):
        counts = np.zeros(6, dtype=np.int64)
        counts[0] = 5
        counts[5] = 5
        value = permutation_entropy(counts, 3)
        assert value == pytest.approx(math.log(2) / math.log(6), abs=1e-12)

    def test_matches_tally_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(20, 120))
            values = rng.standard_normal(n)
            series = TimeSeries(values)
            ell = int(rng.integers(2, 5))
            tau = int(rng.integers(1, 4))
            if n <= (ell - 1) * tau:
                continue
            got = global_pe(series, ell, tau)
            tally, n_windows = pattern_tally(values, ell, tau)
            assert got == pytest.approx(entropy_from_tally(tally, n_windows, ell), abs=1e-12)

    def test_bounds_on_random_inputs(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            values = rng.integers(0, 6, size=n).astype(float)
            ell = int(rng.integers(2, 5))
            tau = int(rng.integers(1, 4))
            if n <= (ell - 1) * tau:
                continue
            value = global_pe(TimeSeries(values), ell, tau)
            assert 0.0 <= value <= 1.0

    def test_wrong_cell_count_raises(self):
        with pytest.raises(InvalidInputError):
            permutation_entropy(np.ones(6, dtype=np.int64), 4)

    def test_empty_distribution_raises(self):
        with pytest.raises(InsufficientDataError):
            permutation_entropy(np.zeros(6, dtype=np.int64), 3)


class TestGlobalPE:
    def test_monotone_series_is_zero(self):
        assert global_pe(TimeSeries(np.arange(100.0)), 4, 1) == 0.0
        assert global_pe(TimeSeries(-np.arange(100.0)), 3, 2) == 0.0

    def test_constant_series_is_zero(self):
        assert global_pe(TimeSeries(np.full(50, 3.25)), 4, 1) == 0.0

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(53)
        values = rng.standard_normal(400)
        # Strictly increasing, nonlinear map.
        transformed = np.exp(0.7 * values) + 2.0 * values
        for ell, tau in ((3, 1), (4, 2), (2, 5)):
            a = global_pe(TimeSeries(values), ell, tau)
            b = global_pe(TimeSeries(transformed), ell, tau)
            assert a == b

    def test_iid_noise_is_near_one(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(rng.random(100_000))
        assert global_pe(series, 4, 1) >= 0.999


class TestWindowedPE:
    def test_single_window_equals_global(self):
        rng = np.random.default_rng(61)
        values = rng.standard_normal(300)
        series = TimeSeries(values)
        config = PEConfig(ell=3, window=300, tau_min=1, tau_max=2, hop=1)
        trace = windowed_pe(series, config, tau=2)
        assert len(trace) == 1
        assert config.anchor_grid(300)[0] == 299
        assert trace[0] == global_pe(series, 3, 2)

    def test_anchor_grid(self):
        series = TimeSeries(np.random.default_rng(0).standard_normal(100))
        config = PEConfig(ell=2, window=20, tau_min=1, tau_max=1, hop=7)
        trace = windowed_pe(series, config, tau=1)
        assert trace.shape == (len(config.anchor_grid(100)),)
        assert list(config.anchor_grid(100)) == list(range(19, 100, 7))
        # The points a run of anchors covers give that run's values alone.
        block = config.anchor_grid(100)[2:5]
        assert config.covered_points(block) == slice(14, 48)
        part = windowed_pe(TimeSeries(series.values[14:48]), config, tau=1)
        np.testing.assert_array_equal(part, trace[2:5])

    def test_constant_series_gives_zero_everywhere(self):
        series = TimeSeries(np.zeros(200))
        config = PEConfig(ell=3, window=50, tau_min=1, tau_max=4, hop=3)
        for tau in (1, 4):
            trace = windowed_pe(series, config, tau)
            assert (trace == 0.0).all()

    def test_bit_for_bit_against_per_window_recomputation(self):
        rng = np.random.default_rng(71)
        cases = []
        for _ in range(10):
            n = int(rng.integers(60, 400))
            if rng.random() < 0.5:
                values = rng.standard_normal(n)
            else:
                values = rng.integers(0, 5, size=n).astype(float)
            ell = int(rng.integers(2, 5))
            tau = int(rng.integers(1, 4))
            window = int(rng.integers((ell - 1) * tau + 1, min(n, 120) + 1))
            hop = int(rng.integers(1, 5))
            cases.append((values, ell, tau, window, hop))
        # Fixed inputs the draws above never reach: ell 5 and 6 over about
        # 50 anchors of long windows, ell 6 over two chunks of anchors, and
        # a hop larger than window - span = 36, so that consecutive windows
        # share no pattern (with ties from rounding).
        walk = np.cumsum(rng.standard_normal(20_049))
        cases += [
            (walk[:5049], 5, 1, 5000, 1),
            (walk[:5049], 6, 1, 5000, 1),
            (walk, 6, 1, 20_000, 1),
            (walk[:6000], 6, 1, 100, 2),
            (np.round(walk[:4000]), 3, 2, 40, 45),
        ]
        peaks = {}
        for values, ell, tau, window, hop in cases:
            series = TimeSeries(values)
            config = PEConfig(
                ell=ell, window=window, tau_min=tau, tau_max=tau, hop=hop
            )
            tracemalloc.start()
            trace = windowed_pe(series, config, tau)
            peaks[ell, window] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            for anchor, value in zip(config.anchor_grid(len(series)), trace, strict=True):
                dist = pattern_distribution(
                    series,
                    ell,
                    tau,
                    start=anchor - window + 1,
                    end=anchor + 1,
                )
                assert value == permutation_entropy(dist, ell), (
                    f"mismatch at anchor {anchor} (ell={ell}, tau={tau}, "
                    f"window={window}, hop={hop})"
                )
        # Working memory must not scale with window x ell!: going from 5000
        # to 20000 points may only grow the arrays of one value per point
        # (pattern codes, encoding temporaries, the p*log(p) table).  A
        # cumulative histogram of ell! = 720 counts per point grows by
        # 5760 bytes per point instead.
        assert peaks[6, 20_000] - peaks[6, 5000] <= 32 * (20_000 - 5000)

    def test_series_shorter_than_window_raises(self):
        series = TimeSeries(np.arange(30.0))
        with pytest.raises(InsufficientDataError):
            windowed_pe(series, PEConfig(ell=2, window=50, tau_min=1, tau_max=1), 1)

    def test_tau_too_large_for_window_raises(self):
        series = TimeSeries(np.arange(100.0))
        config = PEConfig(ell=4, window=30, tau_min=1, tau_max=6)
        with pytest.raises(InvalidInputError):
            windowed_pe(series, config, tau=10)


@st.composite
def plateau_series(draw):
    """Runs of constant or unit-slope values on a small integer grid, so
    windows repeat their counts for long stretches and values tie often."""
    runs = draw(
        st.lists(
            st.tuples(st.integers(-3, 3), st.sampled_from([0, 0, 1, -1]), st.integers(1, 25)),
            min_size=1,
            max_size=20,
        )
    )
    return np.concatenate(
        [start + slope * np.arange(length, dtype=np.float64) for start, slope, length in runs]
    )


@st.composite
def random_series(draw):
    """Standard normal values, tie-free, from a drawn seed."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 300))
    return np.random.default_rng(seed).standard_normal(n)


class TestSlidingKernel:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), values=plateau_series())
    def test_every_window_matches_its_own_tally(self, data, values):
        ell = data.draw(st.integers(2, 6), label="ell")
        tau = data.draw(st.integers(1, 3), label="tau")
        span = (ell - 1) * tau
        if values.shape[0] <= span:
            values = np.concatenate([values, np.arange(span + 1.0 - values.shape[0])])
        window = data.draw(st.integers(span + 1, values.shape[0]), label="window")
        # Up to past window - span, where consecutive windows share no pattern.
        hop = data.draw(st.integers(1, window - span + 3), label="hop")
        # Chunks of a few events, so that chunk edges fall between changed
        # windows that unchanged runs separate, and inside a window's events.
        events = data.draw(st.integers(1, 8), label="events per chunk")
        series = TimeSeries(values)
        config = PEConfig(ell=ell, window=window, tau_min=tau, tau_max=tau, hop=hop)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy_module, "_CHUNK_EVENTS", events)
            trace = windowed_pe(series, config, tau)
        for anchor, value in zip(config.anchor_grid(len(series)), trace, strict=True):
            dist = pattern_distribution(
                series,
                ell,
                tau,
                start=anchor - window + 1,
                end=anchor + 1,
            )
            assert value == permutation_entropy(dist, ell), f"anchor {anchor}"

    @pytest.mark.parametrize(
        "ell, window, hop, n",
        [(7, 40, 1, 100), (8, 40, 1, 100), (9, 40, 1, 100), (2, 3001, 3000, 40_000)],
    )
    @pytest.mark.parametrize("kind", ["plateau", "random"])
    def test_shipped_chunks_match_the_tally_at_large_ell_and_hop(self, kind, ell, window, hop, n):
        # At the shipped _CHUNK_EVENTS: ell 7 and 8 take 32-bit sort keys and
        # ell 9 64-bit ones, and a hop of 3000, the patterns of a window,
        # gives up to 6000 events per window, so a chunk holds one or two.
        rng = np.random.default_rng(ell)
        if kind == "plateau":
            values = np.repeat(rng.integers(0, 3, size=n // 5), 5).astype(np.float64)
        else:
            values = rng.standard_normal(n)
        series = TimeSeries(values)
        config = PEConfig(ell=ell, window=window, tau_min=1, tau_max=1, hop=hop)
        trace = windowed_pe(series, config, 1)
        grid = config.anchor_grid(n)
        for i in sorted({0, 1, 7, len(grid) // 2, len(grid) - 1}):
            start = grid[i] - window + 1
            dist = pattern_distribution(series, ell, 1, start=start, end=grid[i] + 1)
            assert trace[i] == permutation_entropy(dist, ell), f"anchor {grid[i]}"

    @pytest.mark.parametrize("hop", [1, 100])
    @pytest.mark.parametrize("ell", [4, 6])
    def test_bit_identical_to_the_full_count_kernel(self, ell, hop):
        raw = mackey_glass_series(MackeyGlassParams(steps=20_000))
        mixed = mixing_ansatz(raw, k=4, seed=0)
        for series in (raw, mixed):
            for tau in (1, 3):
                span = (ell - 1) * tau
                codes = encode_patterns(series.values, ell, tau)
                anchors = range(4999, len(series), hop)
                got = sliding_entropy(codes, anchors, 5000, ell, span)
                expected = sliding_entropy_fsum(codes, np.asarray(anchors), 5000, ell, span)
                assert got.shape == expected.shape
                np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), values=st.one_of(plateau_series(), random_series()))
    def test_matches_the_fsum_oracle_at_every_ell(self, data, values):
        ell = data.draw(st.integers(2, 9), label="ell")
        tau = data.draw(st.integers(1, 2), label="tau")
        span = (ell - 1) * tau
        if values.shape[0] <= span:
            values = np.concatenate([values, np.arange(span + 1.0 - values.shape[0])])
        window = data.draw(st.integers(span + 1, values.shape[0]), label="window")
        hop = data.draw(st.integers(1, window - span + 3), label="hop")
        events = data.draw(st.integers(1, 8), label="events per chunk")
        codes = encode_patterns(values, ell, tau)
        anchors = range(window - 1, values.shape[0], hop)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy_module, "_CHUNK_EVENTS", events)
            got = sliding_entropy(codes, anchors, window, ell, span)
        expected = sliding_entropy_fsum(codes, np.asarray(anchors), window, ell, span)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("per_window", [1, 2, 3, 7, 100, 4997, 5000, 12_289])
    def test_step_table_holds_every_entry_exactly(self, per_window):
        table = -entropy_module._plogp(np.arange(per_window + 1) / per_window)
        rise, scale = entropy_module._exact_steps(per_window)
        entry = 0
        for c, step in enumerate(rise.tolist()):
            entry += step
            assert Fraction(entry, 2**scale) == Fraction(float(table[c + 1])), f"count {c + 1}"

    def test_peak_memory_does_not_grow_with_ell(self):
        series = TimeSeries(np.random.default_rng(9).standard_normal(300_000))
        peaks = {}
        for ell in (4, 9):
            tracemalloc.start()
            windowed_pe(series, PEConfig(ell=ell, tau_max=1), 1)
            peaks[ell] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # One row of 9! int64 counts and the nonzero mask and index over it;
        # a chunk of changed windows' ell!-wide count rows would take more.
        rows = 2 * math.factorial(9) * 8
        assert peaks[9] <= peaks[4] + rows, f"{peaks[9] - peaks[4]} bytes above ell=4"

    @pytest.mark.parametrize("ell", [4, 6])
    def test_peak_memory_is_a_few_arrays_of_one_value_per_anchor(self, ell):
        # Every window changes, so no anchor is skipped: the worst case.
        series = TimeSeries(np.random.default_rng(5).standard_normal(300_000))
        config = PEConfig(ell=ell, tau_max=1)
        tracemalloc.start()
        trace = windowed_pe(series, config, 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(trace) == 295_001
        # 2.4 MB per array of one value per point; blocks of 2**17 int64
        # counts take 1 MB each.  Counts for 2,000,000 cells per chunk
        # (16 MB, plus as much again for their table gather) do not fit.
        assert peak <= 20e6, f"peak {peak / 1e6:.1f} MB"

    def test_codes_moved_per_block_are_bounded_on_unchanged_runs(self):
        # A constant series changes no window after the first, so no chunk
        # of changed windows is tallied and no code is gathered.
        peaks = {}
        for n in (100_000, 400_000):
            codes = encode_patterns(np.zeros(n), 4, 1)
            anchors = range(999, n, 3)
            tracemalloc.start()
            sliding_entropy(codes, anchors, 1000, 4, 3)
            peaks[n] = tracemalloc.get_traced_memory()[1], len(anchors)
            tracemalloc.stop()
        # A few int64 arrays of one value per anchor; offsets for all 3
        # codes that enter per anchor would add 48 bytes per anchor.
        grown = (peaks[400_000][0] - peaks[100_000][0]) / (peaks[400_000][1] - peaks[100_000][1])
        assert grown <= 32, f"{grown:.1f} bytes per anchor"


# _ROWS_FROM values that send every window to one path: 0 counts rows
# even at hop 1, and no window moves this many events per cell.
ROWS, EVENTS = 0, 1 << 40


def by_rows(ell, hop, per_window):
    """Whether the shipped switch counts rows at this hop."""
    return 2 * min(hop, per_window) >= entropy_module._ROWS_FROM * math.factorial(ell)


class TestRowsPath:
    """The kernel's two ways to move a window, against the fsum oracle and
    each other, bit for bit."""

    @pytest.mark.parametrize("cells", ["one row", "three rows", "shipped"])
    @pytest.mark.parametrize("ell, window", [(2, 60), (3, 80), (4, 200), (5, 400), (6, 1500)])
    def test_a_hop_grid_across_the_switch_matches_the_oracle(self, ell, window, cells):
        nfact, span = math.factorial(ell), ell - 1
        per_window = window - span
        first = -(-entropy_module._ROWS_FROM * nfact // 2)  # the least hop on rows
        # Hop 1, both sides of the switch, and past per_window: disjoint windows.
        hops = sorted({1, 2, first - 1, first, first + 1, per_window - 1, per_window,
                       per_window + 7})
        assert not by_rows(ell, first - 1, per_window) and by_rows(ell, first, per_window)
        rng = np.random.default_rng(ell)
        chunk = {"one row": 1, "three rows": 3 * nfact, "shipped": entropy_module._CHUNK_CELLS}
        for hop in hops:
            n = window + 40 * hop
            # A rounded random walk: long stretches of ties and of change.
            values = np.round(rng.standard_normal(n).cumsum() / 4)
            codes = encode_patterns(values, ell, 1)
            anchors = range(window - 1, n, hop)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(entropy_module, "_CHUNK_CELLS", chunk[cells])
                got = sliding_entropy(codes, anchors, window, ell, span)
            expected = sliding_entropy_fsum(codes, np.asarray(anchors), window, ell, span)
            np.testing.assert_array_equal(
                got.view(np.int64), expected.view(np.int64), err_msg=f"hop {hop}"
            )

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), values=st.one_of(plateau_series(), random_series()))
    def test_both_paths_match_the_oracle_at_every_ell(self, data, values):
        ell = data.draw(st.integers(2, 9), label="ell")
        tau = data.draw(st.integers(1, 2), label="tau")
        span = (ell - 1) * tau
        if values.shape[0] <= span:
            values = np.concatenate([values, np.arange(span + 1.0 - values.shape[0])])
        window = data.draw(st.integers(span + 1, values.shape[0]), label="window")
        hop = data.draw(st.integers(1, window - span + 3), label="hop")
        # Chunks of one row up to a few, so that chunk edges fall anywhere.
        cells = data.draw(st.integers(1, 4 * math.factorial(ell)), label="cells per chunk")
        codes = encode_patterns(values, ell, tau)
        anchors = range(window - 1, values.shape[0], hop)
        expected = sliding_entropy_fsum(codes, np.asarray(anchors), window, ell, span)
        for path in (ROWS, EVENTS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(entropy_module, "_ROWS_FROM", path)
                mp.setattr(entropy_module, "_CHUNK_CELLS", cells)
                got = sliding_entropy(codes, anchors, window, ell, span)
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        values=st.lists(st.integers(0, 3), min_size=30, max_size=200),
        ell=st.integers(2, 3),
        tau_max=st.integers(1, 3),
        block=st.integers(1, 5),
    )
    def test_joined_blocks_on_rows_equal_the_whole_series_traces(
        self, data, values, ell, tau_max, block
    ):
        # Hops on the rows path at every stride, up to past window - span.
        span = (ell - 1) * tau_max
        nfact = math.factorial(ell)
        window = data.draw(st.integers(span + nfact, span + 24), label="window")
        hop = data.draw(st.integers(nfact, window - span + 4), label="hop")
        cells = data.draw(st.integers(1, 3 * nfact), label="cells per chunk")
        series = TimeSeries(np.asarray(values, dtype=np.float64))
        config = PEConfig(ell=ell, window=window, tau_min=1, tau_max=tau_max, hop=hop)
        assume(len(series) >= window)
        assert all(by_rows(ell, hop, window - (ell - 1) * tau) for tau in config.taus)
        whole = multi_tau_pe(series, config)
        # No step table is built on the rows path.
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", block), \
                mock.patch.object(entropy_module, "_CHUNK_CELLS", cells), \
                mock.patch.object(entropy_module, "_exact_steps", side_effect=AssertionError):
            blocks = list(trace_blocks(series, config))
        np.testing.assert_array_equal(np.concatenate([b.anchors for b in blocks]), whole.anchors)
        joined = np.concatenate([b.traces for b in blocks], axis=1)
        np.testing.assert_array_equal(joined.view(np.int64), whole.traces.view(np.int64))

    @pytest.mark.parametrize("hop", [25, 100, 5000])
    def test_trace_blocks_on_rows_match_the_tally(self, hop):
        # Several 8-anchor blocks, each cut by 5-row chunks, on the recording-
        # like plateaus of a rounded walk; hop 5000 gives disjoint windows.
        rng = np.random.default_rng(hop)
        config = PEConfig(window=5000, hop=hop)
        series = TimeSeries(np.round(rng.standard_normal(5000 + 30 * hop).cumsum()))
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", 8), \
                mock.patch.object(entropy_module, "_CHUNK_CELLS", 5 * 24):
            blocks = list(trace_blocks(series, config))
        assert len(blocks) == 4
        joined = np.concatenate([b.traces for b in blocks], axis=1)
        anchors = np.concatenate([b.anchors for b in blocks])
        for i, anchor in enumerate(anchors.tolist()):
            for k, tau in enumerate(config.taus):
                counts = pattern_distribution(series, 4, tau, anchor - 4999, anchor + 1)
                assert joined[k, i] == permutation_entropy(counts, 4), f"anchor {anchor}"

    def test_rows_peak_memory_does_not_grow_with_the_hop(self):
        # The same 2000 anchors at ell 4, with their codes encoded before
        # tracing starts: the events path would hold 8 bytes per differing
        # pair, 1.6 MB at hop 100 and 16 MB at hop 1000.
        peaks = {}
        for hop in (100, 1000):
            codes = encode_patterns(
                np.random.default_rng(hop).standard_normal(5000 + 2000 * hop), 4, 1
            )
            anchors = range(4999, codes.shape[0] + 3, hop)
            assert len(anchors) == 2001 and by_rows(4, hop, 4997)
            tracemalloc.start()
            sliding_entropy(codes, anchors, 5000, 4, 3)
            peaks[hop] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            del codes
        assert peaks[1000] <= peaks[100] + (64 << 10), peaks

    def test_rows_peak_memory_at_ell_9_is_a_few_rows_above_ell_4(self):
        # ell 9 counts rows at hop 100 only when forced; a chunk then holds
        # one row of 9! cells.
        peaks = {}
        for ell in (4, 9):
            values = np.random.default_rng(ell).standard_normal(5000 + 20 * 100)
            codes = encode_patterns(values, ell, 1)
            anchors = range(4999, values.shape[0], 100)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(entropy_module, "_ROWS_FROM", ROWS)
                tracemalloc.start()
                sliding_entropy(codes, anchors, 5000, ell, ell - 1)
                peaks[ell] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        # At a chunk's peak about eight rows live: the carried and the new
        # count row, the tally, the entries, their two limbs and two float
        # temporaries.  Chunks of several rows would take more.
        rows = 10 * math.factorial(9) * 8
        assert peaks[9] <= peaks[4] + rows, f"{peaks[9] - peaks[4]} bytes above ell=4"


def sliding_entropy(codes, anchors, window, ell, span):
    """The sliding kernel over the codes of a whole series, from the tally of
    its first window, as :func:`windowed_pe` runs it."""
    per_window, hop = window - span, anchors.step
    counts = np.bincount(codes[:per_window], minlength=math.factorial(ell))
    stride = entropy_module._Stride.counted(counts, per_window, hop)
    into = hop + per_window - min(hop, per_window)
    return entropy_module._sliding_entropy(
        codes, codes[into:], len(anchors) - 1, hop, ell, stride
    )


@st.composite
def trace_config(draw, n):
    """A one-stride config whose window fits ``n`` points, with a hop up to
    past ``window - span``."""
    ell = draw(st.integers(2, 5), label="ell")
    tau = draw(st.integers(1, 3), label="tau")
    span = (ell - 1) * tau
    assume(n > span + 1)
    window = draw(st.integers(span + 1, n - 1), label="window")
    hop = draw(st.integers(1, window - span + 3), label="hop")
    return PEConfig(ell=ell, window=window, tau_min=tau, tau_max=tau, hop=hop)


def trace_bits(values, config):
    return windowed_pe(TimeSeries(values), config, config.tau_min).view(np.int64)


class TestMetamorphic:
    """Properties that need no oracle: maps of the series whose windows keep
    their count multisets keep every trace bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), values=st.one_of(plateau_series(), random_series()))
    def test_increasing_map_keeps_every_trace(self, data, values):
        config = data.draw(trace_config(values.shape[0]))
        expected = trace_bits(values, config)
        np.testing.assert_array_equal(trace_bits(2.0 * values, config), expected)
        distinct = np.unique(values)
        if (np.diff(distinct**3) > 0).all():  # the cube makes no new tie
            np.testing.assert_array_equal(trace_bits(values**3, config), expected)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), values=st.one_of(plateau_series(), random_series()))
    def test_dropping_the_first_hop_points_drops_the_first_anchor(self, data, values):
        config = data.draw(trace_config(values.shape[0]))
        assume(values.shape[0] - config.hop >= config.window)
        expected = trace_bits(values, config)[1:]
        np.testing.assert_array_equal(trace_bits(values[config.hop :], config), expected)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), values=random_series())
    def test_negation_and_time_reversal_keep_every_count_multiset(self, data, values):
        # Without ties, negating and reversing a window maps its patterns one
        # to one, so each window keeps its multiset of counts.  The exact sum
        # makes equal multisets give equal bits, whatever the cell order.
        config = data.draw(trace_config(values.shape[0]))
        n = config.window + (values.shape[0] - config.window) // config.hop * config.hop
        values = values[:n]
        assume(np.unique(values).shape[0] == n)
        mirrored = trace_bits(-values[::-1], config)[::-1]
        np.testing.assert_array_equal(mirrored, trace_bits(values, config))


class TestMultiTauPE:
    def test_traces_align_and_match_single_stride_calls(self):
        rng = np.random.default_rng(83)
        series = TimeSeries(rng.standard_normal(500))
        config = PEConfig(ell=3, window=80, tau_min=1, tau_max=5, hop=4)
        traces = multi_tau_pe(series, config)
        np.testing.assert_array_equal(traces.taus, [1, 2, 3, 4, 5])
        for tau, row in zip(config.taus, traces.traces):
            single = windowed_pe(series, config, tau)
            assert single.shape == (len(traces),)
            np.testing.assert_array_equal(config.anchor_grid(500), traces.anchors)
            np.testing.assert_array_equal(single, row)

    def test_matrix_shape(self):
        rng = np.random.default_rng(89)
        series = TimeSeries(rng.standard_normal(200))
        config = PEConfig(ell=2, window=40, tau_min=2, tau_max=4, hop=10)
        traces = multi_tau_pe(series, config)
        assert traces.traces.shape == (3, len(traces))
        assert traces.traces.flags.c_contiguous

    def test_result_retains_one_matrix_and_one_anchor_array(self):
        n_anchors = 50_000
        config = PEConfig(window=1000)
        series = TimeSeries(np.random.default_rng(7).standard_normal(n_anchors + 999))
        tracemalloc.start()
        traces = multi_tau_pe(series, config)
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert len(traces) == n_anchors
        # The strides x anchors matrix and one anchor array; a copy of the
        # anchors per stride would add almost 6/7 again.
        table_bytes = (len(config.taus) + 1) * n_anchors * 8
        assert retained <= 1.1 * table_bytes, f"{retained} bytes for a {table_bytes}-byte table"


class TestTraceBlocks:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        values=st.lists(st.integers(0, 3), min_size=12, max_size=90),
        ell=st.integers(2, 6),
        tau_max=st.integers(1, 3),
        block=st.integers(1, 5),
    )
    def test_joined_blocks_equal_the_whole_series_traces(
        self, data, values, ell, tau_max, block
    ):
        # Hops up to past window - span, where windows share no pattern.
        span = (ell - 1) * tau_max
        window = data.draw(st.integers(span + 1, span + 12), label="window")
        hop = data.draw(st.integers(1, window - span + 4), label="hop")
        series = TimeSeries(np.asarray(values, dtype=np.float64))
        config = PEConfig(ell=ell, window=window, tau_min=1, tau_max=tau_max, hop=hop)
        assume(len(series) >= window)
        whole = multi_tau_pe(series, config)
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", block):
            blocks = list(trace_blocks(series, config))
        assert all(0 < len(b) <= block and b.tau_min == 1 for b in blocks)
        np.testing.assert_array_equal(np.concatenate([b.anchors for b in blocks]), whole.anchors)
        joined = np.concatenate([b.traces for b in blocks], axis=1)
        np.testing.assert_array_equal(joined.view(np.int64), whole.traces.view(np.int64))

    def test_a_window_longer_than_a_block_keeps_every_bit(self):
        # Unpatched blocks of 2**14 anchors under windows of 20,000 points:
        # each block's leaving and entering codes lie apart.
        rng = np.random.default_rng(28)
        series = TimeSeries(np.round(rng.standard_normal(56_000).cumsum(), 1))
        config = PEConfig(window=20_000)
        whole = multi_tau_pe(series, config)
        blocks = list(trace_blocks(series, config))
        assert [len(b) for b in blocks] == [1 << 14, 1 << 14, 36_001 - (2 << 14)]
        joined = np.concatenate([b.traces for b in blocks], axis=1)
        np.testing.assert_array_equal(joined.view(np.int64), whole.traces.view(np.int64))
        np.testing.assert_array_equal(np.concatenate([b.anchors for b in blocks]), whole.anchors)
        for i in (0, 1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 2 << 14, 36_000):
            anchor = whole.anchors[i]
            for k, tau in enumerate(config.taus):
                counts = pattern_distribution(series, 4, tau, anchor - 19_999, anchor + 1)
                assert joined[k, i] == permutation_entropy(counts, 4), f"anchor {anchor}"

    def test_each_step_table_is_built_once_per_pass(self):
        series = TimeSeries(np.random.default_rng(6).standard_normal(1500))
        config = PEConfig(ell=3, window=200, tau_min=2, tau_max=5)
        steps = entropy_module._exact_steps
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", 256), \
                mock.patch.object(entropy_module, "_exact_steps", wraps=steps) as built:
            assert len(list(trace_blocks(series, config))) == 6
            assert sorted(c.args for c in built.call_args_list) == [(190,), (192,), (194,), (196,)]
            # Nothing outlives a pass: the next one builds its own tables.
            list(trace_blocks(series, config))
        assert built.call_count == 8

    def test_peak_memory_does_not_grow_with_the_window(self):
        # The same anchors under windows of 5,000 and 500,000 points.  The
        # state holds one step table per stride, 8 bytes per count; the
        # kernel takes the rest per block, whatever the window.
        anchors = 3 << 14
        above = {}
        for window in (5000, 500_000):
            config = PEConfig(window=window)
            walk = np.random.default_rng(4).standard_normal(window - 1 + anchors).cumsum()
            series = TimeSeries(walk)
            tables = 8 * sum(window - 3 * tau for tau in config.taus)
            tracemalloc.start()
            for block in trace_blocks(series, config):
                del block
            above[window] = tracemalloc.get_traced_memory()[1] - tables
            tracemalloc.stop()
        # Past a block's length the leaving and the entering codes of a block
        # are encoded apart: at most one more block of int64 codes.
        assert above[500_000] <= above[5000] + 8 * (1 << 14), above

    def test_series_is_checked_before_the_first_block(self):
        config = PEConfig(ell=3, window=20, tau_max=3)
        values = np.arange(100.0)
        values[83] = np.nan
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", 4):
            with pytest.raises(InvalidInputError, match="^non-finite value at position 83: nan$"):
                trace_blocks(TimeSeries(values), config)
        with pytest.raises(InsufficientDataError, match="shorter than one window of 20"):
            trace_blocks(TimeSeries(np.arange(19.0)), config)

    def test_blocks_are_whole_write_pieces(self):
        # A trace table has an anchor column and at least one stride.
        for columns in range(2, 65):
            assert entropy_module._BLOCK_ANCHORS % pemix.series._piece_rows(columns) == 0


class TestPEConfig:
    def test_defaults(self):
        config = PEConfig()
        assert (config.ell, config.window, config.tau_min, config.tau_max, config.hop) == (
            4, 5000, 1, 6, 1,
        )

    def test_window_must_fit_largest_stride(self):
        with pytest.raises(InvalidInputError):
            PEConfig(ell=4, window=18, tau_min=1, tau_max=6)

    def test_bad_ranges(self):
        with pytest.raises(InvalidInputError):
            PEConfig(tau_min=3, tau_max=2)
        with pytest.raises(InvalidInputError):
            PEConfig(hop=0)
        with pytest.raises(InvalidInputError):
            PEConfig(ell=1)

    def test_ell_is_capped_at_nine(self):
        assert PEConfig(ell=9, window=100, tau_max=1).ell == 9
        for ell in (10, 13, 21, 10**6):
            with pytest.raises(InvalidInputError, match="ell must be <= 9"):
                PEConfig(ell=ell, window=100, tau_max=1)
