"""Mixing surrogate, bin averaging, and the bin-size sweep."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pemix import (
    BinSweepResult,
    InsufficientDataError,
    InvalidInputError,
    PEConfig,
    TimeSeries,
    bin_average,
    bin_sweep,
    mixing_ansatz,
    multi_tau_pe,
    reversal_series,
)
from pemix import entropy as entropy_module
from pemix import mixing as mixing_module

from oracles import (
    ansatz_moments,
    bin_means,
    clipped_window_stats,
    exact_mean,
    exact_scores,
    recommend_bin_size,
)


class TestMixingAnsatz:
    def test_k_zero_is_identity(self):
        rng = np.random.default_rng(7)
        series = TimeSeries(rng.standard_normal(50))
        out = mixing_ansatz(series, k=0, seed=123)
        np.testing.assert_array_equal(out.values, series.values)
        # Bit for bit, signed zeros included: at seed 0 a draw-based k = 0
        # turned about half of these -0.0 into 0.0.
        signed = TimeSeries(np.where(np.arange(50) % 2, -0.0, series.values))
        out = mixing_ansatz(signed, k=0, seed=0)
        np.testing.assert_array_equal(out.values.view(np.int64), signed.values.view(np.int64))
        assert not np.shares_memory(out.values, signed.values)

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(11)
        series = TimeSeries(rng.standard_normal(200))
        a = mixing_ansatz(series, k=3, seed=42)
        b = mixing_ansatz(series, k=3, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(13)
        series = TimeSeries(rng.standard_normal(200))
        a = mixing_ansatz(series, k=3, seed=1)
        b = mixing_ansatz(series, k=3, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_draws_follow_clipped_window_statistics(self):
        # Reconstruct the output from naive per-point statistics and the
        # same seeded generator: one standard normal draw per point.
        rng = np.random.default_rng(17)
        values = rng.standard_normal(60)
        series = TimeSeries(values)
        for k in (1, 2, 5):
            out = mixing_ansatz(series, k=k, seed=99)
            z = np.random.default_rng(99).standard_normal(60)
            expected = np.array(
                [
                    mu + sigma * z[i]
                    for i, (mu, sigma) in enumerate(
                        clipped_window_stats(values, i, k) for i in range(60)
                    )
                ]
            )
            np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-12)

    def test_edge_windows_use_sample_deviation(self):
        # A 1-point interior never happens for k >= 1; the first point's
        # window is x[0..k] and must use ddof=1.
        series = TimeSeries(np.array([1.0, 3.0, 5.0, 7.0, 9.0]))
        out = mixing_ansatz(series, k=1, seed=5)
        z = np.random.default_rng(5).standard_normal(5)
        assert out.values[0] == pytest.approx(2.0 + np.std([1.0, 3.0], ddof=1) * z[0])

    def test_preserves_per_point_mean_over_many_seeds(self):
        rng = np.random.default_rng(19)
        values = rng.standard_normal(40)
        series = TimeSeries(values)
        k = 2
        n_seeds = 200
        draws = np.stack(
            [mixing_ansatz(series, k=k, seed=s).values for s in range(n_seeds)]
        )
        mu = np.array([clipped_window_stats(values, i, k)[0] for i in range(40)])
        sigma = np.array([clipped_window_stats(values, i, k)[1] for i in range(40)])
        tolerance = 4.0 * sigma / np.sqrt(n_seeds) + 1e-12
        assert (np.abs(draws.mean(axis=0) - mu) <= tolerance).all()

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @pytest.mark.parametrize("k,n", [(1, 3), (1, 40), (3, 8), (4, 9), (4, 61), (7, 33)])
    def test_row_blocks_match_the_whole_series_pass(self, block_rows, k, n):
        values = np.cumsum(np.random.default_rng(n + k).standard_normal(n)) * 1e3
        mu, sigma = ansatz_moments(values, k)
        expected = mu + sigma * np.random.default_rng(5).standard_normal(n)
        with mock.patch.object(mixing_module, "_ANSATZ_BLOCK_ROWS", block_rows):
            out = mixing_ansatz(TimeSeries(values), k=k, seed=5)
        np.testing.assert_array_equal(out.values.view(np.int64), expected.view(np.int64))

    def test_peak_memory_grows_by_a_few_arrays_per_point(self):
        peaks = {}
        for n in (100_000, 400_000):
            series = TimeSeries(np.random.default_rng(3).standard_normal(n))
            tracemalloc.start()
            mixing_ansatz(series, k=4, seed=1)
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # The draws, scaled and shifted in place: 8 bytes per point.  Arrays
        # of means and deviations add 16, and summarizing all 9-point
        # windows at once takes 72 for the deviations alone.
        grown = (peaks[400_000] - peaks[100_000]) / 300_000
        assert grown <= 12, f"{grown:.1f} bytes per point"

    def test_metadata_preserved(self):
        series = TimeSeries(np.arange(30.0), spacing=0.5, unit="seconds", origin=2.0)
        out = mixing_ansatz(series, k=2, seed=0)
        assert (out.spacing, out.unit, out.origin) == (0.5, "seconds", 2.0)
        assert len(out) == 30

    def test_too_short_raises(self):
        series = TimeSeries(np.arange(6.0))
        with pytest.raises(InsufficientDataError):
            mixing_ansatz(series, k=3, seed=0)

    def test_non_finite_raises(self):
        series = TimeSeries(np.array([1.0, np.nan, 3.0, 4.0, 5.0]))
        with pytest.raises(InvalidInputError):
            mixing_ansatz(series, k=1, seed=0)

    def test_bad_k_raises(self):
        with pytest.raises(InvalidInputError):
            mixing_ansatz(TimeSeries(np.arange(6.0)), k=-1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_raises(self, seed):
        with pytest.raises(InvalidInputError, match="^seed must be an integer >= 0"):
            mixing_ansatz(TimeSeries(np.arange(20.0)), k=2, seed=seed)

    def test_arguments_are_checked_before_the_length(self):
        short = TimeSeries(np.arange(6.0))
        with pytest.raises(InvalidInputError, match="^k must be an integer >= 0, got -1$"):
            mixing_ansatz(short, k=-1)
        with pytest.raises(InvalidInputError, match="^seed must be an integer >= 0, got -1$"):
            mixing_ansatz(short, k=3, seed=-1)

    def test_numpy_integer_arguments_match_python_ones(self):
        series = TimeSeries(np.random.default_rng(23).standard_normal(50))
        a = mixing_ansatz(series, k=np.int64(2), seed=np.uint32(9))
        b = mixing_ansatz(series, k=2, seed=9)
        np.testing.assert_array_equal(a.values.view(np.int64), b.values.view(np.int64))


class TestBinAverage:
    def test_origin_is_the_centre_of_the_first_bin(self):
        series = TimeSeries(np.arange(1.0, 8.0), spacing=2.0, origin=10.0)
        out = bin_average(series, 3)
        assert (out.origin, out.spacing) == (12.0, 6.0)
        np.testing.assert_array_equal(out.values, [2.0, 5.0])

    def test_pinned_example(self):
        series = TimeSeries(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))
        out = bin_average(series, 2)
        np.testing.assert_array_equal(out.values, [1.5, 3.5, 5.5])

    def test_j_one_is_identity_values(self):
        series = TimeSeries(np.array([2.0, -1.0, 0.5]))
        out = bin_average(series, 1)
        np.testing.assert_array_equal(out.values, series.values)
        assert out.spacing == series.spacing

    def test_one_point_bins_are_the_input_values_uncopied(self):
        values = np.array([2.0, -0.0, np.nan, 5e-324, -1e300])
        series = TimeSeries(values, spacing=0.5, origin=-0.0)
        out = bin_average(series, 1)
        assert np.shares_memory(out.values, series.values)
        # The values as they are, -0.0 included (numpy's mean of [-0.0] is 0.0).
        np.testing.assert_array_equal(out.values.view(np.int64), values.view(np.int64))
        assert (out.spacing, out.origin, out.unit) == (0.5, 0.0, "samples")

    def test_spacing_scales_with_bin_size(self):
        series = TimeSeries(np.arange(100.0), spacing=0.25, unit="seconds")
        out = bin_average(series, 4)
        assert out.spacing == 1.0
        assert out.unit == "seconds"
        assert len(out) == 25

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(23)
        values = rng.standard_normal(137)
        series = TimeSeries(values)
        for j in (1, 2, 3, 5, 10, 137):
            np.testing.assert_array_equal(bin_average(series, j).values, bin_means(values, j))

    def test_rebinning_by_one_is_idempotent(self):
        rng = np.random.default_rng(29)
        series = TimeSeries(rng.standard_normal(90))
        once = bin_average(series, 7)
        again = bin_average(once, 1)
        np.testing.assert_array_equal(once.values, again.values)

    def test_commutes_with_adding_constant(self):
        rng = np.random.default_rng(31)
        values = rng.standard_normal(64)
        shifted = bin_average(TimeSeries(values + 5.0), 4).values
        plain = bin_average(TimeSeries(values), 4).values + 5.0
        np.testing.assert_allclose(shifted, plain, rtol=0, atol=1e-12)

    def test_bad_bin_size_raises(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(InvalidInputError):
            bin_average(series, 0)
        with pytest.raises(InvalidInputError):
            bin_average(TimeSeries(np.arange(3.0)), 4)


def recommend(sizes, r_bars):
    result = BinSweepResult(sizes, r_bars)
    return result.recommended_j, result.achieved_zero


# Scores that reach the rule's edges: NaN rows, signed zeros, values just
# below, at and above ZERO_RBAR_TOL, and repeats that form plateaus.
_SWEEP_SCORES = st.sampled_from([np.nan, 0.0, -0.0, 1e-13, 1e-12, 2e-12, 0.25, 0.5, 0.75])


class TestRecommendBinSize:
    def test_first_zero_wins(self):
        assert recommend([1, 2, 3, 4], [0.9, 0.0, 0.0, 0.1]) == (2, True)

    def test_plateau_counts_once_and_first_size_wins(self):
        assert recommend([1, 2, 3, 4], [0.8, 0.5, 0.5, 0.7]) == (2, False)

    def test_monotone_decreasing_recommends_last(self):
        assert recommend([1, 2, 3], [0.9, 0.5, 0.3]) == (3, False)

    def test_tolerance_treats_tiny_as_zero(self):
        assert recommend([1, 2], [0.5, 1e-13]) == (2, True)
        assert recommend([1, 2], [0.5, 1e-12]) == (2, True)
        assert recommend([1, 2], [0.5, 2e-12]) == (2, False)

    def test_nan_entries_are_skipped(self):
        assert recommend([1, 2, 3, 4], [0.9, np.nan, 0.2, 0.5]) == (3, False)
        # Equal scores on either side of a NaN form one plateau.
        assert recommend([1, 2, 3, 4, 5], [0.9, 0.5, np.nan, 0.5, 0.7]) == (2, False)
        assert recommend([1, 2, 3, 4], [0.5, np.nan, 0.5, 0.25]) == (4, False)

    def test_all_nan_raises(self):
        with pytest.raises(InsufficientDataError, match="no bin size left enough data"):
            recommend([1, 2], [np.nan, np.nan])

    @pytest.mark.parametrize(
        "sizes, pair", [([3, 1, 2], "size 1 follows size 3"), ([1, 2, 2], "size 2 follows size 2")]
    )
    def test_sizes_must_strictly_increase(self, sizes, pair):
        with pytest.raises(InvalidInputError, match=pair):
            recommend(sizes, [0.0, 0.0, 0.5])

    @settings(max_examples=300, deadline=None)
    @example(scores=[np.nan, np.nan], first=1, steps=[1] * 11)
    @given(
        scores=st.lists(_SWEEP_SCORES, min_size=1, max_size=12),
        first=st.integers(1, 5),
        steps=st.lists(st.integers(1, 4), min_size=11, max_size=11),
    )
    def test_matches_the_pairwise_oracle(self, scores, first, steps):
        sizes = np.cumsum([first, *steps])[: len(scores)]
        if np.isnan(scores).all():
            with pytest.raises(InsufficientDataError):
                recommend_bin_size(sizes, scores)
            with pytest.raises(InsufficientDataError):
                recommend(sizes, scores)
        else:
            assert recommend(sizes, scores) == recommend_bin_size(sizes, scores)


class TestBinSweepResult:
    def test_derives_sufficiency_and_recommendation_from_the_scores(self):
        sizes, r_bars = [1, 2, 3, 4, 5], [0.9, 0.4, 0.5, 0.0, np.nan]
        result = BinSweepResult(sizes, r_bars)
        np.testing.assert_array_equal(result.sufficient, np.isfinite(r_bars))
        assert result.sufficient.dtype == bool
        assert (result.recommended_j, result.achieved_zero) == recommend_bin_size(sizes, r_bars)
        assert (result.recommended_j, result.achieved_zero) == (4, True)
        # Python scalars, as the sweep header and summary.json print them.
        assert type(result.recommended_j) is int and type(result.achieved_zero) is bool
        assert result.bin_sizes.dtype == np.int64

    def test_all_nan_scores_raise(self):
        with pytest.raises(InsufficientDataError):
            BinSweepResult([1, 2], [np.nan, np.nan])

    @pytest.mark.parametrize(
        "sizes, r_bars", [([1, 2, 3], [0.5, 0.0]), ([[1, 2]], [[0.5, 0.0]])]
    )
    def test_mismatched_shapes_raise(self, sizes, r_bars):
        with pytest.raises(InvalidInputError, match="matching 1-D"):
            BinSweepResult(sizes, r_bars)

    def test_unordered_sizes_raise(self):
        with pytest.raises(InvalidInputError, match="strictly increase"):
            BinSweepResult([2, 1], [0.5, 0.0])

    def test_non_integer_sizes_raise_instead_of_truncating(self):
        # Truncated, 1.5 and 2.5 would be reported as sizes 1 and 2.
        message = "^bin_sizes must be integers, got dtype float64$"
        with pytest.raises(InvalidInputError, match=message):
            BinSweepResult([1.5, 2.5], [0.5, 0.0])


class TestBinSweep:
    def test_structure_and_insufficient_marking(self):
        rng = np.random.default_rng(37)
        series = TimeSeries(rng.standard_normal(600))
        config = PEConfig(ell=3, window=100, tau_min=1, tau_max=3, hop=1)
        result = bin_sweep(series, range(1, 9), config)
        np.testing.assert_array_equal(result.bin_sizes, np.arange(1, 9))
        # j > 6 leaves fewer than 100 points out of 600.
        np.testing.assert_array_equal(result.sufficient, np.arange(1, 9) <= 6)
        assert np.isnan(result.r_bars[~result.sufficient]).all()
        assert np.isfinite(result.r_bars[result.sufficient]).all()
        assert result.recommended_j in result.bin_sizes
        expected_j, expected_zero = recommend_bin_size(result.bin_sizes, result.r_bars)
        assert (result.recommended_j, result.achieved_zero) == (expected_j, expected_zero)

    def test_no_candidate_with_enough_data_raises(self):
        series = TimeSeries(np.random.default_rng(41).standard_normal(50))
        config = PEConfig(ell=3, window=100, tau_min=1, tau_max=2, hop=1)
        with pytest.raises(InsufficientDataError):
            bin_sweep(series, range(1, 4), config)

    def test_empty_range_raises(self):
        series = TimeSeries(np.arange(100.0))
        with pytest.raises(InvalidInputError):
            bin_sweep(series, [], PEConfig(ell=2, window=10, tau_min=1, tau_max=2))

    def test_sizes_above_the_series_length_raise(self):
        # As bin_average does: a size past the length is no bin at all.
        series = TimeSeries(np.sin(np.arange(100.0)))
        config = PEConfig(ell=2, window=10, tau_min=1, tau_max=2)
        with pytest.raises(InvalidInputError, match=r"^bin sizes must be in 1\.\.100, got 1\.\.101$"):
            bin_sweep(series, range(1, 102), config)
        # Sizes up to the length keep their insufficient rows.
        result = bin_sweep(series, range(1, 101), config)
        assert result.bin_sizes[-1] == 100
        assert np.isnan(result.r_bars[10:]).all()
        assert not result.sufficient[10:].any()

    def test_recovers_unmixed_signal_at_j_one(self):
        # A slow smooth signal keeps the monotone stride ordering, so the
        # sweep should recommend no binning at all.
        t = np.linspace(0, 40 * np.pi, 4000)
        series = TimeSeries(np.sin(t) + 0.3 * np.sin(3.1 * t))
        config = PEConfig(ell=3, window=500, tau_min=1, tau_max=3, hop=5)
        result = bin_sweep(series, range(1, 4), config)
        assert result.recommended_j == 1
        assert result.achieved_zero

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.integers(0, 3), min_size=12, max_size=70),
        window=st.integers(7, 12),
        tau_max=st.integers(2, 3),
        hop=st.integers(1, 4),
        block=st.integers(1, 5),
    )
    def test_blocked_scores_equal_the_whole_series_scores(
        self, values, window, tau_max, hop, block
    ):
        # Small integer values make ties and equal windows; blocks of 1-5
        # anchors put block edges everywhere.
        series = TimeSeries(np.asarray(values, dtype=np.float64))
        config = PEConfig(ell=3, window=window, tau_min=1, tau_max=tau_max, hop=hop)
        sizes = range(1, 4)
        expected = np.full(len(sizes), np.nan)
        for idx, j in enumerate(sizes):
            if len(series) // j >= window:
                traces = multi_tau_pe(bin_average(series, j), config)
                expected[idx] = reversal_series(traces).r_bar
        if np.isnan(expected).all():
            return
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", block):
            result = bin_sweep(series, sizes, config)
        np.testing.assert_array_equal(result.r_bars.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(result.sufficient, np.isfinite(expected))

    @pytest.mark.parametrize("block", [1, 4, 64])
    @pytest.mark.parametrize("position", [0, 150, 377, 399])
    def test_non_finite_value_is_named_by_its_input_position(self, block, position):
        # Bins of 2 and 3 and blocks of anchors would each shift a position
        # found in a binned slice.
        values = np.sin(np.arange(400) / 5.0)
        values[position] = np.inf
        config = PEConfig(ell=3, window=40, tau_min=1, tau_max=3)
        message = f"^non-finite value at position {position}: inf$"
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", block):
            with pytest.raises(InvalidInputError, match=message):
                bin_sweep(TimeSeries(values), range(2, 4), config)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(0, 3), min_size=12, max_size=90),
        window=st.integers(9, 14),
        tau_max=st.integers(2, 4),
        hop=st.integers(1, 3),
        block=st.integers(1, 5),
    )
    def test_mean_reversal_is_the_exact_mean(self, values, window, tau_max, hop, block):
        # Each point is the mean of the exact per-anchor fractions, rounded once.
        series = TimeSeries(np.asarray(values, dtype=np.float64))
        config = PEConfig(ell=3, window=window, tau_min=1, tau_max=tau_max, hop=hop)
        sizes = [j for j in range(1, 4) if len(series) // j >= window]
        if not sizes:
            return
        with mock.patch.object(entropy_module, "_BLOCK_ANCHORS", block):
            result = bin_sweep(series, sizes, config)
        for j, r_bar in zip(sizes, result.r_bars):
            traces = multi_tau_pe(bin_average(series, j), config)
            want = exact_mean(exact_scores(traces.traces))
            assert np.float64(r_bar).view(np.int64) == np.float64(want).view(np.int64), j

    def test_mean_reversal_is_exact_on_a_mixed_series(self):
        # Tens of thousands of anchors, where numpy's pairwise float mean of
        # the rounded scores is one unit in the last place off at j = 2.
        series = mixing_ansatz(
            TimeSeries(np.sin(np.arange(24_000) / 40.0)), k=3, seed=11
        )
        config = PEConfig(window=1000)
        result = bin_sweep(series, range(1, 4), config)
        for j, r_bar in zip(range(1, 4), result.r_bars):
            traces = multi_tau_pe(bin_average(series, j), config)
            want = exact_mean(exact_scores(traces.traces))
            assert np.float64(r_bar).view(np.int64) == np.float64(want).view(np.int64), j

    def test_peak_memory_above_the_input_is_one_block(self):
        # No score per anchor and, at j = 1, no second series: the peak above
        # the input series is one trace block's working set, whatever the
        # length (2.2 MB measured at 200k and 400k points; the running total
        # replaced a float score per anchor, 11.9 and 15.1 MB before).
        config = PEConfig()
        for n in (200_000, 400_000):
            series = TimeSeries(np.random.default_rng(9).standard_normal(n))
            tracemalloc.start()
            bin_sweep(series, [1], config)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 3_000_000, f"{peak} bytes above the input at {n} points"

    def test_peak_memory_grows_by_a_few_arrays_per_point(self):
        config = PEConfig(window=1000)
        peaks = {}
        for n in (100_000, 400_000):
            series = TimeSeries(np.random.default_rng(9).standard_normal(n))
            tracemalloc.start()
            bin_sweep(series, range(1, 3), config)
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # The binned series and one score per anchor: 16 bytes per point at
        # j = 1.  A strides x anchors matrix and its sort order take 96.
        grown = (peaks[400_000] - peaks[100_000]) / 300_000
        assert grown <= 24, f"{grown:.1f} bytes per point"
