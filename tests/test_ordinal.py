"""Ordinal pattern extraction, indexing, and distribution tallies."""

import itertools
import math

import numpy as np
import pytest

from pemix import (
    InsufficientDataError,
    InvalidInputError,
    PatternConfig,
    TimeSeries,
    encode_patterns,
    index_to_pattern,
    ordinal_pattern,
    pattern_distribution,
    pattern_index,
)

from oracles import lex_index_by_enumeration, pattern_tally, ranks_by_time


class TestOrdinalPattern:
    def test_basic_ranking(self):
        assert ordinal_pattern([7.0, 3.0, 11.0]).ranks == (1, 0, 2)

    def test_tie_goes_to_earlier_point(self):
        assert ordinal_pattern([5.0, 5.0, 2.0]).ranks == (1, 2, 0)

    def test_constant_window_is_identity(self):
        assert ordinal_pattern([4.0, 4.0, 4.0, 4.0]).ranks == (0, 1, 2, 3)

    def test_matches_pairwise_oracle_on_random_windows(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            ell = int(rng.integers(2, 7))
            # Integer values force frequent ties.
            window = rng.integers(0, 4, size=ell).astype(float)
            assert ordinal_pattern(window).ranks == ranks_by_time(window)

    def test_rejects_short_window(self):
        with pytest.raises(InvalidInputError):
            ordinal_pattern([1.0])

    def test_rejects_non_finite_and_names_position(self):
        with pytest.raises(InvalidInputError, match="position 2"):
            ordinal_pattern([1.0, 2.0, np.nan, 4.0])


class TestPatternIndex:
    def test_pinned_examples(self):
        assert pattern_index((0, 1, 2)) == 0
        assert pattern_index((0, 2, 1)) == 1
        assert pattern_index((2, 1, 0)) == 5
        assert pattern_index((0, 1)) == 0
        assert pattern_index((1, 0)) == 1

    def test_matches_enumeration_oracle(self):
        for ell in range(2, 6):
            for perm in itertools.permutations(range(ell)):
                assert pattern_index(perm) == lex_index_by_enumeration(perm)

    def test_round_trip_with_index_to_pattern(self):
        for ell in range(2, 7):
            for index in range(math.factorial(ell)):
                pattern = index_to_pattern(index, ell)
                assert pattern.index == index
                assert pattern_index(pattern.ranks) == index

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidInputError):
            pattern_index((0, 0, 1))
        with pytest.raises(InvalidInputError):
            pattern_index((1, 2, 3))

    def test_index_to_pattern_range_check(self):
        with pytest.raises(InvalidInputError):
            index_to_pattern(6, 3)
        with pytest.raises(InvalidInputError):
            index_to_pattern(-1, 3)


class TestEncodePatterns:
    def test_strided_example(self):
        # Windows at stride 2: (1, 6, 5) and (4, 2, 3).
        series = np.array([1.0, 4.0, 6.0, 2.0, 5.0, 3.0])
        codes = encode_patterns(series, ell=3, tau=2)
        assert codes.shape == (2,)
        assert codes[0] == pattern_index((0, 2, 1))
        assert codes[1] == pattern_index((2, 0, 1))

    def test_matches_per_window_calls(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(10, 60))
            values = rng.integers(0, 5, size=n).astype(float)
            ell = int(rng.integers(2, 5))
            tau = int(rng.integers(1, 4))
            span = (ell - 1) * tau
            if n <= span:
                continue
            codes = encode_patterns(values, ell, tau)
            expected = [
                ordinal_pattern(values[i : i + span + 1 : tau]).index
                for i in range(n - span)
            ]
            assert codes.tolist() == expected

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            encode_patterns(np.arange(4.0), ell=3, tau=2)

    def test_non_finite_names_position(self):
        values = np.array([0.0, 1.0, 2.0, np.inf, 4.0])
        with pytest.raises(InvalidInputError, match="position 3"):
            encode_patterns(values, ell=2, tau=1)


class TestPatternDistribution:
    def test_alternating_example(self):
        series = TimeSeries(np.array([2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]))
        dist = pattern_distribution(series, PatternConfig(ell=2, tau=1))
        assert dist.count == 6
        np.testing.assert_array_equal(dist.probs, [0.5, 0.5])

    def test_matches_nested_loop_oracle_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(12, 80))
            values = rng.integers(0, 4, size=n).astype(float)
            series = TimeSeries(values)
            ell = int(rng.integers(2, 5))
            tau = int(rng.integers(1, 4))
            if n <= (ell - 1) * tau:
                continue
            dist = pattern_distribution(series, PatternConfig(ell=ell, tau=tau))
            tally, n_windows = pattern_tally(values, ell, tau)
            assert dist.count == n_windows
            expected = np.zeros(math.factorial(ell))
            for ranks, count in tally.items():
                expected[pattern_index(ranks)] = count / n_windows
            np.testing.assert_array_equal(dist.probs, expected)

    def test_probs_sum_to_one_and_count_matches_range(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(rng.standard_normal(200))
        for _ in range(50):
            ell = int(rng.integers(2, 5))
            tau = int(rng.integers(1, 5))
            span = (ell - 1) * tau
            start = int(rng.integers(0, 100))
            end = int(rng.integers(start + span + 1, 201))
            dist = pattern_distribution(
                series, PatternConfig(ell=ell, tau=tau), start=start, end=end
            )
            assert dist.count == (end - start) - span
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_ranges_merge_to_full_tally(self):
        # Counts over window-start partitions add up to the full tally.
        rng = np.random.default_rng(5)
        values = rng.standard_normal(300)
        series = TimeSeries(values)
        config = PatternConfig(ell=3, tau=2)
        span = config.span
        split = 140
        full = pattern_distribution(series, config)
        left = pattern_distribution(series, config, start=0, end=split)
        right = pattern_distribution(series, config, start=split - span, end=300)
        merged_counts = left.probs * left.count + right.probs * right.count
        np.testing.assert_allclose(
            merged_counts, full.probs * full.count, rtol=0, atol=1e-9
        )
        assert left.count + right.count == full.count

    def test_bad_range_raises(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(InvalidInputError):
            pattern_distribution(series, PatternConfig(ell=2, tau=1), start=5, end=3)

    def test_short_range_raises(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(InsufficientDataError):
            pattern_distribution(series, PatternConfig(ell=4, tau=3), start=0, end=9)


class TestPatternConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            PatternConfig(ell=1, tau=1)
        with pytest.raises(InvalidInputError):
            PatternConfig(ell=3, tau=0)

    def test_ell_bounded_by_one_chunk_of_counts(self):
        # 9! = 362,880 counts fit the kernel's 2,000,000-cell chunk; 10! does not.
        assert PatternConfig(ell=9, tau=1).ell == 9
        for ell in (10, 13, 21, 10**6):
            with pytest.raises(InvalidInputError, match="ell must be <= 9"):
                PatternConfig(ell=ell, tau=1)

    def test_span(self):
        assert PatternConfig(ell=4, tau=6).span == 18
