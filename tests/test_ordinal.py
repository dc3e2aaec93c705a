"""Ordinal pattern codes and distribution tallies, against the slow oracles."""

import itertools
import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pemix import (
    InsufficientDataError,
    InvalidInputError,
    TimeSeries,
    encode_patterns,
    pattern_distribution,
)

from oracles import lex_index_by_enumeration, pattern_tally, ranks_by_time


def oracle_codes(values, ell, tau):
    """Per-window lexicographic codes from the slow pairwise ranking."""
    span = (ell - 1) * tau
    return [
        lex_index_by_enumeration(ranks_by_time(values[i : i + span + 1 : tau]))
        for i in range(len(values) - span)
    ]


def code_of(window):
    """Code of a single window through the vectorized encoder."""
    window = np.asarray(window, dtype=float)
    codes = encode_patterns(window, ell=window.shape[0], tau=1)
    assert codes.shape == (1,)
    return int(codes[0])


class TestOrdinalPattern:
    def test_basic_ranking(self):
        assert ranks_by_time([7.0, 3.0, 11.0]) == (1, 0, 2)
        assert code_of([7.0, 3.0, 11.0]) == 2

    def test_tie_goes_to_earlier_point(self):
        assert ranks_by_time([5.0, 5.0, 2.0]) == (1, 2, 0)
        assert code_of([5.0, 5.0, 2.0]) == 3

    def test_constant_window_is_identity(self):
        assert code_of([4.0, 4.0, 4.0, 4.0]) == 0

    def test_matches_pairwise_oracle_on_random_windows(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            ell = int(rng.integers(2, 7))
            # Integer values force frequent ties.
            window = rng.integers(0, 4, size=ell).astype(float)
            assert code_of(window) == lex_index_by_enumeration(ranks_by_time(window))

    def test_rejects_short_window(self):
        with pytest.raises(InvalidInputError, match="^ell must be an integer >= 2, got 1$"):
            encode_patterns(np.arange(5.0), ell=1, tau=1)
        with pytest.raises(InvalidInputError, match="^tau must be an integer >= 1, got 0$"):
            encode_patterns(np.arange(5.0), ell=2, tau=0)

    def test_rejects_non_finite_and_names_position(self):
        with pytest.raises(InvalidInputError, match="position 2"):
            encode_patterns(np.array([1.0, 2.0, np.nan, 4.0]), ell=2, tau=1)


class TestPatternIndex:
    def test_pinned_examples(self):
        # A window holding the ranks themselves has exactly those ranks.
        assert code_of((0, 1, 2)) == 0
        assert code_of((0, 2, 1)) == 1
        assert code_of((2, 1, 0)) == 5
        assert code_of((0, 1)) == 0
        assert code_of((1, 0)) == 1

    def test_matches_enumeration_oracle(self):
        for ell in range(2, 7):
            perms = list(itertools.permutations(range(ell)))
            # Every permutation as one window of a strided series: window i
            # of stride ell is perms[i] when the permutations are interleaved.
            values = np.asarray(perms, dtype=float).T.ravel()
            codes = encode_patterns(values, ell=ell, tau=len(perms))
            assert codes.tolist() == [lex_index_by_enumeration(p) for p in perms]
            assert sorted(codes.tolist()) == list(range(math.factorial(ell)))


class TestEncodePatterns:
    def test_strided_example(self):
        # Windows at stride 2: (1, 6, 5) and (4, 2, 3).
        series = np.array([1.0, 4.0, 6.0, 2.0, 5.0, 3.0])
        codes = encode_patterns(series, ell=3, tau=2)
        assert codes.shape == (2,)
        assert codes[0] == lex_index_by_enumeration((0, 2, 1))
        assert codes[1] == lex_index_by_enumeration((2, 0, 1))

    def test_matches_per_window_calls(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(10, 60))
            values = rng.integers(0, 5, size=n).astype(float)
            ell = int(rng.integers(2, 5))
            tau = int(rng.integers(1, 4))
            if n <= (ell - 1) * tau:
                continue
            assert encode_patterns(values, ell, tau).tolist() == oracle_codes(values, ell, tau)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), ell=st.integers(2, 6), tau=st.integers(1, 4))
    def test_property_matches_oracle_on_tied_values(self, data, ell, tau):
        # Drawn at least one pattern long, so no input is filtered out.
        ties = st.sampled_from([0.0, 1.0, 2.0, 3.0])
        values = np.asarray(data.draw(st.lists(ties, min_size=(ell - 1) * tau + 1, max_size=60)))
        assert encode_patterns(values, ell, tau).tolist() == oracle_codes(values, ell, tau)

    def test_ell_capped_like_the_configs(self):
        # 21! - 1 does not fit an int64 code; the cap of PEConfig
        # applies here too, so no code silently wraps.
        for ell in (10, 21):
            with pytest.raises(InvalidInputError, match="ell must be <= 9"):
                encode_patterns(np.arange(21.0)[::-1], ell, 1)
        assert encode_patterns(np.arange(9.0)[::-1], 9, 1).tolist() == [math.factorial(9) - 1]

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            encode_patterns(np.arange(4.0), ell=3, tau=2)

    def test_non_finite_names_position(self):
        values = np.array([0.0, 1.0, 2.0, np.inf, 4.0])
        with pytest.raises(InvalidInputError, match="position 3"):
            encode_patterns(values, ell=2, tau=1)

    @pytest.mark.parametrize(
        "ell, tau, name",
        [(2.5, 1, "ell"), (3.0, 1, "ell"), ("3", 1, "ell"), (2, 1.5, "tau"), (2, "1", "tau")],
    )
    def test_non_integer_ell_or_tau_is_invalid(self, ell, tau, name):
        value, minimum = (ell, 2) if name == "ell" else (tau, 1)
        message = f"{name} must be an integer >= {minimum}, got {value}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            encode_patterns(np.arange(10.0), ell, tau)


class TestPatternDistribution:
    def test_alternating_example(self):
        series = TimeSeries(np.array([2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]))
        counts = pattern_distribution(series, 2, 1)
        assert counts.dtype == np.int64
        assert counts.sum() == 6
        np.testing.assert_array_equal(counts, [3, 3])

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
            counts = pattern_distribution(series, ell, tau)
            tally, n_windows = pattern_tally(values, ell, tau)
            assert counts.sum() == n_windows
            expected = np.zeros(math.factorial(ell), dtype=np.int64)
            for ranks, count in tally.items():
                expected[lex_index_by_enumeration(ranks)] = count
            np.testing.assert_array_equal(counts, expected)

    def test_probs_sum_to_one_and_count_matches_range(self):
        rng = np.random.default_rng(3)
        series = TimeSeries(rng.standard_normal(200))
        for _ in range(50):
            ell = int(rng.integers(2, 5))
            tau = int(rng.integers(1, 5))
            span = (ell - 1) * tau
            start = int(rng.integers(0, 100))
            end = int(rng.integers(start + span + 1, 201))
            counts = pattern_distribution(
                series, ell, tau, start=start, end=end
            )
            assert counts.sum() == (end - start) - span
            assert (counts / counts.sum()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_ranges_merge_to_full_tally(self):
        # Counts over window-start partitions add up to the full tally.
        rng = np.random.default_rng(5)
        values = rng.standard_normal(300)
        series = TimeSeries(values)
        ell, tau = 3, 2
        span = (ell - 1) * tau
        split = 140
        full = pattern_distribution(series, ell, tau)
        left = pattern_distribution(series, ell, tau, start=0, end=split)
        right = pattern_distribution(series, ell, tau, start=split - span, end=300)
        np.testing.assert_array_equal(left + right, full)

    def test_bad_range_raises(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(InvalidInputError):
            pattern_distribution(series, 2, 1, start=5, end=3)

    def test_short_range_raises(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(InsufficientDataError):
            pattern_distribution(series, 4, 3, start=0, end=9)

    def test_validation(self):
        series = TimeSeries(np.arange(10.0))
        with pytest.raises(InvalidInputError):
            pattern_distribution(series, 1, 1)
        with pytest.raises(InvalidInputError):
            pattern_distribution(series, 3, 0)
        for ell, tau, message in (
            (2.5, 1, "ell must be an integer >= 2, got 2.5"),
            (2, 1.0, "tau must be an integer >= 1, got 1.0"),
            (2, None, "tau must be an integer >= 1, got None"),
        ):
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                pattern_distribution(series, ell, tau)
        # Only a non-finite value's position is relative to the range start.
        with pytest.raises(InvalidInputError, match="^ell must be <= 9 "):
            pattern_distribution(series, 10, 1, start=2)
        gappy = TimeSeries(np.array([0.0, 1.0, 2.0, np.nan, 4.0]))
        message = "within range starting at 2: non-finite value at position 1: nan"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            pattern_distribution(gappy, 2, 1, start=2)

    def test_ell_is_capped_at_nine(self):
        # One row of 9! = 362,880 counts is 2.9 MB; 10! would be 29 MB.
        series = TimeSeries(np.arange(21.0))
        assert pattern_distribution(series, 9, 1).shape == (math.factorial(9),)
        for ell in (10, 13, 21, 10**6):
            with pytest.raises(InvalidInputError, match="ell must be <= 9"):
                pattern_distribution(series, ell, 1)
