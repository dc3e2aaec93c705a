"""Stride-ordering reversal scores and their sliding means."""

import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pemix import (
    InsufficientDataError,
    InvalidInputError,
    PETraceSet,
    ReversalSeries,
    lambda_for_range,
    reversal_series,
    windowed_rbar,
)
from pemix import reversal as reversal_module

from oracles import (
    exact_mean,
    exact_scores,
    exact_sliding_means,
    footrule,
    max_footrule,
    reversal_score,
)


def make_traces(pe_matrix, tau_min=1, anchors=None):
    """Trace set from a (n_strides, n_anchors) array of entropy values."""
    pe_matrix = np.asarray(pe_matrix, dtype=float)
    if anchors is None:
        anchors = np.arange(pe_matrix.shape[1])
    return PETraceSet(tau_min=tau_min, anchors=anchors, traces=pe_matrix)


class TestTraceSetConstruction:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entropy_names_anchor_and_stride(self, bad):
        pe = [[0.1, 0.2, 0.3], [0.4, bad, 0.6]]
        with pytest.raises(InvalidInputError, match=rf"entropy {bad} at anchor 11, column pe_tau3$"):
            make_traces(pe, tau_min=2, anchors=[10, 11, 12])

    def test_nan_trace_never_reaches_the_score(self):
        # argsort puts NaN last, which would score these strides as fully reversed.
        with pytest.raises(InvalidInputError, match="non-finite entropy nan at anchor 0, column pe_tau1"):
            reversal_series(make_traces([[np.nan], [0.5], [0.6]]))

    @pytest.mark.parametrize(
        "anchors, message",
        [([3, 4, 4], "anchor 4 follows anchor 4"), ([3, 5, 4], "anchor 4 follows anchor 5")],
        ids=["repeat", "fall"],
    )
    def test_anchors_must_strictly_increase(self, anchors, message):
        with pytest.raises(InvalidInputError, match=f"must strictly increase, but {message}$"):
            make_traces(np.full((2, 3), 0.5), anchors=anchors)

    def test_zero_strides_raise(self):
        with pytest.raises(InvalidInputError, match="at least one stride"):
            make_traces(np.empty((0, 3)))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: make_traces(np.full((2, 3), 0.5), anchors=[0.5, 1.5, 2.5]),
             "anchors must be integers, got dtype float64"),
            (lambda: make_traces(np.full((2, 3), 0.5), tau_min=2.7),
             "tau_min must be an integer >= 1, got 2.7"),
            (lambda: ReversalSeries([0.5, 1.5, 2.5], np.zeros(3, np.uint8), 2),
             "anchors must be integers, got dtype float64"),
        ],
        ids=["trace-anchors", "tau_min", "score-anchors"],
    )
    def test_non_integer_fields_raise_instead_of_truncating(self, build, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("tau_min", [0, -1])
    def test_strides_below_one_raise(self, tau_min):
        with pytest.raises(InvalidInputError, match=rf"strides must be >= 1, got column pe_tau{tau_min}$"):
            make_traces(np.full((2, 3), 0.5), tau_min=tau_min)


class TestLambda:
    def test_pinned_values(self):
        assert lambda_for_range(1, 2) == 2.0
        assert lambda_for_range(1, 3) == 4.0
        assert lambda_for_range(1, 6) == 18.0

    def test_matches_enumeration_up_to_eight(self):
        for tau_min in (1, 3):
            for m in range(2, 9):
                tau_max = tau_min + m - 1
                assert lambda_for_range(tau_min, tau_max) == max_footrule(tau_min, tau_max)

    def test_degenerate_range_raises(self):
        with pytest.raises(InvalidInputError):
            lambda_for_range(4, 4)


def score_of(pe_by_tau):
    """Score of a single anchor through ``reversal_series``."""
    taus = sorted(pe_by_tau)
    pe = [[pe_by_tau[t]] for t in taus]
    rev = reversal_series(make_traces(pe, tau_min=taus[0]))
    assert len(rev) == 1
    return float(rev.r_values[0])


def score_of_order(order):
    """Score of an anchor whose entropy sorts the strides into ``order``."""
    return score_of({tau: float(pos) for pos, tau in enumerate(order)})


class TestFocalTauVector:
    def test_sorts_by_entropy(self):
        # Sorted by entropy the strides read (2, 3, 1, 4): displacement 4 of 8.
        assert score_of({1: 0.9, 2: 0.3, 3: 0.6, 4: 0.95}) == 0.5

    def test_ties_keep_ascending_stride(self):
        # Strides 1 and 2 tie; kept ascending the ordering is monotone.
        assert score_of({1: 0.5, 2: 0.5, 3: 0.6}) == 0.0
        assert score_of({1: 0.5, 2: 0.5, 3: 0.4}) == 1.0
        # Three levels over six strides: almost every anchor has ties.
        pe = np.random.default_rng(3).integers(0, 3, size=(6, 500)) / 2.0
        rev = reversal_series(make_traces(pe))
        for i in range(pe.shape[1]):
            assert rev.r_values[i] == reversal_score({1 + k: pe[k, i] for k in range(6)})

    def test_all_equal_gives_monotone_order(self):
        assert score_of({2: 0.1, 3: 0.1, 4: 0.1}) == 0.0


class TestReversalMetric:
    def test_monotone_scores_zero(self):
        assert score_of_order((1, 2, 3, 4, 5, 6)) == 0.0

    def test_full_reversal_scores_one(self):
        assert score_of_order((6, 5, 4, 3, 2, 1)) == 1.0

    def test_pinned_swap_example(self):
        assert score_of_order((2, 1, 3, 4, 5, 6)) == 2.0 / 18.0

    def test_matches_enumeration_and_stays_in_unit_interval(self):
        for tau_min, m in ((1, 4), (2, 5)):
            tau_max = tau_min + m - 1
            taus = tuple(range(tau_min, tau_max + 1))
            lam = max_footrule(tau_min, tau_max)
            for perm in itertools.permutations(taus):
                got = score_of_order(perm)
                assert got == footrule(perm, taus) / lam
                assert 0.0 <= got <= 1.0


class TestReversalSeries:
    def test_known_orderings(self):
        # Anchor 0: monotone. Anchor 1: fully reversed. Anchor 2: one swap.
        pe = np.array(
            [
                [0.1, 0.6, 0.2],
                [0.2, 0.5, 0.1],
                [0.3, 0.4, 0.3],
            ]
        )
        rev = reversal_series(make_traces(pe))
        np.testing.assert_array_equal(rev.r_values, [0.0, 1.0, 2.0 / 4.0])
        assert rev.r_bar == pytest.approx((0.0 + 1.0 + 0.5) / 3.0)

    def test_monotone_everywhere_is_exactly_zero(self):
        pe = np.linspace(0.1, 0.6, 6)[:, None] * np.ones((6, 40))
        rev = reversal_series(make_traces(pe))
        assert rev.r_bar == 0.0
        assert (rev.r_values == 0.0).all()

    def test_reversed_everywhere_is_exactly_one(self):
        pe = np.linspace(0.6, 0.1, 6)[:, None] * np.ones((6, 40))
        rev = reversal_series(make_traces(pe))
        assert rev.r_bar == 1.0

    def test_ties_do_not_create_spurious_reversals(self):
        pe = np.full((4, 10), 0.5)
        rev = reversal_series(make_traces(pe))
        assert (rev.r_values == 0.0).all()

    def test_matches_focal_vector_path(self):
        rng = np.random.default_rng(97)
        pe = rng.random((5, 30)).round(2)  # rounding forces some ties
        rev = reversal_series(make_traces(pe, tau_min=2))
        for i in range(30):
            per_anchor = {2 + k: float(pe[k, i]) for k in range(5)}
            assert rev.r_values[i] == reversal_score(per_anchor)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_sort_blocks_match_focal_vector_path(self, block):
        rng = np.random.default_rng(97)
        pe = rng.random((5, 30)).round(2)
        with mock.patch.object(reversal_module, "_BLOCK_ANCHORS", block):
            rev = reversal_series(make_traces(pe, tau_min=2))
        for i in range(30):
            per_anchor = {2 + k: float(pe[k, i]) for k in range(5)}
            assert rev.r_values[i] == reversal_score(per_anchor)

    def test_peak_memory_is_a_small_multiple_of_the_traces(self):
        n_strides, n_anchors = 6, 100_000
        traces = make_traces(np.random.default_rng(5).random((n_strides, n_anchors)))
        tracemalloc.start()
        rev = reversal_series(traces)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(rev) == n_anchors
        # Two per-anchor arrays (scores, anchors) and one block's sort order;
        # a sort order of the whole matrix alone would take 1.0 times it.
        table_bytes = n_strides * n_anchors * 8
        assert peak < 0.75 * table_bytes, f"peak {peak} bytes for a {table_bytes}-byte table"

    def test_displacements_are_small_integers(self):
        pe = np.random.default_rng(11).random((6, 50))
        rev = reversal_series(make_traces(pe))
        assert rev.displacements.dtype == np.uint8
        assert rev.scale == 18
        np.testing.assert_array_equal(rev.r_values, rev.displacements / 18.0)

    @settings(max_examples=150, deadline=None)
    @given(
        levels=st.lists(st.integers(0, 3), min_size=2, max_size=6 * 200),
        n_strides=st.integers(2, 6),
        tau_min=st.integers(1, 3),
        block=st.integers(1, 64),
    )
    def test_r_bar_is_the_exact_mean(self, levels, n_strides, tau_min, block):
        n = len(levels) // n_strides
        if n == 0:
            return
        pe = np.asarray(levels[: n * n_strides], dtype=float).reshape(n_strides, n)
        with mock.patch.object(reversal_module, "_BLOCK_ANCHORS", block):
            rev = reversal_series(make_traces(pe, tau_min=tau_min))
        fractions = exact_scores(pe, tau_min)
        want = exact_mean(fractions)
        assert np.float64(rev.r_bar).view(np.int64) == np.float64(want).view(np.int64)
        np.testing.assert_array_equal(rev.r_values, [float(f) for f in fractions])

    def test_equal_scores_have_that_score_as_their_mean(self):
        # Every anchor ranks the strides (6, 5, 3, 4, 2, 1): displacement 16
        # of 18.  A pairwise float sum of 16/18 over these anchors reads
        # 0.8888888888888891; the mean is 16/18 itself.
        n = 145_001
        # Stride t's entropy is its position in that order.
        pe = np.array([5, 4, 2, 3, 1, 0], dtype=float)[:, None] / 10.0 * np.ones(n)
        rev = reversal_series(make_traces(pe))
        assert (rev.displacements == 16).all()
        assert rev.r_bar == 16 / 18
        assert float(np.mean(rev.r_values)) != 16 / 18  # the old, pairwise mean

    def test_empty_series_has_no_mean(self):
        rev = ReversalSeries(np.zeros(0, np.int64), np.zeros(0, np.uint8), 18)
        assert len(rev) == 0 and np.isnan(rev.r_bar)

    @pytest.mark.parametrize(
        "displacements, scale, message",
        [([0.5, 1.0], 2, "must be integers"), ([0, 1], 0, "scale must be an integer >= 1"),
         ([0, 1], 2.0, "scale must be an integer >= 1"), ([0, 1, 2], 2, "matching 1-D")],
    )
    def test_construction_checks(self, displacements, scale, message):
        with pytest.raises(InvalidInputError, match=message):
            ReversalSeries(np.arange(2), np.asarray(displacements), scale)

    def test_single_stride_raises(self):
        pe = np.array([[0.1, 0.2]])
        with pytest.raises(InvalidInputError):
            reversal_series(make_traces(pe))
        with pytest.raises(InsufficientDataError, match="^trace set has no anchors$"):
            reversal_series(make_traces(np.empty((3, 0))))

    def test_misaligned_anchors_rejected_at_construction(self):
        # Three entropy columns for two anchors.
        with pytest.raises(InvalidInputError, match=r"shape \(2, 3\) do not match 2 anchors"):
            PETraceSet(tau_min=1, anchors=np.array([3, 4]), traces=np.full((2, 3), 0.1))


class TestWindowedRbar:
    @pytest.mark.parametrize(
        "window, hop, name", [(2.5, 1, "window"), (0, 1, "window"), (2, 1.5, "hop"), (2, 0, "hop")]
    )
    def test_window_and_hop_must_be_integers_of_at_least_one(self, window, hop, name):
        rev = ReversalSeries(np.arange(4), np.zeros(4, dtype=np.int64), 3)
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer >= 1, got"):
            windowed_rbar(rev, window=window, hop=hop)

    def test_pinned_example(self):
        rev = reversal_series(
            make_traces(np.array([[0.1, 0.1, 0.6, 0.6], [0.2, 0.2, 0.5, 0.5]]))
        )
        np.testing.assert_array_equal(rev.r_values, [0, 0, 1, 1])
        smoothed = windowed_rbar(rev, window=2)
        np.testing.assert_array_equal(smoothed.r_values, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(smoothed.anchors, [1, 2, 3])

    def test_equals_naive_recomputation(self):
        # Scored through reversal_series, so the sliding means are of
        # displacements; each must be the exact window mean rounded once.
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(5, 300))
            n_strides = int(rng.integers(2, 7))
            pe = rng.integers(0, 4, size=(n_strides, n)) / 3.0  # ties everywhere
            rev = reversal_series(make_traces(pe))
            window = int(rng.integers(1, n + 1))
            hop = int(rng.integers(1, 4))
            smoothed = windowed_rbar(rev, window=window, hop=hop)
            fractions = exact_scores(pe)
            want = exact_sliding_means(fractions, window, hop)
            np.testing.assert_array_equal(smoothed.r_values.view(np.int64), want.view(np.int64))
            starts = range(0, n - window + 1, hop)
            means = [sum(fractions[i : i + window]) / window for i in starts]
            assert smoothed.r_bar == exact_mean(means)

    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.lists(st.integers(0, 3), min_size=2, max_size=6 * 120),
        n_strides=st.integers(2, 6),
        window=st.integers(1, 120),
        hop=st.integers(1, 5),
    )
    def test_property_equals_naive_recomputation(self, levels, n_strides, window, hop):
        n = len(levels) // n_strides
        if n == 0:
            return
        pe = np.asarray(levels[: n * n_strides], dtype=float).reshape(n_strides, n)
        window = min(window, n)
        rev = reversal_series(make_traces(pe))
        smoothed = windowed_rbar(rev, window=window, hop=hop)
        want = exact_sliding_means(exact_scores(pe), window, hop)
        np.testing.assert_array_equal(smoothed.r_values.view(np.int64), want.view(np.int64))
        anchors = np.arange(window - 1, n, hop)
        np.testing.assert_array_equal(smoothed.anchors, anchors)

    def test_nested_windows_stay_exact(self):
        # A windowed series is scored in the same exact terms, so it can be
        # smoothed again: windows of windows are exact means of exact means.
        pe = np.random.default_rng(7).integers(0, 3, size=(6, 200)) / 2.0
        inner = windowed_rbar(reversal_series(make_traces(pe)), window=9, hop=2)
        outer = windowed_rbar(inner, window=5)
        fractions = exact_scores(pe)
        inner_means = [sum(fractions[i : i + 9]) / 9 for i in range(0, 192, 2)]
        want = exact_sliding_means(inner_means, 5)
        np.testing.assert_array_equal(outer.r_values.view(np.int64), want.view(np.int64))

    def test_window_larger_than_series_raises(self):
        rev = ReversalSeries(anchors=np.arange(3), displacements=np.zeros(3, np.uint8), scale=2)
        with pytest.raises(InsufficientDataError):
            windowed_rbar(rev, window=5)

    def test_bad_window_raises(self):
        rev = ReversalSeries(anchors=np.arange(3), displacements=np.zeros(3, np.uint8), scale=2)
        with pytest.raises(InvalidInputError):
            windowed_rbar(rev, window=0)
