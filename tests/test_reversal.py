"""Stride-ordering reversal scores and their sliding means."""

import itertools
import tracemalloc

import numpy as np
import pytest

from pemix import (
    FocalTauVector,
    InsufficientDataError,
    InvalidInputError,
    MonotoneReference,
    PETrace,
    PETraceSet,
    ReversalSeries,
    focal_tau_vector,
    lambda_for_range,
    reversal_metric,
    reversal_series,
    windowed_rbar,
)

from oracles import footrule, max_footrule, sliding_means


def make_traces(pe_matrix, tau_min=1, anchors=None):
    """Trace set from a (n_strides, n_anchors) array of entropy values."""
    pe_matrix = np.asarray(pe_matrix, dtype=float)
    if anchors is None:
        anchors = np.arange(pe_matrix.shape[1])
    return PETraceSet(
        traces=tuple(
            PETrace(tau=tau_min + k, anchors=anchors, values=pe_matrix[k])
            for k in range(pe_matrix.shape[0])
        )
    )


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


class TestFocalTauVector:
    def test_sorts_by_entropy(self):
        v = focal_tau_vector({1: 0.9, 2: 0.3, 3: 0.6})
        assert v.order == (2, 3, 1)

    def test_ties_keep_ascending_stride(self):
        v = focal_tau_vector({1: 0.5, 2: 0.5, 3: 0.4})
        assert v.order == (3, 1, 2)

    def test_all_equal_gives_monotone_order(self):
        v = focal_tau_vector({2: 0.1, 3: 0.1, 4: 0.1})
        assert v.order == (2, 3, 4)

    def test_missing_stride_raises(self):
        with pytest.raises(InvalidInputError):
            focal_tau_vector({1: 0.5, 3: 0.4})

    def test_non_finite_raises(self):
        with pytest.raises(InvalidInputError):
            focal_tau_vector({1: 0.5, 2: float("nan")})


class TestReversalMetric:
    def test_monotone_scores_zero(self):
        ref = MonotoneReference.for_range(1, 6)
        assert reversal_metric(FocalTauVector(order=(1, 2, 3, 4, 5, 6)), ref) == 0.0

    def test_full_reversal_scores_one(self):
        ref = MonotoneReference.for_range(1, 6)
        assert reversal_metric(FocalTauVector(order=(6, 5, 4, 3, 2, 1)), ref) == 1.0

    def test_pinned_swap_example(self):
        ref = MonotoneReference.for_range(1, 6)
        got = reversal_metric(FocalTauVector(order=(2, 1, 3, 4, 5, 6)), ref)
        assert got == 2.0 / 18.0

    def test_matches_enumeration_and_stays_in_unit_interval(self):
        for tau_min, m in ((1, 4), (2, 5)):
            tau_max = tau_min + m - 1
            ref = MonotoneReference.for_range(tau_min, tau_max)
            lam = max_footrule(tau_min, tau_max)
            for perm in itertools.permutations(range(tau_min, tau_max + 1)):
                got = reversal_metric(FocalTauVector(order=perm), ref)
                assert got == footrule(perm, ref.v_i) / lam
                assert 0.0 <= got <= 1.0

    def test_range_mismatch_raises(self):
        ref = MonotoneReference.for_range(1, 3)
        with pytest.raises(InvalidInputError):
            reversal_metric(FocalTauVector(order=(2, 3, 4)), ref)


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
        traces = make_traces(pe, tau_min=2)
        rev = reversal_series(traces)
        ref = MonotoneReference.for_range(2, 6)
        for i in range(30):
            per_anchor = {2 + k: float(pe[k, i]) for k in range(5)}
            expected = reversal_metric(focal_tau_vector(per_anchor), ref)
            assert rev.r_values[i] == expected

    def test_peak_memory_is_a_small_multiple_of_the_traces(self):
        n_strides, n_anchors = 6, 100_000
        traces = make_traces(np.random.default_rng(5).random((n_strides, n_anchors)))
        tracemalloc.start()
        rev = reversal_series(traces)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(rev) == n_anchors
        # The stacked values and the sort order; the displacement is built
        # in the order's own memory.
        table_bytes = n_strides * n_anchors * 8
        assert peak < 2.5 * table_bytes, f"peak {peak} bytes for a {table_bytes}-byte table"

    def test_segment_rbar(self):
        pe = np.array([[0.1, 0.6, 0.1, 0.1], [0.2, 0.5, 0.2, 0.2]])
        rev = reversal_series(make_traces(pe))
        assert rev.segment_rbar(0, 3) == rev.r_bar
        assert rev.segment_rbar(1, 1) == 1.0
        assert rev.segment_rbar(2, 3) == 0.0
        with pytest.raises(InvalidInputError):
            rev.segment_rbar(2, 9)

    def test_single_stride_raises(self):
        pe = np.array([[0.1, 0.2]])
        with pytest.raises(InvalidInputError):
            reversal_series(make_traces(pe))

    def test_misaligned_anchors_rejected_at_construction(self):
        a = PETrace(tau=1, anchors=np.array([3, 4]), values=np.array([0.1, 0.2]))
        b = PETrace(tau=2, anchors=np.array([3, 5]), values=np.array([0.1, 0.2]))
        with pytest.raises(InvalidInputError):
            PETraceSet(traces=(a, b))


class TestWindowedRbar:
    def test_pinned_example(self):
        rev = reversal_series(
            make_traces(np.array([[0.1, 0.1, 0.6, 0.6], [0.2, 0.2, 0.5, 0.5]]))
        )
        np.testing.assert_array_equal(rev.r_values, [0, 0, 1, 1])
        smoothed = windowed_rbar(rev, window=2)
        np.testing.assert_array_equal(smoothed.r_values, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(smoothed.anchors, [1, 2, 3])

    def test_equals_naive_recomputation(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(5, 1000))
            scores = rng.random(n)
            series = ReversalSeries(
                anchors=np.arange(n), r_values=scores, r_bar=float(scores.mean())
            )
            window = int(rng.integers(1, n + 1))
            hop = int(rng.integers(1, 4))
            smoothed = windowed_rbar(series, window=window, hop=hop)
            np.testing.assert_array_equal(
                smoothed.r_values, sliding_means(scores, window, hop)
            )

    def test_window_larger_than_series_raises(self):
        rev = ReversalSeries(anchors=np.arange(3), r_values=np.zeros(3), r_bar=0.0)
        with pytest.raises(InsufficientDataError):
            windowed_rbar(rev, window=5)

    def test_bad_window_raises(self):
        rev = ReversalSeries(anchors=np.arange(3), r_values=np.zeros(3), r_bar=0.0)
        with pytest.raises(InvalidInputError):
            windowed_rbar(rev, window=0)
