"""Stride-ordering reversal metric over aligned entropy traces.

At each anchor the strides are sorted by their entropy value (ties keep
the smaller stride first).  On a well-resolved signal entropy grows with
the stride, so this sorted vector is just ``tau_min..tau_max`` and the
metric is 0.  Local mixing inverts the ordering; full inversion scores 1.
The score is the rank displacement (L1 distance) between the observed
ordering and the monotone reference, divided by the largest displacement
any permutation can reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .entropy import PETraceSet
from .errors import InsufficientDataError, InvalidInputError

__all__ = [
    "MonotoneReference",
    "FocalTauVector",
    "ReversalSeries",
    "lambda_for_range",
    "focal_tau_vector",
    "reversal_metric",
    "reversal_series",
    "windowed_rbar",
]


def lambda_for_range(tau_min: int, tau_max: int) -> float:
    """Largest possible displacement for a stride range.

    For ``m = tau_max - tau_min + 1`` strides this is ``floor(m*m / 2)``,
    reached by the fully reversed ordering.  The closed form is checked
    against exhaustive enumeration in the test suite.

    Raises:
        InvalidInputError: If the range holds fewer than two strides.
    """
    if tau_max <= tau_min:
        raise InvalidInputError(
            f"need at least two strides, got range [{tau_min}, {tau_max}]"
        )
    m = tau_max - tau_min + 1
    return float((m * m) // 2)


@dataclass(frozen=True)
class MonotoneReference:
    """The no-mixing reference ordering ``tau_min..tau_max`` and its scale."""

    v_i: np.ndarray
    lam: float

    @classmethod
    def for_range(cls, tau_min: int, tau_max: int) -> "MonotoneReference":
        lam = lambda_for_range(tau_min, tau_max)
        v_i = np.arange(tau_min, tau_max + 1, dtype=np.int64)
        return cls(v_i=v_i, lam=lam)

    def __post_init__(self) -> None:
        object.__setattr__(self, "v_i", np.asarray(self.v_i, dtype=np.int64))


@dataclass(frozen=True)
class FocalTauVector:
    """Strides sorted by entropy at one anchor, smallest entropy first."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.order) < 2:
            raise InvalidInputError("a focal vector needs at least two strides")
        lo, hi = min(self.order), max(self.order)
        if sorted(self.order) != list(range(lo, hi + 1)):
            raise InvalidInputError(
                f"order must hold each stride of a contiguous range once, got {self.order}"
            )


def focal_tau_vector(pe_by_tau: Mapping[int, float]) -> FocalTauVector:
    """Sort strides by entropy value; equal values keep stride order.

    Example: ``{1: 0.5, 2: 0.5, 3: 0.4} -> (3, 1, 2)``.

    Raises:
        InvalidInputError: If the strides are not a contiguous range or
            any entropy value is missing or non-finite.
    """
    if len(pe_by_tau) < 2:
        raise InvalidInputError("need entropy values for at least two strides")
    taus = sorted(int(t) for t in pe_by_tau)
    if taus != list(range(taus[0], taus[-1] + 1)):
        raise InvalidInputError(
            f"strides must form a contiguous range, got {taus}"
        )
    for t in taus:
        v = float(pe_by_tau[t])
        if not np.isfinite(v):
            raise InvalidInputError(f"entropy for stride {t} is not finite: {v}")
    ordered = sorted(taus, key=lambda t: (float(pe_by_tau[t]), t))
    return FocalTauVector(order=tuple(ordered))


def reversal_metric(v: FocalTauVector, reference: MonotoneReference) -> float:
    """Normalized displacement of one observed ordering, in [0, 1].

    Example: order ``(2, 1, 3, 4, 5, 6)`` against the 1..6 reference
    scores ``2/18``.

    Raises:
        InvalidInputError: If the ordering and reference cover different
            stride ranges.
    """
    ref = reference.v_i
    if sorted(v.order) != list(ref):
        raise InvalidInputError(
            f"ordering over strides {sorted(v.order)} does not match "
            f"reference range {list(ref)}"
        )
    displacement = int(np.abs(np.asarray(v.order, dtype=np.int64) - ref).sum())
    return displacement / reference.lam


@dataclass(frozen=True)
class ReversalSeries:
    """Per-anchor reversal scores plus their mean.

    ``r_bar`` is the arithmetic mean of ``r_values``; it is exactly 0.0
    when every anchor keeps the monotone ordering and exactly 1.0 when
    every anchor fully reverses it.
    """

    anchors: np.ndarray
    r_values: np.ndarray
    r_bar: float

    def __post_init__(self) -> None:
        anchors = np.asarray(self.anchors, dtype=np.int64)
        values = np.asarray(self.r_values, dtype=np.float64)
        if anchors.shape != values.shape or anchors.ndim != 1:
            raise InvalidInputError("anchors and r_values must be matching 1-D arrays")
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "r_values", values)

    def __len__(self) -> int:
        return int(self.anchors.shape[0])

    def segment_rbar(self, first: int, last: int) -> float:
        """Mean score over anchor positions ``first..last`` inclusive."""
        n = len(self)
        if not (0 <= first <= last < n):
            raise InvalidInputError(
                f"segment [{first}, {last}] is not valid for {n} anchors"
            )
        return float(self.r_values[first : last + 1].mean())


def reversal_series(traces: PETraceSet) -> ReversalSeries:
    """Reversal score at every anchor of an aligned trace set.

    Raises:
        InvalidInputError: If the set holds fewer than two strides.
        InsufficientDataError: If the traces have no anchors.
    """
    if traces.tau_max <= traces.tau_min:
        raise InvalidInputError("reversal needs traces for at least two strides")
    if traces.anchors.shape[0] == 0:
        raise InsufficientDataError("trace set has no anchors")
    # Stable sort along the stride axis: ties keep ascending stride.
    order = np.argsort(traces.matrix(), axis=0, kind="stable")
    # The strides are contiguous, so the stride at sorted position i is
    # tau_min + order[i] and its displacement is |order[i] - i|, in place.
    order -= np.arange(order.shape[0])[:, None]
    displacement = np.abs(order, out=order).sum(axis=0)
    lam = lambda_for_range(traces.tau_min, traces.tau_max)
    r_values = displacement / lam
    return ReversalSeries(
        anchors=traces.anchors.copy(),
        r_values=r_values,
        r_bar=float(r_values.mean()),
    )


def windowed_rbar(rev: ReversalSeries, window: int, hop: int = 1) -> ReversalSeries:
    """Sliding mean of reversal scores.

    Each output value is the mean over ``window`` consecutive anchors,
    anchored at the last one, advancing by ``hop``.  Example: scores
    ``[0, 0, 1, 1]`` with window 2 give ``[0, 0.5, 1]``.

    Raises:
        InvalidInputError: On a non-positive window or hop.
        InsufficientDataError: If fewer anchors than one window.
    """
    if window < 1:
        raise InvalidInputError(f"window must be >= 1, got {window}")
    if hop < 1:
        raise InvalidInputError(f"hop must be >= 1, got {hop}")
    n = len(rev)
    if n < window:
        raise InsufficientDataError(
            f"need at least {window} scores for one window, got {n}"
        )
    views = np.lib.stride_tricks.sliding_window_view(rev.r_values, window)[::hop]
    means = views.mean(axis=-1)
    anchors = rev.anchors[window - 1 :: hop]
    return ReversalSeries(anchors=anchors, r_values=means, r_bar=float(means.mean()))
