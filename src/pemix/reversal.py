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
from typing import Iterable, Iterator

import numpy as np

from .entropy import PETraceSet
from .errors import InsufficientDataError, InvalidInputError

__all__ = [
    "ReversalSeries",
    "lambda_for_range",
    "reversal_series",
    "windowed_rbar",
]

# Anchors per sort block of ``reversal_series``: the block's int64 sort
# order is 768 KB at six strides, not a matrix-sized copy of the traces.
_BLOCK_ANCHORS = 1 << 14


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


def reversal_series(traces: PETraceSet) -> ReversalSeries:
    """Reversal score at every anchor of an aligned trace set.

    The strides are sorted in blocks of ``_BLOCK_ANCHORS`` anchors, so
    besides the scores only one block's sort order is held.

    Raises:
        InvalidInputError: If the set holds fewer than two strides.
        InsufficientDataError: If the traces have no anchors.
    """
    if traces.tau_max <= traces.tau_min:
        raise InvalidInputError("reversal needs traces for at least two strides")
    if len(traces) == 0:
        raise InsufficientDataError("trace set has no anchors")
    positions = np.arange(traces.traces.shape[0])[:, None]
    r_values = np.empty(len(traces), dtype=np.float64)
    for a0 in range(0, len(traces), _BLOCK_ANCHORS):
        block = traces.traces[:, a0 : a0 + _BLOCK_ANCHORS]
        # Stable sort along the stride axis: ties keep ascending stride.
        order = np.argsort(block, axis=0, kind="stable")
        # The strides are contiguous, so the stride at sorted position i is
        # tau_min + order[i] and its displacement is |order[i] - i|, in place.
        order -= positions
        r_values[a0 : a0 + block.shape[1]] = np.abs(order, out=order).sum(axis=0)
    r_values /= lambda_for_range(traces.tau_min, traces.tau_max)
    return ReversalSeries(
        anchors=traces.anchors.copy(),
        r_values=r_values,
        r_bar=float(r_values.mean()),
    )


def _scored_blocks(blocks: Iterable[PETraceSet], scores: np.ndarray) -> Iterator[PETraceSet]:
    """Pass trace blocks through, writing each one's scores into ``scores``.

    The :func:`reversal_series` scores of each block fill the next cells of
    ``scores``, so once the blocks are drained ``scores`` holds the scores
    of the joined blocks and its mean is their ``r_bar`` bit for bit.
    """
    a0 = 0
    for block in blocks:
        scores[a0 : a0 + len(block)] = reversal_series(block).r_values
        a0 += len(block)
        yield block
        del block  # released before the next block is computed


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
