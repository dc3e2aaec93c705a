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

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .series import PETraceSet, _check_integers, _check_number

__all__ = [
    "ReversalSeries",
    "lambda_for_range",
    "reversal_series",
    "windowed_rbar",
]

# Anchors per sort block of ``reversal_series``: the block's int64 sort
# order is 768 KB at six strides, not a matrix-sized copy of the traces.
_BLOCK_ANCHORS = 1 << 14


def lambda_for_range(tau_min: int, tau_max: int) -> int:
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
    return (m * m) // 2


def _exact_mean(totals: np.ndarray, scale: int) -> float:
    """``sum(totals) / (len(totals) * scale)``, one correctly rounded division."""
    return int(totals.sum(dtype=np.int64)) / (totals.shape[0] * scale)


@dataclass(frozen=True)
class ReversalSeries:
    """Per-anchor reversal scores as exact fractions, plus their mean.

    Score ``i`` is ``displacements[i] / scale``.  From
    :func:`reversal_series` a displacement is the anchor's rank
    displacement and ``scale`` is :func:`lambda_for_range`; from
    :func:`windowed_rbar` it is the displacement summed over one window
    and ``scale`` carries the window length too.  ``r_values`` divides
    each, and ``r_bar`` is ``sum(displacements) / (len * scale)``, so
    both are the exact fractions rounded once: ``r_bar`` is exactly 0.0
    when every anchor keeps the monotone ordering and exactly 1.0 when
    every anchor fully reverses it, and it does not depend on the order
    of the anchors.
    """

    anchors: np.ndarray
    displacements: np.ndarray
    scale: int
    r_bar: float = field(init=False)

    def __post_init__(self) -> None:
        anchors = np.asarray(_check_integers("anchors", self.anchors), dtype=np.int64)
        displacements = _check_integers("displacements", self.displacements)
        if anchors.shape != displacements.shape or anchors.ndim != 1:
            raise InvalidInputError("anchors and displacements must be matching 1-D arrays")
        _check_number("scale", self.scale, 1, integer=True)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "displacements", displacements)
        object.__setattr__(self, "scale", int(self.scale))
        mean = _exact_mean(displacements, self.scale) if len(anchors) else float("nan")
        object.__setattr__(self, "r_bar", mean)

    def __len__(self) -> int:
        return int(self.anchors.shape[0])

    @property
    def r_values(self) -> np.ndarray:
        """Each score as a float: ``displacements / scale``, rounded once."""
        return self.displacements / np.float64(self.scale)


def reversal_series(traces: PETraceSet) -> ReversalSeries:
    """Reversal score at every anchor of an aligned trace set.

    The strides are sorted in blocks of ``_BLOCK_ANCHORS`` anchors, so
    besides the result only one block's sort order is held.  Displacements
    are kept in the smallest unsigned type that holds ``lambda``: one byte
    per anchor for up to 22 strides.

    Raises:
        InvalidInputError: If the set holds fewer than two strides.
        InsufficientDataError: If the traces have no anchors.
    """
    if traces.tau_max <= traces.tau_min:
        raise InvalidInputError("reversal needs traces for at least two strides")
    if len(traces) == 0:
        raise InsufficientDataError("trace set has no anchors")
    lam = lambda_for_range(traces.tau_min, traces.tau_max)
    positions = np.arange(traces.traces.shape[0])[:, None]
    displacements = np.empty(len(traces), dtype=np.min_scalar_type(lam))
    for a0 in range(0, len(traces), _BLOCK_ANCHORS):
        block = traces.traces[:, a0 : a0 + _BLOCK_ANCHORS]
        # Stable sort along the stride axis: ties keep ascending stride.
        order = np.argsort(block, axis=0, kind="stable")
        # The strides are contiguous, so the stride at sorted position i is
        # tau_min + order[i] and its displacement is |order[i] - i|, in place.
        order -= positions
        displacements[a0 : a0 + block.shape[1]] = np.abs(order, out=order).sum(axis=0)
    return ReversalSeries(traces.anchors.copy(), displacements, lam)


def _scored_blocks(
    blocks: Iterable[PETraceSet], displacements: np.ndarray
) -> Iterator[PETraceSet]:
    """Pass trace blocks through, writing their displacements into ``displacements``.

    The :func:`reversal_series` displacements of each block fill the next
    cells of ``displacements``, so once the blocks are drained it holds
    those of the joined blocks.
    """
    a0 = 0
    for block in blocks:
        displacements[a0 : a0 + len(block)] = reversal_series(block).displacements
        a0 += len(block)
        yield block
        del block  # released before the next block is computed


def _series_blocks(
    anchors: range, displacements: np.ndarray, scale: int
) -> Iterator[ReversalSeries]:
    """The scores of a run of grid anchors as series of ``_BLOCK_ANCHORS`` anchors.

    Each block's anchors are made as it is asked for, so no anchor array of
    the whole run is held.
    """
    for a0 in range(0, len(anchors), _BLOCK_ANCHORS):
        part = anchors[a0 : a0 + _BLOCK_ANCHORS]
        numbers = np.arange(part.start, part.stop, part.step, dtype=np.int64)
        yield ReversalSeries(numbers, displacements[a0 : a0 + len(part)], scale)


def windowed_rbar(rev: ReversalSeries, window: int, hop: int = 1) -> ReversalSeries:
    """Sliding mean of reversal scores.

    Each output value is the mean over ``window`` consecutive anchors,
    anchored at the last one, advancing by ``hop``.  Example: scores
    ``[0, 0, 1, 1]`` with window 2 give ``[0, 0.5, 1]``.  Each window's
    displacement total is the difference of two entries of one int64
    running sum, so the cost is O(anchors) whatever the window, and each
    mean is that total over ``window * scale``, rounded once.

    Raises:
        InvalidInputError: On a window or hop that is not an integer >= 1.
        InsufficientDataError: If fewer anchors than one window.
    """
    _check_number("window", window, 1, integer=True)
    _check_number("hop", hop, 1, integer=True)
    n = len(rev)
    if n < window:
        raise InsufficientDataError(
            f"need at least {window} scores for one window, got {n}"
        )
    running = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(rev.displacements, dtype=np.int64, out=running[1:])
    # The window ending at anchor e totals running[e + 1] - running[e + 1 - window].
    totals = running[window::hop] - running[: n - window + 1 : hop]
    anchors = rev.anchors[window - 1 :: hop]
    return ReversalSeries(anchors, totals, rev.scale * window)
