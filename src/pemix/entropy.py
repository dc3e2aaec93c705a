"""Normalized permutation entropy, globally and over sliding windows.

Entropy is Shannon entropy of the ordinal pattern distribution divided
by ``log(ell!)``, so values live in [0, 1]: 0 for a single repeated
pattern (e.g. a monotone stretch), 1 for the uniform distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .ordinal import _check_ell, encode_patterns, pattern_distribution
from .series import TimeSeries, _check_finite, _check_number

__all__ = [
    "PEConfig",
    "PETraceSet",
    "permutation_entropy",
    "global_pe",
    "windowed_pe",
    "multi_tau_pe",
    "trace_blocks",
]

# Counts (changed windows x ell!) and codes gathered (changed windows x hop)
# per chunk of the sliding kernel: 256 KB of int64, so a chunk's counts and
# their table gather stay in cache.  On 300k Mackey-Glass points, blocks of
# 2**15 to 2**17 cells ran within 10 % of each other at ell 4 and 6; 2**21
# took 1.8 times as long.  At ell 8 and 9, ell! exceeds it and a chunk
# holds one window.
_BLOCK_CELLS = 1 << 15

# Grid anchors per block of :func:`trace_blocks`.  A block's traces and the
# kernel's working arrays take well under a MB per stride, whatever the
# length of the series.  A multiple of the rows of a table writer's piece
# (``series._piece_rows``, a power of two up to 2**13), so a streamed table
# is cut into whole pieces.
_BLOCK_ANCHORS = 1 << 14


@dataclass(frozen=True)
class PEConfig:
    """Shape of a windowed, multi-stride entropy computation.

    Attributes:
        ell: Points per ordinal pattern, 2..9 (see :func:`encode_patterns`).
        window: Observations per sliding window; must fit at least one
            pattern at the largest stride: ``window >= (ell-1)*tau_max + 1``.
        tau_min: Smallest stride, >= 1.
        tau_max: Largest stride, >= tau_min.
        hop: Anchor step between consecutive windows, >= 1.
    """

    ell: int = 4
    window: int = 5000
    tau_min: int = 1
    tau_max: int = 6
    hop: int = 1

    def __post_init__(self) -> None:
        for name in ("ell", "window", "tau_min", "tau_max", "hop"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        _check_ell(self.ell)
        _check_number("tau_min", self.tau_min, 1)
        if self.tau_max < self.tau_min:
            raise InvalidInputError(
                f"tau_max must be >= tau_min, got {self.tau_max} < {self.tau_min}"
            )
        _check_number("hop", self.hop, 1)
        needed = (self.ell - 1) * self.tau_max + 1
        if self.window < needed:
            raise InvalidInputError(
                f"window={self.window} cannot fit one pattern at tau={self.tau_max} "
                f"(needs >= {needed})"
            )

    @property
    def taus(self) -> tuple[int, ...]:
        return tuple(range(self.tau_min, self.tau_max + 1))

    def anchor_grid(self, n: int) -> range:
        """Anchors of the windows over ``n`` points: each window's last point."""
        return range(self.window - 1, n, self.hop)

    def covered_points(self, anchors: range) -> slice:
        """The points that the windows of a run of grid anchors cover."""
        return slice(anchors[0] - self.window + 1, anchors[-1] + 1)


@dataclass(frozen=True)
class PETraceSet:
    """Windowed entropy at every stride of a contiguous range, as one matrix.

    ``traces[k, i]`` is the normalized entropy at stride ``tau_min + k`` of
    the window whose last observation is ``anchors[i]``.  ``traces`` is a
    C-contiguous float64 array of shape ``(strides, anchors)``.

    Raises:
        InvalidInputError: If a stride is below 1, the shapes do not match
            or hold no stride, an entropy is not finite, or the anchors do
            not strictly increase.
    """

    tau_min: int
    anchors: np.ndarray
    traces: np.ndarray

    def __post_init__(self) -> None:
        if self.tau_min < 1:
            raise InvalidInputError(f"strides must be >= 1, got column pe_tau{self.tau_min}")
        # Checked before the contiguous copy, so no check temporary coexists with it.
        anchors = np.asarray(self.anchors, dtype=np.int64)
        traces = np.asarray(self.traces, dtype=np.float64)
        if anchors.ndim != 1 or traces.ndim != 2 or traces.shape[1:] != anchors.shape:
            raise InvalidInputError(
                f"traces of shape {traces.shape} do not match {anchors.shape[0]} anchors"
            )
        if traces.shape[0] < 1:
            raise InvalidInputError("a trace set needs at least one stride")
        if not np.isfinite(traces).all():
            # The first bad cell in anchor order, as a trace file lists them.
            i, k = np.argwhere(~np.isfinite(traces.T))[0]
            raise InvalidInputError(
                f"non-finite entropy {traces[k, i]} at anchor {anchors[i]}, "
                f"column pe_tau{self.tau_min + k}"
            )
        backward = np.flatnonzero(np.diff(anchors) <= 0)
        if backward.size:
            i = backward[0]
            raise InvalidInputError(
                f"trace anchors must strictly increase, but anchor {anchors[i + 1]} "
                f"follows anchor {anchors[i]}"
            )
        object.__setattr__(self, "tau_min", int(self.tau_min))
        object.__setattr__(self, "anchors", np.ascontiguousarray(anchors))
        object.__setattr__(self, "traces", np.ascontiguousarray(traces))

    def __len__(self) -> int:
        return int(self.anchors.shape[0])

    @property
    def tau_max(self) -> int:
        return self.tau_min + self.traces.shape[0] - 1

    @property
    def taus(self) -> np.ndarray:
        return np.arange(self.tau_min, self.tau_max + 1, dtype=np.int64)


def _plogp(probs: np.ndarray) -> np.ndarray:
    """Elementwise ``p * log(p)``, with ``0 * log(0)`` taken as 0."""
    return probs * np.log(np.where(probs > 0.0, probs, 1.0))


def _normalized_entropy(plogp: np.ndarray, ell: int) -> np.ndarray:
    """Shared kernel: entropy of ``p * log(p)`` rows, normalized to [0, 1].

    The single-distribution path passes :func:`_plogp` of its
    probabilities; the sliding-window path gathers rows from a
    :func:`_plogp` table of every possible count.  Equal counts give
    equal rows and both reduce here, so the two agree bit for bit.
    """
    h = -(plogp.sum(axis=-1)) / math.log(math.factorial(ell))
    # A perfectly uniform tally can land one rounding step above 1.0.
    return np.minimum(h + 0.0, 1.0)


def permutation_entropy(counts: np.ndarray, ell: int) -> float:
    """Normalized permutation entropy of one row of ``ell!`` pattern counts,
    as :func:`~pemix.ordinal.pattern_distribution` returns.

    Raises:
        InvalidInputError: If ``counts`` length is not ``ell!``.
        InsufficientDataError: If the counts total zero.
    """
    nfact = math.factorial(ell)
    if counts.shape[0] != nfact:
        raise InvalidInputError(
            f"distribution has {counts.shape[0]} cells, expected {nfact} for ell={ell}"
        )
    total = counts.sum()
    if total < 1:
        raise InsufficientDataError("cannot compute entropy of an empty distribution")
    return float(_normalized_entropy(_plogp(counts / total), ell))


def global_pe(series: TimeSeries, ell: int, tau: int) -> float:
    """Entropy of the pattern distribution over the whole series."""
    return permutation_entropy(pattern_distribution(series, ell, tau), ell)


def windowed_pe(series: TimeSeries, config: PEConfig, tau: int) -> np.ndarray:
    """Sliding-window entropy trace at one stride.

    Windows hold ``config.window`` consecutive observations and advance
    by ``config.hop``; value ``i`` belongs to the window whose last
    observation is ``config.anchor_grid(len(series))[i]``, so traces
    computed at different strides align anchor for anchor.

    Raises:
        InvalidInputError: If ``tau`` is not an integer >= 1 (see
            :func:`encode_patterns`) or does not fit the window, or the
            series has non-finite values.
        InsufficientDataError: If the series is shorter than one window.
    """
    span = (config.ell - 1) * tau
    if config.window < span + 1:
        raise InvalidInputError(
            f"window={config.window} cannot fit one pattern at tau={tau}"
        )
    n = len(series)
    if n < config.window:
        raise InsufficientDataError(
            f"series of length {n} is shorter than one window of {config.window}"
        )
    codes = encode_patterns(series.values, config.ell, tau)
    return _sliding_entropy(codes, config.anchor_grid(n), config.window, config.ell, span)


def _sliding_entropy(
    codes: np.ndarray,
    anchors: range,
    window: int,
    ell: int,
    span: int,
) -> np.ndarray:
    """Entropy per anchored window from running pattern counts.

    Consecutive windows differ by the ``hop`` pattern codes that enter at
    the right and the ``hop`` that leave at the left.  A window whose
    entering codes all equal their paired leaving codes keeps the previous
    window's counts (its +1 and -1 events cancel pair by pair), and so its
    value; on oversampled series most windows are such.  Only the first
    window and the "changed" ones get a count row.

    Changed windows go in chunks of at most ``_BLOCK_CELLS`` counts and as
    many codes, so a chunk stays in cache.  Per chunk one ``bincount``
    tallies the entering codes per changed window and one the leaving
    codes, the previous chunk's last count row is added to the first row,
    and a ``cumsum`` down the rows turns differences into counts.  Each
    count indexes a table of ``p * log(p)`` over ``0..per_window``, so no
    ``log`` is taken per cell.  Working memory is a chunk, a few arrays of
    one value per anchor and the table, whatever the window.
    """
    nfact = math.factorial(ell)
    per_window = window - span
    hop = anchors.step
    table = _plogp(np.arange(per_window + 1) / per_window)
    head = anchors[0] - span + 1  # one past the first window's last pattern
    tail = head - per_window  # the first window's first pattern
    # Window r >= 1 gains the codes enter[r - 1] and loses leave[r - 1].
    enter = codes[head : head + (len(anchors) - 1) * hop].reshape(-1, hop)
    leave = codes[tail : tail + enter.size].reshape(-1, hop)
    changed = np.flatnonzero((enter != leave).any(axis=1))
    # last[r] numbers the count row that window r shares: 0 is the first window.
    last = np.zeros(len(anchors), dtype=np.int64)
    last[changed + 1] = 1
    np.cumsum(last, out=last)
    carry = np.bincount(codes[tail:head], minlength=nfact)
    vals = np.empty(changed.shape[0] + 1, dtype=np.float64)
    vals[0] = _normalized_entropy(table[carry], ell)
    step = max(_BLOCK_CELLS // max(nfact, hop), 1)
    for c0 in range(0, changed.shape[0], step):
        rows = changed[c0 : c0 + step]
        cells = rows.shape[0] * nfact
        offsets = np.arange(0, cells, nfact)[:, None]
        counts = np.bincount((offsets + enter[rows]).ravel(), minlength=cells)
        counts -= np.bincount((offsets + leave[rows]).ravel(), minlength=cells)
        counts = counts.reshape(-1, nfact)
        counts[0] += carry
        np.cumsum(counts, axis=0, out=counts)
        vals[c0 + 1 : c0 + 1 + rows.shape[0]] = _normalized_entropy(table[counts], ell)
        carry = counts[-1].copy()
    return vals[last]


def multi_tau_pe(series: TimeSeries, config: PEConfig) -> PETraceSet:
    """Windowed entropy at every stride of the configured range.

    Row ``k`` of the matrix is the :func:`windowed_pe` trace at stride
    ``tau_min + k``; every row shares the same anchors, which is what makes
    the per-anchor stride ordering in the reversal stage well defined.
    """
    grid = config.anchor_grid(len(series))
    traces = np.empty((len(config.taus), len(grid)))
    for k, tau in enumerate(config.taus):
        traces[k] = windowed_pe(series, config, tau)
    anchors = np.arange(grid.start, grid.stop, grid.step, dtype=np.int64)
    return PETraceSet(tau_min=config.tau_min, anchors=anchors, traces=traces)


def trace_blocks(series: TimeSeries, config: PEConfig) -> Iterator[PETraceSet]:
    """The :func:`multi_tau_pe` traces of ``series``, one run of anchors at a time.

    Each block holds at most ``_BLOCK_ANCHORS`` consecutive grid anchors,
    numbered as positions in ``series``, and is computed by
    :func:`multi_tau_pe` from only the points its windows cover.  Joined
    along the anchors, the blocks equal ``multi_tau_pe(series, config)``
    bit for bit, but no more than one block's matrix is held at a time.

    The series is checked by this call, before any block is computed, so an
    error names a position in ``series`` and comes before any output.

    Raises:
        InvalidInputError: On a non-finite value.
        InsufficientDataError: If the series is shorter than one window.
    """
    values = series.values
    _check_finite(values)
    if len(series) < config.window:
        raise InsufficientDataError(
            f"series of length {len(series)} is shorter than one window of {config.window}"
        )

    def blocks() -> Iterator[PETraceSet]:
        grid = config.anchor_grid(values.shape[0])
        for a0 in range(0, len(grid), _BLOCK_ANCHORS):
            points = config.covered_points(grid[a0 : a0 + _BLOCK_ANCHORS])
            block = multi_tau_pe(TimeSeries(values[points]), config)
            block.anchors[:] += points.start  # a fresh array: renumbered in place
            yield block
            del block  # released before the next block is computed

    return blocks()
