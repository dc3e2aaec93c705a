"""Synthetic local mixing, bin averaging, and the bin-size sweep.

The mixing surrogate replaces each observation with a Gaussian draw
whose mean and deviation come from the observation's clipped
neighborhood, destroying sub-neighborhood ordering while keeping the
slow envelope.  Bin averaging is the corresponding remedy: averaging
``j`` consecutive points coarsens the sampling until neighboring points
decorrelate again.  The sweep runs the reversal diagnostic across bin
sizes and recommends the smallest size that restores the monotone
stride ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .entropy import PEConfig, trace_blocks
from .errors import InsufficientDataError, InvalidInputError
from .reversal import lambda_for_range, reversal_series
from .series import TimeSeries, _check_finite, _check_increasing, _check_integers, _check_number

__all__ = [
    "BinSweepResult",
    "mixing_ansatz",
    "bin_average",
    "bin_sweep",
    "ZERO_RBAR_TOL",
]

# A mean reversal score at or below this counts as "reached zero".
ZERO_RBAR_TOL = 1e-12

# Generator behind mixing draws; recorded in output metadata.
RNG_ALGORITHM = "pcg64"

# Windows per block of the mixing surrogate's mean and deviation, so the
# (rows, 2k + 1) temporaries of one block stay a few hundred KB.
_ANSATZ_BLOCK_ROWS = 1 << 12


def mixing_ansatz(series: TimeSeries, k: int, seed: int = 0) -> TimeSeries:
    """Replace each point with a draw from its neighborhood statistics.

    ``k`` is the neighborhood half-width.  Point ``n`` becomes
    ``Normal(mu_n, sigma_n**2)`` where ``mu_n`` and ``sigma_n`` are the
    sample mean and sample deviation (ddof=1) of the clipped window
    ``x[max(n-k, 0) .. min(n+k, N-1)]``.  A one-point window has
    ``sigma = 0``.  Draws come from ``numpy``'s PCG64 generator seeded
    with ``seed``, one per point in series order, so equal seeds give
    equal output.  At ``k = 0`` no draw is taken and the values come back
    as a copy, bit for bit.

    The draws are taken first and each is then scaled and shifted in
    place, the full windows in blocks of ``_ANSATZ_BLOCK_ROWS``, so besides
    the output only one block's statistics are held whatever ``k``; each
    point is ``mu_n + sigma_n * z_n`` of the whole-series computation bit
    for bit.

    Raises:
        InvalidInputError: If ``k`` or ``seed`` is not an integer >= 0, or
            on non-finite input values.
        InsufficientDataError: If the series has fewer than ``2k + 1``
            points, so not even the middle point has a full window.
    """
    _check_number("k", k, 0, integer=True)
    _check_number("seed", seed, 0, integer=True)
    x = series.values
    n = x.shape[0]
    k = int(k)
    if n <= 2 * k:
        raise InsufficientDataError(
            f"series of length {n} is too short for neighborhood half-width k={k} "
            f"(needs more than {2 * k} points)"
        )
    _check_finite(x)
    if k == 0:
        return replace(series, values=x.copy())
    draws = np.random.default_rng(int(seed)).standard_normal(n)
    # mu + sigma * draws, in place.
    windows = np.lib.stride_tricks.sliding_window_view(x, 2 * k + 1)
    for r0 in range(0, windows.shape[0], _ANSATZ_BLOCK_ROWS):
        rows = windows[r0 : r0 + _ANSATZ_BLOCK_ROWS]
        # Window r is centred on point k + r.
        centres = draws[k + r0 : k + r0 + rows.shape[0]]
        centres *= rows.std(axis=-1, ddof=1)
        centres += rows.mean(axis=-1)
    for i in range(k):
        for point, edge in ((i, x[: i + k + 1]), (n - 1 - i, x[n - 1 - i - k :])):
            draws[point] = draws[point] * edge.std(ddof=1) + edge.mean()
    return replace(series, values=draws)


def bin_average(series: TimeSeries, j: int) -> TimeSeries:
    """Non-overlapping average of every ``j`` consecutive observations.

    Output point ``n`` is the mean of input points ``n*j .. n*j + j - 1``;
    a trailing remainder shorter than ``j`` is dropped.  Example:
    ``[1..7]`` with ``j = 2`` gives ``[1.5, 3.5, 5.5]``.  The output
    spacing is ``j`` times the input spacing and the origin moves to the
    center of the first bin.

    ``j = 1`` returns the input values themselves, not a copy: the mean
    of one value is that value, so a ``-0.0`` stays ``-0.0`` (numpy's
    ``mean`` of ``[-0.0]`` reads ``0.0``).

    Raises:
        InvalidInputError: If ``j`` is not an integer >= 1 or exceeds the length.
    """
    _check_number("j", j, 1, integer=True)
    j = int(j)
    n = len(series)
    if n < j:
        raise InvalidInputError(f"series of length {n} is shorter than one bin of {j}")
    n_bins = n // j
    values = series.values
    if j > 1:
        values = values[: n_bins * j].reshape(n_bins, j).mean(axis=1)
    return TimeSeries(
        values=values,
        spacing=series.spacing * j,
        unit=series.unit,
        origin=series.origin + series.spacing * (j - 1) / 2.0,
    )


@dataclass(frozen=True)
class BinSweepResult:
    """Mean reversal score per candidate bin size, and the size it recommends.

    Built from ``bin_sizes`` and ``r_bars`` alone.  ``r_bars[i]`` is NaN
    where bin size ``bin_sizes[i]`` left fewer points than one entropy
    window; ``sufficient`` is False there and the recommendation skips it.
    ``recommended_j`` is the smallest size whose score is zero within
    ``ZERO_RBAR_TOL``, and ``achieved_zero`` is then True; otherwise it is
    the first local minimum, where a plateau of equal scores (NaN rows
    skipped) counts as one candidate represented by its smallest size and
    the ends count as higher.  Example: scores ``[0.8, 0.5, 0.5, 0.7]``
    for sizes ``1..4`` recommend size 2, the first point of the plateau.

    Raises:
        InvalidInputError: If the arrays are not matching 1-D arrays, or
            the sizes do not strictly increase.
        InsufficientDataError: If every score is NaN.
    """

    bin_sizes: np.ndarray
    r_bars: np.ndarray
    sufficient: np.ndarray = field(init=False)
    recommended_j: int = field(init=False)
    achieved_zero: bool = field(init=False)

    def __post_init__(self) -> None:
        sizes = np.asarray(_check_integers("bin_sizes", self.bin_sizes), dtype=np.int64)
        r_bars = np.asarray(self.r_bars, dtype=np.float64)
        if sizes.shape != r_bars.shape or sizes.ndim != 1:
            raise InvalidInputError("sweep arrays must be matching 1-D arrays")
        _check_increasing(sizes, "bin sizes", "size")
        sufficient = np.isfinite(r_bars)
        if not sufficient.any():
            raise InsufficientDataError("no bin size left enough data to score")
        scored, scores = sizes[sufficient], r_bars[sufficient]
        zeros = np.flatnonzero(scores <= ZERO_RBAR_TOL)
        if zeros.size:
            pick = zeros[0]
        else:
            # Collapse plateaus into runs, then take the first run that sits
            # strictly below both neighbors.  The first run holding the
            # minimum always does, so there is one.
            starts = np.flatnonzero(np.concatenate(([True], scores[1:] != scores[:-1])))
            runs = np.concatenate(([np.inf], scores[starts], [np.inf]))
            below = (runs[:-2] > runs[1:-1]) & (runs[2:] > runs[1:-1])
            pick = starts[np.flatnonzero(below)[0]]
        object.__setattr__(self, "bin_sizes", sizes)
        object.__setattr__(self, "r_bars", r_bars)
        object.__setattr__(self, "sufficient", sufficient)
        object.__setattr__(self, "recommended_j", int(scored[pick]))
        object.__setattr__(self, "achieved_zero", bool(zeros.size))


def _mean_reversal(series: TimeSeries, config: PEConfig) -> float:
    """Mean reversal score of a series at least one window long, block by block.

    One running integer total of the displacements is kept, and the mean is
    that total over ``anchors * lambda``, rounded once.
    """
    total = 0
    for block in trace_blocks(series, config):
        total += int(reversal_series(block).displacements.sum(dtype=np.int64))
        del block  # released before the next block is computed
    anchors = len(config.anchor_grid(len(series)))
    return total / (anchors * lambda_for_range(config.tau_min, config.tau_max))


def bin_sweep(
    series: TimeSeries,
    j_range: Iterable[int],
    pe_config: PEConfig,
) -> BinSweepResult:
    """Mean reversal score of the bin-averaged series for each bin size.

    For every candidate ``j`` the series is bin averaged, the windowed
    entropy traces are computed for all configured strides, and the mean
    reversal score over the full span is recorded.  Sizes that leave
    fewer points than one entropy window are marked insufficient and
    skipped by the recommendation.

    Each size is scored block by block from
    :func:`~pemix.entropy.trace_blocks` of the binned series, and only a
    running integer total of the displacements is kept, so neither a
    strides x anchors matrix nor a score per anchor of the whole series is
    ever held.  The mean is that total divided once: the exact mean,
    correctly rounded, so ``r_bars[i]`` equals
    ``reversal_series(multi_tau_pe(bin_average(series, j), pe_config)).r_bar``
    bit for bit.  The input is checked for non-finite values once, before
    any binning, so an error names the position in ``series``.

    Raises:
        InvalidInputError: On an empty candidate list, a size below 1 or
            above the series length, or a non-finite value.
        InsufficientDataError: If no candidate leaves enough data.
    """
    sizes = sorted({int(j) for j in j_range})
    if not sizes:
        raise InvalidInputError("bin size range is empty")
    n = len(series)
    if sizes[0] < 1 or sizes[-1] > n:
        raise InvalidInputError(f"bin sizes must be in 1..{n}, got {sizes[0]}..{sizes[-1]}")
    _check_finite(series.values)
    r_bars = np.full(len(sizes), np.nan, dtype=np.float64)
    for idx, j in enumerate(sizes):
        if n // j >= pe_config.window:
            r_bars[idx] = _mean_reversal(bin_average(series, j), pe_config)
    if np.isnan(r_bars).all():
        raise InsufficientDataError(
            f"every bin size in {sizes[0]}..{sizes[-1]} leaves fewer than "
            f"{pe_config.window} points"
        )
    return BinSweepResult(sizes, r_bars)
