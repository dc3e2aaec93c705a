"""Normalized permutation entropy, globally and over sliding windows.

Entropy is Shannon entropy of the ordinal pattern distribution divided
by ``log(ell!)``, so values live in [0, 1]: 0 for a single repeated
pattern (e.g. a monotone stretch), 1 for the uniform distribution.  The
entropy of a count row is the exact sum of its float64 entries
``-p * log(p)``, rounded once, so equal count multisets give equal bits,
whichever path or order computed them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .ordinal import _check_ell, encode_patterns, pattern_distribution
from .series import PETraceSet, TimeSeries, _check_finite, _check_number

__all__ = [
    "PEConfig",
    "PETraceSet",
    "permutation_entropy",
    "global_pe",
    "windowed_pe",
    "multi_tau_pe",
    "trace_blocks",
]

# Events (codes entering or leaving a window) per chunk of the sliding
# kernel.  A chunk's arrays hold one value per event or pair, 64 KB or
# less each, whatever the hop, the window or ell.  On the bin sweeps of
# desk Mackey-Glass and Lorenz traces at ell 4, 2**13 events ran as fast
# as 2**14 at hop 1 and 15 % faster at hop 100, and 25 % faster than 2**12.
_CHUNK_EVENTS = 1 << 13

# Bits of the low limb of an exact sum.  A chunk's running low limb moves
# by less than 2**_LIMB_BITS per event from a carried value below it, so it
# stays below 2**53 and converts to float64 exactly.
_LIMB_BITS = 53 - _CHUNK_EVENTS.bit_length()

# Count-row cells per chunk of the rows path of the sliding kernel: its
# count rows and their entries take a few MB, whatever the hop, the window
# or ell, and at ell 9 a chunk holds one row of 9! cells.
_CHUNK_CELLS = 1 << 16

# The sliding kernel counts whole rows (:func:`_row_sums`) once a window
# moves this many events per count-row cell, ``2 * moved >= _ROWS_FROM *
# ell!``, and moves by events below.  Per anchor of one stride of a random
# walk, window 5000, best of 3 (Python 3.11, numpy 2.4, 2 CPUs), events
# against rows in microseconds: at 1x, ell 2 (hop 1) 0.09 / 0.14, ell 3
# (hop 3) 0.20 / 0.15, ell 4 (hop 12) 0.62 / 0.42, ell 5 (hop 60) 3.6 /
# 1.8 and ell 6 (hop 360) 31 / 16; at 2x, ell 2 (hop 2) 0.12 / 0.09, ell 3
# (hop 6) 0.31 / 0.17, ell 4 (hop 24) 1.2 / 0.48 and ell 6 (hop 720) 64 /
# 16; ell 4 at hop 100 5.0 / 0.79.  Rows lose at hop 1 at every ell (ell 4:
# 0.13 / 0.79) and win from about 0.6x at ell 4 to 6, 1x at ell 3 and 2x at
# ell 2.  So 2 is the least multiple at which rows win at every ell, and it
# keeps hop 1 on events.
_ROWS_FROM = 2

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
        _check_ell(self.ell)
        _check_number("window", self.window, 1, integer=True)
        _check_number("tau_min", self.tau_min, 1, integer=True)
        _check_number("tau_max", self.tau_max, self.tau_min, integer=True)
        _check_number("hop", self.hop, 1, integer=True)
        for name in ("ell", "window", "tau_min", "tau_max", "hop"):
            object.__setattr__(self, name, int(getattr(self, name)))
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


def _plogp(probs: np.ndarray) -> np.ndarray:
    """Elementwise ``p * log(p)``, with ``0 * log(0)`` taken as 0."""
    return probs * np.log(np.where(probs > 0.0, probs, 1.0))


def _normalized_entropy(sums: np.ndarray, ell: int) -> np.ndarray:
    """Shared last step, in place: entropy normalized to [0, 1] from float64
    sums of ``-p * log(p)`` entries, each the exact sum rounded once.

    :func:`permutation_entropy` sums its entries with ``math.fsum`` and the
    sliding kernel adds them as exact integers.  Both round the exact sum
    once, so equal counts give equal bits, whatever the order of the cells.
    """
    sums /= math.log(math.factorial(ell))
    sums += 0.0  # -0.0 becomes 0.0
    # A perfectly uniform tally can land one rounding step above 1.0.
    return np.minimum(sums, 1.0, out=sums)


def permutation_entropy(counts: np.ndarray, ell: int) -> float:
    """Normalized permutation entropy of one row of ``ell!`` pattern counts,
    as :func:`~pemix.ordinal.pattern_distribution` returns: ``math.fsum`` of
    the entries ``-p * log(p)`` of its nonzero cells, over ``log(ell!)``.

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
    entries = -_plogp(counts[counts > 0] / total)
    return float(_normalized_entropy(np.array([math.fsum(entries.tolist())]), ell)[0])


def global_pe(series: TimeSeries, ell: int, tau: int) -> float:
    """Entropy of the pattern distribution over the whole series."""
    return permutation_entropy(pattern_distribution(series, ell, tau), ell)


def windowed_pe(
    series: TimeSeries, config: PEConfig, tau: int, *, _state: dict | None = None
) -> np.ndarray:
    """Sliding-window entropy trace at one stride.

    Windows hold ``config.window`` consecutive observations and advance
    by ``config.hop``; value ``i`` belongs to the window whose last
    observation is ``config.anchor_grid(len(series))[i]``, so traces
    computed at different strides align anchor for anchor.

    ``_state`` maps strides to the kernel states (:class:`_Stride`) that
    :func:`trace_blocks` carries from block to block.  A stride it holds
    has counted the first window of ``series``, whose value is then left
    out; any other stride counts it here and is added.  By default every
    stride starts afresh.

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
    state = {} if _state is None else _state
    ell, hop, per_window = config.ell, config.hop, config.window - span
    moved = min(hop, per_window)
    into = hop + per_window - moved  # from a leaving code to the entering one
    rows = len(config.anchor_grid(n)) - 1  # the windows after the first
    stop = per_window + rows * hop  # the last window's end

    def codes(lo: int, hi: int, known: np.ndarray) -> np.ndarray:
        """Pattern codes ``lo`` to ``hi``, taken from ``known`` (codes from
        0) as far as it reaches and encoded past it."""
        cut = known.shape[0]
        if hi <= max(lo, cut):
            return known[lo : max(lo, hi)]
        new = encode_patterns(series.values[max(lo, cut) : hi + span], ell, tau)
        return new if lo >= cut else np.concatenate((known[lo:], new))

    stride = state.get(tau)
    known = np.empty(0, dtype=np.int64) if stride is None else stride.held
    # Window r >= 1 loses ``moved`` codes from leave[(r - 1) * hop] and gains
    # as many from enter[(r - 1) * hop].  Where the entering codes start
    # before the leaving ones end, one run of codes serves both.
    joined = into <= (rows - 1) * hop + moved
    if joined:
        known = codes(0, stop, known)
        leave, enter = known, known[into:]
    else:
        leave, enter = codes(0, (rows - 1) * hop + moved, known), codes(into, stop, known)
    fresh = stride is None
    if fresh:
        counts = np.zeros(math.factorial(ell), dtype=np.int64)
        for c0 in range(0, per_window, _CHUNK_EVENTS):
            piece = codes(c0, min(c0 + _CHUNK_EVENTS, per_window), known)
            counts += np.bincount(piece, minlength=counts.shape[0])
        stride = state[tau] = _Stride.counted(counts, per_window, hop)
    trace = _sliding_entropy(leave, enter, rows, hop, ell, stride)
    # The next block starts at the last window, whose codes are known[rows * hop:].
    held = known[rows * hop :] if joined else known[:0]
    stride.held = held.astype(np.min_scalar_type(stride.counts.shape[0] - 1))
    return trace if fresh else trace[1:]


def _limbs(entries: np.ndarray, scale: int) -> np.ndarray:
    """``entries * 2**scale``, integers, as int64 limbs ``[low, high]``
    along a new first axis.

    The low limb holds ``_LIMB_BITS`` bits.  Both are computed in float64,
    exactly: scaling by a power of two, ``floor`` and the difference of
    two integers that doubles hold are all exact.
    """
    limbs = np.empty((2, *entries.shape), dtype=np.int64)
    high = np.floor(entries * 2.0 ** (scale - _LIMB_BITS))
    limbs[1] = high
    high *= 2.0**_LIMB_BITS
    limbs[0] = np.subtract(entries * 2.0**scale, high, out=high)
    return limbs


def _scale(per_window: int) -> int:
    """The ``scale`` at which every entry ``-p * log(p)`` of a window of
    ``per_window`` patterns is an integer times ``2**-scale``.

    Each entry is a double, so it is such an integer once ``scale`` is 53
    less the binary exponent of the smallest nonzero entry.  ``-p * log(p)``
    is concave and zero at both ends, so that is entry 1 or entry
    ``per_window - 1``, about ``1 / per_window``.
    """
    ends = -_plogp(np.array([1, per_window - 1]) / per_window)
    return 53 - math.frexp(ends.min())[1] if per_window > 1 else 0


def _exact_steps(per_window: int) -> tuple[np.ndarray, int]:
    """Exact steps of the entries ``-p * log(p)`` over the counts ``0..per_window``,
    and their :func:`_scale`.

    Element ``c`` of the result is ``(entry[c + 1] - entry[c]) * 2**scale``, an
    exact int64: the steps fall from entry 1 to minus entry ``per_window -
    1``, and the larger of those two is at most ``log(per_window)`` times
    the smaller, so a step stays below ``2**58`` for any window up to
    ``2**35`` patterns.  It is built from :func:`_limbs` in pieces of
    ``_CHUNK_EVENTS // 2`` counts, so that the table's 8 bytes per count are
    its only memory that grows with the window.  A window's sum of entries
    is at most ``log(9!) + 1/e < 16``, so the high limb of a sum stays below
    ``2**53`` for any such window.
    """
    scale = _scale(per_window)
    rise = np.empty(per_window, dtype=np.int64)
    piece = max(_CHUNK_EVENTS // 2, 1)
    for c0 in range(0, per_window, piece):
        counts = np.arange(c0, min(c0 + piece, per_window) + 1)
        low, high = np.diff(_limbs(-_plogp(counts / per_window), scale), axis=1)
        rise[c0 : counts[-1]] = (high << _LIMB_BITS) + low
    return rise, scale


def _carried(sums: np.ndarray) -> np.ndarray:
    """Rows of ``(low, high)`` limb sums with the low limb's bits above
    ``_LIMB_BITS`` carried into the high limb: the same totals."""
    out = np.empty_like(sums)
    np.bitwise_and(sums[:, 0], (1 << _LIMB_BITS) - 1, out=out[:, 0])
    np.add(sums[:, 1], sums[:, 0] >> _LIMB_BITS, out=out[:, 1])
    return out


def _rounded(sums: np.ndarray, scale: int) -> np.ndarray:
    """Rows of ``(low, high)`` limb sums as float64: each exact total times
    ``2**-scale``, rounded once to nearest.

    Within a chunk both limbs stay below ``2**53`` in magnitude (see
    ``_LIMB_BITS`` and :func:`_exact_steps`), so both scaled limbs are
    exact doubles, and their one float addition rounds the exact total.
    """
    return sums[:, 1] * 2.0 ** (_LIMB_BITS - scale) + sums[:, 0] * 2.0**-scale


def _pair_sums(
    keys: np.ndarray,
    counts: np.ndarray,
    rise: np.ndarray,
    carry: np.ndarray,
) -> np.ndarray:
    """Limb sums after each pair of events of a chunk, from ``carry``.

    ``keys[i]`` is ``code << bits | i`` for the code of event ``i``: pair
    ``i // 2`` takes a code out at an even ``i`` and puts one in at an odd
    ``i``.  Sorted in place, the keys put each code's events together in
    time order, so a cumsum of their signs from the code's count in
    ``counts`` gives each event's count after it; ``counts`` is left at
    the counts after the chunk.  A code that leaves a count ``a`` changes
    the sum by ``entry[a] - entry[a + 1] = -rise[a]``, and one that enters
    it by ``rise[a - 1]`` (see :func:`_exact_steps`); a pair's change is
    split into limbs.  Row ``k`` of the
    ``(pairs + 1, 2)`` result is ``carry`` plus the changes of the first
    ``k`` pairs.
    """
    n = keys.shape[0]
    bits = _CHUNK_EVENTS.bit_length()
    keys.sort()
    code = keys >> bits
    order = (keys & ((1 << bits) - 1)).astype(np.intp)
    sign = order & 1
    sign += sign - 1
    run = np.cumsum(sign)
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(code[1:], code[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], n) - 1
    # A code's count before the chunk, less the running net before its first event.
    base = counts[code[starts]] - run[starts] + sign[starts]
    after = run
    after += np.repeat(base, ends - starts + 1)
    counts[code[ends]] = after[ends]
    at = np.empty(n, dtype=np.intp)
    at[order] = after
    sums = np.empty((n // 2 + 1, 2), dtype=np.int64)
    sums[:1] = carry
    steps = rise.take(at[1::2] - 1)
    steps -= rise.take(at[0::2])
    np.bitwise_and(steps, (1 << _LIMB_BITS) - 1, out=sums[1:, 0])
    np.right_shift(steps, _LIMB_BITS, out=sums[1:, 1])
    return np.cumsum(sums, axis=0, out=sums)


@dataclass
class _Stride:
    """The sliding kernel's state at one stride, carried from block to block.

    ``per_window`` is the patterns of a window and ``scale`` that of their
    entries (:func:`_scale`).  ``rise`` is the :func:`_exact_steps` table of
    a window's counts, built once, where the kernel moves a window by its
    events; it is None where the kernel counts whole rows (see
    :func:`_sliding_entropy`).  ``counts`` is the count row of the last
    window reached and ``limbs`` the ``(1, 2)`` carried limbs of its exact
    sum of entries, whose value is ``_rounded(limbs, scale)``.  ``held`` is
    that window's codes where its block encoded all of them, else empty;
    the next block starts at that window, so it need not encode them again.
    """

    per_window: int
    scale: int
    rise: np.ndarray | None
    counts: np.ndarray
    limbs: np.ndarray
    held: np.ndarray

    @classmethod
    def counted(cls, counts: np.ndarray, per_window: int, hop: int) -> _Stride:
        """The state at a window of ``per_window`` patterns with ``counts``,
        for windows ``hop`` patterns apart."""
        if 2 * min(hop, per_window) >= _ROWS_FROM * counts.shape[0]:
            rise, scale = None, _scale(per_window)
        else:
            rise, scale = _exact_steps(per_window)
        terms = _limbs(-_plogp(counts[counts > 0] / per_window), scale)
        limbs = np.zeros((1, 2), dtype=np.int64)
        for t0 in range(0, terms.shape[1], _CHUNK_EVENTS):
            limbs = _carried(limbs + terms[:, t0 : t0 + _CHUNK_EVENTS].sum(axis=1))
        return cls(per_window, scale, rise, counts, limbs, np.empty(0, dtype=np.int64))


def _sliding_entropy(
    leave: np.ndarray,
    enter: np.ndarray,
    rows: int,
    hop: int,
    ell: int,
    stride: _Stride,
) -> np.ndarray:
    """Entropy of the window ``stride`` holds and of the ``rows`` windows
    after it, each ``hop`` patterns on, from exact running sums of
    ``-p * log(p)``; ``stride`` is left at the last window.

    A window's entropy is its sum ``S`` of the entries ``-p * log(p)`` of
    its pattern counts, rounded once, over ``log(ell!)``.  Each entry is an
    integer multiple of ``2**-scale`` (:func:`_scale`), so ``S`` is an
    exact integer in two int64 limbs, rounded once per window
    (:func:`_rounded`), as :func:`permutation_entropy` rounds its
    ``math.fsum``.  The counts and ``S`` of a window are the same integers
    whichever block or path reached it, so are its bits.

    From one window to the next, ``moved = min(hop, per_window)`` codes
    leave at the left and as many enter at the right: window ``r >= 1``
    loses ``leave[(r - 1) * hop :][:moved]`` and gains the same slice of
    ``enter``.  A window moves in one of two ways, which the state chose
    (:meth:`_Stride.counted`).  Where ``2 * moved`` is below ``_ROWS_FROM``
    times ``ell!``, the kernel moves ``S`` per event.  Equal leaving and
    entering codes at the same offset cancel; a window whose pairs all
    cancel keeps the previous window's value, as most windows do on
    oversampled series.  Every other pair is two events, the leaving code
    and then the entering one, in time order, so no count leaves
    ``0..per_window``.  An event moves ``S`` by the exact step from its
    code's count before to its count after (:func:`_pair_sums`), so a
    window costs its events, whatever ``ell!``.  Events go in chunks of at
    most ``_CHUNK_EVENTS``, which carry the count of each code and ``S``.
    Otherwise the kernel counts every window's row of ``ell!`` cells and
    sums its entries (:func:`_row_sums`), so a window costs its ``ell!``
    cells, whatever the hop.  Working memory is a chunk, the state and a
    few arrays of one value per window, whatever the window; moving by
    events adds one index per differing pair, so it grows with the hop.
    """
    moved = min(hop, stride.per_window)
    gone, come = (
        np.lib.stride_tricks.as_strided(
            codes, (rows, moved), (hop * codes.itemsize, codes.itemsize), writeable=False
        )
        for codes in (leave, enter)
    )
    if stride.rise is None:
        return _normalized_entropy(_row_sums(gone, come, stride), ell)
    rise, scale, counts = stride.rise, stride.scale, stride.counts
    pairs = np.flatnonzero(come != gone)  # row * moved + offset of each differing pair
    # last[r] numbers the value that window r shares: 0 is the held window.
    last = np.zeros(rows + 1, dtype=np.int64)
    last[1:][pairs // moved] = 1
    np.cumsum(last, out=last)
    carry = stride.limbs
    vals = np.empty(last[-1] + 1, dtype=np.float64)
    vals[:1] = _rounded(carry, scale)
    bits = _CHUNK_EVENTS.bit_length()
    key = np.int32 if counts.shape[0] << bits < 1 << 31 else np.int64
    step = max(_CHUNK_EVENTS // 2, 1)
    filled = 1
    for c0 in range(0, pairs.shape[0], step):
        chunk = pairs[c0 : c0 + step]
        at = chunk + chunk // moved * (hop - moved) if hop > moved else chunk
        keys = np.empty(2 * chunk.shape[0], dtype=key)
        keys[0::2] = leave[at]
        keys[1::2] = enter[at]
        keys <<= bits
        keys |= np.arange(keys.shape[0], dtype=key)
        sums = _pair_sums(keys, counts, rise, carry)
        carry = _carried(sums[-1:])
        # The sums after the last pair of each changed window that ends in
        # the chunk: after every pair when a window moves one code.
        if moved > 1:
            row = chunk // moved
            after = pairs[c0 + step] // moved if c0 + step < pairs.shape[0] else -1
            sums = sums.take(np.flatnonzero(row != np.append(row[1:], after)) + 1, axis=0)
        else:
            sums = sums[1:]
        vals[filled : filled + sums.shape[0]] = _rounded(sums, scale)
        filled += sums.shape[0]
    stride.limbs = carry
    return _normalized_entropy(vals, ell)[last]


def _row_sums(gone: np.ndarray, come: np.ndarray, stride: _Stride) -> np.ndarray:
    """The rounded exact sums of the window ``stride`` holds and of one
    window per row of ``gone`` and ``come``, which hold the codes each
    leaves and gains; ``stride`` is left at the last window.

    A chunk of rows takes one ``bincount`` of ``row * ell! + code`` over
    its entering codes and one over its leaving codes; a cumsum of their
    difference from the carried counts gives each row's counts.  Windows
    that share no pattern (``moved == per_window``) enter whole, so the
    first ``bincount`` alone gives them.  A row's sum is the sum of the
    :func:`_limbs` of its entries.  A chunk holds at most ``_CHUNK_CELLS``
    cells and codes, or one row.
    """
    rows, moved = come.shape
    counts, per_window, scale = stride.counts, stride.per_window, stride.scale
    nfact = counts.shape[0]
    step = max(_CHUNK_CELLS // max(nfact, moved), 1)

    def tallied(codes: np.ndarray) -> np.ndarray:
        """One row of ``ell!`` counts per row of ``codes``."""
        offsets = np.arange(0, codes.shape[0] * nfact, nfact).reshape(-1, 1)
        flat = np.bincount((codes + offsets).ravel(), minlength=offsets.size * nfact)
        return flat.reshape(-1, nfact)

    vals = np.empty(rows + 1, dtype=np.float64)
    vals[:1] = _rounded(stride.limbs, scale)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        tally = tallied(come[r0:r1])
        if moved < per_window:
            tally -= tallied(gone[r0:r1])
            tally[0] += counts
            np.cumsum(tally, axis=0, out=tally)
        counts = tally[-1].copy()
        entries = _plogp(tally / per_window)
        sums = _carried(_limbs(np.negative(entries, out=entries), scale).sum(axis=2).T)
        vals[1 + r0 : 1 + r1] = _rounded(sums, scale)
        stride.limbs = sums[-1:].copy()
    stride.counts = counts
    return vals


def multi_tau_pe(
    series: TimeSeries, config: PEConfig, *, _state: dict | None = None
) -> PETraceSet:
    """Windowed entropy at every stride of the configured range, as a ``PETraceSet``.

    Row ``k`` of the matrix is the :func:`windowed_pe` trace at stride
    ``tau_min + k``; every row shares the same anchors, which is what makes
    the per-anchor stride ordering in the reversal stage well defined.
    ``_state`` is passed to every stride's :func:`windowed_pe`, so a state
    that holds strides leaves out the first window of ``series``.
    """
    grid = config.anchor_grid(len(series))[1 if _state else 0 :]
    traces = np.empty((len(config.taus), len(grid)))
    for k, tau in enumerate(config.taus):
        traces[k] = windowed_pe(series, config, tau, _state=_state)
    anchors = np.arange(grid.start, grid.stop, grid.step, dtype=np.int64)
    return PETraceSet(tau_min=config.tau_min, anchors=anchors, traces=traces)


def trace_blocks(series: TimeSeries, config: PEConfig) -> Iterator[PETraceSet]:
    """The :func:`multi_tau_pe` traces of ``series``, one run of anchors at a time.

    Each block holds at most ``_BLOCK_ANCHORS`` consecutive grid anchors,
    numbered as positions in ``series``.  One kernel state per stride is
    carried from block to block: the step table, built once, and the count
    row and exact sum of the last window.  So a block after the first is
    computed by :func:`multi_tau_pe` from the points of that window on,
    encodes only the codes its windows add and drop, and counts no window
    afresh.  Joined along the anchors, the blocks equal
    ``multi_tau_pe(series, config)`` bit for bit, but no more than one
    block's matrix is held at a time.

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
        state: dict = {}
        for a0 in range(0, len(grid), _BLOCK_ANCHORS):
            # From the window before the block's first, which the state holds.
            points = config.covered_points(grid[max(a0 - 1, 0) : a0 + _BLOCK_ANCHORS])
            block = multi_tau_pe(TimeSeries(values[points]), config, _state=state)
            block.anchors[:] += points.start  # a fresh array: renumbered in place
            yield block
            del block  # released before the next block is computed

    return blocks()
