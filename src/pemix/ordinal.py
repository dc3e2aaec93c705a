"""Ordinal patterns of strided windows and their empirical distribution.

A window ``(x[n], x[n+tau], ..., x[n+(ell-1)*tau])`` is reduced to the
permutation that ranks its values; the permutation's position in the
lexicographic enumeration of all ``ell!`` orderings serves as a compact
integer code.  Ties are broken by time: when two values are equal the
earlier one receives the smaller rank, so every window maps to exactly
one pattern.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .series import TimeSeries

__all__ = [
    "TiePolicy",
    "OrdinalPattern",
    "PatternConfig",
    "PatternDistribution",
    "ordinal_pattern",
    "pattern_index",
    "index_to_pattern",
    "encode_patterns",
    "pattern_distribution",
]

# Cells (anchors x ell! pattern counts) per chunk of the sliding-window
# entropy kernel; bounds its working memory to a few tens of MB.  A chunk
# holds at least one full row of ell! counts, which caps ell at 9.
_CHUNK_CELLS = 2_000_000
_MAX_ELL = max(e for e in range(2, 13) if math.factorial(e) <= _CHUNK_CELLS)


def _check_ell_fits(ell: int) -> None:
    if ell > _MAX_ELL:
        raise InvalidInputError(
            f"ell must be <= {_MAX_ELL} so that ell! pattern counts fit one "
            f"chunk of {_CHUNK_CELLS} cells, got {ell}"
        )


class TiePolicy(enum.Enum):
    """How equal values inside a window are ranked.

    BY_TIME: the earlier observation gets the smaller rank.  This is the
    only policy offered; the enumeration exists so the choice is explicit
    at call sites and extensible without an API break.
    """

    BY_TIME = "by_time"


@dataclass(frozen=True)
class OrdinalPattern:
    """A ranking of window positions plus its lexicographic code.

    ``ranks[i]`` is the rank of the i-th window element, 0 for the
    smallest.  ``index`` is the position of ``ranks`` in the
    lexicographic enumeration of all permutations of its length.
    """

    ranks: tuple[int, ...]
    index: int

    def __post_init__(self) -> None:
        _check_permutation(self.ranks)
        expected = _lehmer_index(self.ranks)
        if self.index != expected:
            raise InvalidInputError(
                f"index {self.index} does not match ranks {self.ranks} "
                f"(lexicographic position is {expected})"
            )

    def __len__(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class PatternConfig:
    """Window shape for pattern extraction.

    Attributes:
        ell: Number of points per window, 2..9 (``ell!`` must not
            exceed the sliding kernel's chunk of 2,000,000 cells).
        tau: Stride between consecutive window points, >= 1.
        tie_policy: Tie handling rule.
    """

    ell: int
    tau: int
    tie_policy: TiePolicy = TiePolicy.BY_TIME

    def __post_init__(self) -> None:
        if not isinstance(self.ell, (int, np.integer)) or self.ell < 2:
            raise InvalidInputError(f"ell must be an integer >= 2, got {self.ell}")
        if not isinstance(self.tau, (int, np.integer)) or self.tau < 1:
            raise InvalidInputError(f"tau must be an integer >= 1, got {self.tau}")
        object.__setattr__(self, "ell", int(self.ell))
        object.__setattr__(self, "tau", int(self.tau))
        _check_ell_fits(self.ell)

    @property
    def span(self) -> int:
        """Observations covered by one window minus one: ``(ell-1)*tau``."""
        return (self.ell - 1) * self.tau


@dataclass(frozen=True)
class PatternDistribution:
    """Empirical pattern probabilities over a stretch of series.

    Attributes:
        probs: Length ``ell!`` array; ``probs[c]`` is the relative
            frequency of the pattern whose lexicographic code is ``c``.
            Sums to 1 whenever ``count`` > 0.
        count: Number of windows tallied.
    """

    probs: np.ndarray
    count: int

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "count", int(self.count))
        if self.count < 0:
            raise InvalidInputError(f"count must be >= 0, got {self.count}")


def _check_permutation(ranks: Sequence[int]) -> None:
    ell = len(ranks)
    if ell < 2:
        raise InvalidInputError(f"a pattern needs at least 2 elements, got {ell}")
    if sorted(ranks) != list(range(ell)):
        raise InvalidInputError(
            f"ranks must be a permutation of 0..{ell - 1}, got {tuple(ranks)}"
        )


def _lehmer_index(ranks: Sequence[int]) -> int:
    # Horner evaluation of the factorial-base digits: digit i counts the
    # later positions holding a smaller rank.
    ell = len(ranks)
    value = 0
    for i in range(ell):
        smaller_after = 0
        for j in range(i + 1, ell):
            if ranks[j] < ranks[i]:
                smaller_after += 1
        value = value * (ell - i) + smaller_after
    return value


def pattern_index(ranks: Sequence[int]) -> int:
    """Lexicographic position of a rank permutation.

    Examples: ``[0, 1, 2] -> 0``, ``[0, 2, 1] -> 1``, ``[2, 1, 0] -> 5``.

    Raises:
        InvalidInputError: If ``ranks`` is not a permutation of
            ``0..len(ranks)-1``.
    """
    _check_permutation(ranks)
    return _lehmer_index(ranks)


def index_to_pattern(index: int, ell: int) -> OrdinalPattern:
    """Inverse of :func:`pattern_index` for a given pattern length.

    Raises:
        InvalidInputError: If ``index`` is outside ``[0, ell!)`` or
            ``ell`` < 2.
    """
    if ell < 2:
        raise InvalidInputError(f"ell must be >= 2, got {ell}")
    nfact = math.factorial(ell)
    if not 0 <= index < nfact:
        raise InvalidInputError(f"index must lie in [0, {nfact}) for ell={ell}, got {index}")
    digits = []
    rem = index
    for i in range(ell):
        base = math.factorial(ell - 1 - i)
        digits.append(rem // base)
        rem %= base
    available = list(range(ell))
    ranks = tuple(available.pop(d) for d in digits)
    return OrdinalPattern(ranks=ranks, index=index)


def ordinal_pattern(
    values: Sequence[float] | np.ndarray,
    tie_policy: TiePolicy = TiePolicy.BY_TIME,
) -> OrdinalPattern:
    """Ordinal pattern of one window of raw values.

    Example: ``[7.0, 3.0, 11.0] -> ranks (1, 0, 2)``; with ties,
    ``[5.0, 5.0, 2.0] -> ranks (1, 2, 0)`` because the earlier 5 ranks
    below the later one.

    Raises:
        InvalidInputError: On fewer than 2 values or any non-finite value.
    """
    del tie_policy  # single policy; the argument documents the choice
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise InvalidInputError(f"need a 1-D window of >= 2 values, got shape {arr.shape}")
    bad = ~np.isfinite(arr)
    if bad.any():
        pos = int(np.argmax(bad))
        raise InvalidInputError(f"non-finite value at window position {pos}: {arr[pos]}")
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.shape[0], dtype=np.int64)
    ranks[order] = np.arange(arr.shape[0])
    ranks_t = tuple(int(r) for r in ranks)
    return OrdinalPattern(ranks=ranks_t, index=_lehmer_index(ranks_t))


def encode_patterns(values: np.ndarray, ell: int, tau: int) -> np.ndarray:
    """Lexicographic pattern code of every strided window of a series.

    Vectorized equivalent of calling :func:`ordinal_pattern` on each
    window ``(values[n], values[n+tau], ..., values[n+(ell-1)*tau])``.
    Counting strict ``later < earlier`` comparisons reproduces the
    by-time tie rule exactly.

    Args:
        values: 1-D float array, all finite.
        ell: Points per window, >= 2.
        tau: Stride, >= 1.

    Returns:
        int64 array of length ``len(values) - (ell-1)*tau``.

    Raises:
        InvalidInputError: On non-finite input (reports the position).
        InsufficientDataError: If no complete window fits.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if ell < 2:
        raise InvalidInputError(f"ell must be >= 2, got {ell}")
    if tau < 1:
        raise InvalidInputError(f"tau must be >= 1, got {tau}")
    bad = ~np.isfinite(arr)
    if bad.any():
        pos = int(np.argmax(bad))
        raise InvalidInputError(f"non-finite value at position {pos}: {arr[pos]}")
    span = (ell - 1) * tau
    n_pat = arr.shape[0] - span
    if n_pat < 1:
        raise InsufficientDataError(
            f"series of length {arr.shape[0]} holds no window of "
            f"ell={ell}, tau={tau} (needs {span + 1} points)"
        )
    cols = [arr[i * tau : i * tau + n_pat] for i in range(ell)]
    codes = np.zeros(n_pat, dtype=np.int64)
    for i in range(ell - 1):
        digit = np.zeros(n_pat, dtype=np.int64)
        for j in range(i + 1, ell):
            digit += cols[j] < cols[i]
        codes *= ell - i
        codes += digit
    return codes


def pattern_distribution(
    series: TimeSeries,
    config: PatternConfig,
    start: int | None = None,
    end: int | None = None,
) -> PatternDistribution:
    """Tally ordinal patterns over ``[start, end)`` of a series.

    Every window whose first point lies at ``n`` with
    ``start <= n`` and ``n + (ell-1)*tau < end`` contributes one count.
    Probabilities are counts divided by the number of windows tallied,
    so they always sum to 1.

    Raises:
        InvalidInputError: On a bad range or non-finite values inside it.
        InsufficientDataError: If the range holds no complete window.
    """
    n = len(series)
    lo = 0 if start is None else int(start)
    hi = n if end is None else int(end)
    if not (0 <= lo < hi <= n):
        raise InvalidInputError(
            f"range [{lo}, {hi}) is not a valid sub-range of a series of length {n}"
        )
    if hi - lo < config.span + 1:
        raise InsufficientDataError(
            f"range of {hi - lo} points holds no window of ell={config.ell}, "
            f"tau={config.tau} (needs {config.span + 1})"
        )
    try:
        codes = encode_patterns(series.values[lo:hi], config.ell, config.tau)
    except InvalidInputError as exc:
        raise InvalidInputError(f"within range starting at {lo}: {exc}") from None
    nfact = math.factorial(config.ell)
    tally = np.bincount(codes, minlength=nfact).astype(np.int64)
    count = int(codes.shape[0])
    probs = tally / count
    return PatternDistribution(probs=probs, count=count)
