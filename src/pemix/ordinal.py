"""Ordinal patterns of strided windows and their counts.

A window ``(x[n], x[n+tau], ..., x[n+(ell-1)*tau])`` is reduced to the
permutation that ranks its values; the permutation's position in the
lexicographic enumeration of all ``ell!`` orderings serves as a compact
integer code.  Ties are broken by time: when two values are equal the
earlier one receives the smaller rank, so every window maps to exactly
one pattern.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .series import TimeSeries, _check_finite, _check_number

__all__ = [
    "encode_patterns",
    "pattern_distribution",
]

# The sliding-window entropy kernel holds at least one row of ell! pattern
# counts: 9! = 362,880 counts are 2.9 MB of int64, 10! would be 29 MB.
_MAX_ELL = 9


def _check_ell(ell: int) -> None:
    """Reject an ``ell`` that is not an integer in 2..9."""
    _check_number("ell", ell, 2, integer=True)
    if ell > _MAX_ELL:
        raise InvalidInputError(
            f"ell must be <= {_MAX_ELL} so that one row of ell! pattern counts "
            f"stays a few MB, got {ell}"
        )


def encode_patterns(values: np.ndarray, ell: int, tau: int) -> np.ndarray:
    """Lexicographic pattern code of every strided window of a series.

    Window ``n`` is ``(values[n], values[n+tau], ..., values[n+(ell-1)*tau])``.
    Its points are ranked by value, and of two equal values the earlier
    one ranks lower.  The code is the position of that rank permutation
    among all ``ell!`` permutations in lexicographic order: its
    factorial-base digit ``i`` counts the later points strictly below
    point ``i``, and counting strict ``<`` is what makes ties go by time.
    Example: ``[7, 3, 11]`` has ranks ``(1, 0, 2)`` and code 2;
    ``[5, 5, 2]`` has ranks ``(1, 2, 0)`` and code 3.

    Args:
        values: 1-D float array, all finite.
        ell: Points per window, an integer in 2..9 (one row of ``ell!``
            counts in the sliding kernel stays a few MB).
        tau: Stride, an integer >= 1.

    Returns:
        int64 array of length ``len(values) - (ell-1)*tau``.

    Raises:
        InvalidInputError: On a bad ``ell`` or ``tau``, or non-finite
            input (reports the position).
        InsufficientDataError: If no complete window fits.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    _check_ell(ell)
    _check_number("tau", tau, 1, integer=True)
    _check_finite(arr)
    span = (ell - 1) * tau
    n_pat = arr.shape[0] - span
    if n_pat < 1:
        raise InsufficientDataError(
            f"series of length {arr.shape[0]} holds no window of "
            f"ell={ell}, tau={tau} (needs {span + 1} points)"
        )
    cols = [arr[i * tau : i * tau + n_pat] for i in range(ell)]
    # A digit is below ell <= 9 and a code below 9! < 2**31, so both are
    # summed in narrow integers, a third of the int64 passes' time.
    codes = np.zeros(n_pat, dtype=np.int32)
    for i in range(ell - 1):
        digit = np.zeros(n_pat, dtype=np.int8)
        for j in range(i + 1, ell):
            digit += (cols[j] < cols[i]).view(np.int8)
        codes *= ell - i
        codes += digit
    return codes.astype(np.int64)


def pattern_distribution(
    series: TimeSeries,
    ell: int,
    tau: int,
    start: int | None = None,
    end: int | None = None,
) -> np.ndarray:
    """Count ordinal patterns of ``ell`` points at stride ``tau`` over
    ``[start, end)`` of a series.

    Every window whose first point lies at ``n`` with
    ``start <= n`` and ``n + (ell-1)*tau < end`` contributes one count to
    entry ``c`` of the returned length-``ell!`` int64 array, ``c`` being
    its pattern's code.

    Raises:
        InvalidInputError: On a bad range, a bad ``ell`` or ``tau`` (see
            :func:`encode_patterns`), or non-finite values inside the range.
        InsufficientDataError: If the range holds no complete window.
    """
    n = len(series)
    lo = 0 if start is None else int(start)
    hi = n if end is None else int(end)
    if not (0 <= lo < hi <= n):
        raise InvalidInputError(
            f"range [{lo}, {hi}) is not a valid sub-range of a series of length {n}"
        )
    values = series.values[lo:hi]
    try:
        _check_finite(values)
    except InvalidInputError as exc:
        raise InvalidInputError(f"within range starting at {lo}: {exc}") from None
    codes = encode_patterns(values, ell, tau)
    return np.bincount(codes, minlength=math.factorial(ell)).astype(np.int64, copy=False)
