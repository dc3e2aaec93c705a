"""Evenly spaced time series container and the pemix table codec.

A :class:`TimeSeries` is the unit of exchange between every stage of the
toolkit: generators produce one, the cleaning pipeline repairs one, and the
entropy machinery consumes one.  Values may contain NaN while a series is
still being cleaned; the analysis stages reject non-finite values.

Every pemix table (series, traces, reversal scores, sweeps) is a
``# pemix-<kind> v1`` tag, ``# key: value`` lines, a column line and
comma-separated rows, written and read by the codec below.  Cells are
``repr``s and round-trip exactly, so a written file fed to the next
command reproduces the in-process pipeline bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError

if TYPE_CHECKING:
    from .mixing import BinSweepResult
    from .reversal import ReversalSeries

__all__ = [
    "TableHeader",
    "TimeSeries",
    "read_header",
    "read_rows",
    "read_series_csv",
    "write_header",
    "write_series_csv",
    "write_table",
]


@dataclass(frozen=True)
class TimeSeries:
    """Evenly spaced scalar observations.

    Attributes:
        values: 1-D float64 array of observations.
        spacing: Time between consecutive observations, > 0.
        unit: Unit of ``spacing`` (free-form label on one line without
            surrounding whitespace, e.g. "seconds").
        origin: Time of the first observation, in the same unit.
    """

    values: np.ndarray
    spacing: float = 1.0
    unit: str = "samples"
    origin: float = 0.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidInputError(
                f"series values must be 1-D, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)
        _check_number("spacing", self.spacing, above=0)
        _check_number("origin", self.origin)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "origin", float(self.origin))
        # A table header holds the unit on one line and strips it on read.
        if any(c in str(self.unit) for c in "\r\n"):
            raise InvalidInputError(f"unit must not contain a line break, got {self.unit!r}")
        if str(self.unit) != str(self.unit).strip():
            raise InvalidInputError(f"unit must not have surrounding whitespace, got {self.unit!r}")

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def times(self) -> np.ndarray:
        """Observation times: ``origin + i * spacing``."""
        return self.origin + self.spacing * np.arange(len(self), dtype=np.float64)


@dataclass(frozen=True)
class PETraceSet:
    """Windowed entropy at every stride of a contiguous range, as one matrix.

    ``traces[k, i]`` is the normalized entropy at stride ``tau_min + k`` of
    the window whose last observation is ``anchors[i]``.  ``traces`` is a
    C-contiguous float64 array of shape ``(strides, anchors)``.

    Raises:
        InvalidInputError: If a stride is below 1, ``tau_min`` or the
            anchors are not integers, the shapes do not match or hold no
            stride, an entropy is not finite, or the anchors do not
            strictly increase.
    """

    tau_min: int
    anchors: np.ndarray
    traces: np.ndarray

    def __post_init__(self) -> None:
        # A trace file's strides come from its column labels, so name the column.
        if self.tau_min < 1:
            raise InvalidInputError(f"strides must be >= 1, got column pe_tau{self.tau_min}")
        _check_number("tau_min", self.tau_min, 1, integer=True)
        # Checked before the contiguous copy, so no check temporary coexists with it.
        anchors = np.asarray(_check_integers("anchors", self.anchors), dtype=np.int64)
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
        _check_increasing(anchors, "trace anchors", "anchor")
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


_SERIES_TAG = "pemix-series v1"
_TRACE_TAG = "pemix-traces v1"
_REVERSAL_TAG = "pemix-reversal v1"
_SWEEP_TAG = "pemix-sweep v1"
_COLUMNS = "time,value"
_SERIES_DTYPE = np.dtype([("time", "f8"), ("value", "f8")])
# Cells per formatted piece of rows: 2048 rows of a 7-column trace table,
# 8192 of a 2-column one (see ``_piece_rows``).  Each step of the cell
# kernel is one numpy call over a whole piece, so smaller pieces pay numpy's
# per-call cost more often: 2**13-cell pieces wrote mixed Mackey-Glass
# traces 1.2-1.5 times as slowly.  The kernel's working arrays take about
# 180 bytes per cell, so larger pieces hold more memory: 2**14 cells hold
# about 2.6 MB while traces are written.
_PIECE_CELLS = 1 << 14


def _check_finite(values: np.ndarray) -> None:
    """Reject a NaN or infinite value, naming its position in ``values``.

    Raises:
        InvalidInputError: On the first non-finite value.
    """
    bad = ~np.isfinite(values)
    if bad.any():
        pos = int(np.argmax(bad))
        raise InvalidInputError(f"non-finite value at position {pos}: {values[pos]}")


def _check_integers(name: str, values: object) -> np.ndarray:
    """``values`` as an array, rejected unless its dtype is an integer type;
    an integer array passes uncopied."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        raise InvalidInputError(f"{name} must be integers, got dtype {array.dtype}")
    return array


def _check_increasing(values: np.ndarray, what: str, item: str) -> None:
    """Reject ``values`` unless they strictly increase, naming the first
    ``item`` that does not follow its predecessor upward."""
    backward = np.flatnonzero(np.diff(values) <= 0)
    if backward.size:
        i = backward[0]
        raise InvalidInputError(
            f"{what} must strictly increase, but {item} {values[i + 1]} follows {item} {values[i]}"
        )


def _check_number(name: str, value: float, minimum: float | None = None, *,
                  above: float | None = None, integer: bool = False) -> None:
    """Reject ``value`` unless it is finite, > ``above`` and >= ``minimum``
    (each where given) or, with ``integer``, an ``int`` or ``np.integer``
    >= ``minimum`` where given; the message reads ``<name> must be <rule>,
    got <value>``."""
    if integer:
        if not isinstance(value, (int, np.integer)) or minimum is not None and value < minimum:
            rule = "" if minimum is None else f" >= {minimum}"
            raise InvalidInputError(f"{name} must be an integer{rule}, got {value}")
    elif not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value}")
    elif above is not None and not value > above:
        raise InvalidInputError(f"{name} must be > {above}, got {value}")
    elif minimum is not None and not value >= minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")


class TableHeader(NamedTuple):
    """A table's lines up to and including its column line."""

    tag: str | None  # the first "# pemix-..." comment without a colon
    metadata: dict[str, str]  # the "# key: value" entries
    columns: str  # the first line that is neither blank nor a comment
    lineno: int  # the file line number of ``columns``


def write_header(stream: IO[str], tag: str, metadata: Mapping[str, object]) -> None:
    """Write the ``# <tag>`` line and one ``# key: value`` line per entry."""
    stream.write(f"# {tag}\n")
    for key, value in metadata.items():
        stream.write(f"# {key}: {value}\n")


def write_table(
    stream: IO[str],
    tag: str,
    metadata: Mapping[str, object],
    columns: str,
    blocks: Iterable[Sequence[np.ndarray]],
) -> None:
    """Write the header, the ``columns`` line, then the rows of each block in turn.

    A block holds one equal-length 1-D int64 or float64 array per column,
    and its rows follow those of the block before, so a table can be
    written while later blocks are still being computed.  Each cell is the
    ``repr`` of the array's ``tolist()`` item, so integers print as
    integers and floats read back bit for bit.  The cells are not made one
    ``repr`` call at a time: a block is cut into pieces of
    ``_piece_rows`` rows, and each piece's text is computed column-wise by
    ``_piece_text``.  The bytes do not depend on how the rows are split
    into blocks or pieces.
    """
    write_header(stream, tag, metadata)
    stream.write(f"{columns}\n")
    for data in blocks:
        rows = _piece_rows(len(data))
        canvas = np.empty(min(rows, len(data[0])) * len(data) * _WIDTH, np.uint8)
        for start in range(0, len(data[0]), rows):
            stream.write(_piece_text([column[start : start + rows] for column in data], canvas))
        del data, canvas  # released before the next block is computed


def _piece_rows(columns: int) -> int:
    """Rows per piece of a table of ``columns`` columns, about ``_PIECE_CELLS``
    cells: a power of two when ``_PIECE_CELLS`` is one."""
    return max(1, _PIECE_CELLS >> (columns - 1).bit_length())


# The cell kernel.  Each cell is first laid out in a fixed-width byte row
# of the canvas, its digits right-aligned in fixed fields and a minus sign
# written just before its leading digit:
#
#   [integer digits, 16][.][fraction digits, 20][,]   a fixed-notation float
#                          [        digits, 20][,]   an integer
#                   [repr, right-aligned, 24][,]   any other float
#
# A mask row, which depends only on the sign, the number of digits shown
# and the repr's length (the row's key), picks the bytes that the cell
# prints; the last byte is the separator, "," or "\n".  The canvas rows of
# a piece's cells, masked, are the piece's text in row order.
_WIDTH = 38
_DOT = 16
_SEP = _WIDTH - 1
_ROW = np.dtype((np.void, _WIDTH))  # one canvas row as a single item


def _mask_table() -> np.ndarray:
    """One mask row per key: ``(sign * 17 + integer digits) * 21 + fraction
    digits`` for a float; ``_INT_KEY + sign * 21 + digits`` for an integer;
    ``_REPR_KEY + length`` for a repr."""
    pos = np.arange(_WIDTH)
    sign = np.arange(2)[:, None, None, None]
    ints = np.arange(17)[None, :, None, None]
    fracs = np.arange(21)[None, None, :, None]
    floats = (pos >= _DOT - ints - sign) & (pos <= _DOT) | (pos >= _SEP - fracs)
    integers = pos >= _SEP - np.arange(21)[None, :, None] - sign[..., 0]
    reprs = pos >= _SEP - np.arange(25)[:, None]
    table = [floats, integers, reprs]
    return np.concatenate([rows.reshape(-1, _WIDTH) for rows in table]) | (pos == _SEP)


_MASKS = _mask_table()
_FIRST = np.argmax(_MASKS, axis=1)  # the first byte each key prints
_INT_KEY = 2 * 17 * 21
_REPR_KEY = _INT_KEY + 2 * 21
# ASCII of 0000..9999, one 4-byte word per number.
_DIGITS4 = (
    (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_POW5 = 5 ** np.arange(23, dtype=np.uint64)
# For each biased exponent E of a double in [1e-4, 2**48), the power k with
# 2**(E - 1023) * 10**k in [1e17, 1e18), so x * 10**k lies in [1e17, 2e18),
# and the shift s = 1077 - E - k of _shortest.
_K = np.ceil(17 - (np.arange(2048) - 1023) * np.log10(2)).clip(0, 22).astype(np.intp)
_SHIFT = (1077 - np.arange(2048) - _K).clip(0, 63).astype(np.uint64)
_TENS = 10.0 ** np.arange(23)
_SIGN = np.uint64(1 << 63)
_MANTISSA = np.uint64((1 << 52) - 1)


def _piece_text(columns: Sequence[np.ndarray], buffer: np.ndarray) -> str:
    """The rows of ``columns`` as table text: each cell ``repr(item)``, cells
    joined by ``,`` and each row ended by ``\\n``.

    Each run of equal bit patterns down a column is formatted once, in a
    canvas row in ``buffer``, at least ``_WIDTH`` bytes per cell, which the
    writer keeps from piece to piece (a fresh one is paged in again for
    every piece).  Each array is let go of once used: the working set of
    the kernel sets the writer's memory.
    """
    n_cols, rows = len(columns), len(columns[0])
    bits = np.empty((n_cols, rows), np.uint64)
    for bits_row, column in zip(bits, columns):
        if column.dtype not in _LAYOUTS:
            raise TypeError(f"table columns must be int64 or float64, got {column.dtype}")
        bits_row[...] = column.view(np.uint64)
    starts = np.ones((n_cols, rows), dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=starts[:, 1:])
    runs = bits[starts]
    bounds = np.concatenate(([0], np.cumsum(starts.sum(axis=1))))
    del bits

    canvas = buffer[: len(runs) * _WIDTH].reshape(-1, _WIDTH)
    canvas[:, _DOT] = ord(".")
    canvas[:, _SEP] = ord(",")
    canvas[bounds[-2] :, _SEP] = ord("\n")
    keys = np.empty(len(runs), np.int16)
    # Adjacent columns of one dtype are formatted together.
    first = 0
    for c in range(1, n_cols + 1):
        if c == n_cols or columns[c].dtype != columns[first].dtype:
            part = slice(bounds[first], bounds[c])
            _LAYOUTS[columns[first].dtype](runs[part], canvas[part], keys[part])
            first = c
    del runs

    # Only the bytes from the first that any cell prints are moved.
    skip = _FIRST[keys].min()
    width = np.dtype((np.void, _WIDTH - skip))
    order = np.cumsum(starts.ravel()).reshape(n_cols, rows).T  # in row order,
    order -= 1  # each cell's run
    del starts
    cells = canvas[:, skip:].view(width)[:, 0].take(order)
    masks = _MASKS[:, skip:].view(width)[:, 0].take(keys[order])
    del order, keys
    text = cells.view(np.uint8)[masks.view(bool)]
    del cells, masks
    return str(text, "ascii")


def _digits(values: np.ndarray, out: np.ndarray, shown: int = 1) -> None:
    """Write the ASCII digits of each uint64 right-aligned and zero-padded
    into the rows of ``out``, whose width is a multiple of 4 bytes.

    Only the last ``shown`` digits and each value's significant digits are
    sure to be written: no mask picks any other.
    """
    words = out.view(np.uint32)
    for g in range(words.shape[1] - 1, -1, -1):
        high = values // 10_000
        words[:, g] = _DIGITS4[values - high * 10_000]
        shown -= 4
        if shown <= 0 and not high.any():
            break
        values = high


def _digit_count(values: np.ndarray) -> np.ndarray:
    """Digits of each uint64, 1 for zero."""
    return np.maximum(np.searchsorted(_POW10, values, side="right"), 1)


def _int_cells(bits: np.ndarray, canvas: np.ndarray, keys: np.ndarray) -> None:
    """Lay out int64 cells, given as bit patterns, in ``canvas`` and write
    their mask keys into ``keys``."""
    negative = bits >= _SIGN
    magnitude = bits.copy()
    np.negative(magnitude, out=magnitude, where=negative)  # exact for -2**63 too
    _digits(magnitude, canvas[:, _DOT + 1 : _SEP])
    count = _digit_count(magnitude)
    at = np.flatnonzero(negative)
    canvas[at, _SEP - 1 - count[at]] = ord("-")
    keys[:] = _INT_KEY + negative * 21 + count


def _float_cells(bits: np.ndarray, canvas: np.ndarray, keys: np.ndarray) -> None:
    """Lay out float64 cells, given as bit patterns, in ``canvas`` and write
    their mask keys into ``keys``.

    A finite ``x`` with ``1e-4 <= |x| < 2**48``, or a zero, prints in fixed
    notation (``_fixed_cells``).  Every other cell, and an exact decimal of
    more than 15 digits, is its ``repr``, copied in.
    """
    x = (bits & ~_SIGN).view(np.float64)
    fixed = (x < 2.0**48) & ((x >= 1e-4) | (x == 0))
    del x
    if fixed.all():
        fixed = _fixed_cells(bits, canvas, keys)
    elif fixed.any():
        at = np.flatnonzero(fixed)
        rows, row_keys = canvas[at], keys[at]
        fixed[at] = _fixed_cells(bits[at], rows, row_keys)
        canvas[at], keys[at] = rows, row_keys
    if not fixed.all():
        at = np.flatnonzero(~fixed)
        # Each repr right-aligned in 24 bytes, the length of the longest,
        # repr(-2.2250738585072014e-308): one formatting call for them all.
        text = ("%24r" * len(at)) % tuple(bits[at].view(np.float64).tolist())
        padded = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
        canvas[at, _SEP - 24 : _SEP] = padded
        keys[at] = _REPR_KEY + 24 - np.argmax(padded != ord(" "), axis=1)


def _fixed_cells(bits: np.ndarray, canvas: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Lay out floats with ``1e-4 <= |x| < 2**48``, or zeros, in ``canvas``,
    write their mask keys into ``keys`` and return whether each is laid out.

    An integer prints as its digits and ``.0``, any other ``x`` from its
    shortest round-trip digits (``_shortest``).  Only an exact decimal of
    more than 15 digits is not laid out.
    """
    magnitude = bits & ~_SIGN
    whole = magnitude.view(np.float64).astype(np.uint64)
    inexact = whole != magnitude.view(np.float64)
    places = np.ones(len(bits), np.int8)  # the 0 of an integer's ".0"
    ok = np.ones(len(bits), bool)
    if inexact.all():
        digits, exponent, ok = _shortest(magnitude)
    elif inexact.any():
        at = np.flatnonzero(inexact)
        digits, exponent, ok[at] = _shortest(magnitude[at])
    del magnitude
    fraction = np.zeros(len(bits), np.uint64)
    if inexact.any():
        # digits * 10**exponent, exponent < 0, has the integer part of x: no
        # integer lies between them, as an integer this small is a double.
        at = slice(None) if inexact.all() else np.flatnonzero(inexact)
        places[at] = -exponent
        digits -= whole[at] * _POW10[np.minimum(-exponent, 19)]
        fraction[at] = digits
        del digits, exponent
    _digits(whole, canvas[:, :_DOT])
    _digits(fraction, canvas[:, _DOT + 1 : _SEP], shown=int(places.max()))
    del fraction
    count = _digit_count(whole)
    del whole
    negative = bits >= _SIGN
    at = np.flatnonzero(negative)
    canvas[at, _DOT - 1 - count[at]] = ord("-")
    keys[:] = (negative * 17 + count) * 21 + places
    return ok


# The layout of each column dtype, from bit patterns.
_LAYOUTS = {np.dtype(np.int64): _int_cells, np.dtype(np.float64): _float_cells}


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of positive doubles in ``[1e-4, 2**48)``.

    Returns ``digits``, ``exponent`` and ``ok``: for each double with
    ``ok``, ``digits * 10**exponent`` is the decimal that ``repr`` prints,
    the shortest that reads back to the double and, of those, the nearest
    (Ryū, Adams 2018).  ``ok`` is false only for a double whose exact
    decimal value has more than 15 digits.

    With ``x = m * 2**(E - 1075)``, ``x * 10**k = 4m * 5**k / 2**s`` for
    ``s = 1077 - E - k >= 4``, and every decimal that reads back to ``x``,
    times ``10**k``, lies strictly between ``(4m - 2) * 5**k / 2**s`` and
    ``(4m + 2) * 5**k / 2**s``.  Neither bound is an integer, so whether
    it reads back does not matter, and the interval is at least 22 wide.
    (The lower gap of a power of two is half as wide, but every power of
    two in this range is an exact decimal, which only drops zeros.)
    """
    exponent = (bits >> np.uint64(52)).astype(np.intp)
    k = _K[exponent]
    shift = _SHIFT[exponent]
    del exponent
    # x * 10**k in floating point is within 129 of vr = floor(4m * 5**k / 2**s);
    # the low 64 bits of 4m * 5**k, which wrap exactly, correct it.
    vr = (bits.view(np.float64) * _TENS[k]).astype(np.uint64)
    p5 = _POW5[k]
    rest = (bits & _MANTISSA) | np.uint64(1 << 52)
    rest <<= np.uint64(2)
    rest *= p5
    rest -= vr << shift
    vr += (rest.view(np.int64) >> shift.view(np.int64)).view(np.uint64)
    rest &= (np.uint64(1) << shift) - np.uint64(1)
    inexact = rest != 0
    # The floors of the bounds.  An exact decimal gets bounds vr and vr - 1:
    # it only drops its zeros.
    p5 <<= np.uint64(1)
    p5 *= inexact
    vp = vr + ((rest + p5) >> shift)
    p5 |= ~inexact
    p5 -= rest
    p5 += (np.uint64(1) << shift) - np.uint64(1)
    vm = vr - (p5 >> shift)
    del p5, rest, shift

    # Drop the most digits that leave a multiple of 10**dropped between the
    # bounds: whether one is left is monotone in the count, so the count is
    # found bit by bit, each step a division by a scalar over the piece.
    exponent = (-k).astype(np.int8)  # of the last digit kept
    del k
    up = np.zeros(len(bits), bool)  # whether the last digit dropped is 5 or more
    for d in (16, 8, 4, 2, 1):
        vp_d, vm_d = vp // _POW10[d], vm // _POW10[d]
        drop = vp_d > vm_d
        if not drop.any():
            continue
        vp, vm = np.where(drop, vp_d, vp), np.where(drop, vm_d, vm)
        del vp_d, vm_d
        t = vr // _POW10[d - 1]
        kept = t // np.uint64(10)
        t -= kept * np.uint64(10)
        up = np.where(drop, t >= np.uint64(5), up)
        vr = np.where(drop, kept, vr)
        del t, kept
        exponent += drop * np.int8(d)
    # Round to nearest.  There are no ties: an exact decimal drops only
    # zeros, and any other x * 10**k is not an integer.  The result lies
    # between the bounds, which are x -+ h: a truncation below the lower
    # one is more than h below x, while the next multiple is at most h
    # above it, so the digits dropped exceed half and round it up.
    vr += up
    return vr, exponent, inexact | (vr < _POW10[15])


def read_header(stream: IO[str]) -> TableHeader:
    """Read a table's header up to its column line, skipping blank lines.

    Raises:
        InvalidInputError: When the stream ends before a column line.
    """
    tag: str | None = None
    metadata: dict[str, str] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            return TableHeader(tag, metadata, line, lineno)
        body = line[1:].strip()
        if ":" in body:
            key, _, value = body.partition(":")
            metadata[key.strip()] = value.strip()
        elif tag is None and body.startswith("pemix-"):
            tag = body
    raise InvalidInputError("the file has no column header and no data rows")


def _check_tag(header: TableHeader, tag: str) -> None:
    """Reject a table tagged as another pemix table; an untagged one passes."""
    if header.tag is not None and header.tag != tag:
        raise InvalidInputError(f"expected a {tag!r} file, got {header.tag!r}")


def read_rows(stream: IO[str], header: TableHeader, dtype: np.dtype) -> np.ndarray:
    """Parse the rows after ``header`` into a 1-D ``dtype`` array, skipping ``#`` lines.

    Raises:
        InvalidInputError: On a cell that does not parse as its field's
            type, a row with the wrong number of cells, or no rows at all.
            The message names the file line.
    """
    # loadtxt pulls one line at a time and stops at the first line it
    # cannot parse; zip draws a number per line pulled, so the counter then
    # stands one past that line.  loadtxt's own row count skips blank and
    # comment lines and is not the file line.
    counter = itertools.count(header.lineno + 1)
    lines = map(operator.itemgetter(1), zip(counter, stream))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows; raised below
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", ndmin=1)
    except UnicodeDecodeError:
        raise  # a byte, not a line, is at fault: the caller names the file
    except ValueError as exc:
        reason = re.sub(r" at row \d+", "", str(exc)).split(";")[0]
        raise InvalidInputError(f"line {next(counter) - 1}: {reason}") from None
    if not len(table):
        raise InvalidInputError(f"no data rows after the column header on line {header.lineno}")
    return table


def write_series_csv(
    stream: IO[str],
    series: TimeSeries,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Serialize a series as two-column CSV with a ``#`` metadata header.

    The header always carries ``spacing``, ``unit`` and ``origin``; callers
    may add further keys (cleaning counts, generator parameters, digests).
    Floats are written with ``repr`` so a read-back reproduces them exactly.
    The time column is made one block of rows at a time, so no array of
    every time is held.
    """
    header: dict[str, object] = {
        "spacing": repr(series.spacing),
        "unit": series.unit,
        "origin": repr(series.origin),
    }
    header.update(metadata or {})

    def rows() -> Iterable[tuple[np.ndarray, np.ndarray]]:
        # The times of one block at a time, each equal to its cell of times().
        # Four pieces to a block: the writer reuses its canvas within one.
        block = 4 * _piece_rows(2)
        for start in range(0, len(series), block):
            stop = min(start + block, len(series))
            times = series.origin + series.spacing * np.arange(start, stop, dtype=np.float64)
            yield times, series.values[start:stop]

    write_table(stream, _SERIES_TAG, header, _COLUMNS, rows())


def read_series_csv(stream: IO[str]) -> tuple[TimeSeries, dict[str, str]]:
    """Read a series written by :func:`write_series_csv`.

    Returns the series and the raw header metadata.  ``spacing``/``origin``
    are taken from the header when present, otherwise inferred from the
    time column.  Every step of the time column must equal ``spacing`` to
    within ``1e-9 * spacing`` plus four units in the last place of the
    largest time, the rounding that ``origin + i * spacing`` can carry.

    Raises:
        InvalidInputError: On a malformed file, including one whose column
            header is not ``time,value`` (such as a trace table), one tagged
            as another pemix table, one whose header ``spacing`` or ``origin``
            is not a number, and one whose time column skips or repeats a
            step or does not start at the ``origin``.
    """
    header = read_header(stream)
    if header.columns != _COLUMNS:
        raise InvalidInputError(
            f"line {header.lineno}: expected the column header {_COLUMNS!r}, "
            f"got {header.columns!r}"
        )
    _check_tag(header, _SERIES_TAG)
    table = read_rows(stream, header, _SERIES_DTYPE)
    times = table["time"]
    steps = np.diff(times)
    metadata = header.metadata
    for key in ("spacing", "origin"):
        try:
            float(metadata.get(key, "0"))
        except ValueError:
            raise InvalidInputError(f"header {key} {metadata[key]!r} is not a number") from None
    if "spacing" in metadata:
        spacing = float(metadata["spacing"])
    elif len(steps):
        spacing = float(np.median(steps))
    else:
        spacing = 1.0
    origin = float(metadata["origin"]) if "origin" in metadata else float(times[0])
    unit = metadata.get("unit", "samples")
    series = TimeSeries(
        values=np.ascontiguousarray(table["value"]), spacing=spacing, unit=unit, origin=origin
    )
    tolerance = 1e-9 * series.spacing + 4 * np.spacing(np.abs(times).max())
    uneven = np.flatnonzero(~(np.abs(steps - series.spacing) <= tolerance))
    if uneven.size:
        i = uneven[0]
        raise InvalidInputError(
            f"uneven time column: the step from time {times[i]} to {times[i + 1]} "
            f"is not the spacing {series.spacing!r}"
        )
    if not abs(times[0] - series.origin) <= tolerance:
        raise InvalidInputError(f"the first time {times[0]} is not the origin {series.origin!r}")
    return series, metadata


def write_trace_csv(
    stream: IO[str], blocks: Iterable[PETraceSet], metadata: Mapping[str, object]
) -> None:
    """Write the blocks of one trace set in anchor order as they arrive.

    Blocks come from :func:`~pemix.entropy.trace_blocks`, at least one; the
    column line is taken from the first.  The bytes are those of the joined
    set, and only one block is held at a time.
    """
    blocks = iter(blocks)
    first = next(blocks)
    columns = "anchor," + ",".join(f"pe_tau{tau}" for tau in first.taus)
    rows = _block_columns(lambda block: [block.anchors, *block.traces], blocks, first)
    del first  # written, and then let go of, by ``rows``
    write_table(stream, _TRACE_TAG, metadata, columns, rows)


def _block_columns(cells: Callable, blocks: Iterator, first: object = None) -> Iterator[Sequence]:
    """``cells(first)``, when given, then ``cells`` of each of ``blocks``: the column
    arrays of one block at a time, each let go of once the writer asks for the next."""
    if first is not None:
        yield cells(first)
        del first
    for block in blocks:
        yield cells(block)
        del block


def read_trace_csv(stream: IO[str]) -> tuple[PETraceSet, dict[str, str]]:
    header = read_header(stream)
    first = re.fullmatch(r"anchor,pe_tau(-?[0-9]+)(,.+)?", header.columns)
    if first is None:
        raise InvalidInputError(
            "trace file must have columns 'anchor,pe_tau<min>,...,pe_tau<max>'"
        )
    tau_min, strides = int(first[1]), header.columns.count(",")
    expected = "anchor," + ",".join(f"pe_tau{tau_min + k}" for k in range(strides))
    if header.columns != expected:
        raise InvalidInputError(
            f"trace columns {header.columns!r} are not the contiguous strides {expected!r}"
        )
    _check_tag(header, _TRACE_TAG)
    # An integer field keeps int()'s strictness: "150.0" is not an anchor.
    dtype = np.dtype([("anchor", "i8"), ("pe", "f8", (strides,))])
    table = read_rows(stream, header, dtype)
    return PETraceSet(tau_min, table["anchor"], table["pe"].T), header.metadata


def write_reversal_csv(
    stream: IO[str], blocks: Iterable[ReversalSeries], metadata: Mapping[str, object]
) -> None:
    """Write the blocks of one score series in anchor order as they arrive.

    The bytes are those of the joined series; ``metadata`` carries any mean.
    """
    rows = _block_columns(lambda block: (block.anchors, block.r_values), iter(blocks))
    write_table(stream, _REVERSAL_TAG, metadata, "anchor,reversal", rows)


def write_sweep_csv(stream: IO[str], result: BinSweepResult, metadata: Mapping[str, object]) -> None:
    """Write the sweep's rows under ``metadata`` and its recommendation, one
    f-string per row: :func:`write_table` has no layout for the bool column
    ``data_sufficient``, and a sweep's few dozen rows would not pay for one."""
    recommendation = {
        "recommended_bin": result.recommended_j,
        "achieved_zero": "true" if result.achieved_zero else "false",
    }
    write_header(stream, _SWEEP_TAG, {**metadata, **recommendation})
    stream.write("bin_size,mean_reversal,data_sufficient\n")
    columns = (result.bin_sizes.tolist(), result.r_bars.tolist(), result.sufficient.tolist())
    for j, r, sufficient in zip(*columns):
        stream.write(f"{j},{r!r},{'true' if sufficient else 'false'}\n")
