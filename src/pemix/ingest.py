"""Loading and cleaning of irregular instrument exports.

The pipeline is: parse rows into (time, value) records, snap them onto
an even grid, forward-fill the holes, and optionally prefilter spikes.
Missing values are carried as NaN until the fill stage.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .series import TimeSeries, _check_number

__all__ = [
    "CleaningReport",
    "load_csv",
    "regularize",
    "fill_gaps",
    "prefilter",
]


@dataclass(frozen=True)
class CleaningReport:
    """What :func:`fill_gaps` changed.

    ``gap_spans`` lists each repaired stretch as an inclusive
    ``(first, last)`` index pair into the cleaned series.
    """

    n_missing_filled: int = 0
    n_suspect_removed: int = 0
    gap_spans: tuple[tuple[int, int], ...] = field(default_factory=tuple)


# Lines parsed per block of ``load_csv``: bounds the strings and arrays
# that one block holds, whatever the length of the file.
_BLOCK_LINES = 1 << 15

_RECORD = np.dtype([("time", np.float64), ("value", np.float64)])

# Bytes per time cell in the strict UTC check; no strict stamp is longer
# than 27 characters.
_UTC_WIDTH = 32


def _utc_templates() -> np.ndarray:
    """Strict UTC stamps ``YYYY-MM-DDTHH:MM:SS[.fff|.ffffff]Z`` as
    ``_UTC_WIDTH``-byte rows indexed by cell length, every digit written
    as "0" and viewed as uint64 words.  Lengths without a form hold 0xFF,
    which no ASCII byte matches.  Fractions of other lengths are left to
    ``datetime.fromisoformat``, which rejects them before Python 3.11.
    """
    table = np.full((_UTC_WIDTH + 1, _UTC_WIDTH), 0xFF, dtype=np.uint8)
    for digits in (0, 3, 6):
        form = "0000-00-00T00:00:00" + ("." + "0" * digits if digits else "") + "Z"
        table[len(form)] = np.frombuffer(form.encode().ljust(_UTC_WIDTH, b"\0"), np.uint8)
    return table.view(np.uint64)


_UTC_TEMPLATES = _utc_templates()


def _parse_time(cell: str, lineno: int) -> float:
    """Numeric timestamp, or ISO-8601 converted to epoch seconds (UTC)."""
    text = cell.strip()
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if math.isfinite(value):
            return value
        raise InvalidInputError(f"row {lineno}: time {cell!r} is not finite")
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise InvalidInputError(
            f"row {lineno}: cannot parse time {cell!r} as a number or ISO-8601 timestamp"
        ) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def _parse_value(cell: str) -> float:
    """Observation value; anything unparseable or non-finite becomes NaN."""
    try:
        value = float(cell.strip())
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def _split_row(line: str) -> list[str]:
    if "," in line:
        return next(csv.reader([line]))
    return line.split()


def _looks_like_header(cells: list[str], time_column: int | str) -> bool:
    """A first row is data when its time cell parses or any cell is a number."""
    if isinstance(time_column, (int, np.integer)) and 0 <= time_column < len(cells):
        try:
            _parse_time(cells[time_column], 0)
            return False
        except InvalidInputError:
            pass
    for cell in cells:
        try:
            float(cell.strip())
            return False
        except ValueError:
            continue
    return True


def _data_lines(lines: list[str], first_lineno: int) -> tuple[list[str], np.ndarray]:
    """Stripped lines that are neither blank nor ``#`` comments, and their file line numbers."""
    stripped = list(map(str.strip, lines))
    keep = [i for i, line in enumerate(stripped) if line and line[0] != "#"]
    if len(keep) < len(stripped):
        stripped = [stripped[i] for i in keep]
    return stripped, np.asarray(keep, dtype=np.int64) + first_lineno


def _columns(lines: list[str], t_idx: int, v_idx: int) -> tuple[list[str], list[str], int]:
    """Time and value cells of the leading rows that have both, and the
    index of the first row too short to have them (``len(lines)`` if none).
    """
    need = max(t_idx, v_idx)
    text = ",".join(lines)
    if '"' not in text:
        commas = set(map(str.count, lines, itertools.repeat(",")))
        width = commas.pop() + 1 if len(commas) == 1 else 0
        if width > need:
            # Every row has the same number of comma-separated cells, so
            # one split of the whole block lays them out row after row.
            cells = text.split(",")
            return cells[t_idx::width], cells[v_idx::width], len(lines)
    rows = [_split_row(line) for line in lines]
    short = next((i for i, row in enumerate(rows) if len(row) <= need), len(rows))
    return [row[t_idx] for row in rows[:short]], [row[v_idx] for row in rows[:short]], short


def _utc_seconds(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Which cells are strict UTC ISO-8601 stamps, and their epoch seconds.

    The seconds equal ``datetime.timestamp()`` bit for bit: microsecond
    counts below 2**53 convert to float exactly before the one rounded
    division, and the rest are divided as Python integers.
    """
    try:
        raw = np.array(cells, dtype=f"S{_UTC_WIDTH}")
    except UnicodeEncodeError:
        return np.zeros(len(cells), dtype=bool), np.empty(0)
    # Python lengths, not numpy's, which leave out trailing NULs: a cell
    # is strict only in exactly the strict form.
    lengths = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    np.minimum(lengths, _UTC_WIDTH, out=lengths)
    codes = raw.view(np.uint8).reshape(len(cells), _UTC_WIDTH)
    above_zero = codes - np.uint8(ord("0"))
    classes = codes - above_zero * (above_zero < 10)  # every digit becomes "0"
    strict = (classes.view(np.uint64) == _UTC_TEMPLATES[lengths]).all(axis=1)
    # Year 0 is valid for numpy but not for datetime.
    strict &= (codes[:, :4] != ord("0")).any(axis=1)
    if not strict.any():
        return strict, np.empty(0)
    picked = codes[strict]
    picked[picked == ord("Z")] = 0
    micros = picked.view(f"S{_UTC_WIDTH}").ravel().astype("datetime64[us]").view(np.int64)
    seconds = micros / 1e6
    wide = np.abs(micros) >= 1 << 53
    if wide.any():
        seconds[wide] = [m / 10**6 for m in micros[wide].tolist()]
    return strict, seconds


def _parse_times(
    cells: list[str], linenos: np.ndarray
) -> tuple[np.ndarray, InvalidInputError | None]:
    """Epoch seconds of the leading cells, up to the first that does not
    parse, and that cell's error (``None`` when every cell parses).
    """
    times = np.empty(len(cells), dtype=np.float64)
    try:
        strict, seconds = _utc_seconds(cells)
        times[strict] = seconds
    except ValueError:
        # A strict-looking stamp out of range (hour 24, February 30):
        # parse the block cell by cell for the message and row.
        strict = np.zeros(len(cells), dtype=bool)
    for i in np.flatnonzero(~strict).tolist():
        try:
            times[i] = _parse_time(cells[i], int(linenos[i]))
        except InvalidInputError as exc:
            return times[:i], exc
    return times, None


def load_csv(
    path: str | Path,
    time_column: int | str = 0,
    value_column: int | str = 1,
    header_policy: str = "auto",
) -> np.ndarray:
    """Parse a delimited text export into (time, value) records.

    Columns may be given by zero-based index or, when the file has a
    header row, by name.  A row is split at commas (with ``csv``
    quoting) when it holds one, at whitespace otherwise.  Blank lines
    and ``#`` comments are skipped, and so is a leading UTF-8 byte-order
    mark.  Unparseable or non-finite values become NaN records (missing
    markers); unparseable or non-finite times are an error.  The file is
    parsed in blocks of
    ``_BLOCK_LINES`` lines; stamps in the strict UTC form
    ``YYYY-MM-DDTHH:MM:SS[.fff|.ffffff]Z`` are converted together and
    any other time cell one at a time.

    Args:
        path: File to read.  I/O failures propagate as OSError.
        time_column: Index or header name of the timestamp column.
        value_column: Index or header name of the value column.
        header_policy: "auto" takes the first row as a header when its
            time cell is neither a number nor a timestamp and no cell is
            a number; "skip" always drops the first row; "none" treats
            every row as data.

    Returns:
        A ``(n,)`` structured array with float64 fields ``time`` (epoch
        seconds for ISO-8601 stamps) and ``value``, in file order.

    Raises:
        InvalidInputError: On missing columns, unusable header policy,
            unparseable or non-finite times, or timestamps that go
            backwards (the first offending row is named).
        InsufficientDataError: If no usable rows remain.
    """
    if header_policy not in ("auto", "skip", "none"):
        raise InvalidInputError(
            f"header_policy must be 'auto', 'skip' or 'none', got {header_policy!r}"
        )
    blocks: list[np.ndarray] = []
    header: list[str] | None = None
    columns: tuple[int, int] | None = None
    first_row = True
    prev_time = -math.inf
    prev_row = -1
    with open(path, "r", encoding="utf-8-sig", errors="replace") as stream:
        next_lineno = 1
        while lines := list(itertools.islice(stream, _BLOCK_LINES)):
            data, linenos = _data_lines(lines, next_lineno)
            next_lineno += len(lines)
            if first_row and data:
                first_row = False
                first = _split_row(data[0])
                if header_policy == "skip" or (
                    header_policy == "auto" and _looks_like_header(first, time_column)
                ):
                    header = [c.strip() for c in first]
                    data, linenos = data[1:], linenos[1:]
            if not data:
                continue
            if columns is None:
                columns = (
                    _resolve_column(time_column, header, "time"),
                    _resolve_column(value_column, header, "value"),
                )
            t_idx, v_idx = columns
            t_cells, v_cells, short = _columns(data, t_idx, v_idx)
            times, error = _parse_times(t_cells, linenos)
            earlier = np.flatnonzero(times < np.concatenate(([prev_time], times[:-1])))
            if earlier.shape[0] > 0:
                i = int(earlier[0])
                before = int(linenos[i - 1]) if i > 0 else prev_row
                raise InvalidInputError(
                    f"row {linenos[i]}: time {t_cells[i].strip()!r} is earlier than "
                    f"the previous row (row {before}); input must be sorted"
                )
            if error is not None:
                raise error
            if short < len(data):
                raise InvalidInputError(
                    f"row {linenos[short]}: expected at least {max(columns) + 1} "
                    f"columns, got {len(_split_row(data[short]))}"
                )
            block = np.empty(len(times), dtype=_RECORD)
            block["time"] = times
            block["value"] = np.fromiter(map(_parse_value, v_cells), np.float64, len(v_cells))
            blocks.append(block)
            prev_time = float(times[-1])
            prev_row = int(linenos[-1])
    if not blocks:
        raise InsufficientDataError(f"{path}: no usable data rows")
    return np.concatenate(blocks)


def _resolve_column(selector: int | str, header: list[str] | None, kind: str) -> int:
    if isinstance(selector, (int, np.integer)):
        _check_number(f"{kind}_column", selector, 0, integer=True)
        return int(selector)
    if header is None:
        raise InvalidInputError(
            f"{kind} column {selector!r} given by name but the file has no header row"
        )
    if selector not in header:
        raise InvalidInputError(
            f"{kind} column {selector!r} not found in header {header}"
        )
    return header.index(selector)


def regularize(
    records: np.ndarray | Sequence[tuple[float, float]],
    target_spacing: float,
    unit: str = "seconds",
) -> tuple[TimeSeries, np.ndarray]:
    """Snap records onto an even grid anchored at the first record.

    ``records`` is what :func:`load_csv` returns, or any sequence of
    ``(time, value)`` pairs in time order; equal times may repeat.

    The grid runs from the first to the last record time with the given
    spacing.  Each record lands in its nearest grid cell; when several
    records compete for one cell the record closest to the grid time
    wins (earliest on a tie).  Cells without a record hold NaN.

    Returns:
        The series and its suspect mask: a bool array, True at the cells
        whose winning record carries a NaN value.  Those cells hold NaN
        too.

    Raises:
        InvalidInputError: On an empty record list, records that are not
            pairs, non-finite or decreasing times, non-positive spacing, or
            a target spacing finer than the data's native spacing.
    """
    if isinstance(records, np.ndarray) and records.dtype.names is not None:
        times = np.asarray(records["time"], dtype=np.float64)
        values = np.asarray(records["value"], dtype=np.float64)
    else:
        try:
            pairs = np.asarray(records, dtype=np.float64)
        except ValueError:
            raise InvalidInputError("records must be a sequence of (time, value) pairs") from None
        if pairs.size == 0:
            raise InvalidInputError("no records to regularize")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidInputError("records must be a sequence of (time, value) pairs")
        times, values = pairs[:, 0], pairs[:, 1]
    if times.shape[0] == 0:
        raise InvalidInputError("no records to regularize")
    _check_number("target_spacing", target_spacing, above=0)
    if not np.isfinite(times).all():
        raise InvalidInputError("record times must be finite")
    diffs = np.diff(times)
    if (diffs < 0.0).any():
        i = np.argmax(diffs < 0.0)
        raise InvalidInputError(f"record times must not decrease: {times[i]} then {times[i + 1]}")
    positive = diffs[diffs > 0.0]
    if positive.shape[0] > 0:
        native = float(np.median(positive))
        if target_spacing < native * (1.0 - 1e-9):
            raise InvalidInputError(
                f"target spacing {target_spacing} is finer than the data's "
                f"native spacing of about {native}"
            )
    origin = float(times[0])
    n_cells = int(math.floor((float(times[-1]) - origin) / target_spacing)) + 1
    cells = np.rint((times - origin) / target_spacing).astype(np.int64)
    np.clip(cells, 0, n_cells - 1, out=cells)
    distance = np.abs(times - (origin + cells * target_spacing))
    # Stable pick per cell: nearest record, earliest on equal distance.
    order = np.lexsort((np.arange(times.shape[0]), distance, cells))
    _, first_of_cell = np.unique(cells[order], return_index=True)
    chosen = order[first_of_cell]
    grid_values = np.full(n_cells, np.nan, dtype=np.float64)
    suspect = np.zeros(n_cells, dtype=bool)
    target = cells[chosen]
    observed = values[chosen]
    finite = np.isfinite(observed)
    grid_values[target[finite]] = observed[finite]
    suspect[target[~finite]] = True
    series = TimeSeries(grid_values, spacing=float(target_spacing), unit=unit, origin=origin)
    return series, suspect


def fill_gaps(
    series: TimeSeries, suspect: np.ndarray | None = None
) -> tuple[TimeSeries, CleaningReport]:
    """Replace missing and suspect points with the last good value.

    A point is repaired when its value is not finite or ``suspect`` is
    True there; the report counts suspect points apart from missing
    ones.  ``suspect`` is a bool mask of the series' length, such as
    :func:`regularize` returns; ``None`` marks no point suspect.  Running
    the result through this function again changes nothing.

    Raises:
        InvalidInputError: If ``suspect`` does not match the series'
            length, or the first point itself needs repair; trim the
            series to start at the first good observation instead.
    """
    values = series.values.copy()
    n = values.shape[0]
    if n == 0:
        raise InvalidInputError("cannot fill an empty series")
    suspect = np.zeros(n, dtype=bool) if suspect is None else np.asarray(suspect, dtype=bool)
    if suspect.shape != values.shape:
        raise InvalidInputError(
            f"suspect mask of shape {suspect.shape} does not match the {n} values"
        )
    needs_fill = ~np.isfinite(values) | suspect
    if needs_fill[0]:
        raise InvalidInputError(
            "the first point is missing or suspect; trim the series to start "
            "at the first good observation before filling"
        )
    n_suspect = int(suspect.sum())
    n_missing = int(needs_fill.sum()) - n_suspect
    if needs_fill.any():
        good = ~needs_fill
        idx = np.where(good, np.arange(n), 0)
        last_good = np.maximum.accumulate(idx)
        values[needs_fill] = values[last_good[needs_fill]]
    # +1 where a gap starts, -1 one past where it ends.
    edges = np.diff(needs_fill.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1).tolist()
    lasts = (np.flatnonzero(edges == -1) - 1).tolist()
    report = CleaningReport(
        n_missing_filled=n_missing,
        n_suspect_removed=n_suspect,
        gap_spans=tuple(zip(starts, lasts)),
    )
    return replace(series, values=values), report


def prefilter(
    series: TimeSeries,
    method: str = "none",
    width: int | None = None,
) -> TimeSeries:
    """Optional spike suppression before analysis.

    ``method="none"`` returns the series unchanged.
    ``method="moving_median"`` replaces each point with the median of a
    centered window of odd ``width``, clipped at the edges (edge points
    use the part of the window that exists).

    Raises:
        InvalidInputError: On an unknown method, an even or too-small
            width, or non-finite values (clean the series first).
    """
    if method == "none":
        return series
    if method != "moving_median":
        raise InvalidInputError(f"unknown prefilter method {method!r}")
    _check_number("median_width", width, 3, integer=True)
    if width % 2 == 0:
        raise InvalidInputError(f"median_width must be odd, got {width}")
    x = series.values
    n = x.shape[0]
    if not np.isfinite(x).all():
        raise InvalidInputError("prefilter requires finite values; fill gaps first")
    half = width // 2
    out = np.empty(n, dtype=np.float64)
    if n >= width:
        windows = np.lib.stride_tricks.sliding_window_view(x, width)
        out[half : n - half] = np.median(windows, axis=-1)
    for i in range(min(half, n)):
        out[i] = float(np.median(x[: i + half + 1]))
        out[n - 1 - i] = float(np.median(x[max(n - 1 - i - half, 0) :]))
    return replace(series, values=out)
