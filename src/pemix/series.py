"""Evenly spaced time series container and the pemix table codec.

A :class:`TimeSeries` is the unit of exchange between every stage of the
toolkit: generators produce one, the cleaning pipeline repairs one, and the
entropy machinery consumes one.  Values may contain NaN while a series is
still being cleaned; the analysis stages reject non-finite values.

Every pemix table (series, traces, reversal scores, sweeps) is a
``# pemix-<kind> v1`` tag, ``# key: value`` lines, a column line and
comma-separated rows, written and read by the codec below.
"""

from __future__ import annotations

import itertools
import operator
import re
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError

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
        unit: Unit of ``spacing`` (free-form label, e.g. "seconds").
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
        if not (float(self.spacing) > 0.0) or not np.isfinite(self.spacing):
            raise InvalidInputError(f"spacing must be finite and > 0, got {self.spacing}")
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "origin", float(self.origin))
        if not np.isfinite(self.origin):
            raise InvalidInputError(f"origin must be finite, got {self.origin}")

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def times(self) -> np.ndarray:
        """Observation times: ``origin + i * spacing``."""
        return self.origin + self.spacing * np.arange(len(self), dtype=np.float64)


_FORMAT_TAG = "pemix-series v1"
_COLUMNS = "time,value"
_SERIES_DTYPE = np.dtype([("time", "f8"), ("value", "f8")])
# Rows per ``stream.write``: the writer's memory is one block of cell
# strings, whatever the row count, and each distinct bit pattern of a
# column is formatted once per block.  Larger blocks are no faster, and the
# interpreter keeps part of their memory after the write: with 8192-row
# blocks ``reproduce mackey-glass`` peaked higher than with row-by-row writes.
_CHUNK_ROWS = 512


def _check_finite(values: np.ndarray) -> None:
    """Reject a NaN or infinite value, naming its position in ``values``.

    Raises:
        InvalidInputError: On the first non-finite value.
    """
    bad = ~np.isfinite(values)
    if bad.any():
        pos = int(np.argmax(bad))
        raise InvalidInputError(f"non-finite value at position {pos}: {values[pos]}")


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

    A block holds one equal-length 1-D array of 8-byte items per column,
    and its rows follow those of the block before, so a table can be
    written while later blocks are still being computed.  Each cell is the
    ``repr`` of the array's ``tolist()`` item, so integers print as
    integers and floats read back bit for bit.  Within a piece of
    ``_CHUNK_ROWS`` rows each distinct bit pattern of a column is formatted
    once, which pays off on traces that repeat a value anchor after anchor.
    The bytes do not depend on how the rows are split into blocks.
    """
    write_header(stream, tag, metadata)
    stream.write(f"{columns}\n")
    for data in blocks:
        for start in range(0, len(data[0]), _CHUNK_ROWS):
            cells = [_cells(column[start : start + _CHUNK_ROWS]) for column in data]
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
        del data  # released before the next block is computed


def _cells(block: np.ndarray) -> list[str]:
    """The ``repr`` of each item, one call per distinct bit pattern."""
    # Keyed on the bits, not on ==, so 0.0 and -0.0 (and NaN) keep their own repr.
    keys = block.view(np.int64)
    bits = np.sort(keys)
    repeats = bits[1:] == bits[:-1]
    if not repeats.any():  # all distinct, as in series columns: nothing to gather
        return list(map(repr, block.tolist()))
    bits = bits[np.append(True, ~repeats)]
    strings = np.array(list(map(repr, bits.view(block.dtype).tolist())), dtype=object)
    return strings[np.searchsorted(bits, keys)].tolist()


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
        for start in range(0, len(series), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, len(series))
            times = series.origin + series.spacing * np.arange(start, stop, dtype=np.float64)
            yield times, series.values[start:stop]

    write_table(stream, _FORMAT_TAG, header, _COLUMNS, rows())


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
    if header.tag is not None and header.tag != _FORMAT_TAG:
        raise InvalidInputError(f"expected a {_FORMAT_TAG!r} file, got {header.tag!r}")
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
