"""Loading and cleaning of irregular instrument exports.

The pipeline is: parse rows into (time, value) records, snap them onto
an even grid, forward-fill the holes, and optionally prefilter spikes.
Missing values are carried as NaN until the fill stage; per-point
quality flags record what was observed and what was synthesized.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .series import Quality, TimeSeries

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

    def as_dict(self) -> dict[str, object]:
        return {
            "n_missing_filled": self.n_missing_filled,
            "n_suspect_removed": self.n_suspect_removed,
            "gap_spans": [list(span) for span in self.gap_spans],
        }


def _parse_time(cell: str, lineno: int) -> float:
    """Numeric timestamp, or ISO-8601 converted to epoch seconds (UTC)."""
    text = cell.strip()
    try:
        return float(text)
    except ValueError:
        pass
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


def _looks_like_header(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell.strip())
            return False
        except ValueError:
            continue
    return True


def load_csv(
    path: str | Path,
    time_column: int | str = 0,
    value_column: int | str = 1,
    header_policy: str = "auto",
) -> list[tuple[float, float]]:
    """Parse a delimited text export into (time, value) records.

    Columns may be given by zero-based index or, when the file has a
    header row, by name.  The delimiter is comma when present,
    whitespace otherwise.  Blank lines and ``#`` comments are skipped.
    Unparseable or non-finite values become NaN records (missing
    markers); unparseable times are an error.

    Args:
        path: File to read.  I/O failures propagate as OSError.
        time_column: Index or header name of the timestamp column.
        value_column: Index or header name of the value column.
        header_policy: "auto" detects a non-numeric first row, "skip"
            always drops the first row, "none" treats every row as data.

    Raises:
        InvalidInputError: On missing columns, unusable header policy,
            or timestamps that go backwards (the first offending row is
            named).
        InsufficientDataError: If no usable rows remain.
    """
    if header_policy not in ("auto", "skip", "none"):
        raise InvalidInputError(
            f"header_policy must be 'auto', 'skip' or 'none', got {header_policy!r}"
        )
    records: list[tuple[float, float]] = []
    header: list[str] | None = None
    t_idx: int | None = None
    v_idx: int | None = None
    prev_time = -math.inf
    prev_row = -1
    with open(path, "r", encoding="utf-8", errors="replace") as stream:
        seen_rows = 0
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = _split_row(line)
            seen_rows += 1
            if seen_rows == 1:
                is_header = header_policy == "skip" or (
                    header_policy == "auto" and _looks_like_header(cells)
                )
                if is_header:
                    header = [c.strip() for c in cells]
                    continue
            if t_idx is None:
                t_idx = _resolve_column(time_column, header, "time")
                v_idx = _resolve_column(value_column, header, "value")
            if len(cells) <= max(t_idx, v_idx):
                raise InvalidInputError(
                    f"row {lineno}: expected at least {max(t_idx, v_idx) + 1} "
                    f"columns, got {len(cells)}"
                )
            t = _parse_time(cells[t_idx], lineno)
            if t < prev_time:
                raise InvalidInputError(
                    f"row {lineno}: time {cells[t_idx].strip()!r} is earlier than "
                    f"the previous row (row {prev_row}); input must be sorted"
                )
            prev_time = t
            prev_row = lineno
            records.append((t, _parse_value(cells[v_idx])))
    if not records:
        raise InsufficientDataError(f"{path}: no usable data rows")
    return records


def _resolve_column(selector: int | str, header: list[str] | None, kind: str) -> int:
    if isinstance(selector, (int, np.integer)):
        if selector < 0:
            raise InvalidInputError(f"{kind} column index must be >= 0, got {selector}")
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
    records: list[tuple[float, float]],
    target_spacing: float,
    unit: str = "seconds",
) -> TimeSeries:
    """Snap records onto an even grid anchored at the first record.

    The grid runs from the first to the last record time with the given
    spacing.  Each record lands in its nearest grid cell; when several
    records compete for one cell the record closest to the grid time
    wins (earliest on a tie).  Cells without a record hold NaN.  Cells
    whose winning record carries a NaN value are flagged suspect.

    Raises:
        InvalidInputError: On an empty record list, non-positive
            spacing, or a target spacing finer than the data's native
            spacing.
    """
    if not records:
        raise InvalidInputError("no records to regularize")
    if not (target_spacing > 0.0) or not math.isfinite(target_spacing):
        raise InvalidInputError(f"target spacing must be finite and > 0, got {target_spacing}")
    times = np.asarray([r[0] for r in records], dtype=np.float64)
    values = np.asarray([r[1] for r in records], dtype=np.float64)
    if times.shape[0] > 1:
        diffs = np.diff(times)
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
    quality = np.full(n_cells, int(Quality.GOOD), dtype=np.uint8)
    target = cells[chosen]
    observed = values[chosen]
    finite = np.isfinite(observed)
    grid_values[target[finite]] = observed[finite]
    quality[target[~finite]] = int(Quality.SUSPECT)
    return TimeSeries(
        values=grid_values,
        spacing=float(target_spacing),
        unit=unit,
        origin=origin,
        quality=quality,
    )


def fill_gaps(series: TimeSeries) -> tuple[TimeSeries, CleaningReport]:
    """Replace missing and suspect points with the last good value.

    A point is repaired when its value is NaN or its quality flag is
    suspect; repaired points are flagged filled.  Running the result
    through this function again changes nothing.

    Raises:
        InvalidInputError: If the first point itself needs repair; trim
            the series to start at the first good observation instead.
    """
    values = series.values.copy()
    n = values.shape[0]
    if n == 0:
        raise InvalidInputError("cannot fill an empty series")
    if series.quality is not None:
        quality = series.quality.copy()
    else:
        quality = np.full(n, int(Quality.GOOD), dtype=np.uint8)
    suspect = quality == int(Quality.SUSPECT)
    needs_fill = ~np.isfinite(values) | suspect
    if needs_fill[0]:
        raise InvalidInputError(
            "the first point is missing or suspect; trim the series to start "
            "at the first good observation before filling"
        )
    n_suspect = int((suspect & needs_fill).sum())
    n_missing = int(needs_fill.sum()) - n_suspect
    if needs_fill.any():
        good = ~needs_fill
        idx = np.where(good, np.arange(n), 0)
        last_good = np.maximum.accumulate(idx)
        values[needs_fill] = values[last_good[needs_fill]]
        quality[needs_fill] = int(Quality.FILLED)
    # +1 where a gap starts, -1 one past where it ends.
    edges = np.diff(needs_fill.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1).tolist()
    lasts = (np.flatnonzero(edges == -1) - 1).tolist()
    report = CleaningReport(
        n_missing_filled=n_missing,
        n_suspect_removed=n_suspect,
        gap_spans=tuple(zip(starts, lasts)),
    )
    return series.replace_values(values, quality=quality), report


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
    if width is None or not isinstance(width, (int, np.integer)):
        raise InvalidInputError("moving_median needs an integer width")
    width = int(width)
    if width < 3 or width % 2 == 0:
        raise InvalidInputError(f"median width must be odd and >= 3, got {width}")
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
    return series.replace_values(out, quality=series.quality)
