"""Evenly spaced time series container and its CSV serialization.

A :class:`TimeSeries` is the unit of exchange between every stage of the
toolkit: generators produce one, the cleaning pipeline repairs one, and the
entropy machinery consumes one.  Values may contain NaN while a series is
still being cleaned; the analysis stages reject non-finite values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import IO, Mapping

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Quality",
    "TimeSeries",
    "read_series_csv",
    "write_series_csv",
]


class Quality(enum.IntEnum):
    """Per-point provenance flag carried through the cleaning pipeline."""

    GOOD = 0
    FILLED = 1
    SUSPECT = 2


@dataclass(frozen=True)
class TimeSeries:
    """Evenly spaced scalar observations.

    Attributes:
        values: 1-D float64 array of observations.
        spacing: Time between consecutive observations, > 0.
        unit: Unit of ``spacing`` (free-form label, e.g. "seconds").
        origin: Time of the first observation, in the same unit.
        quality: Optional uint8 array of :class:`Quality` codes, one per
            observation.  ``None`` means all points are ordinary
            observations.
    """

    values: np.ndarray
    spacing: float = 1.0
    unit: str = "samples"
    origin: float = 0.0
    quality: np.ndarray | None = field(default=None)

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
        if self.quality is not None:
            quality = np.asarray(self.quality, dtype=np.uint8)
            if quality.shape != values.shape:
                raise InvalidInputError(
                    "quality flags must match values length "
                    f"({quality.shape[0]} != {values.shape[0]})"
                )
            object.__setattr__(self, "quality", quality)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def times(self) -> np.ndarray:
        """Observation times: ``origin + i * spacing``."""
        return self.origin + self.spacing * np.arange(len(self), dtype=np.float64)

    def replace_values(self, values: np.ndarray, quality: np.ndarray | None = None) -> "TimeSeries":
        """Copy of this series with new values on the same time grid."""
        return TimeSeries(
            values=values,
            spacing=self.spacing,
            unit=self.unit,
            origin=self.origin,
            quality=quality,
        )


_FORMAT_TAG = "pemix-series v1"
_COLUMNS = "time,value"


def write_series_csv(
    stream: IO[str],
    series: TimeSeries,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Serialize a series as two-column CSV with a ``#`` metadata header.

    The header always carries ``spacing``, ``unit`` and ``origin``; callers
    may add further keys (cleaning counts, generator parameters, digests).
    Floats are written with ``repr`` so a read-back reproduces them exactly.
    """
    stream.write(f"# {_FORMAT_TAG}\n")
    header: dict[str, object] = {
        "spacing": repr(series.spacing),
        "unit": series.unit,
        "origin": repr(series.origin),
    }
    if metadata:
        for key, value in metadata.items():
            header[str(key)] = value
    for key, value in header.items():
        stream.write(f"# {key}: {value}\n")
    stream.write(f"{_COLUMNS}\n")
    times = series.times()
    values = series.values
    for i in range(len(series)):
        stream.write(f"{float(times[i])!r},{float(values[i])!r}\n")


def read_series_csv(stream: IO[str]) -> tuple[TimeSeries, dict[str, str]]:
    """Read a series written by :func:`write_series_csv`.

    Returns the series and the raw header metadata.  ``spacing``/``origin``
    are taken from the header when present, otherwise inferred from the
    time column.

    Raises:
        InvalidInputError: On a malformed file, including one whose column
            header is not ``time,value`` (such as a trace table).
    """
    metadata: dict[str, str] = {}
    rows_t: list[float] = []
    rows_v: list[float] = []
    saw_columns = False
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                metadata[key.strip()] = value.strip()
            continue
        if not saw_columns:
            # First non-comment line is the column header.
            if line != _COLUMNS:
                raise InvalidInputError(
                    f"line {lineno}: expected the column header {_COLUMNS!r}, got {line!r}"
                )
            saw_columns = True
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise InvalidInputError(f"line {lineno}: expected 'time,value', got {line!r}")
        try:
            rows_t.append(float(parts[0]))
            rows_v.append(float(parts[1]))
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: {exc}") from None
    if not rows_v:
        raise InvalidInputError("series file contains no data rows")
    values = np.asarray(rows_v, dtype=np.float64)
    times = np.asarray(rows_t, dtype=np.float64)
    if "spacing" in metadata:
        spacing = float(metadata["spacing"])
    elif len(times) > 1:
        spacing = float(np.median(np.diff(times)))
    else:
        spacing = 1.0
    origin = float(metadata["origin"]) if "origin" in metadata else float(times[0])
    unit = metadata.get("unit", "samples")
    return TimeSeries(values=values, spacing=spacing, unit=unit, origin=origin), metadata

