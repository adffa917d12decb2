"""Return-series container and CSV round trips."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ReturnSeries:
    """Observed returns with optional ISO-8601 date labels.

    Values must be finite; dates, when present, must be strictly increasing
    and aligned with the values.
    """

    values: np.ndarray
    dates: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.isfinite(self.values).all():
            bad = np.flatnonzero(~np.isfinite(self.values))[:10]
            raise ValueError(f"non-finite return values at rows {bad.tolist()}")
        if self.dates is not None:
            if len(self.dates) != self.values.size:
                raise ValueError("dates and values must have equal length")
            if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
                raise ValueError("dates must be strictly increasing")

    def __len__(self) -> int:
        return int(self.values.size)

    def slice(self, start: int, stop: int) -> "ReturnSeries":
        dates = self.dates[start:stop] if self.dates is not None else None
        return ReturnSeries(self.values[start:stop].copy(), dates)


def read_returns_csv(path, column: str | int = "return",
                     date_column: str | None = "date") -> ReturnSeries:
    """Load a return series from a headered, comma-separated UTF-8 file.

    ``column`` selects the numeric column by header name or 0-based index;
    a date column is attached when present.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a CSV header row")
        header = [h.strip() for h in header]
        if isinstance(column, int):
            col_idx = column
            if not 0 <= col_idx < len(header):
                raise ValueError(f"{path}: column index {column} out of range")
        else:
            if column not in header:
                raise ValueError(
                    f"{path}: no column named {column!r}; header is {header}")
            col_idx = header.index(column)
        date_idx = None
        if date_column is not None and date_column in header:
            date_idx = header.index(date_column)
        values, dates = [], []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                values.append(float(row[col_idx]))
            except (ValueError, IndexError):
                raise ValueError(
                    f"{path}: row {row_no}, column {header[col_idx]!r}: "
                    f"cannot parse {row[col_idx] if col_idx < len(row) else '<missing>'!r}")
            if date_idx is not None:
                dates.append(row[date_idx])
    if not values:
        raise ValueError(f"{path}: no data rows")
    return ReturnSeries(np.array(values), dates if dates else None)


def write_returns_csv(path, series: ReturnSeries, extra: dict | None = None) -> None:
    """Write ``date,return[,extra...]`` rows; omits the date column if absent."""
    cols = {}
    if series.dates is not None:
        cols["date"] = series.dates
    cols["return"] = [repr(float(v)) for v in series.values]
    for name, vals in (extra or {}).items():
        cols[name] = [repr(float(v)) for v in vals]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(cols))
        for row in zip(*cols.values()):
            writer.writerow(row)
