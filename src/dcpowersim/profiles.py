"""Hourly profile CSV parsing and result serialization.

Input profiles are strict hourly series: ISO timestamps of the form
``YYYY-MM-DDTHH:MM``, strictly increasing, spaced exactly one hour apart.
Any bad row aborts the parse with a diagnostic naming the data row number;
a profile is never returned partially valid.

Timestamps carry no timezone and are treated as opaque labels once
validated; the utilisation and weather profiles driving one simulation
must agree on them verbatim.

A profile holds its timestamps and values as tuples, copied from any
other sequence on construction, so they cannot change afterwards.  Each
profile keeps its own range verdict, computed on the first ``simulate``
that reads it: one profile run under many scenarios is tested once, by
the ``errors`` rule that ``simulate``'s row search names a failed row by.  An
ambient profile likewise keeps its values in ascending order, built on
the first refrigerated ``simulate`` and read by every later one.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .config import COMPONENTS
from .errors import (FINITE, UNIT, EmptyProfile, GapInSeries,
                     InvariantViolation, MalformedRow, NonMonotonicTime,
                     OutOfRange, _Record)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import SimulationResult

_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M"
_ONE_HOUR = dt.timedelta(hours=1)
_LAST_DAY = dt.date.max.toordinal()

_Columns = tuple[tuple[str, ...], tuple[float, ...]]   # stamps, values

UTILISATION_HEADER = ("timestamp", "utilisation")
TEMPERATURE_HEADER = ("timestamp", "temperature_c")

RESULT_COLUMNS = ("timestamp", "utilisation", "ambient_c",
                  *(f"{component.name}_w" for component in COMPONENTS),
                  "total_w")

TEMPERATURE_BOUNDS_C = (-60.0, 60.0)


class _HourlySeries(_Record):
    def __init__(self, timestamps: Sequence[str],
                 values: Sequence[float]) -> None:
        # tuple(t) is t for a tuple, so a parsed profile is not copied.
        timestamps, values = tuple(timestamps), tuple(values)
        if len(timestamps) != len(values):
            raise InvariantViolation(
                f"{len(timestamps)} timestamps but {len(values)} values")
        self._set(timestamps=timestamps, values=values)

    def __len__(self) -> int:
        return len(self.timestamps)

    @cached_property
    def _in_domain(self) -> bool:
        """Whether every value holds the profile kind's ``_DOMAIN`` rule."""
        return all(map(self._DOMAIN[0], self.values))


class UtilisationProfile(_HourlySeries):
    """Hourly aggregate utilisation series, values in [0, 1]."""

    _DOMAIN = UNIT


class AmbientProfile(_HourlySeries):
    """Hourly outdoor temperature series, degrees Celsius."""

    _DOMAIN = FINITE

    @cached_property
    def _ascending(self):
        """The values in ascending order, and an ``itemgetter`` of each
        hour's rank in that order, which puts a column built in that order
        back into hour order as a tuple.  Read only once every value is
        known to be finite: ``sorted`` cannot order a NaN."""
        ts = self.values
        order = sorted(range(len(ts)), key=ts.__getitem__)
        ranks = [0] * len(ts)
        for rank, hour in enumerate(order):
            ranks[hour] = rank
        # itemgetter of one index returns the item, not a 1-tuple.
        return (tuple([ts[hour] for hour in order]),
                itemgetter(*ranks) if len(ranks) > 1 else tuple)


def _parse_timestamp(raw: str, row_no: int) -> dt.datetime:
    try:
        return dt.datetime.strptime(raw, _TIMESTAMP_FORMAT)
    except ValueError:
        raise MalformedRow(
            f"row {row_no}: bad timestamp {raw!r}, expected YYYY-MM-DDTHH:MM"
        ) from None


def _hourly_run(first: dt.datetime, n: int) -> tuple[str, ...]:
    """``n`` canonical stamps an hour apart from ``first``; fewer if they
    would pass 9999-12-31."""
    hours = [f"T{hour:02d}:{first.minute:02d}" for hour in range(24)]
    day = first.toordinal()
    days = range(day, min(day + (first.hour + n + 23) // 24, _LAST_DAY + 1))
    run = [date + hour for date in map(str, map(dt.date.fromordinal, days))
           for hour in hours]
    return tuple(run[first.hour:first.hour + n])


def _parse_columns(text: str, header: tuple[str, str],
                   low: float, high: float) -> _Columns | None:
    """The series checked as whole columns, or None when anything is off,
    leaving the verdict and its message to :func:`_parse_rows`.

    Without quotes or a CR outside a CRLF line end, and with no line
    longer than the field limit, the rows ``csv.reader`` yields are the
    lines split at commas; ``str.strip`` and ``float`` drop a line's CR.
    """
    if '"' in text or ("\r" in text
                       and text.count("\r") != text.count("\r\n")):
        return None
    lines = text.split("\n")
    if (max(map(len, lines)) > csv.field_size_limit()
            or tuple(cell.strip() for cell in lines[0].split(",")) != header):
        return None
    # Blank lines are skipped, as _parse_rows skips them; each other line
    # holds one stamp and one value.
    lines = list(filter(str.strip, lines[1:]))
    if set(map(str.count, lines, repeat(","))) != {1}:
        return None
    cells = ",".join(lines).split(",")
    stamps = tuple(map(str.strip, cells[0::2]))
    try:
        values = tuple(map(float, cells[1::2]))
        first = dt.datetime.fromisoformat(stamps[0])
    except ValueError:
        return None
    if 0.0 in values:   # -0 to 0, as _parse_rows does
        values = tuple([value + 0.0 for value in values])
    # NaN fails both comparisons.
    if not (all(map(low.__le__, values)) and all(map(high.__ge__, values))
            and stamps == _hourly_run(first, len(stamps))):
        return None
    return stamps, values


def _parse_rows(text: str, header: tuple[str, str],
                low: float, high: float, out_of_range: str) -> _Columns:
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(io.StringIO(text)))
    except csv.Error as exc:   # a field longer than csv.field_size_limit()
        where = f"row {len(rows)}" if rows else "header"
        raise MalformedRow(f"{where}: {exc}") from None
    if not rows or tuple(cell.strip() for cell in rows[0]) != header:
        raise MalformedRow(
            f"expected header {','.join(header)!r}, got "
            f"{','.join(rows[0]) if rows else ''!r}"
        )
    timestamps: list[str] = []
    values: list[float] = []
    for row_no, row in enumerate(rows[1:], start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise MalformedRow(f"row {row_no}: expected 2 fields, got {len(row)}")
        stamp_text = row[0].strip()
        parsed = _parse_timestamp(stamp_text, row_no)
        try:
            value = float(row[1]) + 0.0   # -0 to 0; no other value changes
        except ValueError:
            raise MalformedRow(
                f"row {row_no}: bad number {row[1]!r}") from None
        if not low <= value <= high:
            raise OutOfRange(f"row {row_no}: {out_of_range.format(value)}")
        if timestamps:
            delta = parsed - previous
            if delta <= dt.timedelta(0):
                raise NonMonotonicTime(
                    f"row {row_no}: timestamp {stamp_text!r} does not advance")
            if delta != _ONE_HOUR:
                raise GapInSeries(
                    f"row {row_no}: spacing {delta} is not exactly one hour")
        previous = parsed
        timestamps.append(stamp_text)
        values.append(value)
    if not timestamps:
        raise EmptyProfile("profile has a header but no data rows")
    return tuple(timestamps), tuple(values)


def _parse_series(text: str, header: tuple[str, str],
                  low: float, high: float, out_of_range: str) -> _Columns:
    # One leading byte-order mark, as spreadsheet exports write.
    text = text.removeprefix("\ufeff")
    return (_parse_columns(text, header, low, high)
            or _parse_rows(text, header, low, high, out_of_range))


def parse_utilisation_csv(text: str) -> UtilisationProfile:
    """Parse a ``timestamp,utilisation`` CSV into a validated profile."""
    return UtilisationProfile(*_parse_series(
        text, UTILISATION_HEADER, 0.0, 1.0, "utilisation {} outside [0, 1]"))


def parse_temperature_csv(text: str) -> AmbientProfile:
    """Parse a ``timestamp,temperature_c`` CSV into a validated profile."""
    low, high = TEMPERATURE_BOUNDS_C
    return AmbientProfile(*_parse_series(
        text, TEMPERATURE_HEADER, low, high,
        f"temperature {{}} outside [{low}, {high}] C"))


def _needs_quotes(text: str) -> bool:
    # Where csv.writer quotes; a CR too, as csv.writer does from 3.13.
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


def format_csv(header: tuple[str, ...], columns: tuple) -> str:
    """CSV of equal-length columns: ``timestamp`` verbatim, the rest to 10
    significant digits (parse(write(x)) agrees with x well past the
    6-significant-digit contract).  A timestamp column is searched once
    for a character to quote, and quoted cell by cell only if it has one."""
    row = ",".join("%s" if name == "timestamp" else "%.10g"
                   for name in header) + "\n"
    columns = [map(_csv_field, column)
               if name == "timestamp" and _needs_quotes("".join(column))
               else column for name, column in zip(header, columns)]
    return ",".join(header) + "\n" + "".join(
        [row % values for values in zip(*columns)])


def write_results_csv(result: "SimulationResult") -> str:
    """Serialize a simulation result to CSV, one row per timestep."""
    return format_csv(RESULT_COLUMNS, (
        result.timestamps, result.utilisation, result.ambient_c,
        *result.components, result.total_w))
