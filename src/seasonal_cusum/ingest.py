"""Count dataset ingestion: CSV parsing, calendar metadata, train/test split.

CSV formats (UTF-8, header row required, ISO-8601 dates, 24h HH:MM times):
    daily:  date,count
    slots:  date,slot_start,count
Absent dates are never imputed: fitting and detection skip them, and the
detector state is frozen across them, not reset.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import date, time
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .daycal import (
    DEFAULT_ORIGIN,
    SATURDAY_SLOT_COUNT,
    DayMeta,
    day_meta,
    slot_index,
)
from .errors import DuplicateKeyError, ParseError, ValidationError, read_utf8

DAILY_HEADER = ["date", "count"]
SLOT_HEADER = ["date", "slot_start", "count"]


@dataclass(frozen=True, order=True)
class DailyRecord:
    date: date
    count: int


@dataclass(frozen=True, order=True)
class SlotRecord:
    date: date
    slot_start: time
    count: int
    # Grid index of slot_start, resolved (and checked on the grid) once.
    slot_index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slot_index", slot_index(self.slot_start))


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of daily and intraday counts with per-date metadata."""

    daily: tuple[DailyRecord, ...]
    slots: tuple[SlotRecord, ...]
    meta: Mapping[date, DayMeta]
    holidays: frozenset[date]
    origin: date

    @property
    def dates(self) -> list[date]:
        seen = {r.date for r in self.daily} | {r.date for r in self.slots}
        return sorted(seen)


def _build_meta(dates: Iterable[date], holidays: frozenset[date], origin: date) -> Mapping[date, DayMeta]:
    return MappingProxyType({d: day_meta(d, holidays, origin) for d in dates})


def build_dataset(
    daily: Iterable[DailyRecord] = (),
    slots: Iterable[SlotRecord] = (),
    holidays: frozenset[date] = frozenset(),
    origin: date = DEFAULT_ORIGIN,
) -> Dataset:
    daily = tuple(sorted(daily))
    slots = tuple(sorted(slots))
    dates = {r.date for r in daily} | {r.date for r in slots}
    if not dates:
        raise ValidationError("dataset has no records")
    return Dataset(
        daily=daily,
        slots=slots,
        meta=_build_meta(sorted(dates), holidays, origin),
        holidays=holidays,
        origin=origin,
    )


def _read_rows(path: str | Path, header: list[str]):
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        first = next(reader)
    except StopIteration:
        raise ParseError("empty file", line=1) from None
    if [c.strip() for c in first] != header:
        raise ParseError(f"expected header {','.join(header)!r}, got {','.join(first)!r}", line=1)
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=lineno)
        yield lineno, [c.strip() for c in row]


def _parse_date(text: str, lineno: int) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise ParseError(f"bad date {text!r}: {exc}", line=lineno) from None


def _parse_count(text: str, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"bad count {text!r}", line=lineno) from None
    if value < 0:
        raise ValidationError(f"line {lineno}: negative count {value}")
    return value


def parse_daily_csv(path: str | Path) -> tuple[DailyRecord, ...]:
    """Parse a `date,count` CSV into sorted, unique daily records."""
    records = []
    seen: set[date] = set()
    for lineno, (d_text, c_text) in _read_rows(path, DAILY_HEADER):
        d = _parse_date(d_text, lineno)
        if d in seen:
            raise DuplicateKeyError(f"line {lineno}: duplicate date {d.isoformat()}")
        seen.add(d)
        records.append(DailyRecord(d, _parse_count(c_text, lineno)))
    if not records:
        raise ParseError("no data rows", line=2)
    return tuple(sorted(records))


def parse_slot_csv(path: str | Path) -> tuple[SlotRecord, ...]:
    """Parse a `date,slot_start,count` CSV into sorted, unique slot records."""
    records = []
    seen: set[tuple[date, time]] = set()
    for lineno, (d_text, t_text, c_text) in _read_rows(path, SLOT_HEADER):
        d = _parse_date(d_text, lineno)
        try:
            t = time.fromisoformat(t_text)
        except ValueError as exc:
            raise ParseError(f"bad time {t_text!r}: {exc}", line=lineno) from None
        count = _parse_count(c_text, lineno)
        try:
            rec = SlotRecord(d, t, count)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        if d.weekday() == 6:
            raise ValidationError(f"line {lineno}: {d.isoformat()} is a Sunday (closed)")
        if d.weekday() == 5 and rec.slot_index >= SATURDAY_SLOT_COUNT:
            raise ValidationError(
                f"line {lineno}: slot {t.isoformat('minutes')} outside the Saturday grid"
            )
        key = (d, t)
        if key in seen:
            raise DuplicateKeyError(f"line {lineno}: duplicate slot ({d.isoformat()}, {t.isoformat('minutes')})")
        seen.add(key)
        records.append(rec)
    if not records:
        raise ParseError("no data rows", line=2)
    return tuple(sorted(records))


def write_daily_csv(records: Iterable[DailyRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DAILY_HEADER)
        for r in records:
            writer.writerow([r.date.isoformat(), r.count])


def write_slot_csv(records: Iterable[SlotRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SLOT_HEADER)
        for r in records:
            writer.writerow([r.date.isoformat(), r.slot_start.isoformat("minutes"), r.count])


def split_train_test(dataset: Dataset, split_date: date) -> tuple[Dataset, Dataset]:
    """Partition into train (date < split_date) and test (date >= split_date)."""
    dates = dataset.dates
    if split_date <= dates[0] or split_date > dates[-1]:
        raise ValidationError(
            f"split date {split_date.isoformat()} outside data range ({dates[0].isoformat()}, {dates[-1].isoformat()}]"
        )
    train = build_dataset(
        daily=[r for r in dataset.daily if r.date < split_date],
        slots=[r for r in dataset.slots if r.date < split_date],
        holidays=dataset.holidays,
        origin=dataset.origin,
    )
    test = build_dataset(
        daily=[r for r in dataset.daily if r.date >= split_date],
        slots=[r for r in dataset.slots if r.date >= split_date],
        holidays=dataset.holidays,
        origin=dataset.origin,
    )
    return train, test


def load_dataset(
    daily_path: str | Path,
    slot_path: str | Path | None = None,
    holidays: frozenset[date] = frozenset(),
    origin: date = DEFAULT_ORIGIN,
) -> Dataset:
    """Convenience loader combining the daily and (optional) slot CSVs."""
    slots = parse_slot_csv(slot_path) if slot_path is not None else ()
    return build_dataset(parse_daily_csv(daily_path), slots, holidays, origin)
