"""Operating calendar: half-hour slot grid, per-day metadata, holiday handling.

The call window is 07:30-18:30 on weekdays (22 half-hour slots) and
07:30-12:30 on Saturdays (the first 10 slots). Sundays and holidays are
closed. All times are local and naive.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path

from .errors import ParseError, ValidationError, read_utf8

WEEKDAY_SLOT_COUNT = 22
SATURDAY_SLOT_COUNT = 10
MORNING_SLOT_COUNT = 10  # slots starting before the 12:30 boundary
SLOT_MINUTES = 30
DAY_OPEN_MINUTE = 7 * 60 + 30

# Matches the origin used for the trend feature in the daily dataset.
DEFAULT_ORIGIN = date(2015, 4, 1)


# The 23 slot boundaries of the grid, 07:30 to 18:30, built once: slot k
# runs from _STARTS[k] to SLOT_ENDS[k]. Index them only after checking the
# index, as tuple indexing wraps a negative one around.
_BOUNDARIES = tuple(time(*divmod(DAY_OPEN_MINUTE + SLOT_MINUTES * k, 60)) for k in range(WEEKDAY_SLOT_COUNT + 1))
_STARTS, SLOT_ENDS = _BOUNDARIES[:-1], _BOUNDARIES[1:]


def _check_index(index: int) -> None:
    # Tuple indexing would wrap a negative index around silently.
    if not 0 <= index < WEEKDAY_SLOT_COUNT:
        raise ValidationError(f"slot index {index} outside [0, {WEEKDAY_SLOT_COUNT})")


def slot_start(index: int) -> time:
    """Start time of slot `index` (0-based from 07:30)."""
    _check_index(index)
    return _STARTS[index]


def slot_end(index: int) -> time:
    _check_index(index)
    return SLOT_ENDS[index]


def slot_index(t: time) -> int:
    """Slot index of a half-hour-aligned start time; raises if off-grid."""
    minute = t.hour * 60 + t.minute
    offset = minute - DAY_OPEN_MINUTE
    if t.second or t.microsecond or offset % SLOT_MINUTES:
        raise ValidationError(f"slot start {t.isoformat('minutes')} is not half-hour aligned to the grid")
    index = offset // SLOT_MINUTES
    if not 0 <= index < WEEKDAY_SLOT_COUNT:
        raise ValidationError(f"slot start {t.isoformat('minutes')} outside 07:30-18:00")
    return index


@dataclass(frozen=True)
class DayMeta:
    """Calendar facts about one date, derived purely from (date, holidays, origin)."""

    date: date
    day_of_week: int  # 0 = Monday .. 6 = Sunday
    month: int
    days_since_origin: int
    is_weekday: bool
    is_day_after_holiday: bool
    is_open: bool

    @property
    def open_slot_count(self) -> int:
        if not self.is_open:
            return 0
        return SATURDAY_SLOT_COUNT if self.day_of_week == 5 else WEEKDAY_SLOT_COUNT


def day_meta(d: date, holidays: frozenset[date] = frozenset(), origin: date = DEFAULT_ORIGIN) -> DayMeta:
    if d == date.min:
        raise ValidationError(f"date {d} has no day before it, which the day-after-holiday factor reads")
    dow = d.weekday()
    is_weekday = dow <= 4
    # Public holidays are treated as closed days; the center never opens Sundays.
    is_open = dow <= 5 and d not in holidays
    return DayMeta(
        date=d,
        day_of_week=dow,
        month=d.month,
        days_since_origin=(d - origin).days,
        is_weekday=is_weekday,
        is_day_after_holiday=(d - timedelta(days=1)) in holidays,
        is_open=is_open,
    )


def read_holidays(path: str | Path) -> frozenset[date]:
    """Read a holiday file: one ISO date per line, blank lines ignored."""
    dates = set()
    for lineno, raw in enumerate(read_utf8(path).splitlines(), start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            dates.add(date.fromisoformat(text))
        except ValueError as exc:
            raise ParseError(f"bad holiday date {text!r}: {exc}", line=lineno) from None
    return frozenset(dates)


def slot_timestamp(d: date, index: int, end: bool = False) -> datetime:
    """Naive datetime of slot `index`'s start on date d, or of its end with end=True."""
    _check_index(index)
    return datetime.combine(d, SLOT_ENDS[index] if end else _STARTS[index])


@dataclass(frozen=True)
class ScenarioSchedule:
    """Tuesdays affected by the postponed-morning scenario.

    Affected days are every `every`-th Tuesday counted from `anchor`
    (which must itself be a Tuesday).
    """

    anchor: date
    every: int = 3

    def __post_init__(self):
        if self.anchor.weekday() != 1:
            raise ValidationError(f"scenario anchor {self.anchor} is not a Tuesday")
        # A bool is an int; a float such as 2.5 or NaN is no whole number of weeks.
        if isinstance(self.every, bool) or not isinstance(self.every, int) or self.every < 1:
            raise ValidationError(f"scenario period must be a whole number of weeks >= 1, got {self.every!r}")

    def is_affected(self, d: date) -> bool:
        if d.weekday() != 1 or d < self.anchor:
            return False
        weeks = (d - self.anchor).days // 7
        return weeks % self.every == 0

    @classmethod
    def from_first_tuesday(cls, dates) -> "ScenarioSchedule":
        for d in sorted(dates):
            if d.weekday() == 1:
                return cls(anchor=d)
        raise ValidationError("no Tuesday found in the supplied dates")
