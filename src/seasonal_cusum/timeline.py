"""Piecewise-constant intensity timelines over the open-time axis.

A timeline strings the open slots of a horizon together on a continuous
axis with closed periods removed: slot i occupies [start_i, start_i + length_i)
and carries a constant arrival rate per unit time. Calendar timelines use
unit-length slots (one half hour = one time unit); abstract timelines may
use any slot lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, time

import numpy as np

from .daycal import slot_end, slot_start
from .errors import CoverageError, ValidationError


@dataclass(frozen=True)
class TimelineSlot:
    start: float
    length: float
    rate: float
    day: date | None = None
    slot_index: int | None = None

    @property
    def end(self) -> float:
        return self.start + self.length

    @property
    def mean(self) -> float:
        """Expected events over the whole slot."""
        return self.rate * self.length


class SlotTimeline:
    """Ordered, contiguous open slots with piecewise-constant rates."""

    def __init__(self, slots: list[TimelineSlot] | tuple[TimelineSlot, ...]):
        if not slots:
            raise ValidationError("timeline must contain at least one slot")
        self.slots = tuple(slots)
        self.starts = np.array([s.start for s in self.slots])
        self.lengths = np.array([s.length for s in self.slots])
        self.rates = np.array([s.rate for s in self.slots])
        if np.any(self.lengths <= 0) or np.any(self.rates < 0):
            raise ValidationError("slot lengths must be positive and rates nonnegative")
        self.ends = self.starts + self.lengths
        if not np.allclose(self.starts[1:], self.ends[:-1]):
            raise ValidationError("timeline slots must be contiguous")
        self.means = self.rates * self.lengths
        # cum_means[i] = expected events strictly before slot i
        self.cum_means = np.concatenate([[0.0], np.cumsum(self.means)])

    @classmethod
    def from_rates(cls, rates, length: float = 1.0, start: float = 0.0) -> "SlotTimeline":
        slots = []
        t = start
        for r in rates:
            slots.append(TimelineSlot(start=t, length=length, rate=float(r)))
            t += length
        return cls(slots)

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def total_time(self) -> float:
        return float(self.ends[-1] - self.starts[0])

    @property
    def total_mean(self) -> float:
        return float(self.cum_means[-1])

    def slot_at(self, t: float | np.ndarray) -> int | np.ndarray:
        """Index of the slot containing time t (right-open intervals); elementwise over an array."""
        if isinstance(t, np.ndarray):
            if t.size and not (self.starts[0] <= t.min() and t.max() <= self.ends[-1]):
                raise CoverageError(f"times [{t.min()}, {t.max()}] outside timeline [{self.starts[0]}, {self.ends[-1]}]")
            return np.clip(np.searchsorted(self.starts, t, side="right") - 1, 0, len(self.slots) - 1)
        if not self.starts[0] <= t <= self.ends[-1]:
            raise CoverageError(f"time {t} outside timeline [{self.starts[0]}, {self.ends[-1]}]")
        i = int(np.searchsorted(self.starts, t, side="right")) - 1
        return min(max(i, 0), len(self.slots) - 1)

    def cum_mean_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Expected events in [timeline start, t]; elementwise, bit for bit, over an array."""
        i = self.slot_at(t)
        lam = self.cum_means[i] + self.rates[i] * (t - self.starts[i])
        return lam if isinstance(t, np.ndarray) else float(lam)

    def cumulative(self, a: float, b: float) -> float:
        """Expected events in [a, b]; additive over adjacent intervals."""
        if b < a:
            raise ValidationError("interval end precedes start")
        return self.cum_mean_at(b) - self.cum_mean_at(a)

    def locate(self, d: date, tod: time | None = None) -> float:
        """Open-time position of a calendar instant.

        Instants inside closed periods snap to the next open slot boundary;
        the closing instant of a slot is its end. Dates before the first
        slot's date are off the timeline.
        """
        if self.slots[0].day is not None and d < self.slots[0].day:
            raise CoverageError(f"{d} {tod} is before the start of the timeline")
        for s in self.slots:
            if s.day is None:
                raise CoverageError("timeline has no calendar labels")
            if s.day < d:
                continue
            if s.day > d or tod is None or tod <= slot_start(s.slot_index):
                return s.start
            if tod <= slot_end(s.slot_index):
                frac = ((tod.hour * 60 + tod.minute) - (slot_start(s.slot_index).hour * 60 + slot_start(s.slot_index).minute)) / 30.0
                return s.start + frac * s.length
        raise CoverageError(f"{d} {tod} is past the end of the timeline")

    def timestamp(self, i: int, end: bool = False) -> datetime | float:
        """Calendar timestamp of slot i's boundary, or the float position."""
        s = self.slots[i]
        if s.day is None:
            return s.end if end else s.start
        return datetime.combine(s.day, slot_end(s.slot_index) if end else slot_start(s.slot_index))

    def instant(self, t: float) -> datetime | float:
        """Calendar instant of an open-time position (float on abstract timelines)."""
        i = self.slot_at(t)
        s = self.slots[i]
        if s.day is None:
            return t
        frac = (t - s.start) / s.length
        base = datetime.combine(s.day, slot_start(s.slot_index))
        return base + frac * (datetime.combine(s.day, slot_end(s.slot_index)) - base)
