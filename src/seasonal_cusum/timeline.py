"""Piecewise-constant intensity timelines over the open-time axis.

A timeline strings the open slots of a horizon end to end on a continuous
axis with closed periods removed: slot i occupies [start_i, end_i), where
end_i = start_i + length_i is bit for bit slot i + 1's start, and carries a
constant arrival rate per unit time. Calendar timelines use unit-length
slots (one half hour = one time unit); abstract timelines may use any slot
lengths.
"""

from __future__ import annotations

from datetime import date, datetime, time
from typing import Callable

import numpy as np

from .daycal import DAY_OPEN_MINUTE, SLOT_MINUTES, slot_timestamp
from .errors import CoverageError, ValidationError


class SlotTimeline:
    """Ordered open slots laid end to end from `start`, with piecewise-constant rates.

    Calendar timelines also carry each slot's date (`days`, datetime64[D])
    and its index on the half-hour grid (`grid`); abstract timelines carry
    neither. Λ has one end-of-slot rule, which `cum_mean_at`, `cum_mean_in_slot`
    and `slot_cumulative` share: a time on slot i's end reads the next slot's line.
    """

    def __init__(self, lengths, rates, *, start=0.0, days=None, grid=None):
        self.lengths = np.asarray(lengths, dtype=float)
        self.rates = np.asarray(rates, dtype=float)
        if not len(self.lengths):
            raise ValidationError("timeline must contain at least one slot")
        if not len(self.lengths) == len(self.rates):
            raise ValidationError("slot lengths and rates must have one entry per slot")
        # NaN fails the rate comparisons too.
        if np.any(self.lengths <= 0) or not np.all((self.rates >= 0) & (self.rates < np.inf)):
            raise ValidationError("slot lengths must be positive and rates nonnegative and finite")
        # A strict left fold: each end is start + length, bit for bit the next slot's start.
        edges = np.cumsum(np.concatenate([[start], self.lengths]))
        self.starts, self.ends = edges[:-1], edges[1:]
        # NaN and infinite starts fail this too, as does a length lost to rounding.
        if not np.all(self.ends > self.starts):
            raise ValidationError("slot starts must be finite, and each slot must end after it starts")
        self.days = None if days is None else np.asarray(days, dtype="datetime64[D]")
        self.grid = None if grid is None else np.asarray(grid, dtype=np.int64)
        if (self.days is None) != (self.grid is None):
            raise ValidationError("calendar labels need both slot dates and grid indices")
        if self.days is not None:
            if not len(self.days) == len(self.grid) == len(self.starts):
                raise ValidationError("calendar labels must have one entry per slot")
            if np.any(self.days[1:] < self.days[:-1]):
                raise ValidationError("slot dates must be in time order")
        self.means = self.rates * self.lengths
        # cum_means[i] = expected events strictly before slot i
        self.cum_means = np.concatenate([[0.0], np.cumsum(self.means)])

    @classmethod
    def from_rates(cls, rates, length: float = 1.0, start: float = 0.0) -> "SlotTimeline":
        return cls(np.full(len(rates), float(length)), rates, start=start)

    def __len__(self) -> int:
        return len(self.starts)

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
            return np.clip(np.searchsorted(self.starts, t, side="right") - 1, 0, len(self) - 1)
        if not self.starts[0] <= t <= self.ends[-1]:
            raise CoverageError(f"time {t} outside timeline [{self.starts[0]}, {self.ends[-1]}]")
        i = int(np.searchsorted(self.starts, t, side="right")) - 1
        return min(max(i, 0), len(self) - 1)

    def cum_mean_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Expected events in [timeline start, t]; elementwise, bit for bit, over an array."""
        lam = self._line(self.slot_at(t), t)
        return lam if isinstance(t, np.ndarray) else float(lam)

    def cum_mean_in_slot(self, i: int | np.ndarray, t: float | np.ndarray) -> np.floating | np.ndarray:
        """`cum_mean_at(t)` for times t known to lie in slot i, bit for bit; elementwise over arrays.

        t reads slot i's line, and the next slot's line from that slot's start
        on, as `cum_mean_at` does: the only such t is slot i's end, which is
        the next slot's start. No slot is looked up.
        """
        j = np.minimum(i + 1, len(self) - 1)
        return self._line(np.where(t >= self.starts[j], j, i), t)

    def slot_cumulative(self, i: int) -> Callable[[float, float], float]:
        """`cumulative` on slot i's [start, end], bit for bit: `cum_mean_in_slot`'s two lines in plain floats."""
        j = min(i + 1, len(self) - 1)
        s0, r0, c0 = float(self.starts[i]), float(self.rates[i]), float(self.cum_means[i])
        s1, r1, c1 = float(self.starts[j]), float(self.rates[j]), float(self.cum_means[j])

        def cum_mean_at(t: float) -> float:
            return c1 + r1 * (t - s1) if t >= s1 else c0 + r0 * (t - s0)

        # step_events asks for [a, b] with a <= b only.
        return lambda a, b: cum_mean_at(b) - cum_mean_at(a)

    def _line(self, i, t):
        # Slot i's line: the expected events before it plus its rate times t's way into it.
        return self.cum_means[i] + self.rates[i] * (t - self.starts[i])

    def cumulative(self, a: float, b: float) -> float:
        """Expected events in [a, b]; additive over adjacent intervals."""
        if b < a:
            raise ValidationError("interval end precedes start")
        return self.cum_mean_at(b) - self.cum_mean_at(a)

    def locate(self, d: date, tod: time) -> float:
        """Open-time position of a calendar instant.

        Instants inside closed periods snap to the next open slot boundary;
        the closing instant of a slot is its end. Dates before the first
        slot's date are off the timeline.
        """
        if self.days is None:
            raise CoverageError("timeline has no calendar labels")
        day = np.datetime64(d, "D")
        if day < self.days[0]:
            raise CoverageError(f"{d} {tod} is before the start of the timeline")
        i = int(np.searchsorted(self.days, day, side="left"))
        stop = int(np.searchsorted(self.days, day, side="right"))
        us = ((tod.hour * 60 + tod.minute) * 60 + tod.second) * 1_000_000 + tod.microsecond
        opens = DAY_OPEN_MINUTE + SLOT_MINUTES * self.grid[i:stop]
        # The first of the day's slots closing at or after tod; past them all, the next day's first slot.
        k = int(np.searchsorted((opens + SLOT_MINUTES) * 60_000_000, us, side="left"))
        if k < stop - i and us > opens[k] * 60_000_000:
            into = (us - int(opens[k]) * 60_000_000) / (SLOT_MINUTES * 60_000_000)
            return float(self.starts[i + k] + into * self.lengths[i + k])
        i += k
        if i == len(self):
            raise CoverageError(f"{d} {tod} is past the end of the timeline")
        return float(self.starts[i])

    def timestamp(self, i: int, end: bool = False) -> datetime | float:
        """Calendar timestamp of slot i's boundary, or the float position."""
        if self.days is None:
            return float(self.ends[i] if end else self.starts[i])
        return slot_timestamp(self.days[i].item(), int(self.grid[i]), end)
