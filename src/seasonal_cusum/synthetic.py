"""Synthetic ground-truth models and datasets.

The real arrival data behind this problem is proprietary, so tests, demos
and calibration studies run against generators: a handcrafted seasonal
model with known coefficients, Poisson samples drawn from it in the same
CSV schemas the ingest module reads, and an abstract one-day sinusoid
profile for calendar-free studies.
"""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np

from .daycal import DEFAULT_ORIGIN, SATURDAY_SLOT_COUNT, WEEKDAY_SLOT_COUNT, slot_start
from .ingest import DailyRecord, Dataset, SlotRecord, build_dataset
from .intensity import (
    DAY_AFTER_HOLIDAY,
    DAY_OF_WEEK,
    MONTH,
    TREND,
    GlmModel,
    IntensityModel,
    SlotProfile,
    feature_names,
)
from .simulate import rng_for
from .timeline import SlotTimeline


def bimodal_weekday_fractions() -> tuple[float, ...]:
    """A plausible intraday shape: peaks mid-morning and mid-afternoon.

    The morning slots (before 12:30) carry exactly half of the day, so the
    Saturday profile derived from the same clock shape is exactly twice the
    weekday fraction slot for slot.
    """
    idx = np.arange(WEEKDAY_SLOT_COUNT, dtype=float)
    shape = (
        np.exp(-0.5 * ((idx - 4.0) / 2.5) ** 2)
        + 0.85 * np.exp(-0.5 * ((idx - 15.0) / 3.0) ** 2)
        + 0.05
    )
    morning = shape[:SATURDAY_SLOT_COUNT]
    afternoon = shape[SATURDAY_SLOT_COUNT:]
    shape = np.concatenate([0.5 * morning / morning.sum(), 0.5 * afternoon / afternoon.sum()])
    return tuple(shape)


def shared_shape_profile() -> SlotProfile:
    """Weekday and Saturday profiles sharing one clock shape.

    Saturday keeps the morning half of the weekday shape, renormalized, so
    a Saturday slot holds roughly twice the weekday fraction of its day.
    """
    weekday = np.array(bimodal_weekday_fractions())
    saturday = weekday[:SATURDAY_SLOT_COUNT]
    return SlotProfile(
        weekday_fractions=tuple(weekday),
        saturday_fractions=tuple(saturday / saturday.sum()),
    )


# Default ground-truth effects: a gentle annual wave, a mild weekly shape
# with much quieter Saturdays, a small day-after-holiday surge, weak trend.
DEFAULT_MONTH_EFFECTS = tuple(0.18 * math.cos(2.0 * math.pi * (m - 1) / 12.0) - 0.18 for m in range(2, 13))
DEFAULT_DOW_EFFECTS = (0.05, 0.02, -0.02, -0.08, -1.45)  # Tue..Fri, then Saturday
DEFAULT_TREND = 8e-5
DEFAULT_HOLIDAY_EFFECT = 0.35


def synthetic_model(
    base_daily: float = 1200.0,
    holidays: frozenset[date] = frozenset(),
    trend: float = DEFAULT_TREND,
) -> IntensityModel:
    """Seasonal model with known coefficients (full factor set) and the default effects."""
    spec = frozenset({TREND, MONTH, DAY_OF_WEEK, DAY_AFTER_HOLIDAY})
    coefficients = np.array(
        [math.log(base_daily), trend, *DEFAULT_MONTH_EFFECTS, *DEFAULT_DOW_EFFECTS, DEFAULT_HOLIDAY_EFFECT]
    )
    names = feature_names(spec)
    glm = GlmModel(
        factor_spec=spec,
        coefficients=coefficients,
        column_names=tuple(names),
        log_likelihood=math.nan,
        bic=math.nan,
        n_obs=0,
    )
    constant = base_daily / WEEKDAY_SLOT_COUNT
    return IntensityModel(
        kind="seasonal",
        profile=shared_shape_profile(),
        holidays=holidays,
        origin=DEFAULT_ORIGIN,
        glm=glm,
        constant_rate=constant,
    )


def sample_dataset(model: IntensityModel, first: date, last: date, seed: int = 0) -> Dataset:
    """Poisson-sample slot and daily counts from a model over a date span."""
    rng = rng_for(seed, 4)
    daily: list[DailyRecord] = []
    slots: list[SlotRecord] = []
    d = first
    while d <= last:
        rates = model.slot_rates(d)
        if len(rates):
            counts = rng.poisson(rates)
            slots.extend(SlotRecord(d, slot_start(k), int(c)) for k, c in enumerate(counts))
            daily.append(DailyRecord(d, int(counts.sum())))
        d += timedelta(days=1)
    return build_dataset(
        daily=daily,
        slots=slots,
        holidays=model.holidays,
        origin=model.origin,
    )


def abstract_sine_timeline(
    days: float = 4.0,
    slots_per_day: int = 24,
    daily_mean: float = 1000.0,
    amplitude: float = 0.6,
) -> SlotTimeline:
    """Calendar-free timeline: one day = 1 time unit, a sinusoid-like profile.

    Illustrative stand-in for a seasonal day; the per-day expected count is
    exactly `daily_mean`.
    """
    if not 0 <= amplitude < 1:
        raise ValueError("amplitude must lie in [0, 1)")
    n = int(round(days * slots_per_day))
    k = np.arange(n, dtype=float) % slots_per_day
    rates = daily_mean * (1.0 + amplitude * np.sin(2.0 * math.pi * (k + 0.5) / slots_per_day))
    return SlotTimeline.from_rates(rates, length=1.0 / slots_per_day)
