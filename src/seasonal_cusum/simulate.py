"""Synthetic path generation from an intensity timeline.

Paths come in two granularities: exact event times (thinning against a
per-slot constant majorant) and per-slot Poisson counts. A change point
scales the rate by rho from time theta onward. Replications are
reproducible and order-independent: every stream derives its own seed from
(seed, replication index, purpose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from .daycal import MORNING_SLOT_COUNT, ScenarioSchedule, slot_start
from .errors import ValidationError
from .ingest import SlotRecord
from .timeline import SlotTimeline

IDENTITY = "identity"
POSTPONE_THIRD_TUESDAY = "postpone-third-tuesday"


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for a derived stream key."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


@dataclass(frozen=True)
class ChangeSpec:
    """Ground truth for a simulated change: theta = inf means in control."""

    theta: float = math.inf
    rho: float = 1.0

    def __post_init__(self):
        # NaN fails both comparisons, so it is rejected as well.
        if not 0 < self.rho < math.inf:
            raise ValidationError(f"change factor must be positive and finite, got {self.rho}")
        if math.isnan(self.theta):
            raise ValidationError("change time must not be NaN")

    @property
    def in_control(self) -> bool:
        return math.isinf(self.theta)


NO_CHANGE = ChangeSpec()


@dataclass(frozen=True)
class SimPath:
    """One simulated realization over a timeline."""

    timeline: SlotTimeline
    change: ChangeSpec
    seed: int
    counts: tuple[int, ...] | None = None
    event_times: tuple[float, ...] | None = None

    def to_slot_records(self) -> list[SlotRecord]:
        if self.counts is None:
            raise ValidationError("path has no slot counts")
        records = []
        for s, count in zip(self.timeline.slots, self.counts):
            if s.day is None:
                raise ValidationError("timeline has no calendar labels")
            records.append(SlotRecord(s.day, slot_start(s.slot_index), int(count)))
        return records


def slot_means_with_change(timeline: SlotTimeline, change: ChangeSpec) -> np.ndarray:
    """Expected count per slot under the change model.

    A slot containing theta splits its expectation proportionally to the
    time spent on each side of the change.
    """
    means = timeline.means.copy()
    if change.in_control or change.rho == 1.0:
        return means
    after = np.clip(timeline.ends - change.theta, 0.0, timeline.lengths)
    frac_after = after / timeline.lengths
    return means * (1.0 - frac_after + change.rho * frac_after)


def simulate_slot_counts(
    timeline: SlotTimeline,
    change: ChangeSpec = NO_CHANGE,
    seed: int = 0,
    replication: int = 0,
) -> SimPath:
    """Independent Poisson count per slot with the change-scaled mean."""
    rng = rng_for(seed, replication, 0)
    counts = rng.poisson(slot_means_with_change(timeline, change))
    return SimPath(timeline=timeline, change=change, seed=seed, counts=tuple(int(c) for c in counts))


def simulate_events(
    timeline: SlotTimeline,
    change: ChangeSpec = NO_CHANGE,
    seed: int = 0,
    replication: int = 0,
) -> SimPath:
    """Exact event times by per-slot thinning against the constant majorant.

    Within each slot the rate is constant except possibly at theta, so the
    majorant is the slot rate times max(1, rho) and acceptance follows the
    instantaneous rate ratio.
    """
    rng = rng_for(seed, replication, 1)
    rho = 1.0 if change.in_control else change.rho
    times: list[float] = []
    for i in range(len(timeline)):
        t0, t1 = float(timeline.starts[i]), float(timeline.ends[i])
        rate = float(timeline.rates[i])
        if rate <= 0:
            continue
        factor_start = rho if t0 >= change.theta else 1.0
        factor_end = rho if t1 > change.theta else 1.0
        majorant = rate * max(factor_start, factor_end)
        n = rng.poisson(majorant * (t1 - t0))
        if n == 0:
            continue
        cand = np.sort(rng.uniform(t0, t1, size=n))
        accept_rate = np.where(cand >= change.theta, rate * rho, rate) if not change.in_control else np.full(n, rate)
        keep = rng.uniform(0.0, majorant, size=n) < accept_rate
        times.extend(cand[keep].tolist())
    counts = np.histogram(times, bins=np.concatenate([timeline.starts, [timeline.ends[-1]]]))[0]
    return SimPath(
        timeline=timeline,
        change=change,
        seed=seed,
        counts=tuple(int(c) for c in counts),
        event_times=tuple(times),
    )


@dataclass(frozen=True)
class ScenarioTransform:
    """Adversarial rewrite of a slot series.

    `postpone-third-tuesday` empties affected Tuesday mornings and moves
    those calls, slot by slot, onto the afternoon in proportion to
    `afternoon_weights` (the day's own afternoon counts when not given);
    daily totals are preserved exactly.
    """

    kind: str = IDENTITY
    schedule: ScenarioSchedule | None = None
    afternoon_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in (IDENTITY, POSTPONE_THIRD_TUESDAY):
            raise ValidationError(f"unknown scenario kind {self.kind!r}")


def _allocate(total: int, weights: np.ndarray) -> np.ndarray:
    """Deterministically split an integer along weights (cumulative rounding)."""
    if total == 0:
        return np.zeros(len(weights), dtype=int)
    if weights.sum() <= 0:
        weights = np.ones(len(weights))
    cum = np.round(np.cumsum(weights) / weights.sum() * total).astype(int)
    return np.diff(cum, prepend=0)


def apply_scenario(records: list[SlotRecord], transform: ScenarioTransform) -> list[SlotRecord]:
    """Apply a scenario rewrite to a calendar slot series."""
    if transform.kind == IDENTITY:
        return list(records)
    dates = sorted({r.date for r in records})
    schedule = transform.schedule or ScenarioSchedule.from_first_tuesday(dates)
    by_day: dict[date, list[SlotRecord]] = {}
    for r in sorted(records):
        by_day.setdefault(r.date, []).append(r)
    out: list[SlotRecord] = []
    for d in sorted(by_day):
        day = by_day[d]
        if not schedule.is_affected(d):
            out.extend(day)
            continue
        morning = [r for r in day if r.slot_index < MORNING_SLOT_COUNT]
        afternoon = [r for r in day if r.slot_index >= MORNING_SLOT_COUNT]
        if not afternoon:
            raise ValidationError(f"{d} lacks afternoon slots; scenario needs full-day coverage")
        moved = sum(r.count for r in morning)
        if transform.afternoon_weights is not None:
            weights = np.array(transform.afternoon_weights, dtype=float)
            if len(weights) != len(afternoon):
                raise ValidationError("afternoon weight vector does not match the afternoon grid")
        else:
            weights = np.array([r.count for r in afternoon], dtype=float)
        extra = _allocate(moved, weights)
        out.extend(replace(r, count=0) for r in morning)
        out.extend(replace(r, count=r.count + int(e)) for r, e in zip(afternoon, extra))
    return out
