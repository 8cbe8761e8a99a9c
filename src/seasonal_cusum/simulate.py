"""Synthetic path generation from an intensity timeline.

Paths come in two granularities: per-slot Poisson counts and exact event
times, which are the same counts placed within their slots. A change point
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
from .intensity import _MAX_MEAN
from .timeline import SlotTimeline

POSTPONE_THIRD_TUESDAY = "postpone-third-tuesday"

# The most slot counts (slots x cycles x replications) one calibration or evaluation
# may draw: past it a run would not finish or fit in memory, so it is refused up front.
MAX_SLOT_COUNTS = 2**31


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for a derived stream key; the seed and the key must be nonnegative."""
    key = [int(seed), *map(int, stream)]
    if min(key) < 0:
        raise ValidationError(f"seed and stream keys must be nonnegative, got seed {seed} and stream {tuple(stream)}")
    return np.random.default_rng(np.random.SeedSequence(key))


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


@dataclass(frozen=True, eq=False)
class SimPath:
    """One simulated realization over a timeline; compare counts and times with numpy."""

    timeline: SlotTimeline
    counts: np.ndarray  # int64, one per slot
    event_times: np.ndarray | None = None  # sorted float64, when drawn

    def to_slot_records(self) -> list[SlotRecord]:
        tl = self.timeline
        if tl.days is None:
            raise ValidationError("timeline has no calendar labels")
        return [
            SlotRecord(d, slot_start(k), count)
            for d, k, count in zip(tl.days.tolist(), tl.grid.tolist(), self.counts.tolist())
        ]


def slot_means_with_change(timeline: SlotTimeline, change: ChangeSpec) -> np.ndarray:
    """Expected count per slot under the change model.

    A slot containing theta splits its expectation proportionally to the
    time spent on each side of the change. A mean past numpy's Poisson
    limit, changed or not, could not be drawn, so it is refused.
    """
    means = timeline.means.copy()
    changed = not (change.in_control or change.rho == 1.0)
    if changed:
        after = np.clip(timeline.ends - change.theta, 0.0, timeline.lengths)
        frac_after = after / timeline.lengths
        with np.errstate(over="ignore"):  # an overflow to inf is refused below
            means = means * (1.0 - frac_after + change.rho * frac_after)
    past = np.flatnonzero(~(means <= _MAX_MEAN))
    if past.size:
        i = int(past[0])
        what, why = ("changed mean", f" (rho {change.rho!r})") if changed else ("mean", "")
        raise ValidationError(
            f"{what} {means[i]:.4g} of the slot at {timeline.timestamp(i)} is past numpy's Poisson limit "
            f"{_MAX_MEAN:.4g}{why}"
        )
    return means


def simulate_slot_counts(
    timeline: SlotTimeline,
    change: ChangeSpec = NO_CHANGE,
    seed: int = 0,
    replication: int = 0,
) -> SimPath:
    """Independent Poisson count per slot with the change-scaled mean."""
    rng = rng_for(seed, replication, 0)
    counts = rng.poisson(slot_means_with_change(timeline, change))
    return SimPath(timeline=timeline, counts=counts)


def simulate_events(
    timeline: SlotTimeline,
    change: ChangeSpec = NO_CHANGE,
    seed: int = 0,
    replication: int = 0,
) -> SimPath:
    """Exact event times: the counts of `simulate_slot_counts`, placed within their slots.

    Given its count, a slot's events are independent draws from its
    normalised intensity. That is uniform on the slot, as its rate is
    constant, except in the slot holding theta, where a uniform point of the
    slot's integral is inverted: rate r before theta, rho * r after.
    """
    path = simulate_slot_counts(timeline, change, seed, replication)
    slot = np.repeat(np.arange(len(timeline)), path.counts)
    offset = rng_for(seed, replication, 1).random(len(slot)) * timeline.lengths[slot]
    times = timeline.starts[slot] + offset
    i = int(np.searchsorted(timeline.starts, change.theta)) - 1  # last slot starting before theta
    if i >= 0 and change.theta < timeline.ends[i]:
        # Read the offset as a point of the slot's integral, in units of its rate, and invert it.
        before = change.theta - timeline.starts[i]
        held = slot == i
        w = offset[held] / timeline.lengths[i] * (before + change.rho * (timeline.ends[i] - change.theta))
        times[held] = np.where(w < before, timeline.starts[i] + w, change.theta + (w - before) / change.rho)
    return replace(path, event_times=np.sort(times))


@dataclass(frozen=True)
class ScenarioTransform:
    """Adversarial rewrite of a slot series.

    `postpone-third-tuesday` empties the morning of every third Tuesday,
    counted from the series' first Tuesday, and moves those calls, slot by
    slot, onto the afternoon in proportion to the day's own afternoon
    counts; daily totals are preserved exactly.
    """

    kind: str

    def __post_init__(self):
        if self.kind != POSTPONE_THIRD_TUESDAY:
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
    """Apply a scenario rewrite to a calendar slot series (`transform` has one kind, validated when built)."""
    schedule = ScenarioSchedule.from_first_tuesday({r.date for r in records})
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
        extra = _allocate(moved, np.array([r.count for r in afternoon], dtype=float))
        out.extend(replace(r, count=0) for r in morning)
        out.extend(replace(r, count=r.count + int(e)) for r, e in zip(afternoon, extra))
    return out
