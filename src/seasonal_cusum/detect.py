"""Reflected CUSUM detector for proportional intensity changes.

The detector tracks the drift-normalized log-ratio statistic and its
reflection at zero. With per-event jumps of +1 and decay at rate
beta(rho) * lambda between events, the reflected statistic stays near zero
while arrivals match the model and climbs once the rate grows by the
factor rho; an alarm fires at the first passage over the threshold.
Aggregated counts drive the same statistic interval by interval.

`step_aggregated` and `step_events` are the streaming API and the reference
the batch runners are pinned to. `run_detector` sorts its records in
`SlotRecord` order by a C key, advances plain floats over them with
`step_aggregated`'s checks and IEEE operations, calls the alarm rule only at
or over the threshold, reads each clock off daycal's slot-end table, and
builds one `StepRecord` tuple per record, through `tuple.__new__`, and one
state per call. `_aggregated_rows` runs a block of rows of counts at once,
one numpy step per slot across the rows with `step_aggregated`'s IEEE
operations, so every row equals a `step_aggregated` loop bit for bit;
`run_aggregated` builds one series' run and alarms from its one-row arrays,
and `evaluate` reads a block's arrays as they are, without building either.
`run_events` takes Λ, read by slot, every drift and the free walk u with its
minimum from numpy, advances the reflected v alone in a float loop, and runs
a slot where an alarm fires again through `step_events` with that slot's
integral from `SlotTimeline.slot_cumulative`, all with `step_events`' IEEE
operations, so its output equals a per-slot `step_events` loop bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from datetime import datetime
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .daycal import SLOT_ENDS, WEEKDAY_SLOT_COUNT
from .errors import ValidationError
from .ingest import SlotRecord
from .intensity import IntensityModel
from .timeline import SlotTimeline

INCREASE = "increase"
DECREASE = "decrease"
EVENT_TIMES = "events"
AGGREGATED_COUNTS = "aggregated"


def beta(rho: float) -> float:
    """Drift normalizer (rho - 1) / ln(rho); > 1 above rho = 1, < 1 below."""
    if rho <= 0 or rho == 1:
        raise ValueError(f"rho must be positive and different from 1, got {rho}")
    return (rho - 1.0) / math.log(rho)


@dataclass(frozen=True)
class DetectorConfig:
    rho: float
    threshold_m: float
    direction: str = INCREASE
    mode: str = AGGREGATED_COUNTS
    reset_on_alarm: bool = True

    def __post_init__(self):
        if self.direction not in (INCREASE, DECREASE):
            raise ValidationError(f"unknown direction {self.direction!r}")
        if self.mode not in (EVENT_TIMES, AGGREGATED_COUNTS):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.threshold_m) and self.threshold_m > 0):
            raise ValidationError(f"threshold must be positive and finite, got {self.threshold_m}")
        # Checked here, before beta() raises a plain ValueError for the same domain.
        if not (math.isfinite(self.rho) and self.rho > 0 and self.rho != 1):
            raise ValidationError(f"rho must be positive, finite and different from 1, got {self.rho}")
        if self.direction == INCREASE and self.rho <= 1:
            raise ValidationError("increase detection needs rho > 1")
        if self.direction == DECREASE and self.rho >= 1:
            raise ValidationError("decrease detection needs rho < 1")

    @cached_property
    def beta(self) -> float:
        return beta(self.rho)


@dataclass(frozen=True)
class CusumState:
    """Running detector state; v is the reflected statistic, u its free walk."""

    v: float = 0.0
    u: float = 0.0
    u_min: float = 0.0
    events_seen: int = 0
    clock: object = None
    armed: bool = True

    @classmethod
    def initial(cls, clock: object = None) -> "CusumState":
        return cls(clock=clock)


@dataclass(frozen=True)
class AlarmEvent:
    time: object
    v_at_alarm: float
    events_at_alarm: int
    direction: str = INCREASE


def _alarm_rule(
    v: float, u: float, u_min: float, seen: int, armed: bool, config: DetectorConfig, time: object
) -> tuple[float, float, bool, AlarmEvent | None]:
    """(v, u_min, armed, alarm) after the alarm rule at `time`.

    An armed v at or over the threshold raises an alarm; with reset v then
    restarts from 0 and u_min from u, without it the detector disarms.
    """
    if not (armed and v >= config.threshold_m):
        return v, u_min, armed, None
    alarm = AlarmEvent(time=time, v_at_alarm=v, events_at_alarm=seen, direction=config.direction)
    if config.reset_on_alarm:
        return 0.0, u, True, alarm
    return v, u_min, False, alarm


def step_aggregated(
    state: CusumState,
    count: int,
    lambda_increment: float,
    config: DetectorConfig,
    clock: object = None,
) -> tuple[CusumState, AlarmEvent | None]:
    """Advance over one observation interval with an aggregated count.

    The one-step update is v' = max(0, v + count - beta * dLambda) for the
    increase direction and v' = max(0, v + beta * dLambda - count) for the
    decrease direction; u and its running minimum track the unreflected walk.
    """
    # NaN fails every comparison, so these reject it too; a NaN reaching
    # max(0.0, .) would silently reset v.
    if not count >= 0 or count % 1:
        raise ValidationError(f"count must be a nonnegative integer, got {count}")
    if not (0 <= lambda_increment < math.inf):
        raise ValidationError(f"intensity increment must be nonnegative and finite, got {lambda_increment}")
    count = int(count)
    if config.direction == INCREASE:
        x = count - config.beta * lambda_increment
    else:
        x = config.beta * lambda_increment - count
    u = state.u + x
    seen = state.events_seen + count
    clock = state.clock if clock is None else clock
    v, u_min, armed, alarm = _alarm_rule(max(0.0, state.v + x), u, min(state.u_min, u), seen, state.armed, config, clock)
    return CusumState(v=v, u=u, u_min=u_min, events_seen=seen, clock=clock, armed=armed), alarm


def step_events(
    state: CusumState,
    event_times: Sequence[float],
    config: DetectorConfig,
    interval: tuple[float, float],
    cum_intensity: Callable[[float, float], float],
) -> tuple[CusumState, AlarmEvent | None]:
    """Advance over one interval from exact event times.

    The intensity must be constant on `interval`, as on one timeline slot;
    `run_events` passes one slot per call. Between events the statistic
    drifts by beta * dLambda (down for the increase direction, up for
    decrease) with reflection at zero; each event contributes a unit jump.
    Increase alarms can only trigger at a jump; decrease alarms may trigger
    mid-drift, where the statistic, linear in time on the interval, reaches
    the threshold.
    """
    t0, t1 = interval
    times = list(event_times)
    # NaN fails every comparison below, so it is rejected here first.
    if not all(map(math.isfinite, [t0, t1, *times])):
        raise ValidationError("interval bounds and event times must be finite")
    if t1 < t0:
        raise ValidationError("interval end precedes start")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValidationError("event times must be sorted")
    if times and (times[0] < t0 or times[-1] > t1):
        raise ValidationError("event times outside the interval")

    b, m = config.beta, config.threshold_m
    up = config.direction == INCREASE
    jump = 1.0 if up else -1.0
    v, u, u_min, seen, armed = state.v, state.u, state.u_min, state.events_seen, state.armed
    first: AlarmEvent | None = None
    # One drift per segment [t0, e1], ..., [en, t1], each but the last ending in a jump.
    a = t0
    for k, t in enumerate(times + [t1]):
        dlam = cum_intensity(a, t)
        if up:
            x = -b * dlam
            u = u + x
            v, u_min = max(0.0, v + x), min(u_min, u)
        else:
            # Upward drift can cross the threshold inside the segment.
            x = b * dlam
            while armed and v + x >= m:
                # The rate is constant, so the drift is linear in time: m is
                # reached the fraction needed / dlam of the way from a to t.
                needed = (m - v) / b
                t_star = a if needed <= 0 else min(t, a + (t - a) * (needed / dlam))
                u_star = u + (m - v)
                v_reset, u_min, armed, alarm = _alarm_rule(m, u_star, u_min, seen, armed, config, t_star)
                first = first or alarm
                if config.reset_on_alarm:
                    # Re-armed at zero; the drift left from t_star may cross again.
                    v, u, a = v_reset, u_star, t_star
                    dlam = cum_intensity(a, t)
                    x = b * dlam
            v, u = v + x, u + x
        if k < len(times):
            u, seen = u + jump, seen + 1
            v, u_min, armed, alarm = _alarm_rule(max(0.0, v + jump), u, min(u_min, u), seen, armed, config, t)
            first = first or alarm
        a = t
    return CusumState(v=v, u=u, u_min=u_min, events_seen=seen, clock=t1, armed=armed), first


@dataclass
class TimelineRun:
    """V sampled at slot boundaries plus every alarm raised along the way."""

    v: np.ndarray
    alarms: list[AlarmEvent]
    state: CusumState


def _aggregated_rows(
    timeline: SlotTimeline, rows: np.ndarray, config: DetectorConfig, state: CusumState
) -> tuple[np.ndarray, ...]:
    """The aggregated detector over a (rows, slots) array of counts, every row from `state`.

    Raises `step_aggregated`'s errors for the first slot that fails one of
    its checks, then advances every row with its IEEE operations, one numpy
    step per slot across the rows. Returns, each (rows, slots), V at every
    slot end (the pre-reset level where an alarm fires), where an alarm
    fires and the events seen by every slot end; then the final v, u, u_min
    and armed of every row.
    """
    means = timeline.means
    # NaN fails every comparison.
    with np.errstate(invalid="ignore"):
        bad_count = ~((rows >= 0) & (rows % 1 == 0))
    bad_increment = ~((means >= 0) & (means < math.inf))
    bad = np.flatnonzero(bad_count.any(axis=0) | bad_increment)
    if bad.size:
        s = bad[0]
        if bad_count[:, s].any():
            raise ValidationError(f"count must be a nonnegative integer, got {rows[bad_count[:, s], s][0]}")
        raise ValidationError(f"intensity increment must be nonnegative and finite, got {means[s]}")
    rows = rows.astype(np.int64)

    m = config.threshold_m
    drift = config.beta * means[:, None]
    # Slot-major, so each step reads and writes contiguous columns.
    x = rows.T - drift if config.direction == INCREASE else drift - rows.T
    n = len(rows)
    v = np.full(n, float(state.v))
    u = np.full(n, float(state.u))
    u_min = np.full(n, float(state.u_min))
    armed = np.full(n, bool(state.armed))
    path = np.empty(x.shape)
    fired = np.zeros(x.shape, dtype=bool)
    for s in range(len(timeline)):
        u += x[s]
        v += x[s]
        # Not np.maximum: max(0.0, -0.0) is 0.0 where np.maximum gives -0.0.
        v = np.where(v > 0.0, v, 0.0)
        u_min = np.where(u < u_min, u, u_min)
        fire = armed & (v >= m)
        path[s] = v
        if fire.any():
            fired[s] = fire
            if config.reset_on_alarm:
                v = np.where(fire, 0.0, v)
                u_min = np.where(fire, u, u_min)
            else:
                armed = armed & ~fire
    seen = state.events_seen + np.cumsum(rows, axis=1)
    return path.T, fired.T, seen, v, u, u_min, armed


def run_aggregated(
    timeline: SlotTimeline,
    counts: Sequence[int] | np.ndarray,
    config: DetectorConfig,
    state: CusumState | None = None,
) -> TimelineRun:
    """Run from per-slot counts of shape (slots,), starting from `state`.

    The counts advance as the one row of `_aggregated_rows`, with
    `step_aggregated`'s IEEE operations, so v, the alarms and the final
    state equal a `step_aggregated` loop bit for bit. v is the pre-reset
    level where an alarm fires.
    """
    counts = np.asarray(counts)
    if counts.shape != (len(timeline),):
        raise ValidationError("counts length must match the timeline")
    state = state or CusumState.initial(clock=float(timeline.starts[0]))
    (path,), (fired,), (seen,), v, u, u_min, armed = _aggregated_rows(timeline, counts[None], config, state)
    ends = timeline.ends.tolist()
    s_fired = np.flatnonzero(fired)
    alarms = [
        AlarmEvent(time=ends[s], v_at_alarm=level, events_at_alarm=events, direction=config.direction)
        for s, level, events in zip(s_fired.tolist(), path[s_fired].tolist(), seen[s_fired].tolist())
    ]
    final = replace(
        state, v=v.item(), u=u.item(), u_min=u_min.item(), events_seen=seen[-1].item(), clock=ends[-1], armed=armed.item()
    )
    return TimelineRun(v=path, alarms=alarms, state=final)


# Slots per block in `run_events`: Λ, the drifts and the free walk are
# computed with numpy one block at a time, which bounds the arrays' size.
_EVENT_BLOCK = 256


def _v_up(v: float, drifts: list[float], end: float, m: float) -> float | None:
    """v at the end of one increase slot, or None if a jump takes it to m."""
    for x in drifts:
        v = v + x
        # max(0.0, v) + 1.0: the reflection maps v <= 0, -0.0 and NaN to 0.0.
        v = v + 1.0 if v > 0.0 else 1.0
        if v >= m:
            return None
    v = v + end
    return v if v > 0.0 else 0.0


def _v_down(v: float, drifts: list[float], end: float, m: float) -> float | None:
    """v at the end of one decrease slot, or None if a drift takes it to m.

    A jump cannot: fl(v + x) < m implies max(0.0, fl(fl(v + x) - 1.0)) < m.
    """
    for x in drifts:
        v = v + x
        if v >= m:
            return None
        # max(0.0, v - 1.0): fl(v - 1.0) > 0 exactly when v > 1.0.
        v = v - 1.0 if v > 1.0 else 0.0
    v = v + end
    return None if v >= m else v


def _walk(u: float, u_min: float, steps: np.ndarray, read: np.ndarray) -> tuple[float, float]:
    """u after adding `steps` one at a time, and u_min over the partial sums where `read`.

    `np.add.accumulate` is a strict left fold, so u is bitwise the float loop's.
    """
    walk = np.add.accumulate(np.concatenate([[u], steps]))
    seen = walk[1:][read]
    return float(walk[-1]), min(u_min, float(seen.min())) if seen.size else u_min


def run_events(
    timeline: SlotTimeline,
    event_times: Sequence[float],
    config: DetectorConfig,
    state: CusumState | None = None,
) -> TimelineRun:
    """Run from exact event times; v is sampled at every slot boundary.

    Event times must be finite, sorted and inside the timeline. Slot 0 takes
    the events in [start, end], every later slot those in (start, end].

    One block of `_EVENT_BLOCK` slots at a time, numpy evaluates Λ at the
    event times and the slot ends with `SlotTimeline.cum_mean_in_slot`,
    which reads an event on its slot's end on the next slot's line as
    `cum_mean_at` does, and every drift beta * dΛ with `step_events`' IEEE
    operations. A float loop advances the reflected v
    alone; the free walk u and its minimum are folded with numpy where they
    are read, at a slot where an alarm fires and at the end of a block. That
    slot is run again through `step_events` from the state at its start,
    with `SlotTimeline.slot_cumulative`'s plain-float integral on the slot,
    so v, the alarms and the final state equal a per-slot `step_events` loop
    bit for bit, at a cost linear in events and slots.
    """
    times = np.asarray(event_times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValidationError("event times must be finite")
    if np.any(times[1:] < times[:-1]):
        raise ValidationError("event times must be sorted")
    if times.size and (times[0] < timeline.starts[0] or times[-1] > timeline.ends[-1]):
        raise ValidationError(f"event times outside the timeline [{timeline.starts[0]}, {timeline.ends[-1]}]")
    cuts = np.searchsorted(times, timeline.ends, side="right")
    firsts = np.concatenate([[0], cuts[:-1]])
    filled = cuts > firsts
    state = state or CusumState.initial(clock=float(timeline.starts[0]))
    increase = config.direction == INCREASE
    coef, jump = (-config.beta, 1.0) if increase else (config.beta, -1.0)
    slot_v = _v_up if increase else _v_down
    v, u, u_min, seen, armed = state.v, state.u, state.u_min, state.events_seen, state.armed
    path, alarms = [], []
    for first in range(0, len(timeline), _EVENT_BLOCK):
        stop = min(first + _EVENT_BLOCK, len(timeline))
        slots = np.arange(stop - first)
        base = int(firsts[first])
        lo, hi, full = firsts[first:stop] - base, cuts[first:stop] - base, filled[first:stop]
        block_times = times[base:base + hi[-1]]
        owner = np.repeat(slots, hi - lo)
        lam = timeline.cum_mean_in_slot(first + owner, block_times)
        lam_starts = timeline.cum_means[first:stop]
        # Each drift runs from the previous event of its slot, or the slot start.
        prev = np.empty_like(lam)
        prev[1:] = lam[:-1]
        prev[lo[full]] = lam_starts[full]
        last = lam_starts.copy()
        last[full] = lam[hi[full] - 1]
        drifts = coef * (lam - prev)
        end_drifts = coef * (timeline.cum_mean_in_slot(first + slots, timeline.ends[first:stop]) - last)
        # The free walk's increments in step_events' order: each event's drift
        # and jump, then its slot's final drift. u_min reads every partial sum
        # going up, only the post-jump ones going down.
        at = 2 * np.arange(len(lam)) + owner
        ends_at = 2 * hi + slots
        steps = np.empty(2 * len(lam) + len(slots))
        steps[at], steps[at + 1], steps[ends_at] = drifts, jump, end_drifts
        read = np.full(len(steps), increase)
        read[at + 1] = True
        drifts, end_drifts = drifts.tolist(), end_drifts.tolist()
        lo, hi, ends_at = lo.tolist(), hi.tolist(), ends_at.tolist()
        m = config.threshold_m if armed else math.inf  # disarmed: nothing fires
        walked = 0
        for k in range(len(slots)):
            end = slot_v(v, drifts[lo[k]:hi[k]], end_drifts[k], m)
            if end is None:
                # An alarm fires in slot i: step_events runs it from its start.
                i, begin = first + k, 2 * lo[k] + k
                u, u_min = _walk(u, u_min, steps[walked:begin], read[walked:begin])
                state = replace(state, v=v, u=u, u_min=u_min, events_seen=seen + base + lo[k], armed=armed)
                interval = (float(timeline.starts[i]), float(timeline.ends[i]))
                inside = times[base + lo[k]:base + hi[k]].tolist()
                state, alarm = step_events(state, inside, config, interval, timeline.slot_cumulative(i))
                if alarm is not None:
                    alarms.append(alarm)
                v, u, u_min, armed = state.v, state.u, state.u_min, state.armed
                m = config.threshold_m if armed else math.inf
                walked = ends_at[k] + 1
            else:
                v = end
            path.append(v)
        u, u_min = _walk(u, u_min, steps[walked:], read[walked:])
    seen = seen + len(times)
    state = replace(state, v=v, u=u, u_min=u_min, events_seen=seen, clock=float(timeline.ends[-1]), armed=armed)
    return TimelineRun(v=np.array(path), alarms=alarms, state=state)


class StepRecord(NamedTuple):
    timestamp: datetime
    v: float
    lambda_increment: float
    count: int
    alarm: bool


@dataclass
class DetectorRun:
    records: list[StepRecord]
    alarms: list[AlarmEvent]
    state: CusumState


# SlotRecord's dataclass order (slot_index takes no part in it), read in C.
_RECORD_ORDER = attrgetter("date", "slot_start", "count")


def run_detector(
    series: Iterable[SlotRecord],
    model: IntensityModel,
    config: DetectorConfig,
    state: CusumState | None = None,
) -> DetectorRun:
    """Run the aggregated detector over calendar slot records.

    Records are processed in time order; dates absent from the series
    (gaps, closed days) leave the state untouched. A record on a closed slot
    has a zero intensity increment.

    Records are sorted in `SlotRecord`'s order (date, slot start, count),
    stably. Each takes one `model.slot_rate` call, its clock read off
    `SLOT_ENDS` after `slot_timestamp`'s index check, `step_aggregated`'s
    checks and IEEE operations on plain floats, and one `StepRecord` built
    by `tuple.__new__`; `_alarm_rule` runs only where an armed level
    reaches the threshold, which is its own first test. So the records,
    alarms and final state equal a `step_aggregated` loop bit for bit.
    """
    state = state or CusumState.initial()
    up, b, m = config.direction == INCREASE, config.beta, config.threshold_m
    v, u, u_min, seen, clock, armed = state.v, state.u, state.u_min, state.events_seen, state.clock, state.armed
    steps, alarms = [], []
    # Bound once, as the loop below runs per record.
    combine, new_tuple, append = datetime.combine, tuple.__new__, steps.append
    for rec in sorted(series, key=_RECORD_ORDER):
        count, d, k = rec.count, rec.date, rec.slot_index
        dlam = model.slot_rate(d, k)
        # slot_timestamp(d, k, end=True), with its index check.
        if not 0 <= k < WEEKDAY_SLOT_COUNT:
            raise ValidationError(f"slot index {k} outside [0, {WEEKDAY_SLOT_COUNT})")
        clock = combine(d, SLOT_ENDS[k])
        # step_aggregated's checks; NaN fails every comparison.
        if not count >= 0 or count % 1:
            raise ValidationError(f"count must be a nonnegative integer, got {count}")
        if not (0 <= dlam < math.inf):
            raise ValidationError(f"intensity increment must be nonnegative and finite, got {dlam}")
        n = int(count)
        x = n - b * dlam if up else b * dlam - n
        u = u + x
        seen = seen + n
        # max(0.0, v + x) and min(u_min, u), the same for -0.0 and NaN.
        level = v + x
        if not level > 0.0:
            level = 0.0
        if u < u_min:
            u_min = u
        if armed and level >= m:
            # _alarm_rule's own test: it is called only where it fires.
            v, u_min, armed, alarm = _alarm_rule(level, u, u_min, seen, armed, config, clock)
            alarms.append(alarm)
        else:
            v, alarm = level, None
        # V is the pre-reset level where an alarm fires, so the path shows the actual excursion.
        # StepRecord's generated __new__ runs in Python; tuple's runs in C.
        append(new_tuple(StepRecord, (clock, level, dlam, count, alarm is not None)))
    return DetectorRun(steps, alarms, CusumState(v, u, u_min, seen, clock, armed))


def double_sided_run(
    series: Iterable[SlotRecord],
    model: IntensityModel,
    config_up: DetectorConfig,
    config_down: DetectorConfig,
) -> tuple[DetectorRun, DetectorRun, list[AlarmEvent]]:
    """Advance an increase and a decrease detector independently on one stream."""
    if config_up.direction != INCREASE or config_down.direction != DECREASE:
        raise ValidationError("double-sided run needs one increase and one decrease config")
    series = sorted(series, key=_RECORD_ORDER)
    up = run_detector(series, model, config_up)
    down = run_detector(series, model, config_down)
    merged = sorted(up.alarms + down.alarms, key=lambda a: a.time)
    return up, down, merged


def _format_time(value: object) -> str:
    if isinstance(value, datetime):
        return value.isoformat()
    return repr(float(value))


def write_vpath_csv(records: Iterable[StepRecord], path: str | Path) -> None:
    """V-path output: timestamp,v,lambda_increment,count,alarm_flag."""
    lines = ["timestamp,v,lambda_increment,count,alarm_flag"]
    for r in records:
        lines.append(
            f"{_format_time(r.timestamp)},{r.v!r},{r.lambda_increment!r},{r.count},{int(r.alarm)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_alarms_jsonl(alarms: Iterable[AlarmEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a in alarms:
            fh.write(
                json.dumps(
                    {
                        "time": _format_time(a.time),
                        "direction": a.direction,
                        "v_at_alarm": a.v_at_alarm,
                        "events_at_alarm": a.events_at_alarm,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
