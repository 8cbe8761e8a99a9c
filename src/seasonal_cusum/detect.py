"""Reflected CUSUM detector for proportional intensity changes.

The detector tracks the drift-normalized log-ratio statistic and its
reflection at zero. With per-event jumps of +1 and decay at rate
beta(rho) * lambda between events, the reflected statistic stays near zero
while arrivals match the model and climbs once the rate grows by the
factor rho; an alarm fires at the first passage over the threshold.
Aggregated counts drive the same statistic interval by interval.

`step_aggregated` and `step_events` are the streaming API and the reference
the batch runners are pinned to. `run_detector` calls `step_aggregated` for
every record. `run_aggregated` runs one row of counts or a block of rows at
once, one numpy step per slot across the rows with `step_aggregated`'s IEEE
operations, so every row equals a `step_aggregated` loop bit for bit.
`run_events` advances the statistic on plain floats with `step_events`'
arithmetic and runs a slot where an alarm fires again through
`step_events`, so its output equals a per-slot `step_events` loop bit for
bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from datetime import datetime
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .daycal import slot_timestamp
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


def _resolve_alarm(state: CusumState, config: DetectorConfig, time: object) -> tuple[CusumState, AlarmEvent | None]:
    if not (state.armed and state.v >= config.threshold_m):
        return state, None
    alarm = AlarmEvent(
        time=time,
        v_at_alarm=state.v,
        events_at_alarm=state.events_seen,
        direction=config.direction,
    )
    if config.reset_on_alarm:
        state = replace(state, v=0.0, u_min=state.u, armed=True)
    else:
        state = replace(state, armed=False)
    return state, alarm


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
    new = CusumState(
        v=max(0.0, state.v + x),
        u=u,
        u_min=min(state.u_min, u),
        events_seen=state.events_seen + count,
        clock=state.clock if clock is None else clock,
        armed=state.armed,
    )
    return _resolve_alarm(new, config, new.clock)


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
    if t1 < t0:
        raise ValidationError("interval end precedes start")
    times = list(event_times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValidationError("event times must be sorted")
    if times and (times[0] < t0 or times[-1] > t1):
        raise ValidationError("event times outside the interval")

    b = config.beta
    sign = 1.0 if config.direction == INCREASE else -1.0
    first_alarm: AlarmEvent | None = None

    def drift(state: CusumState, a: float, t: float) -> tuple[CusumState, AlarmEvent | None]:
        dlam = cum_intensity(a, t)
        if config.direction == INCREASE:
            x = -b * dlam
            u = state.u + x
            return replace(state, v=max(0.0, state.v + x), u=u, u_min=min(state.u_min, u)), None
        # Decrease: upward drift can cross the threshold inside the segment.
        x = b * dlam
        m = config.threshold_m
        if not (state.armed and state.v + x >= m):
            return replace(state, v=state.v + x, u=state.u + x), None
        # The rate is constant, so the drift is linear in time: m is reached
        # the fraction needed / dlam of the way from a to t.
        needed = (m - state.v) / b
        t_star = a if needed <= 0 else min(t, a + (t - a) * (needed / dlam))
        crossed, alarm = _resolve_alarm(replace(state, v=m, u=state.u + (m - state.v)), config, t_star)
        if not config.reset_on_alarm:
            return replace(crossed, v=state.v + x, u=state.u + x), alarm
        # Re-armed at zero; remaining drift may cross again, fold it in recursively.
        tail, later = drift(crossed, t_star, t)
        return tail, alarm or later

    prev = t0
    for ev in times:
        state, alarm = drift(state, prev, ev)
        first_alarm = first_alarm or alarm
        u = state.u + sign * 1.0
        state = replace(
            state,
            v=max(0.0, state.v + sign * 1.0),
            u=u,
            u_min=min(state.u_min, u),
            events_seen=state.events_seen + 1,
        )
        state, alarm = _resolve_alarm(state, config, ev)
        first_alarm = first_alarm or alarm
        prev = ev
    state, alarm = drift(state, prev, t1)
    first_alarm = first_alarm or alarm
    state = replace(state, clock=t1)
    return state, first_alarm


@dataclass
class TimelineRun:
    """V sampled at slot boundaries plus every alarm raised along the way."""

    v: np.ndarray
    alarms: list[AlarmEvent]
    state: CusumState


def run_aggregated(
    timeline: SlotTimeline,
    counts: Sequence[int] | np.ndarray,
    config: DetectorConfig,
    state: CusumState | None = None,
) -> TimelineRun | list[TimelineRun]:
    """Run from per-slot counts: one run for counts of shape (slots,), one per row for (rows, slots).

    Every row starts from `state` and advances over the slots with
    `step_aggregated`'s IEEE operations, one numpy step per slot across all
    rows, so each row's v, alarms and final state equal a `step_aggregated`
    loop (and the 1-D call on that row) bit for bit. v is the pre-reset
    level where an alarm fires.
    """
    counts = np.asarray(counts)
    if counts.ndim not in (1, 2) or counts.shape[-1] != len(timeline):
        raise ValidationError("counts length must match the timeline")
    rows = counts.reshape(-1, len(timeline))
    means = timeline.means
    # step_aggregated's checks, raised for the first slot that fails one of
    # them; NaN fails every comparison.
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

    state = state or CusumState.initial(clock=float(timeline.starts[0]))
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
    path, fired = path.T, fired.T
    seen = state.events_seen + np.cumsum(rows, axis=1)
    ends = timeline.ends.tolist()
    alarms: list[list[AlarmEvent]] = [[] for _ in range(n)]
    r_fired, s_fired = np.nonzero(fired)
    for r, s, level, events in zip(
        r_fired.tolist(), s_fired.tolist(), path[r_fired, s_fired].tolist(), seen[r_fired, s_fired].tolist()
    ):
        alarms[r].append(AlarmEvent(time=ends[s], v_at_alarm=level, events_at_alarm=events, direction=config.direction))
    finals = zip(v.tolist(), u.tolist(), u_min.tolist(), seen[:, -1].tolist(), armed.tolist())
    runs = [
        TimelineRun(
            v=path[r],
            alarms=alarms[r],
            state=replace(state, v=fv, u=fu, u_min=fm, events_seen=fn, clock=ends[-1], armed=fa),
        )
        for r, (fv, fu, fm, fn, fa) in enumerate(finals)
    ]
    return runs if counts.ndim == 2 else runs[0]


# Slots per block in `run_events`: Λ is evaluated with numpy one block at a
# time, which keeps the float lists short.
_EVENT_BLOCK = 256


def _event_slot(
    v: float,
    u: float,
    u_min: float,
    armed: bool,
    lam_start: float,
    lam_events: list[float],
    lam_end: float,
    b: float,
    m: float,
    increase: bool,
) -> tuple[float, float, float] | None:
    """`step_events` over one slot on floats, given Λ at its start, its events and its end.

    Returns (v, u, u_min) at the slot end, or None where `step_events` would
    raise an alarm in this slot.
    """
    prev = lam_start
    if increase:
        for lam in lam_events:
            x = -b * (lam - prev)
            u = u + x
            v = max(0.0, v + x)
            u_min = min(u_min, u)
            u = u + 1.0
            v = max(0.0, v + 1.0)
            u_min = min(u_min, u)
            if armed and v >= m:
                return None
            prev = lam
        x = -b * (lam_end - prev)
        u = u + x
        return max(0.0, v + x), u, min(u_min, u)
    for lam in lam_events:
        x = b * (lam - prev)
        if armed and v + x >= m:
            return None
        v = v + x
        u = u + x
        u = u - 1.0
        v = max(0.0, v - 1.0)
        u_min = min(u_min, u)
        if armed and v >= m:
            return None
        prev = lam
    x = b * (lam_end - prev)
    if armed and v + x >= m:
        return None
    return v + x, u + x, u_min


def run_events(
    timeline: SlotTimeline,
    event_times: Sequence[float],
    config: DetectorConfig,
    state: CusumState | None = None,
) -> TimelineRun:
    """Run from exact event times; v is sampled at every slot boundary.

    Event times must be finite, sorted and inside the timeline. Slot 0 takes
    the events in [start, end], every later slot those in (start, end].

    Λ is evaluated with numpy at the event times and the slot bounds, and the
    statistic advances on floats with `step_events`' arithmetic, so the cost
    is linear in events and slots. A slot where an alarm fires is run again
    through `step_events` from the state at its start; v, the alarms and the
    final state equal a per-slot `step_events` loop bit for bit.
    """
    times = np.asarray(event_times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValidationError("event times must be finite")
    if np.any(np.diff(times) < 0):
        raise ValidationError("event times must be sorted")
    if times.size and (times[0] < timeline.starts[0] or times[-1] > timeline.ends[-1]):
        raise ValidationError(f"event times outside the timeline [{timeline.starts[0]}, {timeline.ends[-1]}]")
    cuts = np.searchsorted(times, timeline.ends, side="right")
    firsts = np.concatenate([[0], cuts[:-1]])
    filled = cuts > firsts
    # step_events' own check, for slots that start after the previous one ends.
    if np.any(times[firsts[filled]] < timeline.starts[filled]):
        raise ValidationError("event times outside the interval")
    state = state or CusumState.initial(clock=float(timeline.starts[0]))
    b, m, increase = config.beta, config.threshold_m, config.direction == INCREASE
    v, u, u_min, n, armed = state.v, state.u, state.u_min, state.events_seen, state.armed
    path = np.empty(len(timeline))
    alarms = []
    cuts = cuts.tolist()
    lo = 0
    for first in range(0, len(timeline), _EVENT_BLOCK):
        stop = min(first + _EVENT_BLOCK, len(timeline))
        base = lo
        lam_events = timeline.cum_mean_at(times[base:cuts[stop - 1]]).tolist()
        lam_starts = timeline.cum_mean_at(timeline.starts[first:stop]).tolist()
        lam_ends = timeline.cum_mean_at(timeline.ends[first:stop]).tolist()
        for i in range(first, stop):
            hi = cuts[i]
            end = _event_slot(
                v, u, u_min, armed, lam_starts[i - first], lam_events[lo - base:hi - base], lam_ends[i - first],
                b, m, increase,
            )
            if end is None:
                # step_events sets the clock to the slot end itself.
                state = replace(state, v=v, u=u, u_min=u_min, events_seen=n, armed=armed)
                interval = (float(timeline.starts[i]), float(timeline.ends[i]))
                state, alarm = step_events(state, times[lo:hi].tolist(), config, interval, timeline.cumulative)
                if alarm is not None:
                    alarms.append(alarm)
                v, u, u_min, n, armed = state.v, state.u, state.u_min, state.events_seen, state.armed
            else:
                v, u, u_min = end
                n = n + (hi - lo)
            path[i] = v
            lo = hi
    state = replace(state, v=v, u=u, u_min=u_min, events_seen=n, clock=float(timeline.ends[-1]), armed=armed)
    return TimelineRun(v=path, alarms=alarms, state=state)


@dataclass(frozen=True)
class StepRecord:
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
    """
    state = state or CusumState.initial()
    steps, alarms = [], []
    for rec in sorted(series):
        dlam = model.slot_rate(rec.date, rec.slot_index)
        clock = slot_timestamp(rec.date, rec.slot_index, end=True)
        state, alarm = step_aggregated(state, rec.count, dlam, config, clock=clock)
        # V is the pre-reset level where an alarm fires, so the path shows the actual excursion.
        v = alarm.v_at_alarm if alarm is not None else state.v
        steps.append(StepRecord(timestamp=clock, v=v, lambda_increment=dlam, count=rec.count, alarm=alarm is not None))
        if alarm is not None:
            alarms.append(alarm)
    return DetectorRun(records=steps, alarms=alarms, state=state)


def double_sided_run(
    series: Iterable[SlotRecord],
    model: IntensityModel,
    config_up: DetectorConfig,
    config_down: DetectorConfig,
) -> tuple[DetectorRun, DetectorRun, list[AlarmEvent]]:
    """Advance an increase and a decrease detector independently on one stream."""
    if config_up.direction != INCREASE or config_down.direction != DECREASE:
        raise ValidationError("double-sided run needs one increase and one decrease config")
    series = sorted(series)
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
