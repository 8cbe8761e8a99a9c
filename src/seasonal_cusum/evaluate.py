"""Detector performance on simulated ground truth.

Delays are measured in events, (N at alarm - N at the change)+, per the
run-length view of the detector; the worst case over a grid of change
times approximates the sup over change points, with per-path maxima kept
as a pessimistic companion to the means.

Each replication is reduced to what these statistics read: its first alarm
at or after the change, its alarm count and how often V reached the
threshold. Aggregated paths are read straight off the detector's per-slot
arrays, a block of replications at a time, so no alarm or run objects are
built for them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

# run_aggregated is not called here; bench/workloads.py traces it on this module by name.
from .detect import EVENT_TIMES, CusumState, DetectorConfig, _aggregated_rows, run_aggregated, run_events  # noqa: F401
from .errors import ValidationError
from .simulate import MAX_SLOT_COUNTS, ChangeSpec, simulate_events, simulate_slot_counts
from .timeline import SlotTimeline


def exceedance_fraction(v_path: Sequence[float], m: float) -> float:
    """Fraction of steps at or above the threshold (boundary counts)."""
    v = np.asarray(v_path, dtype=float)
    if v.size == 0:
        raise ValidationError("empty path")
    return float(np.mean(v >= m))


# In-control replications behind the false-alarm rate and exceedance fraction.
_IN_CONTROL_REPLICATIONS = 50

# Replications per `_aggregated_rows` call in aggregated mode: the stacked
# counts take O(block x slots) memory whatever the replication count.
_AGGREGATED_BLOCK = 128


class _Path(NamedTuple):
    """What the delay statistics read off one replication's run."""

    before: int  # events before the change
    first: tuple[int, float] | None  # events seen and time at the first alarm at or after the change
    alarms: int  # alarms raised
    exceeded: int  # slot ends where V is at or above the threshold


def _runs(
    timeline: SlotTimeline, change: ChangeSpec, config: DetectorConfig, seed: int, replications: int
) -> Iterator[_Path]:
    """Each replication's `_Path`, in replication order.

    Paths are drawn one replication at a time, from the same streams as a
    lone `simulate_slot_counts` or `simulate_events` call. An event-time path
    runs through `run_events`, whose alarm list gives its first alarm at or
    after the change. Aggregated paths run through the detector a block of
    rows at a time, and every summary is read off the block's arrays: an
    alarm fires at its slot's end, so the first at or after the change is
    the first fired slot from the first slot ending at or after it.
    """
    m = config.threshold_m
    if config.mode == EVENT_TIMES:
        for rep in range(replications):
            path = simulate_events(timeline, change, seed, rep)
            run = run_events(timeline, path.event_times, config)
            post = next((a for a in run.alarms if float(a.time) >= change.theta), None)
            yield _Path(
                before=int(np.searchsorted(path.event_times, change.theta, side="left")),
                first=None if post is None else (post.events_at_alarm, float(post.time)),
                alarms=len(run.alarms),
                exceeded=int(np.sum(run.v >= m)),
            )
        return
    # Aggregated observation: only whole slots ending by theta are attributable.
    attributable = timeline.ends <= change.theta
    start = int(np.searchsorted(timeline.ends, change.theta, side="left"))
    ends = timeline.ends.tolist()
    state = CusumState.initial()
    for first in range(0, replications, _AGGREGATED_BLOCK):
        reps = range(first, min(first + _AGGREGATED_BLOCK, replications))
        counts = np.stack([simulate_slot_counts(timeline, change, seed, rep).counts for rep in reps])
        v, fired, seen, *_ = _aggregated_rows(timeline, counts, config, state)
        # The first fired slot from `start` on; a column of alarms past the last slot stands for none.
        at = start + np.argmax(np.c_[fired[:, start:], np.ones(len(fired), dtype=bool)], axis=1)
        rows = zip(
            counts[:, attributable].sum(axis=1).tolist(),
            at.tolist(),
            fired.sum(axis=1).tolist(),
            (v >= m).sum(axis=1).tolist(),
        )
        for r, (before, s, alarms, exceeded) in enumerate(rows):
            yield _Path(before, (int(seen[r, s]), ends[s]) if s < len(ends) else None, alarms, exceeded)


@dataclass(frozen=True)
class DelayStats:
    theta: float
    mean_delay_events: float  # NaN when nothing was detected
    stderr: float
    detect_probability: float
    max_delay_events: float
    replications: int
    mean_delay_time: float = math.nan  # convenience: open-time units (half-hour slots)


def detection_delay(
    timeline: SlotTimeline,
    change: ChangeSpec,
    config: DetectorConfig,
    replications: int = 200,
    seed: int = 0,
) -> DelayStats:
    """Post-change run length (N_alarm - N_change)+ over simulated paths.

    The first alarm at or after the change defines the delay; with resets
    disabled, a path already in alarm before the change counts as a zero
    delay (the alarm is standing when the change arrives).
    """
    if change.in_control:
        raise ValidationError("detection delay needs a finite change time")
    if replications < 1:
        raise ValidationError(f"replications must be at least 1, got {replications}")
    if replications * len(timeline) > MAX_SLOT_COUNTS:
        raise ValidationError(
            f"{replications} replications of the {len(timeline)}-slot timeline draw over 2**31 slot counts; "
            f"lower the replications or shorten the timeline"
        )
    delays = []
    time_delays = []
    detected = 0
    for path in _runs(timeline, change, config, seed, replications):
        if path.first is not None:
            events, time = path.first
            detected += 1
            delays.append(max(0, events - path.before))
            time_delays.append(time - change.theta)
        elif path.alarms and not config.reset_on_alarm:
            detected += 1
            delays.append(0)
            time_delays.append(0.0)
    if detected == 0:
        return DelayStats(change.theta, math.nan, math.nan, 0.0, math.nan, replications)
    arr = np.array(delays, dtype=float)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return DelayStats(
        theta=change.theta,
        mean_delay_events=float(arr.mean()),
        stderr=stderr,
        detect_probability=detected / replications,
        max_delay_events=float(arr.max()),
        replications=replications,
        mean_delay_time=float(np.mean(time_delays)),
    )


def _none_if_nan(x: float) -> float | None:
    return None if math.isnan(x) else x


@dataclass(frozen=True)
class DelayReport:
    per_theta: list[DelayStats]
    worst_case_delay_events: float
    worst_case_max_delay_events: float
    false_alarm_rate: float  # alarms per unit open time, in control
    exceedance_fraction: float  # in-control fraction of steps at/above m
    rho: float

    def to_dict(self) -> dict:
        """JSON-ready form; NaN (nothing detected) becomes None."""
        return {
            "rho": self.rho,
            "worst_case_delay_events": _none_if_nan(self.worst_case_delay_events),
            "worst_case_max_delay_events": _none_if_nan(self.worst_case_max_delay_events),
            "false_alarm_rate_per_unit_time": self.false_alarm_rate,
            "in_control_exceedance_fraction": self.exceedance_fraction,
            "per_theta": [
                {
                    "theta": d.theta,
                    "mean_delay_events": _none_if_nan(d.mean_delay_events),
                    "stderr": _none_if_nan(d.stderr),
                    "detect_probability": d.detect_probability,
                    "max_delay_events": _none_if_nan(d.max_delay_events),
                    "mean_delay_open_slots": _none_if_nan(d.mean_delay_time),
                    "replications": d.replications,
                }
                for d in self.per_theta
            ],
        }


def worst_case_delay(
    timeline: SlotTimeline,
    theta_grid: Sequence[float],
    config: DetectorConfig,
    replications: int = 200,
    seed: int = 0,
) -> DelayReport:
    """Delay statistics across a grid of change times, plus in-control rates.

    The simulated change multiplies the rate by the detector's own `config.rho`.
    """
    if not theta_grid:
        raise ValidationError("theta grid is empty")
    per_theta = [
        detection_delay(timeline, ChangeSpec(theta=float(t), rho=config.rho), config, replications, seed)
        for t in theta_grid
    ]
    means = [d.mean_delay_events for d in per_theta if not math.isnan(d.mean_delay_events)]
    maxes = [d.max_delay_events for d in per_theta if not math.isnan(d.max_delay_events)]

    alarm_count = 0
    exceed_steps = 0
    for path in _runs(timeline, ChangeSpec(), config, seed + 1, _IN_CONTROL_REPLICATIONS):
        alarm_count += path.alarms
        exceed_steps += path.exceeded
    # Every run samples V once per slot.
    total_steps = _IN_CONTROL_REPLICATIONS * len(timeline)
    return DelayReport(
        per_theta=per_theta,
        worst_case_delay_events=max(means) if means else math.nan,
        worst_case_max_delay_events=max(maxes) if maxes else math.nan,
        false_alarm_rate=alarm_count / (_IN_CONTROL_REPLICATIONS * timeline.total_time),
        exceedance_fraction=exceed_steps / total_steps,
        rho=config.rho,
    )


def write_delay_report_json(report: DelayReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_delay_table_csv(report: DelayReport, path: str | Path) -> None:
    lines = ["theta,mean_delay_events,stderr,detect_probability,max_delay_events"]
    for d in report.per_theta:
        mean = "" if math.isnan(d.mean_delay_events) else repr(d.mean_delay_events)
        se = "" if math.isnan(d.stderr) else repr(d.stderr)
        mx = "" if math.isnan(d.max_delay_events) else repr(d.max_delay_events)
        lines.append(f"{d.theta!r},{mean},{se},{d.detect_probability!r},{mx}")
    Path(path).write_text("\n".join(lines) + "\n")
