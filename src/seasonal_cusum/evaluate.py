"""Detector performance on simulated ground truth.

Delays are measured in events, (N at alarm - N at the change)+, per the
run-length view of the detector; the worst case over a grid of change
times approximates the sup over change points, with per-path maxima kept
as a pessimistic companion to the means.

Each replication is reduced to what these statistics read: its events
before the change, its first alarm at or after the change, its alarm count
and how often V reached the threshold, each held in one array entry per
replication, and the statistics reduce those arrays with no per-path
object. Aggregated paths run as the rows of the detector's kernel, a block
of replications at a time, and are reduced one slot chunk at a time: no
alarm or run object is built and no array spans the horizon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

# run_aggregated is not called here; bench/workloads.py traces it on this module by name.
from .detect import EVENT_TIMES, DetectorConfig, _aggregated_chunks, run_aggregated, run_events  # noqa: F401
from .errors import ValidationError
from .simulate import (
    MAX_PATH_EVENTS,
    MAX_SLOT_COUNTS,
    ChangeSpec,
    simulate_events,
    simulate_slot_counts,
    slot_means_with_change,
    stack_counts,
)
from .timeline import SlotTimeline


def exceedance_fraction(v_path: Sequence[float], m: float) -> float:
    """Fraction of steps at or above the threshold (boundary counts)."""
    v = np.asarray(v_path, dtype=float)
    if v.size == 0:
        raise ValidationError("empty path")
    # A NaN would read as below the threshold.
    if math.isnan(m) or np.isnan(v).any():
        raise ValidationError("the path and the threshold must not be NaN")
    return float(np.mean(v >= m))


# In-control replications behind the false-alarm rate and exceedance fraction.
_IN_CONTROL_REPLICATIONS = 50

# Replications per kernel in aggregated mode, whose counts take a byte or two per slot.
_AGGREGATED_BLOCK = 128


class _Paths(NamedTuple):
    """What the delay statistics read off the replications' runs, one entry per replication."""

    before: np.ndarray  # events before the change
    events: np.ndarray  # events seen at the first alarm at or after the change; -1 where there is none
    time: np.ndarray  # that alarm's time; NaN where there is none
    alarms: np.ndarray  # alarms raised
    exceeded: np.ndarray  # slot ends where V is at or above the threshold


def _runs(
    timeline: SlotTimeline, change: ChangeSpec, config: DetectorConfig, seed: int, replications: int
) -> _Paths:
    """Every replication's `_Paths` entries, in replication order.

    Paths are drawn one replication at a time, from the same streams as a
    lone `simulate_slot_counts` or `simulate_events` call. An event-time path
    runs through `run_events`, whose alarm list gives its first alarm at or
    after the change. Aggregated paths run as rows of the detector's kernel,
    reduced a slot chunk at a time: an alarm fires at its slot's end, so the
    first at or after the change is the first fired slot from the first slot
    ending at or after it.
    """
    m = config.threshold_m
    paths = _Paths(
        before=np.zeros(replications, dtype=np.int64),
        events=np.full(replications, -1, dtype=np.int64),
        time=np.full(replications, math.nan),
        alarms=np.zeros(replications, dtype=np.int64),
        exceeded=np.zeros(replications, dtype=np.int64),
    )
    if config.mode == EVENT_TIMES:
        for rep in range(replications):
            path = simulate_events(timeline, change, seed, rep)
            run = run_events(timeline, path.event_times, config)
            post = next((a for a in run.alarms if float(a.time) >= change.theta), None)
            paths.before[rep] = np.searchsorted(path.event_times, change.theta, side="left")
            if post is not None:
                paths.events[rep], paths.time[rep] = post.events_at_alarm, post.time
            paths.alarms[rep] = len(run.alarms)
            paths.exceeded[rep] = np.sum(run.v >= m)
        return paths
    # Aggregated observation: only whole slots ending by theta are attributable.
    attributable = int(np.searchsorted(timeline.ends, change.theta, side="right"))
    start = int(np.searchsorted(timeline.ends, change.theta, side="left"))
    ends = timeline.ends
    for first in range(0, replications, _AGGREGATED_BLOCK):
        block = slice(first, min(first + _AGGREGATED_BLOCK, replications))
        n = block.stop - first
        draws = (simulate_slot_counts(timeline, change, seed, rep).counts for rep in range(first, block.stop))
        counts = stack_counts(draws, (n, len(ends)))
        before, events, time, alarms, exceeded = (a[block] for a in paths)  # this block's entries, as views
        before[:] = counts[:, :attributable].sum(axis=1)
        for s0, v, fired, seen in _aggregated_chunks(config, counts, timeline.means):
            alarms += fired.sum(axis=1)
            exceeded += (v >= m).sum(axis=1)
            fired[:, : max(start - s0, 0)] = False  # slots ending before the change
            new = np.flatnonzero(fired.any(axis=1) & (events < 0))  # rows whose first alarm from the change is here
            col = np.argmax(fired[new], axis=1)
            events[new], time[new] = seen[new, col], ends[s0 + col]
    return paths


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
    if not isinstance(replications, Integral):
        raise ValidationError(f"replications must be an integer, got {replications!r}")
    if replications < 1:
        raise ValidationError(f"replications must be at least 1, got {replications}")
    if replications * len(timeline) > MAX_SLOT_COUNTS:
        raise ValidationError(
            f"{replications} replications of the {len(timeline)}-slot timeline draw over 2**31 slot counts; "
            f"lower the replications or shorten the timeline"
        )
    path_events = max(timeline.total_mean, float(slot_means_with_change(timeline, change).sum()))
    if path_events > MAX_PATH_EVENTS:
        raise ValidationError(
            f"a path over the {len(timeline)}-slot timeline expects {path_events:.4g} events, "
            f"past the 2**62 that its int64 event counts allow; shorten the timeline"
        )
    paths = _runs(timeline, change, config, seed, replications)
    found = paths.events >= 0
    # Without resets, a path in alarm before the change and in none after it has an alarm standing: a zero delay.
    detected = found | ((paths.alarms > 0) & (not config.reset_on_alarm))
    if not detected.any():
        return DelayStats(change.theta, math.nan, math.nan, 0.0, math.nan, replications)
    arr = np.where(found, np.maximum(paths.events - paths.before, 0), 0)[detected].astype(float)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return DelayStats(
        theta=change.theta,
        mean_delay_events=float(arr.mean()),
        stderr=stderr,
        detect_probability=int(detected.sum()) / replications,
        max_delay_events=float(arr.max()),
        replications=replications,
        mean_delay_time=float(np.mean(np.where(found, paths.time - change.theta, 0.0)[detected])),
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
    thetas = [float(t) for t in theta_grid]
    if not thetas:
        raise ValidationError("theta grid is empty")
    repeated = next((t for i, t in enumerate(thetas) if t in thetas[:i]), None)
    if repeated is not None:
        raise ValidationError(f"theta grid repeats the change time {repeated!r}")
    per_theta = [
        detection_delay(timeline, ChangeSpec(theta=t, rho=config.rho), config, replications, seed)
        for t in thetas
    ]
    means = [d.mean_delay_events for d in per_theta if not math.isnan(d.mean_delay_events)]
    maxes = [d.max_delay_events for d in per_theta if not math.isnan(d.max_delay_events)]

    in_control = _runs(timeline, ChangeSpec(), config, seed + 1, _IN_CONTROL_REPLICATIONS)
    # Every run samples V once per slot.
    total_steps = _IN_CONTROL_REPLICATIONS * len(timeline)
    return DelayReport(
        per_theta=per_theta,
        worst_case_delay_events=max(means) if means else math.nan,
        worst_case_max_delay_events=max(maxes) if maxes else math.nan,
        false_alarm_rate=int(in_control.alarms.sum()) / (_IN_CONTROL_REPLICATIONS * timeline.total_time),
        exceedance_fraction=int(in_control.exceeded.sum()) / total_steps,
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
