"""Threshold calibration: match the in-control expected events-to-alarm to a budget.

The map m -> E[N at first alarm] is estimated by Monte Carlo with common
random numbers, so it is nondecreasing in m path by path and a bisection
finds the threshold hitting the budget. Each simulated path is reduced once
to a "record curve" (the running maxima of the reflected statistic with the
event count at each new record), from which the run length at any
threshold is a single binary search. Event-time paths record the statistic
at every event; aggregated-count paths record it at slot ends, from the
same slot counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .detect import AGGREGATED_COUNTS, INCREASE, DetectorConfig
from .errors import BracketingError, HorizonTooShortError, ValidationError
from .simulate import rng_for
from .timeline import SlotTimeline

THREADS_ENV = "SEASONAL_CUSUM_THREADS"


def worker_count() -> int:
    """Replication parallelism cap from the environment (default 1)."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class CalibrationTarget:
    """False-alarm budget pi in expected events to alarm, plus search knobs."""

    pi: float
    replications: int = 1000
    horizon_cap: float | None = None  # open-time units; None picks ~20*pi events
    tolerance_rel: float = 0.02

    def __post_init__(self):
        if not (0 < self.pi < math.inf):
            raise ValidationError(f"false-alarm budget must be positive and finite, got {self.pi}")
        if self.replications < 100:
            raise ValidationError("need at least 100 replications")
        if not 0 < self.tolerance_rel < 0.5:
            raise ValidationError("tolerance_rel must lie in (0, 0.5)")


@dataclass(frozen=True)
class CalibrationResult:
    threshold_m: float
    arl_estimate: float
    arl_stderr: float
    censored_fraction: float
    pi: float
    replications: int
    seed: int
    trace: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "threshold_m": self.threshold_m,
            "arl_estimate": self.arl_estimate,
            "arl_stderr": self.arl_stderr,
            "censored_fraction": self.censored_fraction,
            "pi": self.pi,
            "replications": self.replications,
            "seed": self.seed,
            "trace": self.trace,
        }


def _horizon(timeline: SlotTimeline, target: CalibrationTarget) -> tuple[int, float]:
    """Number of timeline cycles and total duration covering the horizon cap."""
    if target.horizon_cap is not None:
        cycles = max(1, math.ceil(target.horizon_cap / timeline.total_time))
    else:
        wanted = max(20.0 * target.pi, 50.0)
        cycles = max(1, math.ceil(wanted / max(timeline.total_mean, 1e-12)))
    return cycles, cycles * timeline.total_time


@dataclass(frozen=True)
class RecordCurve:
    """Running-max levels of V with the event count at each new record."""

    levels: np.ndarray
    events: np.ndarray
    total_events: int

    def run_length(self, m: float) -> tuple[int, bool]:
        """(events to alarm, censored) for a threshold m on this path."""
        i = int(np.searchsorted(self.levels, m, side="left"))
        if i < len(self.levels):
            return int(self.events[i]), False
        return self.total_events, True


def _record_curve(timeline: SlotTimeline, config: DetectorConfig, cycles: int, seed: int, rep: int) -> RecordCurve:
    rng = rng_for(seed, rep, 2)
    means = np.tile(timeline.means, cycles)
    counts = rng.poisson(means)
    total = int(counts.sum())
    b = config.beta
    if config.mode == AGGREGATED_COUNTS:
        # The slot-by-slot recursion v' = max(0, v + x) observed at slot ends,
        # in closed form: V = U - min(0, running min of U).
        sign = 1.0 if config.direction == INCREASE else -1.0
        u = np.cumsum(sign * (counts - b * means))
        v = u - np.minimum(np.minimum.accumulate(u), 0.0)
        events = np.cumsum(counts)
    elif total == 0:
        return RecordCurve(levels=np.empty(0), events=np.empty(0, dtype=int), total_events=0)
    else:
        base = np.concatenate([[0.0], np.cumsum(means)])
        slot_of = np.repeat(np.arange(len(means)), counts)
        # Cumulative intensity is linear inside a slot, so a global sort orders events.
        lam = np.sort(base[slot_of] + means[slot_of] * rng.random(total))
        if config.direction == INCREASE:
            u_after = np.arange(1, total + 1) - b * lam
            runmin = np.minimum(np.minimum.accumulate(u_after - 1.0), 0.0)
            v = u_after - runmin  # post-jump values; increase alarms happen at jumps
            events = np.arange(1, total + 1)
        else:
            j = np.arange(1, total + 1)
            u_before = b * lam - (j - 1)
            u_after = u_before - 1.0
            prefix_min = np.concatenate([[0.0], np.minimum.accumulate(u_after)[:-1]])
            v = u_before - np.minimum(prefix_min, 0.0)  # pre-jump peaks of the upward drift
            events = j - 1
            # The drift keeps rising after the last event until the horizon end.
            end_u = b * base[-1] - total
            end_v = end_u - min(0.0, float(np.minimum.accumulate(u_after)[-1]))
            v = np.append(v, end_v)
            events = np.append(events, total)
    running = np.maximum.accumulate(v)
    keep = running > np.concatenate([[-np.inf], running[:-1]])
    return RecordCurve(levels=running[keep], events=events[keep], total_events=total)


def _build_curves(timeline: SlotTimeline, config: DetectorConfig, target: CalibrationTarget, seed: int) -> list[RecordCurve]:
    cycles, _ = _horizon(timeline, target)
    reps = range(target.replications)
    workers = worker_count()
    if workers == 1:
        return [_record_curve(timeline, config, cycles, seed, r) for r in reps]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: _record_curve(timeline, config, cycles, seed, r), reps))


def _summarize(run_lengths: np.ndarray, censored: np.ndarray) -> tuple[float, float, float]:
    arl = float(run_lengths.mean())
    stderr = float(run_lengths.std(ddof=1) / math.sqrt(len(run_lengths))) if len(run_lengths) > 1 else 0.0
    cf = float(censored.mean())
    if cf > 0:
        # Censored paths only bound their run length from below.
        stderr /= 1.0 - min(cf, 0.99)
    return arl, stderr, cf


def _arl_from_curves(curves: list[RecordCurve], m: float) -> tuple[float, float, float]:
    pairs = [c.run_length(m) for c in curves]
    ns = np.array([p[0] for p in pairs], dtype=float)
    cens = np.array([p[1] for p in pairs])
    return _summarize(ns, cens)


def estimate_arl(
    m: float,
    timeline: SlotTimeline,
    config: DetectorConfig,
    target: CalibrationTarget,
    seed: int = 0,
) -> tuple[float, float, float]:
    """In-control mean events to first alarm at threshold m.

    Returns (arl, stderr, censored_fraction); more than half the paths
    censored at the horizon is an error.
    """
    if m <= 0:
        raise ValidationError("threshold must be positive")
    arl, stderr, cf = _arl_from_curves(_build_curves(timeline, config, target, seed), m)
    if cf > 0.5:
        raise HorizonTooShortError(
            f"{cf:.0%} of paths were censored at the horizon; extend horizon_cap"
        )
    return arl, stderr, cf


def calibrate_threshold(
    timeline: SlotTimeline,
    config_template: DetectorConfig,
    target: CalibrationTarget,
    seed: int = 0,
) -> CalibrationResult:
    """Bisection on the threshold until the budgeted run length is met.

    All evaluations share one set of simulated paths (common random
    numbers), which makes the empirical ARL curve monotone in m.
    """
    if target.pi < 1:
        raise ValidationError("budget below one event is unattainable")

    curves = _build_curves(timeline, config_template, target, seed)
    trace: list[dict] = []

    def evaluate(m: float) -> tuple[float, float, float]:
        arl, stderr, cf = _arl_from_curves(curves, m)
        trace.append({"m": m, "arl": arl, "stderr": stderr, "censored_fraction": cf})
        return arl, stderr, cf

    def within(arl: float, stderr: float) -> bool:
        return abs(arl - target.pi) <= target.tolerance_rel * target.pi + 2.0 * stderr

    def result(m: float, arl: float, stderr: float, cf: float) -> CalibrationResult:
        if cf > 0.5:
            raise HorizonTooShortError(
                f"{cf:.0%} of paths censored at the calibrated threshold; extend horizon_cap"
            )
        return CalibrationResult(
            threshold_m=m,
            arl_estimate=arl,
            arl_stderr=stderr,
            censored_fraction=cf,
            pi=target.pi,
            replications=target.replications,
            seed=seed,
            trace=trace,
        )

    lo = 1e-9
    arl_lo, se_lo, cf_lo = evaluate(lo)
    if abs(arl_lo - target.pi) < 1e-12:
        return result(lo, arl_lo, se_lo, cf_lo)
    if arl_lo > target.pi:
        raise BracketingError(f"run length at a vanishing threshold already exceeds pi={target.pi}")

    hi = 1.0
    arl_hi, se_hi, cf_hi = evaluate(hi)
    expansions = 0
    while arl_hi < target.pi:
        expansions += 1
        if expansions > 60:
            raise BracketingError(f"could not straddle pi={target.pi} within 60 expansions")
        hi *= 2.0
        arl_hi, se_hi, cf_hi = evaluate(hi)

    # The empirical curve is a nondecreasing step function under common random
    # numbers; resolve the step straddling pi, then take the closer side.
    for _ in range(200):
        if (hi - lo) < 1e-12 * max(hi, 1.0) or (arl_hi - arl_lo) < 1e-12:
            break
        mid = 0.5 * (lo + hi)
        arl, stderr, cf = evaluate(mid)
        if arl < target.pi:
            lo, arl_lo, se_lo, cf_lo = mid, arl, stderr, cf
        else:
            hi, arl_hi, se_hi, cf_hi = mid, arl, stderr, cf
    if target.pi - arl_lo <= arl_hi - target.pi:
        m, arl, stderr, cf = lo, arl_lo, se_lo, cf_lo
    else:
        m, arl, stderr, cf = hi, arl_hi, se_hi, cf_hi
    if within(arl, stderr):
        return result(m, arl, stderr, cf)
    raise BracketingError(
        f"bisection stalled: nearest run length {arl:.3f} vs target {target.pi} "
        f"(stderr {stderr:.3f}); increase replications, loosen tolerance_rel, or use "
        f"event-time mode if the budget is finer than the per-interval count granularity"
    )
