"""Threshold calibration: match the in-control expected events-to-alarm to a budget.

The map m -> E[N at first alarm] is estimated by Monte Carlo with common
random numbers, so it is a nondecreasing step function of m that jumps only
just above record levels. Every replication's slot counts are drawn once,
into one stack that both observation modes read, and each simulated path is
reduced once to a "record curve" (the running maxima of the reflected
statistic with the event count at each new record); all curves are read at
a threshold in one numpy pass. Event-time paths record the statistic at
every event, placing their counts' events in chunks only as far as the
thresholds queried need, bit for bit as if whole; aggregated-count paths
record it at slot ends, on the aggregated detector's own kernel. Several
detectors can read one draw per replication (`SharedDraws`).

Event-time records are read in closed form on the expected-events axis,
V = U - min(0, running min of U) with U = events - beta * Λ, so they equal
the V of `run_events`, which folds each drift event by event, only to
rounding, and an alarm at a threshold on a record level may fall an event
or more off the curve's. Aggregated records are the kernel's own V.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral

import numpy as np

from .detect import EVENT_TIMES, INCREASE, DetectorConfig, _aggregated_chunks
from .errors import BracketingError, HorizonTooShortError, ValidationError
from .simulate import MAX_PATH_EVENTS, MAX_SLOT_COUNTS, rng_for, stack_counts
from .timeline import SlotTimeline

# A calibrated run length may miss pi by this fraction of pi plus two standard errors.
_TOLERANCE_REL = 0.02

# Bracket tops, each read until one's ARL reaches pi: 0.5, 0.75, 1, 1.5, 2, 3, ..., 2**60. A top
# extrapolated from the reads replaces the next one where it is lower, this fraction past the guess.
_LADDER = tuple(2.0**k * f for k in range(-1, 60) for f in (1.0, 1.5)) + (2.0**60,)
_SECANT_MARGIN = 0.02


# Calibration runs on one thread and reads no environment variable. Both names
# stay only for bench/, which imports them, and go with those imports (ROADMAP item 0).
THREADS_ENV = "SEASONAL_CUSUM_THREADS"


def worker_count() -> int:
    """Replication parallelism: always 1."""
    return 1


@dataclass(frozen=True)
class CalibrationTarget:
    """False-alarm budget pi in expected events to alarm, plus search knobs."""

    pi: float
    replications: int = 1000
    horizon_cap: float | None = None  # open-time units; None picks ~20*pi events

    def __post_init__(self):
        if not (0 < self.pi < math.inf):
            raise ValidationError(f"false-alarm budget must be positive and finite, got {self.pi}")
        if not isinstance(self.replications, Integral):
            raise ValidationError(f"replications must be an integer, got {self.replications!r}")
        if self.replications < 100:
            raise ValidationError("need at least 100 replications")
        # NaN fails the comparison too.
        if self.horizon_cap is not None and not 0 < self.horizon_cap < math.inf:
            raise ValidationError(f"horizon cap must be positive and finite, got {self.horizon_cap}")


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
        return asdict(self)


# An event-mode chunk holds at most _CHUNK_EVENTS plus one slot's expected
# events, about 73 bytes each while it is simulated; more than this many is
# refused (about 0.6 GB).
_MAX_CHUNK_EVENTS = 2**23


def _horizon(timeline: SlotTimeline, target: CalibrationTarget, mode: str) -> int:
    """Number of timeline cycles covering the horizon cap."""
    if target.horizon_cap is not None:
        span = target.horizon_cap / timeline.total_time
    else:
        span = max(20.0 * target.pi, 50.0) / max(timeline.total_mean, 1e-12)
    # An overflowed (infinite) span has no ceiling, and is past the limit anyway.
    cycles = max(1, math.ceil(span)) if math.isfinite(span) else math.inf
    # Calibration keeps one slot count per slot, cycle and replication, one byte each at typical rates.
    if cycles * len(timeline) * target.replications > MAX_SLOT_COUNTS:
        cap = "no --horizon-cap" if target.horizon_cap is None else f"--horizon-cap {target.horizon_cap:g}"
        raise ValidationError(
            f"pi={target.pi:g} with {cap} needs a calibration horizon of {cycles:.4g} cycles of the "
            f"{len(timeline)}-slot timeline, over 2**31 slot counts for {target.replications} replications; "
            f"lower pi, the replications or --horizon-cap"
        )
    largest = float(timeline.means.max())
    if mode == EVENT_TIMES and _CHUNK_EVENTS + largest > _MAX_CHUNK_EVENTS:
        raise ValidationError(
            f"a slot expecting {largest:.4g} events makes an event-time calibration chunk of over 2**23 "
            f"events, more than a path holds in memory at a time; calibrate with --aggregated"
        )
    path_events = cycles * timeline.total_mean
    if path_events > MAX_PATH_EVENTS:
        raise ValidationError(
            f"a calibration path over {cycles:.4g} cycles of the timeline expects {path_events:.4g} events, "
            f"past the 2**62 that its int64 event counts allow"
        )
    return cycles


# A lazily simulated event-mode chunk ends at the first slot boundary at least
# this many expected events past its start, or at the horizon.
_CHUNK_EVENTS = 4096


class _EventDraw:
    """Resumable draw of one event-time replication, simulated chunk by chunk.

    Every record curve attached to the draw takes its records from each
    chunk as it is made, so several detectors read one draw. `base` is a
    sequential cumulative sum, so events of slot s have cumulative intensity
    in [base[s], base[s + 1]]: sorting each chunk on its own gives the global
    sort. Consecutive `random` draws on one generator equal one long draw, and
    each curve carries its exact minimum of U and maximum of V, so the records
    equal those of the whole path simulated at once, wherever its chunks end.
    """

    def __init__(self, means: np.ndarray, base: np.ndarray, rng: np.random.Generator, counts: np.ndarray):
        self.means, self.base, self.rng, self.counts = means, base, rng, counts
        self.total = int(counts.sum())
        self.slot = 0  # the next chunk's first slot
        self.seen = 0  # events simulated so far
        self.curves: list[RecordCurve] = []  # the attached curves

    def advance(self) -> None:
        """Simulate the next chunk and add its records to every attached curve."""
        base, s0 = self.base, self.slot
        s1 = self.slot = min(int(np.searchsorted(base, base[s0] + _CHUNK_EVENTS)), len(self.means))
        counts = self.counts[s0:s1]
        starts = np.repeat(base[s0:s1], counts)
        k = len(starts)
        lam = np.sort(starts + np.repeat(self.means[s0:s1], counts) * self.rng.random(k))
        j = np.arange(self.seen + 1, self.seen + k + 1)
        self.seen += k
        end = float(base[-1]) if s1 == len(self.means) else None
        for curve in self.curves:
            curve.add_chunk(lam, j, end)
            if end is not None:
                curve.path = None
        if end is not None:
            self.curves = []


def _rises(peaks: np.ndarray, v: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The record step: where v's rows (rows, n) rise strictly past their maxima from `peaks`, and the new maxima."""
    running = np.maximum.accumulate(np.concatenate([peaks[:, None], v], axis=1), axis=1)
    return np.nonzero(running[:, 1:] > running[:, :-1]), running[:, -1]


class RecordCurve:
    """Running-max levels of V with the event count at each new record.

    An event-mode curve is attached to its replication's draw (`path`), which
    it extends only as far as the thresholds queried so far need; the draw may
    have been extended further for another curve attached to it. An
    aggregated curve, built whole by `_aggregated_curves`, and one whose draw
    reached its horizon are complete.
    """

    def __init__(self, levels: np.ndarray, events: np.ndarray, total_events: int):
        self.levels = levels
        self.events = events
        self.total_events = total_events
        self.path: _EventDraw | None = None

    def attach(self, path: _EventDraw, config: DetectorConfig) -> None:
        """Take `config`'s records from every chunk of `path` from now on; `path` has made none yet."""
        self.path = path
        self.beta = config.beta
        self.increase = config.direction == INCREASE
        self.u_min = 0.0  # min(0, U at every event so far): pre-jump (increase) or post-jump (decrease)
        path.curves.append(self)

    def add_chunk(self, lam: np.ndarray, j: np.ndarray, end: float | None) -> None:
        """Append the records set by one chunk of the draw.

        The chunk's events are numbered j and sit at cumulative intensity
        lam; end is the cumulative intensity at the horizon if the chunk is
        the last, else None.
        """
        b, k = self.beta, len(j)
        if self.increase:
            u_after = j - b * lam
            runmin = np.minimum(np.minimum.accumulate(u_after - 1.0), self.u_min)
            v = u_after - runmin  # post-jump values; increase alarms happen at jumps
            events = j
        else:
            u_before = b * lam - (j - 1)
            runmin = np.minimum(np.minimum.accumulate(u_before - 1.0), self.u_min)
            v = u_before - np.concatenate([[self.u_min], runmin[:-1]])  # pre-jump peaks of the upward drift
            events = j - 1
        if k:
            self.u_min = float(runmin[-1])
        if end is not None and not self.increase:
            # The drift keeps rising after the last event until the horizon end.
            v = np.append(v, b * end - self.total_events - self.u_min)
            events = np.append(events, self.total_events)
        (_, s), _ = _rises(np.array([self.levels[-1] if len(self.levels) else -np.inf]), v[None])
        if len(s):
            self.levels, self.events = np.concatenate([self.levels, v[s]]), np.concatenate([self.events, events[s]])

    def extend(self, m: float) -> None:
        """Simulate the path until a record reaches m or the horizon ends."""
        while self.path is not None and not (len(self.levels) and self.levels[-1] >= m):
            self.path.advance()

    def run_length(self, m: float) -> tuple[int, bool]:
        """(events to alarm, censored) for a threshold m on this path."""
        self.extend(m)
        i = int(np.searchsorted(self.levels, m, side="left"))
        if i < len(self.levels):
            return int(self.events[i]), False
        return self.total_events, True


class _CurveSet:
    """Every replication's record curve, read at a threshold in one numpy pass.

    The records are held flat, cut by per-curve offsets, with one spare event
    slot at the end so a censored path's index stays in range. The flat
    arrays are rebuilt only after a read extends some lazy curve; reads that
    extend nothing reuse them. A curve may hold records past the flat
    arrays' (another curve on its draw extended it), but never fewer.
    """

    def __init__(self, curves: list[RecordCurve]):
        self.curves = curves
        self.totals = np.array([c.total_events for c in curves], dtype=np.int64)
        # At most the last record of each curve still simulating (-inf before
        # its first); +inf once a curve is complete, so it is never extended.
        self.tops = np.array([-np.inf if c.path is not None else np.inf for c in curves])
        self._flatten()

    def _flatten(self) -> None:
        self.lengths = np.array([len(c.levels) for c in self.curves])
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        self.levels = np.concatenate([c.levels for c in self.curves])
        self.events = np.concatenate([c.events for c in self.curves] + [np.zeros(1, dtype=np.int64)])
        # Each curve reads its records through views, so they are held once.
        for c, a, b in zip(self.curves, self.offsets[:-1].tolist(), self.offsets[1:].tolist()):
            c.levels, c.events = self.levels[a:b], self.events[a:b]

    def run_lengths(self, m: float) -> tuple[np.ndarray, np.ndarray]:
        """(events to alarm as floats, censored) of every path at threshold m."""
        short = np.flatnonzero(self.tops < m)
        if len(short):
            for i in short.tolist():
                curve = self.curves[i]
                curve.extend(m)
                self.tops[i] = np.inf if curve.path is None else curve.levels[-1]
            self._flatten()
        # Records strictly increase, so the number below m is searchsorted(side="left").
        below = np.concatenate([[0], np.cumsum(self.levels < m)])
        counts = below[self.offsets[1:]] - below[self.offsets[:-1]]
        censored = counts == self.lengths
        n = np.where(censored, self.totals, self.events[self.offsets[:-1] + counts])
        return n.astype(float), censored

    def detach(self) -> None:
        """Leave the draws: their other curves go on without these, which are not read again."""
        for c in self.curves:
            if c.path is not None:
                c.path.curves.remove(c)
                c.path = None


def _aggregated_curves(
    means: np.ndarray, counts: np.ndarray, configs: list[DetectorConfig]
) -> list[list[RecordCurve]]:
    """Each aggregated config's record curve of every replication's row of slot `counts`.

    The replications are rows of the detector's kernel, disarmed so that no alarm resets V: the records
    are V's rises on the detector's own arithmetic, and a read at m gives the events seen at its first alarm at m.
    """
    replications = len(counts)
    per_config = []
    for config in configs:
        peaks, found = np.full(replications, -np.inf), []
        for _, v, _, seen in _aggregated_chunks(config, counts, means, armed=False):
            rising = np.flatnonzero(v.max(axis=1) > peaks)  # the rows that set a record in this chunk
            (r, s), peaks[rising] = _rises(peaks[rising], v[rising])
            r = rising[r]
            found.append((r, v[r, s], seen[r, s]))
        rows, levels, events = (np.concatenate(a) for a in zip(*found))
        order = np.argsort(rows, kind="stable")  # replication by replication, each in slot order
        levels, events = levels[order], events[order]
        cuts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=replications))]).tolist()
        totals = seen[:, -1].tolist()  # the events seen by the horizon's end
        per_config.append([RecordCurve(levels[a:b], events[a:b], n) for a, b, n in zip(cuts, cuts[1:], totals)])
    return per_config


def _record_curves(
    means: np.ndarray, configs: list[DetectorConfig], seed: int, replications: int
) -> list[list[RecordCurve]]:
    """Each config's record curve of every replication over slots with `means`, all from one draw per replication."""
    event = configs[0].mode == EVENT_TIMES
    rngs = (rng_for(seed, rep, 2) for rep in range(replications))
    if event:
        rngs = list(rngs)  # an event draw goes on with its generator; an aggregated one is done with it
    # Both modes observe these slot counts, one row per replication.
    counts = stack_counts((rng.poisson(means) for rng in rngs), (replications, len(means)))
    if not event:
        return _aggregated_curves(means, counts, configs)
    base = np.concatenate([[0.0], np.cumsum(means)])
    per_config: list[list[RecordCurve]] = [[] for _ in configs]
    for rng, row in zip(rngs, counts):
        draw = _EventDraw(means, base, rng, row)
        for curves, config in zip(per_config, configs):
            curves.append(RecordCurve(np.empty(0), np.empty(0, dtype=int), draw.total))
            if draw.total:
                curves[-1].attach(draw, config)
    return per_config


def _curve_sets(
    timeline: SlotTimeline, configs: list[DetectorConfig], target: CalibrationTarget, seed: int
) -> list[_CurveSet]:
    """One curve set per config, all read off one draw per replication."""
    means = np.tile(timeline.means, _horizon(timeline, target, configs[0].mode))
    return [_CurveSet(curves) for curves in _record_curves(means, configs, seed, target.replications)]


class SharedDraws:
    """One draw per replication for the calibrations of several detectors.

    Pass it to `calibrate_threshold` once for each of `configs`, with one
    timeline, target and seed. The first call draws every replication once
    and attaches a record curve per config to it; each call then reads its
    own config's curves, which the calls before it may already have extended.
    Every result equals that of a call made without it.
    """

    def __init__(self, configs: list[DetectorConfig]):
        if len({c.mode for c in configs}) != 1:
            raise ValidationError("shared calibration draws need one observation mode")
        self.configs = list(configs)
        self._inputs: tuple | None = None
        self._sets: dict[DetectorConfig, _CurveSet] = {}

    def take(self, timeline: SlotTimeline, config: DetectorConfig, target: CalibrationTarget, seed: int) -> _CurveSet:
        """`config`'s curve set; the first call draws for every config."""
        if self._inputs is None:
            self._inputs = (timeline, target, seed)
            self._sets = dict(zip(self.configs, _curve_sets(timeline, self.configs, target, seed)))
        if self._inputs[0] is not timeline or self._inputs[1:] != (target, seed) or config not in self._sets:
            raise ValidationError("shared draws serve each of their configs once, on one timeline, target and seed")
        return self._sets.pop(config)


def _summarize(run_lengths: np.ndarray, censored: np.ndarray) -> tuple[float, float, float]:
    arl = float(run_lengths.mean())
    stderr = float(run_lengths.std(ddof=1) / math.sqrt(len(run_lengths))) if len(run_lengths) > 1 else 0.0
    cf = float(censored.mean())
    if cf > 0:
        # Censored paths only bound their run length from below.
        stderr /= 1.0 - min(cf, 0.99)
    return arl, stderr, cf


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
    if not 0 < m < math.inf:
        raise ValidationError(f"threshold must be positive and finite, got {m}")
    arl, stderr, cf = _summarize(*_curve_sets(timeline, [config], target, seed)[0].run_lengths(m))
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
    *,
    draws: SharedDraws | None = None,
) -> CalibrationResult:
    """Read the threshold off the record levels at the step where the ARL reaches pi.

    Under common random numbers the empirical ARL is a nondecreasing step
    function of m, constant on (r, r'] between consecutive record levels. The
    top climbs until ARL(top) reaches pi, which leaves every record below it
    known. Each next top is the next value of the ladder 0.5, 0.75, 1, 1.5,
    2, 3, ... 2**60 or, where that is lower and the last read raised the ARL,
    2% past the m at which log ARL, extrapolated linearly through the last
    two reads, meets log pi. A binary search over the levels r in [previous
    top, top) finds the first with ARL(nextafter(r)) >= pi, and m is r or
    nextafter(r), whichever ARL is closer to pi. `trace` lists every ARL
    read, in order: 1e-9, the tops, the search and r. With `draws` the
    curves are read off draws shared with other configs' calibrations; the
    result is the same.
    """
    if target.pi < 1:
        raise ValidationError("budget below one event is unattainable")

    if draws is None:
        curves = _curve_sets(timeline, [config_template], target, seed)[0]
    else:
        curves = draws.take(timeline, config_template, target, seed)
    trace: list[dict] = []
    reads: dict[float, tuple[float, float, float]] = {}

    def evaluate(m: float) -> tuple[float, float, float]:
        m = float(m)
        if m not in reads:
            arl, stderr, cf = reads[m] = _summarize(*curves.run_lengths(m))
            trace.append({"m": m, "arl": arl, "stderr": stderr, "censored_fraction": cf})
        return reads[m]

    floor = evaluate(1e-9)
    if abs(floor[0] - target.pi) < 1e-12:
        m = 1e-9
    elif floor[0] > target.pi:
        raise BracketingError(f"run length at a vanishing threshold already exceeds pi={target.pi}")
    else:
        below, arl, top = 1e-9, floor[0], _LADDER[0]
        while (read := evaluate(top)[0]) < target.pi:
            step = bisect.bisect_right(_LADDER, top)
            if step == len(_LADDER):
                raise BracketingError(f"could not straddle pi={target.pi} within 60 expansions")
            following = _LADDER[step]
            if arl > 0 and (rise := math.log(read) - math.log(arl)) > 0:
                # Where log ARL, linear through the last two reads, meets log pi.
                guess = top + (math.log(target.pi) - math.log(read)) * (top - below) / rise
                following = min(following, max(guess, top) * (1.0 + _SECANT_MARGIN))
            below, arl, top = top, read, following
        # ARL(below) < pi <= ARL(top): the step straddling pi lies just above a level in [below, top).
        # The distinct levels in order; np.unique would import numpy.ma.
        levels = np.sort(curves.levels[(curves.levels >= below) & (curves.levels < top)])
        levels = levels[np.concatenate([[True], levels[1:] != levels[:-1]])]
        i = bisect.bisect_left(levels, True, key=lambda r: evaluate(np.nextafter(r, np.inf))[0] >= target.pi)
        r, up = float(levels[i]), float(np.nextafter(levels[i], np.inf))
        m = r if target.pi - evaluate(r)[0] <= evaluate(up)[0] - target.pi else up
    curves.detach()  # draws shared with other configs go on without these curves

    arl, stderr, cf = evaluate(m)
    if abs(arl - target.pi) > _TOLERANCE_REL * target.pi + 2.0 * stderr:
        raise BracketingError(
            f"no threshold meets the budget: nearest run length {arl:.3f} vs target {target.pi} "
            f"(stderr {stderr:.3f}); increase replications or use "
            f"event-time mode if the budget is finer than the per-interval count granularity"
        )
    if cf > 0.5:
        raise HorizonTooShortError(f"{cf:.0%} of paths censored at the calibrated threshold; extend horizon_cap")
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

