from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seasonal_cusum import calibrate, detect
from seasonal_cusum.calibrate import (
    _CHUNK_EVENTS,
    _MAX_CHUNK_EVENTS,
    CalibrationResult,
    CalibrationTarget,
    SharedDraws,
    _CurveSet,
    _EventDraw,
    _curve_sets,
    _horizon,
    _record_curves,
    _summarize,
    calibrate_threshold,
    estimate_arl,
)
from seasonal_cusum.detect import (
    AGGREGATED_COUNTS,
    DECREASE,
    EVENT_TIMES,
    INCREASE,
    CusumState,
    DetectorConfig,
    run_aggregated,
    step_aggregated,
)
from seasonal_cusum.errors import BracketingError, HorizonTooShortError, ValidationError
from seasonal_cusum.simulate import MAX_PATH_EVENTS, MAX_SLOT_COUNTS, rng_for
from seasonal_cusum.synthetic import synthetic_model
from seasonal_cusum.timeline import SlotTimeline

from chains import chain_arl, event_chain_arl


def _event_cfg(rho=1.5, m=1.0, direction=INCREASE):
    return DetectorConfig(rho=rho, threshold_m=m, direction=direction, mode=EVENT_TIMES)


def _agg_cfg(rho=1.5, m=1.0, direction=INCREASE):
    return DetectorConfig(rho=rho, threshold_m=m, direction=direction, mode=AGGREGATED_COUNTS)


def test_arl_at_vanishing_threshold_is_exactly_one():
    tl = SlotTimeline.from_rates([4.0] * 10)
    target = CalibrationTarget(pi=5.0, replications=300)
    arl, stderr, censored = estimate_arl(1e-9, tl, _event_cfg(), target, seed=3)
    assert arl == 1.0
    assert stderr == 0.0
    assert censored == 0.0


def _brute_force_arl(lam: float, rho: float, m: float, n_paths: int, max_events: int, seed: int):
    """Independent oracle: sequential event stepping with the stdlib RNG."""
    rnd = random.Random(seed)
    b = (rho - 1.0) / math.log(rho)
    lengths = []
    for _ in range(n_paths):
        v = 0.0
        n = 0
        while n < max_events:
            gap = rnd.expovariate(lam)
            v = max(0.0, v - b * lam * gap)
            v += 1.0
            n += 1
            if v >= m:
                break
        lengths.append(n)
    arr = np.array(lengths, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(n_paths))


def test_arl_matches_independent_oracle():
    lam, rho, m = 3.0, 1.5, 5.0
    tl = SlotTimeline.from_rates([lam] * 40)
    target = CalibrationTarget(pi=50.0, replications=4000)
    arl, stderr, _ = estimate_arl(m, tl, _event_cfg(rho=rho), target, seed=12)
    oracle_arl, oracle_se = _brute_force_arl(lam, rho, m, n_paths=4000, max_events=5000, seed=99)
    combined = math.hypot(stderr, oracle_se)
    assert abs(arl - oracle_arl) < 3.0 * combined


def test_event_arl_does_not_depend_on_the_calendar():
    # Time rescaling puts in-control events on a unit-rate Poisson process
    # along the cumulative-intensity axis, so the run length in events has
    # one law on a flat and on a strongly seasonal timeline (zero-rate slot
    # included).
    flat = SlotTimeline.from_rates([6.0] * 24)
    seasonal = SlotTimeline.from_rates([0.5, 20.0, 0.0, 3.0, 11.0, 0.25] * 4)
    target = CalibrationTarget(pi=500.0, replications=1000)
    for rho, direction in ((1.3, INCREASE), (1 / 1.3, DECREASE)):
        for m in (2.0, 6.0):
            cfg = _event_cfg(rho, m, direction)
            arl_flat, se_flat, cens_flat = estimate_arl(m, flat, cfg, target, seed=20)
            arl_seasonal, se_seasonal, cens_seasonal = estimate_arl(m, seasonal, cfg, target, seed=21)
            assert cens_flat == cens_seasonal == 0.0, (direction, m)
            assert abs(arl_flat - arl_seasonal) < 3.0 * math.hypot(se_flat, se_seasonal), (direction, m)


def test_event_arl_matches_the_chain():
    # Both directions, two thresholds each, on the calendar test's flat and
    # seasonal timelines: estimate_arl within 3 standard errors of the one
    # chain value both timelines share, which needs no seed.
    flat = SlotTimeline.from_rates([6.0] * 24)
    seasonal = SlotTimeline.from_rates([0.5, 20.0, 0.0, 3.0, 11.0, 0.25] * 4)
    target = CalibrationTarget(pi=500.0, replications=1000)
    for rho, direction in ((1.2, INCREASE), (1 / 1.2, DECREASE)):
        for m in (2.0, 6.0):
            cfg = _event_cfg(rho, m, direction)
            chain = event_chain_arl(cfg)
            for tl, seed in ((flat, 20), (seasonal, 21)):
                arl, stderr, censored = estimate_arl(m, tl, cfg, target, seed=seed)
                assert censored == 0.0, (direction, m, seed)
                assert abs(arl - chain) < 3.0 * stderr, (direction, m, seed, arl, stderr, chain)


def test_aggregated_arl_matches_the_brook_evans_chain():
    # Both directions, two thresholds each, on a flat and a strongly seasonal
    # timeline (a zero-rate slot included): estimate_arl within 3 standard
    # errors of the chain over the same horizon.
    flat = SlotTimeline.from_rates([5.0] * 24)
    seasonal = SlotTimeline.from_rates([0.5, 20.0, 0.0, 3.0, 11.0, 0.25] * 4)
    target = CalibrationTarget(pi=300.0, replications=1000)
    for tl in (flat, seasonal):
        for rho, direction in ((1.2, INCREASE), (1 / 1.2, DECREASE)):
            for m in (3.0, 7.0):
                cfg = _agg_cfg(rho, m, direction)
                arl, stderr, censored = estimate_arl(m, tl, cfg, target, seed=1)
                chain = chain_arl(tl, cfg, _horizon(tl, target, AGGREGATED_COUNTS))
                assert censored == 0.0 and 30.0 < chain < 300.0, (direction, m, chain)
                assert abs(arl - chain) < 3.0 * stderr, (tl.means.tolist()[:6], direction, m, arl, stderr, chain)


def test_arl_monotone_in_threshold_event_mode():
    tl = SlotTimeline.from_rates([5.0] * 20)
    target = CalibrationTarget(pi=20.0, replications=500)
    values = [estimate_arl(m, tl, _event_cfg(), target, seed=7)[0] for m in (0.5, 1.5, 3.0, 5.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_arl_monotone_in_threshold_aggregated_mode():
    tl = SlotTimeline.from_rates([5.0] * 20)
    target = CalibrationTarget(pi=30.0, replications=500)
    values = [estimate_arl(m, tl, _agg_cfg(), target, seed=7)[0] for m in (1.0, 3.0, 6.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_aggregated_arl_not_below_event_arl():
    # Both modes draw the same slot counts from one seed, and coarser
    # observation can only delay the alarm, path by path: the inequalities hold
    # exactly, not just in expectation.
    tl = SlotTimeline.from_rates([5.0] * 20)
    target = CalibrationTarget(pi=30.0, replications=800)
    for rho, direction in ((1.5, INCREASE), (1 / 1.5, DECREASE)):
        for m in (1.0, 3.0, 5.0, 8.0):
            arl_event, _, cens_event = estimate_arl(m, tl, _event_cfg(rho, direction=direction), target, seed=5)
            arl_agg, _, cens_agg = estimate_arl(m, tl, _agg_cfg(rho, direction=direction), target, seed=5)
            assert arl_agg >= arl_event, (direction, m)
            assert cens_agg >= cens_event, (direction, m)


def test_aggregated_record_curve_matches_run_aggregated():
    # Each replication's curve against run_aggregated on the same tiled
    # counts, read at every record level and one ulp either side of it: the
    # records are the detector's own V at slot ends, bit for bit.
    tl = SlotTimeline.from_rates([2.0, 5.0, 0.5, 8.0, 3.0])
    cycles, seed, reps = 40, 9, 5
    tiled = SlotTimeline.from_rates(np.tile(tl.means, cycles))
    read = 0
    for rho, direction in ((1.3, INCREASE), (1 / 1.3, DECREASE)):
        curves = _record_curves(np.tile(tl.means, cycles), [_agg_cfg(rho, direction=direction)], seed, reps)[0]
        for rep, curve in enumerate(curves):
            counts = rng_for(seed, rep, 2).poisson(tiled.means)
            assert curve.total_events == int(counts.sum())
            grid = [0.5, 2.0, 6.0, 15.0, 40.0]
            for level in curve.levels[curve.levels > 0].tolist():
                grid += [float(np.nextafter(level, -np.inf)), level, float(np.nextafter(level, np.inf))]
                read += 1
            for m in grid:
                alarms = run_aggregated(tiled, counts, _agg_cfg(rho, m, direction)).alarms
                expected = (alarms[0].events_at_alarm, False) if alarms else (int(counts.sum()), True)
                assert curve.run_length(m) == expected, (direction, rep, m)
    assert read > 50


@settings(max_examples=30, deadline=None)
@given(
    rates=st.lists(st.sampled_from([0.0, 0.5, 3.0, 9.0]) | st.floats(0.0, 12.0), min_size=1, max_size=8),
    cycles=st.integers(1, 6),
    reps=st.integers(1, 7),
    block=st.integers(1, 150),
)
def test_aggregated_curves_do_not_depend_on_the_chunk(rates, cycles, reps, block):
    # Any block size, down to chunks of one slot: both configs' curves, read
    # off one draw, are those of one chunk of the whole horizon and the
    # strict rises of a disarmed step_aggregated loop at slot ends.
    tl = SlotTimeline.from_rates(rates)
    configs = [_agg_cfg(1.3), _agg_cfg(1 / 1.3, direction=DECREASE)]
    whole = _record_curves(np.tile(tl.means, cycles), configs, 8, reps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detect, "_BLOCK_FLOATS", block)
        cut = _record_curves(np.tile(tl.means, cycles), configs, 8, reps)
    means = np.tile(tl.means, cycles).tolist()
    for config, whole_curves, cut_curves in zip(configs, whole, cut):
        for rep, (a, b) in enumerate(zip(whole_curves, cut_curves)):
            state, levels, events = CusumState(armed=False), [], []
            for count, dlam in zip(rng_for(8, rep, 2).poisson(means).tolist(), means):
                state, _ = step_aggregated(state, count, dlam, config)
                if state.v > (levels[-1] if levels else -math.inf):
                    levels.append(state.v)
                    events.append(state.events_seen)
            loop = (levels, events, state.events_seen)
            for curve in (a, b):
                assert repr((curve.levels.tolist(), curve.events.tolist(), curve.total_events)) == repr(loop)


def test_aggregated_arl_is_the_detectors_mean_first_alarm():
    # The calibrated threshold sits on a record level or one ulp above it, so
    # the records must be the detector's own levels: the ARL reported is
    # bit for bit the mean first-alarm event count of run_aggregated on the
    # same tiled counts at the calibrated m (the horizon total where none fires).
    tl = SlotTimeline.from_rates([2.0, 5.0, 0.5, 8.0, 3.0])
    target = CalibrationTarget(pi=60.0, replications=200)
    for rho, direction in ((1.3, INCREASE), (1 / 1.3, DECREASE)):
        cfg = _agg_cfg(rho, direction=direction)
        result = calibrate_threshold(tl, cfg, target, seed=4)
        tiled = SlotTimeline.from_rates(np.tile(tl.means, _horizon(tl, target, AGGREGATED_COUNTS)))
        firsts = []
        for rep in range(target.replications):
            counts = rng_for(4, rep, 2).poisson(tiled.means)
            alarms = run_aggregated(tiled, counts, _agg_cfg(rho, result.threshold_m, direction)).alarms
            firsts.append(alarms[0].events_at_alarm if alarms else int(counts.sum()))
        assert repr(result.arl_estimate) == repr(float(np.array(firsts, dtype=float).mean())), direction


def _eager_event_curve(tl, config, cycles, seed, rep):
    """Reference: (levels, events, total) of an event-mode path simulated in one piece."""
    rng = rng_for(seed, rep, 2)
    means = np.tile(tl.means, cycles)
    counts = rng.poisson(means)
    total = int(counts.sum())
    b = config.beta
    if total == 0:
        return np.empty(0), np.empty(0, dtype=int), 0
    base = np.concatenate([[0.0], np.cumsum(means)])
    slot_of = np.repeat(np.arange(len(means)), counts)
    lam = np.sort(base[slot_of] + means[slot_of] * rng.random(total))
    if config.direction == INCREASE:
        u_after = np.arange(1, total + 1) - b * lam
        runmin = np.minimum(np.minimum.accumulate(u_after - 1.0), 0.0)
        v = u_after - runmin
        events = np.arange(1, total + 1)
    else:
        j = np.arange(1, total + 1)
        u_before = b * lam - (j - 1)
        u_after = u_before - 1.0
        prefix_min = np.concatenate([[0.0], np.minimum.accumulate(u_after)[:-1]])
        v = u_before - np.minimum(prefix_min, 0.0)
        events = j - 1
        end_u = b * base[-1] - total
        end_v = end_u - min(0.0, float(np.minimum.accumulate(u_after)[-1]))
        v = np.append(v, end_v)
        events = np.append(events, total)
    running = np.maximum.accumulate(v)
    keep = running > np.concatenate([[-np.inf], running[:-1]])
    return running[keep], events[keep], total


def _assert_lazy_equals_eager(tl, cycles, seeds, reps=3):
    """Query each lazy curve in ascending, descending and repeated order against the eager records."""
    for rho, direction in ((1.3, INCREASE), (1 / 1.3, DECREASE)):
        cfg = _event_cfg(rho, direction=direction)
        for seed in seeds:
            for rep in range(reps):
                levels, events, total = _eager_event_curve(tl, cfg, cycles, seed, rep)

                def expected(m):
                    i = int(np.searchsorted(levels, m, side="left"))
                    return (int(events[i]), False) if i < len(levels) else (total, True)

                top = float(levels[-1]) if len(levels) else 1.0
                grid = [0.3, 1.0, 2.5] + list(np.linspace(0.0, top, 12)[1:]) + [top + 1.0]
                for order in (grid, grid[::-1], grid[3:5] * 2 + grid[:1]):
                    curve = _curve(tl, cfg, cycles, seed, rep)
                    for m in order:
                        assert curve.run_length(m) == expected(m), (direction, seed, rep, m)
                assert curve.run_length(top + 1.0) == (total, True)


def _chunk_ends(means):
    """Where every event draw over slots with `means` ends its chunks: one holding no events, advanced to the end."""
    base = np.concatenate([[0.0], np.cumsum(means)])
    draw, ends = _EventDraw(means, base, rng_for(0, 0, 2), np.zeros(len(means), dtype=np.uint8)), []
    while draw.slot < len(means):
        draw.advance()
        ends.append(draw.slot)
    return np.array(ends)


def test_lazy_event_curve_equals_eager_across_chunks():
    # Zero-rate slots put zero-count slots on chunk edges.
    tl = SlotTimeline.from_rates([0.0, 0.0, 0.4, 55.0, 0.0, 9.0, 0.3])
    cycles = 300
    ends = _chunk_ends(np.tile(tl.means, cycles))
    assert len(ends) >= 3
    assert set(ends[:-1] % 7) == {4}  # the next chunk opens on a zero-rate slot
    assert (np.tile(tl.means, cycles).sum()) >= 3 * _CHUNK_EVENTS
    _assert_lazy_equals_eager(tl, cycles, seeds=(1, 2, 3))


def test_lazy_event_curve_equals_eager_with_tiny_chunks(monkeypatch):
    # Chunks of a few events, one per cycle, each opening on a zero-rate slot; some hold no event.
    monkeypatch.setattr(calibrate, "_CHUNK_EVENTS", 3)
    tl = SlotTimeline.from_rates([0.0, 2.0, 0.0, 0.5, 4.0])
    assert _chunk_ends(np.tile(tl.means, 40)).tolist() == list(range(5, 201, 5))
    _assert_lazy_equals_eager(tl, 40, seeds=(4, 5), reps=6)


def test_lazy_event_curve_on_short_and_empty_paths():
    # A few events per path: the decrease record set by the drift after the
    # last event, up to the horizon end, is often the highest.
    _assert_lazy_equals_eager(SlotTimeline.from_rates([0.5, 1.0]), 2, seeds=(6, 7), reps=20)
    tl = SlotTimeline.from_rates([1e-6, 1e-6])
    for direction in (INCREASE, DECREASE):
        curve = _curve(tl, _event_cfg(1.3 if direction == INCREASE else 0.7, direction=direction), 1, 0, 0)
        assert _eager_event_curve(tl, _event_cfg(), 1, 0, 0)[2] == 0
        assert curve.run_length(0.5) == (0, True)
        assert curve.run_length(1e-9) == (0, True)


def test_estimate_arl_rejects_nonpositive_threshold():
    tl = SlotTimeline.from_rates([5.0])
    with pytest.raises(ValidationError):
        estimate_arl(0.0, tl, _event_cfg(), CalibrationTarget(pi=5, replications=100))


@pytest.mark.parametrize("m", [math.nan, math.inf], ids=["nan", "inf"])
def test_estimate_arl_rejects_non_finite_threshold(m):
    tl = SlotTimeline.from_rates([5.0])
    with pytest.raises(ValidationError, match="finite"):
        estimate_arl(m, tl, _event_cfg(), CalibrationTarget(pi=5, replications=100))


def test_horizon_too_short():
    tl = SlotTimeline.from_rates([1.0, 1.0])
    target = CalibrationTarget(pi=5.0, replications=100, horizon_cap=2.0)
    with pytest.raises(HorizonTooShortError):
        estimate_arl(50.0, tl, _event_cfg(), target, seed=1)


def test_calibrate_pi_one_gives_tiny_threshold():
    tl = SlotTimeline.from_rates([4.0] * 10)
    target = CalibrationTarget(pi=1.0, replications=200)
    result = calibrate_threshold(tl, _event_cfg(), target, seed=2)
    assert result.threshold_m <= 1.0
    assert result.arl_estimate == 1.0


def test_calibrate_meets_budget_and_doubling_pi_raises_m():
    tl = SlotTimeline.from_rates([6.0] * 30)
    cfg = _event_cfg(rho=1.3)
    small = calibrate_threshold(tl, cfg, CalibrationTarget(pi=40.0, replications=1500), seed=10)
    big = calibrate_threshold(tl, cfg, CalibrationTarget(pi=80.0, replications=1500), seed=10)
    assert abs(small.arl_estimate - 40.0) <= 0.02 * 40.0 + 2 * small.arl_stderr
    assert abs(big.arl_estimate - 80.0) <= 0.02 * 80.0 + 2 * big.arl_stderr
    assert big.threshold_m >= small.threshold_m
    assert small.trace  # bisection trace kept for audit


def test_calibrate_reproducible():
    tl = SlotTimeline.from_rates([6.0] * 30)
    cfg = _event_cfg(rho=1.3)
    target = CalibrationTarget(pi=25.0, replications=400)
    a = calibrate_threshold(tl, cfg, target, seed=123)
    b = calibrate_threshold(tl, cfg, target, seed=123)
    assert a.to_dict() == b.to_dict()


def test_calibrate_aggregated_mode_runs():
    # Budget must be coarse relative to the per-slot counts; aggregated ARL
    # moves in lumps of roughly one slot mean.
    tl = SlotTimeline.from_rates([2.0] * 30)
    cfg = _agg_cfg(rho=1.4)
    result = calibrate_threshold(tl, cfg, CalibrationTarget(pi=60.0, replications=600), seed=6)
    assert abs(result.arl_estimate - 60.0) <= 0.02 * 60.0 + 2 * result.arl_stderr


def test_target_validation():
    with pytest.raises(ValidationError):
        CalibrationTarget(pi=0.0)
    with pytest.raises(ValidationError):
        CalibrationTarget(pi=5.0, replications=10)


@pytest.mark.parametrize("replications", [math.nan, math.inf, 150.5, 150.0], ids=["nan", "inf", "fraction", "float"])
def test_target_rejects_replications_that_are_not_an_integer(replications):
    # NaN passed the at-least-100 check, and calibration then died in range().
    with pytest.raises(ValidationError, match="replications must be an integer"):
        CalibrationTarget(pi=50.0, replications=replications)


@pytest.mark.parametrize("cap", [math.nan, math.inf, 0.0, -5.0], ids=["nan", "inf", "zero", "negative"])
def test_target_rejects_bad_horizon_cap(cap):
    with pytest.raises(ValidationError, match="horizon cap"):
        CalibrationTarget(pi=5.0, horizon_cap=cap)


@pytest.mark.parametrize("pi", [math.nan, math.inf], ids=["nan", "inf"])
def test_target_rejects_non_finite_budget(pi):
    with pytest.raises(ValidationError):
        CalibrationTarget(pi=pi)


def _pair(mode):
    sides = ((1.3, INCREASE), (1 / 1.3, DECREASE))
    return [DetectorConfig(rho=rho, threshold_m=1.0, direction=d, mode=mode) for rho, d in sides]


def _shared(timeline, configs, target, seed):
    """Each config's calibration, in order, off one SharedDraws: its dict, or the error it raised."""
    draws = SharedDraws(configs)

    def calibration(*args):
        return calibrate_threshold(*args, draws=draws).to_dict()

    return [repr(_outcome(calibration, timeline, c, target, seed)) for c in configs]


def _independent(timeline, configs, target, seed):
    return [repr(_outcome(lambda *a: calibrate_threshold(*a).to_dict(), timeline, c, target, seed)) for c in configs]


@pytest.mark.parametrize("mode", [EVENT_TIMES, AGGREGATED_COUNTS])
def test_shared_draws_equal_independent_calibrations(monkeypatch, mode):
    # Both sides off one draw per replication, in either order: the side
    # calibrated second reads records the first side's reads made, and
    # simulates on where it needs longer paths. Every field, trace included,
    # equals a calibration of its own; so does a refusal.
    monkeypatch.setattr(calibrate, "_CHUNK_EVENTS", 16)
    tl = SlotTimeline.from_rates([6.0, 0.0, 2.0] * 4)
    cases = 0
    for pi, seed in ((40.0, 0), (150.0, 1), (1.5, 2), (5.0, 3)):
        target = CalibrationTarget(pi=pi, replications=100)
        for configs in (_pair(mode), _pair(mode)[::-1]):
            shared = _shared(tl, configs, target, seed)
            assert shared == _independent(tl, configs, target, seed), (pi, seed)
            cases += all("threshold_m" in r for r in shared)
    assert cases >= 4


def test_shared_draws_at_the_double_sided_shape():
    # Default chunks on two weeks of seasonal slots, as `detect --pi --double-sided` runs them.
    tl = synthetic_model().timeline([date(2018, 1, 1) + timedelta(days=i) for i in range(14)])
    target = CalibrationTarget(pi=2000.0, replications=200)
    for configs in (_pair(EVENT_TIMES), _pair(EVENT_TIMES)[::-1]):
        assert _shared(tl, configs, target, 4) == _independent(tl, configs, target, 4)


def test_shared_draws_serve_each_config_once_on_one_input(monkeypatch):
    monkeypatch.setattr(calibrate, "_CHUNK_EVENTS", 16)
    tl = SlotTimeline.from_rates([6.0, 0.0, 2.0] * 4)
    target = CalibrationTarget(pi=40.0, replications=100)
    up, down = _pair(EVENT_TIMES)
    with pytest.raises(ValidationError, match="one observation mode"):
        SharedDraws([up, _agg_cfg(1 / 1.3, direction=DECREASE)])
    draws = SharedDraws([up, down])
    calibrate_threshold(tl, up, target, seed=1, draws=draws)
    # The finished side left the draws: they go on for the other side's curves alone.
    rest = draws._sets[down].curves
    assert any(c.path is not None for c in rest)
    assert all(c.path is None or c.path.curves == [c] for c in rest)
    other = SlotTimeline.from_rates([6.0, 0.0, 2.0] * 4)
    for args in ((tl, up, target, 1), (tl, down, target, 2), (other, down, target, 1)):
        with pytest.raises(ValidationError, match="shared draws serve each of their configs once"):
            calibrate_threshold(*args, draws=draws)
    calibrate_threshold(tl, down, target, seed=1, draws=draws)


def test_calibration_ignores_the_threads_variable():
    # Calibration runs on one thread whatever SEASONAL_CUSUM_THREADS says, and loads no thread pool.
    code = """
import sys
from seasonal_cusum.calibrate import CalibrationTarget, calibrate_threshold
from seasonal_cusum.detect import DetectorConfig
from seasonal_cusum.timeline import SlotTimeline
tl = SlotTimeline.from_rates([6.0, 0.0, 2.0] * 4)
result = calibrate_threshold(tl, DetectorConfig(rho=1.3, threshold_m=1.0), CalibrationTarget(pi=40.0, replications=200), seed=3)
print(repr(result.to_dict()), "concurrent.futures" in sys.modules)
"""
    env = {k: v for k, v in os.environ.items() if k != "SEASONAL_CUSUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    unset, four = (
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=e).stdout
        for e in (env, {**env, "SEASONAL_CUSUM_THREADS": "4"})
    )
    assert four == unset
    assert unset.strip().endswith("} False")


def _doubling_search(timeline, config, target, seed):
    """Oracle: double hi from 1 until ARL(hi) reaches pi, then bisect [1e-9, hi].

    Every ARL is read curve by curve through `RecordCurve.run_length`.
    Returns the four result fields, the thresholds evaluated and the bracket top.
    """
    if target.pi < 1:
        raise ValidationError("budget below one event is unattainable")
    curves = _curve_sets(timeline, [config], target, seed)[0].curves
    ms = []

    def evaluate(m):
        pairs = [c.run_length(m) for c in curves]
        ms.append(m)
        return _summarize(np.array([p[0] for p in pairs], dtype=float), np.array([p[1] for p in pairs]))

    def result(m, arl, stderr, cf):
        if cf > 0.5:
            raise HorizonTooShortError(f"{cf:.0%} of paths censored at the calibrated threshold; extend horizon_cap")
        return (m, arl, stderr, cf), ms

    lo = 1e-9
    arl_lo, se_lo, cf_lo = evaluate(lo)
    if abs(arl_lo - target.pi) < 1e-12:
        return *result(lo, arl_lo, se_lo, cf_lo), None
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
    top = hi
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
    if abs(arl - target.pi) <= 0.02 * target.pi + 2.0 * stderr:
        return *result(m, arl, stderr, cf), top
    raise BracketingError(
        f"no threshold meets the budget: nearest run length {arl:.3f} vs target {target.pi} "
        f"(stderr {stderr:.3f}); increase replications or use "
        f"event-time mode if the budget is finer than the per-interval count granularity"
    )


def _outcome(search, *args):
    try:
        return search(*args)
    except (ValidationError, BracketingError, HorizonTooShortError) as exc:
        return type(exc).__name__, str(exc)


_MISSED = "no threshold meets the budget: nearest run length "


def _nearest(outcome):
    """The ARL a search settled on, or the nearest one its missed budget reports (to 3 decimals)."""
    if isinstance(outcome, CalibrationResult):
        return outcome.arl_estimate
    if isinstance(outcome[0], tuple):  # the oracle's result fields
        return outcome[0][1]
    return float(outcome[1].removeprefix(_MISSED).split(" vs ")[0]) if _MISSED in outcome[1] else None


def test_bracket_search_equals_doubling_oracle_bit_for_bit():
    # Event mode: the exact read gives the doubling search's ARL, stderr,
    # censored fraction and errors bit for bit, its threshold to 1e-12, and
    # never reads past its bracket top. Aggregated mode: the bisection cannot
    # separate levels within 1e-12 of each other, so the exact read is only
    # never further from pi; it misses the budget only where the oracle does.
    timelines = (
        SlotTimeline.from_rates([4.0] * 10),
        SlotTimeline.from_rates([6.0, 0.0, 2.0] * 4),
        SlotTimeline.from_rates([0.0, 0.0, 0.4, 55.0, 0.0, 9.0, 0.3]),
    )
    tops_at_one = tops_read = closer = 0
    for tl in timelines:
        for pi in (1, 1.5, 2, 7, 40, 200):
            target = CalibrationTarget(pi=pi, replications=100)
            for rho, direction in ((1.3, INCREASE), (1 / 1.3, DECREASE), (1.2, INCREASE), (1 / 1.2, DECREASE)):
                for cfg in (_event_cfg(rho, direction=direction), _agg_cfg(rho, direction=direction)):
                    for seed in (0, 1):
                        case = (tl.means.tolist(), pi, rho, cfg.mode, seed)
                        new = _outcome(calibrate_threshold, tl, cfg, target, seed)
                        old = _outcome(_doubling_search, tl, cfg, target, seed)
                        if cfg.mode == AGGREGATED_COUNTS and _nearest(old) is not None:
                            assert _nearest(new) is not None, case
                            assert isinstance(new, CalibrationResult) or isinstance(old[0], str), case
                            # Reported misses are rounded to 3 decimals.
                            assert abs(_nearest(new) - pi) <= abs(_nearest(old) - pi) + 5e-4, case
                            closer += abs(_nearest(new) - pi) < abs(_nearest(old) - pi) - 5e-4
                            continue
                        if isinstance(old[0], str):
                            assert new == old, case
                            continue
                        fields, old_ms, top = old
                        m = fields[0]
                        assert abs(new.threshold_m - m) <= 1e-12 * max(m, 1.0), case
                        got = (new.arl_estimate, new.arl_stderr, new.censored_fraction)
                        assert [repr(x) for x in got] == [repr(x) for x in fields[1:]], case
                        new_ms = [e["m"] for e in new.trace]
                        assert max(new_ms) <= max(old_ms), case
                        tops_at_one += top == 1.0
                        tops_read += top is not None and top in new_ms
    assert tops_at_one and tops_read and closer


def test_ladder_stops_at_the_first_top_reaching_the_budget():
    # Quick-start-like flat timeline. The ladder gives each next top until the
    # ARL rises; then a top 2% past the log-linear extrapolation of the last
    # two reads to pi replaces the next ladder value where it is lower. The
    # tops stop at the first whose ARL reaches pi, below the ladder's 24, and
    # the level search reads only levels in [previous top, top) and the level
    # just above each.
    tl = SlotTimeline.from_rates([60.0] * 48)
    target = CalibrationTarget(pi=2000.0, replications=100)
    result = calibrate_threshold(tl, _event_cfg(rho=1.2), target, seed=3)
    reads = [(e["m"], e["arl"]) for e in result.trace]
    assert reads[0][0] == 1e-9
    tops = [reads[1]]
    while tops[-1][1] < target.pi:
        (below, arl_below), (top, arl) = ([reads[0]] + tops)[-2:]
        following = min(x for x in calibrate._LADDER if x > top)
        if 0 < arl_below < arl:
            guess = top + (math.log(2000.0) - math.log(arl)) * (top - below) / (math.log(arl) - math.log(arl_below))
            following = min(following, max(guess, top) * 1.02)
        assert reads[len(tops) + 1][0] == following
        tops.append(reads[len(tops) + 1])
    ms = [m for m, _ in tops]
    assert ms[:11] == [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]
    assert 16.0 < ms[11] < ms[-1] < 24.0  # the extrapolated tops
    search = [m for m, _ in reads[len(tops) + 1 :]]
    assert search and all(ms[-2] <= m < ms[-1] for m in search)
    assert result.threshold_m in search
    assert len(reads) == len({m for m, _ in reads}) < 30


def _levels_and_arl(timeline, config, target, seed):
    """Every record level below the largest, with the ARL read curve by curve at a threshold."""
    curves = _curve_sets(timeline, [config], target, seed)[0].curves
    for c in curves:
        c.run_length(math.inf)
    levels = np.unique(np.concatenate([c.levels for c in curves]))

    def arl(m):
        return float(np.mean([c.run_length(m)[0] for c in curves]))

    return levels, arl


@pytest.mark.parametrize("mode", [EVENT_TIMES, AGGREGATED_COUNTS])
@pytest.mark.parametrize("rho, direction", [(1.3, INCREASE), (1 / 1.3, DECREASE)], ids=["increase", "decrease"])
def test_threshold_is_the_record_level_of_the_step_straddling_pi(mode, rho, direction):
    # Scan the ARL at and just above every record level: the threshold is the
    # first level r whose ARL just above r reaches pi, or nextafter(r) when
    # that side is closer to pi.
    tl = SlotTimeline.from_rates([6.0, 0.0, 2.0] * 4)
    cfg = DetectorConfig(rho=rho, threshold_m=1.0, direction=direction, mode=mode)
    for pi, seed in ((40.0, 0), (40.0, 1), (150.0, 2)):
        target = CalibrationTarget(pi=pi, replications=100)
        levels, arl = _levels_and_arl(tl, cfg, target, seed)
        r = next(float(r) for r in levels[levels >= 1e-9] if arl(np.nextafter(r, np.inf)) >= pi)
        up = float(np.nextafter(r, np.inf))
        assert arl(r) < pi
        expected = r if pi - arl(r) <= arl(up) - pi else up
        result = calibrate_threshold(tl, cfg, target, seed=seed)
        assert result.threshold_m == expected, (pi, seed)
        assert result.arl_estimate == arl(expected), (pi, seed)


def test_aggregated_read_resolves_levels_the_bisection_could_not():
    # Decrease paths on a flat timeline reach nearly one level by different
    # sums of the same drifts, which round an ulp apart: three record levels
    # are adjacent floats, and the ARL steps from 37.99 to 40.48, 40.70 and
    # 40.72 across them. The doubling oracle's bisection stops at a bracket
    # narrower than 1e-12 that still holds them, at 40.72; the exact read
    # takes the step closest to pi.
    tl = SlotTimeline.from_rates([2.0] * 30)
    cfg = _agg_cfg(rho=1 / 1.3, direction=DECREASE)
    target = CalibrationTarget(pi=40.0, replications=100)
    result = calibrate_threshold(tl, cfg, target, seed=0)
    assert (result.arl_estimate, result.arl_stderr) == pytest.approx((40.48, 3.2864), abs=1e-4)
    (_, arl, stderr, _), _, _ = _doubling_search(tl, cfg, target, 0)
    assert (arl, stderr) == pytest.approx((40.72, 3.3091), abs=1e-4)
    levels, _ = _levels_and_arl(tl, cfg, target, 0)
    near = levels[np.abs(levels - result.threshold_m) < 1e-12]
    assert len(near) == 3 and near[1] == result.threshold_m
    assert near[0] == np.nextafter(near[1], -np.inf) and near[2] == np.nextafter(near[1], np.inf)


@pytest.mark.parametrize(
    "rho, direction, advances", [(1.2, INCREASE, 2301), (1 / 1.2, DECREASE, 2329)], ids=["increase", "decrease"]
)
def test_calibration_simulates_as_far_as_the_bracket_top(monkeypatch, rho, direction, advances):
    # The README `detect --pi --double-sided` shape: 28 days, 2,000
    # replications, pi = 2000, m near 19.7. The extrapolated top stays below
    # the ladder's 24, so the paths simulate at most 2.6 times the events
    # that their run lengths at m hold (3.4 to 3.7 times with the ladder).
    events = []  # per chunk simulated
    advance = calibrate._EventDraw.advance

    def counted(draw):
        seen = draw.seen
        advance(draw)
        events.append(draw.seen - seen)

    monkeypatch.setattr(calibrate._EventDraw, "advance", counted)
    tl = synthetic_model().timeline([date(2018, 1, 1) + timedelta(days=i) for i in range(28)])
    target = CalibrationTarget(pi=2000.0, replications=2000)
    result = calibrate_threshold(tl, _event_cfg(rho, direction=direction), target)
    assert len(events) == advances
    assert sum(events) <= 2.6 * result.arl_estimate * target.replications
    assert max(e["m"] for e in result.trace) < 24.0
    assert len(result.trace) <= 30


def _read_both(curve_args, monkeypatch):
    """Two independent copies of the same curves: one for the batched reader, one read curve by curve."""
    monkeypatch.setattr(calibrate, "_CHUNK_EVENTS", 3)
    return tuple([_curve(*args) for args in curve_args] for _ in range(2))


def _curve(tl, cfg, cycles, seed, rep):
    """The record curve of replication `rep` over `cycles` cycles of `tl`, in either mode."""
    return _record_curves(np.tile(tl.means, cycles), [cfg], seed, rep + 1)[0][rep]


def test_batched_read_equals_per_curve_run_length(monkeypatch):
    lazy_tl = SlotTimeline.from_rates([0.0, 2.0, 0.0, 0.5, 4.0])
    empty_tl = SlotTimeline.from_rates([1e-6, 1e-6])
    args = []
    for rho, direction in ((1.3, INCREASE), (1 / 1.3, DECREASE)):
        args += [(lazy_tl, _event_cfg(rho, direction=direction), 12, 5, rep) for rep in range(6)]
        args += [(lazy_tl, _agg_cfg(rho, direction=direction), 12, 5, rep) for rep in range(3)]
        args += [(empty_tl, _event_cfg(rho, direction=direction), 1, 0, 0)]
    batched, reference = _read_both(args, monkeypatch)
    assert any(c.path is not None for c in batched)  # lazy
    assert any(c.path is None and c.total_events for c in batched)  # complete
    assert any(c.total_events == 0 for c in batched)  # empty
    # Every record level of the complete curves, to be found by the reads.
    for c in reference:
        c.run_length(math.inf)
    levels = np.unique(np.concatenate([c.levels for c in reference]))
    grid = [1e-9, float(levels[-1]) + 1.0]
    for level in levels[:: max(1, len(levels) // 40)]:
        grid += [float(level), float(np.nextafter(level, -np.inf)), float(np.nextafter(level, np.inf))]
    grid = [m for m in grid if m > 0]
    random.Random(0).shuffle(grid)
    # Fresh reference curves, so both sides extend in the same order.
    batched, reference = _read_both(args, monkeypatch)
    curves = _CurveSet(batched)
    for m in sorted(grid[:20]) + grid:
        ns, censored = curves.run_lengths(m)
        pairs = [c.run_length(m) for c in reference]
        expected_ns = np.array([p[0] for p in pairs], dtype=float)
        expected_censored = np.array([p[1] for p in pairs])
        assert ns.dtype == expected_ns.dtype and np.array_equal(ns, expected_ns), m
        assert np.array_equal(censored, expected_censored), m
        assert repr(_summarize(ns, censored)) == repr(_summarize(expected_ns, expected_censored)), m


def test_horizon_limit_is_exact():
    tl = SlotTimeline.from_rates([1.0, 1.0])
    cycles = MAX_SLOT_COUNTS // (2 * 128)
    for mode in (EVENT_TIMES, AGGREGATED_COUNTS):
        target = CalibrationTarget(pi=5.0, replications=128, horizon_cap=2.0 * cycles)
        assert _horizon(tl, target, mode) == cycles
        with pytest.raises(ValidationError, match="--horizon-cap"):
            _horizon(tl, CalibrationTarget(pi=5.0, replications=128, horizon_cap=2.0 * cycles + 1.0), mode)


def test_event_chunk_limit_is_exact_and_event_mode_only():
    target = CalibrationTarget(pi=5.0, replications=100)
    fits = SlotTimeline.from_rates([1.0, float(_MAX_CHUNK_EVENTS - _CHUNK_EVENTS)])
    too_big = SlotTimeline.from_rates([1.0, float(_MAX_CHUNK_EVENTS - _CHUNK_EVENTS + 1)])
    assert _horizon(fits, target, EVENT_TIMES) == 1
    with pytest.raises(ValidationError, match=r"a slot expecting 8\.385e\+06 events makes an event-time calibration chunk of over 2\*\*23"):
        _horizon(too_big, target, EVENT_TIMES)
    # One count per slot in aggregated mode, however large its mean.
    assert _horizon(too_big, target, AGGREGATED_COUNTS) == 1


def test_path_event_limit_is_exact():
    target = CalibrationTarget(pi=5.0, replications=100)
    limit = float(MAX_PATH_EVENTS)
    assert _horizon(SlotTimeline.from_rates([limit / 2, limit / 2]), target, AGGREGATED_COUNTS) == 1
    # limit / 2 + 1024 and the total 2**62 + 1024 are both exact floats.
    with pytest.raises(ValidationError, match=r"expects 4\.612e\+18 events, past the 2\*\*62"):
        _horizon(SlotTimeline.from_rates([limit / 2, limit / 2 + 1024.0]), target, AGGREGATED_COUNTS)


@settings(max_examples=200, deadline=None)
@given(
    rates=st.lists(
        st.one_of(st.just(0.0), st.sampled_from([512.0, 1024.0, 4096.0, 12288.0]), st.floats(0.0, 5000.0)),
        min_size=1,
        max_size=12,
    ),
    cycles=st.integers(1, 40),
)
# A chunk landing exactly on _CHUNK_EVENTS, one reached inside a slot, slots
# holding many chunks' events, a total under one chunk, and no events at all.
@example(rates=[4096.0], cycles=3)
@example(rates=[1024.0, 0.0, 3072.0], cycles=2)
@example(rates=[4095.5, 1.0], cycles=1)
@example(rates=[1e9, 0.25], cycles=3)
@example(rates=[0.0, 0.0], cycles=5)
def test_event_chunks_hold_chunk_events_up_to_one_slot(rates, cycles):
    # Chunks are laid end to end from slot 0 to the horizon; each but the last
    # holds at least _CHUNK_EVENTS expected events, and each holds fewer
    # before its last slot, so at most _CHUNK_EVENTS plus that slot's mean.
    means = np.tile(SlotTimeline.from_rates(rates).means, cycles)
    base = np.concatenate([[0.0], np.cumsum(means)])
    ends = _chunk_ends(means).tolist()
    assert ends[-1] == len(means)
    for s0, s1 in zip([0] + ends, ends):
        assert s0 < s1
        assert base[s1 - 1] < base[s0] + _CHUNK_EVENTS, (s0, s1)
        assert s1 == len(means) or base[s1] >= base[s0] + _CHUNK_EVENTS, (s0, s1)


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(st.sampled_from([0.0, 0.5, 3.0]) | st.floats(0.0, 6.0), min_size=1, max_size=6),
    cycles=st.integers(1, 12),
)
def test_lazy_event_curves_equal_eager_with_one_event_chunks(rates, cycles):
    # Chunks of one expected event, most of them ending on a slot with no
    # events or holding none: the lazy records equal the eager ones.
    tl = SlotTimeline.from_rates(rates)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibrate, "_CHUNK_EVENTS", 1)
        _assert_lazy_equals_eager(tl, cycles, seeds=(3,), reps=2)


@pytest.mark.parametrize(
    "pi, cap, cycles",
    [(1e9, None, math.ceil(20e9 / 168)), (1e300, None, math.ceil(20e300 / 168)), (50.0, 1e300, math.ceil(1e300 / 168))],
    ids=["pi-1e9", "pi-1e300", "cap-1e300"],
)
def test_huge_horizon_fails_before_allocating(pi, cap, cycles):
    # A week of unit-rate slots: the horizon would need far more than 2**31
    # one-byte slot counts (or overflow the tiling), so both entry points
    # refuse it before simulating anything.
    tl = SlotTimeline.from_rates([1.0] * 168)
    target = CalibrationTarget(pi=pi, replications=1000, horizon_cap=cap)
    for call in (lambda: calibrate_threshold(tl, _event_cfg(), target), lambda: estimate_arl(5.0, tl, _event_cfg(), target)):
        with pytest.raises(ValidationError) as info:
            call()
        message = str(info.value)
        assert f"pi={pi:g}" in message and f"{cycles:.4g} cycles" in message and "--horizon-cap" in message


def test_overflowing_horizon_is_refused():
    # 20 * pi overflows to infinity: there is no cycle count to take a ceiling of.
    tl = SlotTimeline.from_rates([1.0] * 168)
    with pytest.raises(ValidationError, match="inf cycles"):
        calibrate_threshold(tl, _event_cfg(), CalibrationTarget(pi=1e308, replications=100))


def test_calibration_does_not_import_numpy_ma():
    # numpy.ma costs over a megabyte of memory and about 10 ms to import; np.unique imports it.
    code = """
import sys
from seasonal_cusum.calibrate import CalibrationTarget, calibrate_threshold
from seasonal_cusum.detect import DetectorConfig
from seasonal_cusum.timeline import SlotTimeline
tl = SlotTimeline.from_rates([2.0] * 30)
for mode, pi in (("events", 40.0), ("aggregated", 60.0)):
    config = DetectorConfig(rho=1.4, threshold_m=1.0, mode=mode)
    result = calibrate_threshold(tl, config, CalibrationTarget(pi=pi, replications=300), seed=6)
    assert len(result.trace) > 3, result.trace
print("numpy.ma" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)}
    )
    assert done.stdout.strip() == "False"
