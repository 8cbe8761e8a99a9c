from __future__ import annotations

import bisect
import math
from dataclasses import replace
from datetime import date, datetime, time, timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasonal_cusum.daycal import slot_start, slot_timestamp
from seasonal_cusum.detect import (
    AGGREGATED_COUNTS,
    DECREASE,
    EVENT_TIMES,
    INCREASE,
    _EVENT_BLOCK,
    _aggregated_rows,
    AlarmEvent,
    CusumState,
    DetectorConfig,
    StepRecord,
    TimelineRun,
    beta,
    double_sided_run,
    run_aggregated,
    run_detector,
    run_events,
    step_aggregated,
    step_events,
)
from seasonal_cusum.errors import ValidationError
from seasonal_cusum.ingest import SlotRecord
from seasonal_cusum.simulate import ChangeSpec, simulate_events, simulate_slot_counts
from seasonal_cusum.timeline import SlotTimeline

# High-precision oracle values for (rho - 1) / ln(rho), frozen from a 40-digit
# evaluation.
BETA_1_3 = 1.143448406012520446477024
BETA_1_2 = 1.096962989549415427675514


def _cfg(rho=1.2, m=50.0, direction=INCREASE, mode=AGGREGATED_COUNTS, reset=True):
    return DetectorConfig(rho=rho, threshold_m=m, direction=direction, mode=mode, reset_on_alarm=reset)


# --- beta -----------------------------------------------------------------

def test_beta_at_e():
    assert beta(math.e) == pytest.approx(math.e - 1.0, abs=1e-12)


def test_beta_oracle_values():
    assert beta(1.3) == pytest.approx(BETA_1_3, abs=1e-12)
    assert beta(1.2) == pytest.approx(BETA_1_2, abs=1e-12)


def test_beta_near_one_limit():
    assert 1.0 < beta(1.0001) < 1.0001


def test_beta_domain_errors():
    for bad in (0.0, -2.0, 1.0):
        with pytest.raises(ValueError):
            beta(bad)


def test_beta_monotone_grid():
    grid = np.linspace(0.1, 10.0, 1000)
    grid = grid[np.abs(grid - 1.0) > 1e-9]
    values = [beta(r) for r in grid]
    assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))
    assert all(b > 1 for r, b in zip(grid, values) if r > 1)
    assert all(0 < b < 1 for r, b in zip(grid, values) if r < 1)


# --- aggregated steps -------------------------------------------------------

def test_step_aggregated_increase_oracle():
    state, alarm = step_aggregated(CusumState.initial(), 10, 8.0, _cfg())
    assert alarm is None
    assert state.v == pytest.approx(10.0 - 8.0 * BETA_1_2, abs=1e-12)
    assert state.events_seen == 10


def test_step_aggregated_reflection_clamp():
    start = CusumState(v=5.0, u=5.0, u_min=0.0)
    state, alarm = step_aggregated(start, 0, 10.0, _cfg())
    assert state.v == 0.0
    assert alarm is None


def test_step_aggregated_threshold_crossing():
    # Arrange an increment of exactly +0.2 just below the threshold.
    dlam = (12 - 0.2) / beta(1.2)
    start = CusumState(v=38.6, u=38.6, u_min=0.0, events_seen=100)
    state, alarm = step_aggregated(start, 12, dlam, _cfg(m=38.7), clock=7.0)
    assert alarm is not None
    assert alarm.v_at_alarm == pytest.approx(38.8, abs=1e-9)
    assert alarm.events_at_alarm == 112
    assert alarm.time == 7.0
    assert state.v == 0.0  # reset_on_alarm
    assert state.u_min == state.u


def test_step_aggregated_no_reset_disarms():
    cfg = _cfg(m=0.5, reset=False)
    state, alarm = step_aggregated(CusumState.initial(), 10, 1.0, cfg)
    assert alarm is not None
    state, alarm2 = step_aggregated(state, 10, 1.0, cfg)
    assert alarm2 is None  # still above m but no re-arm without reset
    assert state.v > cfg.threshold_m


def test_step_aggregated_decrease_direction():
    cfg = _cfg(rho=0.7, m=50.0, direction=DECREASE)
    state, _ = step_aggregated(CusumState.initial(), 2, 10.0, cfg)
    assert state.v == pytest.approx(max(0.0, beta(0.7) * 10.0 - 2.0))


def test_step_aggregated_validation():
    with pytest.raises(ValidationError):
        step_aggregated(CusumState.initial(), -1, 1.0, _cfg())
    with pytest.raises(ValidationError):
        step_aggregated(CusumState.initial(), 1, -1.0, _cfg())


def test_step_aggregated_nan_increment_does_not_reset():
    start = CusumState(v=4.0, u=4.0, u_min=0.0)
    with pytest.raises(ValidationError):
        step_aggregated(start, 1, math.nan, _cfg())


def test_step_aggregated_rejects_non_integral_count():
    with pytest.raises(ValidationError):
        step_aggregated(CusumState.initial(), 2.7, 1.0, _cfg())


@pytest.mark.parametrize(
    "rho, m",
    [(1.2, math.nan), (1.2, math.inf), (math.nan, 1.0), (math.inf, 1.0)],
    ids=["threshold-nan", "threshold-inf", "rho-nan", "rho-inf"],
)
def test_config_rejects_non_finite(rho, m):
    with pytest.raises(ValidationError):
        DetectorConfig(rho=rho, threshold_m=m)


@pytest.mark.parametrize("direction", [INCREASE, DECREASE])
@pytest.mark.parametrize("rho", [0.0, 1.0, -1.0])
def test_config_rejects_rho_outside_domain(rho, direction):
    with pytest.raises(ValidationError):
        DetectorConfig(rho=rho, threshold_m=1.0, direction=direction)


def test_config_validation():
    with pytest.raises(ValidationError):
        DetectorConfig(rho=0.8, threshold_m=1.0, direction=INCREASE)
    with pytest.raises(ValidationError):
        DetectorConfig(rho=1.2, threshold_m=1.0, direction=DECREASE)
    with pytest.raises(ValidationError):
        DetectorConfig(rho=1.2, threshold_m=0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=60), st.floats(min_value=0.0, max_value=60.0)),
        min_size=1,
        max_size=60,
    )
)
def test_reflection_identity_property(steps):
    """v from the max() recursion tracks u - min(u) after every step."""
    cfg = _cfg(m=1e9)  # never alarm
    state = CusumState.initial()
    v_direct = 0.0
    for count, dlam in steps:
        state, _ = step_aggregated(state, count, dlam, cfg)
        v_direct = max(0.0, v_direct + (count - cfg.beta * dlam))
        assert state.v == pytest.approx(state.u - state.u_min, abs=1e-9)
        assert state.v == pytest.approx(v_direct, abs=1e-9)
        assert state.v >= 0.0
        assert state.u_min <= state.u


# --- event-time steps ---------------------------------------------------------

def test_step_events_decay_clamps_at_zero():
    tl = SlotTimeline.from_rates([100.0])
    start = CusumState(v=42.0, u=42.0, u_min=0.0)
    state, alarm = step_events(start, [], _cfg(m=1e9, mode=EVENT_TIMES), (0.0, 1.0), tl.cumulative)
    assert state.v == 0.0
    assert alarm is None


def test_step_events_single_jump():
    tl = SlotTimeline.from_rates([100.0])
    state, _ = step_events(CusumState.initial(), [0.0], _cfg(m=1e9, mode=EVENT_TIMES), (0.0, 0.0), tl.cumulative)
    assert state.v == 1.0
    assert state.events_seen == 1


@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no-reset"])
def test_step_events_armed_start_on_m_over_a_zero_rate_slot(reset):
    # v starts exactly on m and no intensity accrues: the decrease crossing is
    # at the interval start, with no fraction of a zero drift to compute.
    cfg = _cfg(rho=0.5, m=2.0, direction=DECREASE, mode=EVENT_TIMES, reset=reset)
    state, alarm = step_events(CusumState(v=2.0, u=2.0), [], cfg, (0.0, 1.0), lambda a, b: 0.0)
    assert (alarm.time, alarm.v_at_alarm) == (0.0, 2.0)
    assert (state.v, state.armed) == ((0.0, True) if reset else (2.0, False))


def test_step_events_rejects_unsorted():
    tl = SlotTimeline.from_rates([10.0])
    with pytest.raises(ValidationError):
        step_events(CusumState.initial(), [0.5, 0.2], _cfg(mode=EVENT_TIMES), (0.0, 1.0), tl.cumulative)
    # Times that are in order but start a hair before the interval are refused too.
    with pytest.raises(ValidationError, match="outside the interval"):
        step_events(CusumState.initial(), [1.0 + 5e-10], _cfg(mode=EVENT_TIMES), (1.0 + 1e-9, 2.0 + 1e-9), lambda a, b: 2.0 * (b - a))


def test_step_events_alarm_at_jump_timestamp():
    tl = SlotTimeline.from_rates([1.0])
    cfg = _cfg(m=2.5, mode=EVENT_TIMES)
    state, alarm = step_events(CusumState.initial(), [0.1, 0.2, 0.3], cfg, (0.0, 1.0), tl.cumulative)
    assert alarm is not None
    assert alarm.time == pytest.approx(0.3, abs=1e-12)
    assert alarm.events_at_alarm == 3


def _grid_oracle_v(event_times, rate, b, t_end, dt=1e-4):
    """Brute-force pathwise integration of the reflected statistic."""
    v = 0.0
    events = sorted(event_times)
    idx = 0
    steps = int(round(t_end / dt))
    for i in range(steps):
        t0, t1 = i * dt, (i + 1) * dt
        while idx < len(events) and t0 <= events[idx] < t1:
            v += 1.0
            idx += 1
        v = max(0.0, v - b * rate * dt)
    return v


def test_step_events_matches_grid_integrator():
    # Event instants sit exactly on the oracle grid, so the two integrations
    # differ only by floating-point noise, not discretization.
    rate = 30.0
    dt = 1e-4
    tl = SlotTimeline.from_rates([rate, rate])
    rng = np.random.default_rng(7)
    events = np.unique(rng.integers(1, 19999, size=55)) * dt
    cfg = _cfg(rho=1.3, m=1e9, mode=EVENT_TIMES)
    run = run_events(tl, events, cfg)
    oracle = _grid_oracle_v(events, rate, cfg.beta, 2.0, dt)
    assert run.v[-1] == pytest.approx(oracle, abs=1e-6)


@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no-reset"])
def test_step_events_decrease_crosses_mid_drift(reset):
    tl = SlotTimeline.from_rates([10.0])
    cfg = _cfg(rho=0.5, m=2.0, direction=DECREASE, mode=EVENT_TIMES, reset=reset)
    b = beta(0.5)
    # No events at all: drift is beta(0.5)*10 per unit time upward, 10β ≈ 7.2 over the slot.
    state, alarm = step_events(CusumState.initial(), [], cfg, (0.0, 1.0), tl.cumulative)
    assert alarm is not None
    assert float(alarm.time) == pytest.approx(2.0 / (b * 10.0), rel=1e-14)
    assert (alarm.v_at_alarm, alarm.events_at_alarm) == (2.0, 0)
    assert state.u == pytest.approx(10.0 * b, rel=1e-14)
    if reset:
        # Three crossings, at 2, 4 and 6 on the free walk; the last reset leaves u_min there.
        assert state.u_min == pytest.approx(6.0, rel=1e-14)
        assert state.v == pytest.approx(10.0 * b - 6.0, rel=1e-13)
        assert state.armed
    else:
        assert state.u_min == 0.0
        assert state.v == pytest.approx(10.0 * b, rel=1e-14)
        assert not state.armed


@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no-reset"])
def test_step_events_integrates_once_per_segment_and_reset_crossing(reset):
    tl = SlotTimeline.from_rates([10.0])
    calls = []

    def cum(a, t):
        calls.append((a, t))
        return tl.cumulative(a, t)

    # Each quarter drifts by 10β/4 ≈ 1.8 and crosses m = 1.5 once; the event then takes v back to zero.
    cfg = _cfg(rho=0.5, m=1.5, direction=DECREASE, mode=EVENT_TIMES, reset=reset)
    _, alarm = step_events(CusumState.initial(), [0.25, 0.5, 0.75], cfg, (0.0, 1.0), cum)
    assert alarm is not None
    segments = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
    assert [c for c in calls if c in segments] == segments
    assert len(calls) == 4 + (4 if reset else 0)

    # Past the threshold already: the crossing is the segment start, with no division by a zero increment.
    calls.clear()
    flat = SlotTimeline.from_rates([0.0])
    start = CusumState(v=3.0, u=3.0)
    _, alarm = step_events(start, [], cfg, (0.0, 1.0), lambda a, t: calls.append((a, t)) or flat.cumulative(a, t))
    assert alarm is not None and alarm.time == 0.0 and alarm.v_at_alarm == 1.5
    assert len(calls) == (2 if reset else 1)


@pytest.mark.parametrize(
    "rate, alarm_time, v, u, u_min",
    [
        (5000.0, 0.0002772588722239781, 0.7376022225469262, 3606.737602222547, 3606.0),
        (500.0, 0.0027725887222397813, 0.673760222243615, 360.67376022224363, 360.0),
    ],
)
def test_step_events_reset_crossings_in_one_drift(rate, alarm_time, v, u, u_min):
    # beta(0.5) * rate crossings of m = 1 in one eventless slot: 3,606 of them
    # at rate 5000, which once overflowed the stack as one recursion per crossing.
    cfg = _cfg(rho=0.5, m=1.0, direction=DECREASE, mode=EVENT_TIMES)
    run = run_events(SlotTimeline.from_rates([rate]), [], cfg)
    assert run.alarms == [AlarmEvent(time=alarm_time, v_at_alarm=1.0, events_at_alarm=0, direction=DECREASE)]
    assert run.state == CusumState(v=v, u=u, u_min=u_min, clock=1.0)
    assert run.v.tolist() == [v]


# Dyadic rates and event times, no random draws. Increase alarms fire at a jump
# (1.25, 4.0); a decrease alarm crosses mid-drift at 0.35 before the events of
# slot 0, and slot 2's drift of 8β ≈ 5.8 crosses m = 1 several times before its
# boundary event at 3.0. Events at 1.0, 3.0 and 4.0 sit on slot ends.
_PIN_TL = SlotTimeline.from_rates([2.0, 0.25, 8.0, 1.0])
_PIN_TIMES = [0.5, 1.0, 1.125, 1.25, 1.375, 1.5, 3.0, 3.5, 3.75, 4.0]
_PIN_COUNTS = [2, 4, 1, 3]
_PIN_START = CusumState(v=0.5, u=0.5, u_min=0.0, clock=0.0)
_UP_V, _UP_U, _UP_AGG_U = 2.5573049591110366, -5.7303192100008395, -5.730319210000838
_DOWN_V, _DOWN_U, _DOWN_AGG_V = 2.5822961240558957, -1.3848403949995807, 2.4921276840003355
# Exact results, so a change to the step functions' float operations shows:
# (alarms as (time, v_at_alarm, events_at_alarm), v, u, u_min, armed), keyed by
# direction, reset, armed start and runner.
_PINNED = {
    (INCREASE, True, True, "events"): ([(1.25, 2.9098315599444398, 4), (4.0, 2.5573049591110366, 10)], 0.0, _UP_U, _UP_U, True),
    (INCREASE, True, True, "aggregated"): ([(2.0, 3.639326239777759, 6)], 1.5573049591110366, _UP_AGG_U, -7.287624169111875, True),
    (INCREASE, False, True, "events"): ([(1.25, 2.9098315599444398, 4)], _UP_V, _UP_U, -8.287624169111876, False),
    (INCREASE, False, True, "aggregated"): ([(2.0, 3.639326239777759, 6)], 1.5573049591110366, _UP_AGG_U, -7.287624169111875, False),
    (INCREASE, True, False, "events"): ([], _UP_V, _UP_U, -8.287624169111876, False),
    (INCREASE, True, False, "aggregated"): ([], 1.5573049591110366, _UP_AGG_U, -7.287624169111875, False),
    (INCREASE, False, False, "events"): ([], _UP_V, _UP_U, -8.287624169111876, False),
    (INCREASE, False, False, "aggregated"): ([], 1.5573049591110366, _UP_AGG_U, -7.287624169111875, False),
    (DECREASE, True, True, "events"): (
        [(0.34657359027997264, 1.0, 0), (2.1576617951399863, 1.0, 6)], 0.0, -1.3848403949995811, -1.3848403949995811, True
    ),
    (DECREASE, True, True, "aggregated"): ([(3.0, 4.7707801635558535, 7)], 0.0, _DOWN_U, _DOWN_U, True),
    (DECREASE, False, True, "events"): ([(0.34657359027997264, 1.0, 0)], _DOWN_V, _DOWN_U, -3.9671365190554764, False),
    (DECREASE, False, True, "aggregated"): ([(3.0, 4.7707801635558535, 7)], _DOWN_AGG_V, _DOWN_U, -3.876968078999916, False),
    (DECREASE, True, False, "events"): ([], _DOWN_V, _DOWN_U, -3.9671365190554764, False),
    (DECREASE, True, False, "aggregated"): ([], _DOWN_AGG_V, _DOWN_U, -3.876968078999916, False),
    (DECREASE, False, False, "events"): ([], _DOWN_V, _DOWN_U, -3.9671365190554764, False),
    (DECREASE, False, False, "aggregated"): ([], _DOWN_AGG_V, _DOWN_U, -3.876968078999916, False),
}


@pytest.mark.parametrize("armed", [True, False], ids=["armed", "disarmed"])
@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no-reset"])
@pytest.mark.parametrize("direction", [INCREASE, DECREASE])
def test_step_functions_equal_pinned_results(direction, reset, armed):
    up = direction == INCREASE
    cfg = _cfg(rho=2.0 if up else 0.5, m=2.5 if up else 1.0, direction=direction, mode=EVENT_TIMES, reset=reset)
    start = replace(_PIN_START, armed=armed)
    run = run_events(_PIN_TL, _PIN_TIMES, cfg, start)
    state, alarms = start, []
    for count, lam, end in zip(_PIN_COUNTS, _PIN_TL.means.tolist(), _PIN_TL.ends.tolist()):
        state, alarm = step_aggregated(state, count, lam, cfg, clock=end)
        alarms += [alarm] if alarm is not None else []
    for runner, (got_alarms, got) in {"events": (run.alarms, run.state), "aggregated": (alarms, state)}.items():
        times, v, u, u_min, still_armed = _PINNED[direction, reset, armed, runner]
        assert got_alarms == [AlarmEvent(time=t, v_at_alarm=level, events_at_alarm=n, direction=direction) for t, level, n in times]
        assert got == CusumState(v=v, u=u, u_min=u_min, events_seen=10, clock=4.0, armed=still_armed)


@pytest.mark.parametrize(
    "events, interval",
    [([math.nan], (0.0, 1.0)), ([0.5, math.inf], (0.0, 1.0)), ([], (0.0, math.nan)), ([0.5], (math.nan, 1.0))],
    ids=["nan-event", "inf-event", "nan-end", "nan-start"],
)
@pytest.mark.parametrize("timeline", [False, True], ids=["callable", "timeline"])
def test_step_events_rejects_non_finite_times(events, interval, timeline):
    # A NaN reaching the reflection would silently reset v to zero.
    tl = SlotTimeline.from_rates([2.0])
    cum = tl.cumulative if timeline else lambda a, b: 2.0 * (b - a)
    start = CusumState(v=5.0, u=5.0, u_min=0.0, clock=0.0)
    with pytest.raises(ValidationError, match="finite"):
        step_events(start, events, _cfg(mode=EVENT_TIMES), interval, cum)


def _crossing_by_bisection(t0, t1, needed, cum):
    """Reference crossing: 80 halvings of [t0, t1] on the cumulative intensity."""
    lo, hi = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = cum(t0, mid) < needed
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi


def test_decrease_crossing_equals_bisection_on_calendar_slots(truth_model):
    tl = truth_model.timeline([date(2018, 1, 1) + timedelta(days=k) for k in range(365)])
    rng = np.random.default_rng(13)
    n = 12_000
    slot = rng.integers(0, len(tl), n)
    starts, ends = tl.starts[slot], tl.ends[slot]
    # A quarter of the segments start at the slot start and a quarter end at the slot end.
    a = np.where(rng.random(n) < 0.25, starts, starts + rng.random(n) * (ends - starts))
    t = np.where(rng.random(n) < 0.25, ends, a + rng.random(n) * (ends - a))
    keep = t > a
    a, t = a[keep], t[keep]
    dlam = tl.cum_mean_at(t) - tl.cum_mean_at(a)
    cfg0 = _cfg(rho=0.8, m=1.0, direction=DECREASE, mode=EVENT_TIMES, reset=False)
    b = cfg0.beta
    # m = b * needed for a fraction of the segment's increment; a sixth take the whole of it.
    frac = np.where(rng.random(len(a)) < 1 / 6, 1.0, rng.uniform(1e-6, 1.0, len(a)))
    ms = b * dlam * frac
    whole = 0
    for k in np.flatnonzero(frac == 1.0):
        # Nudge m until needed = m / b equals dlam exactly and the drift still reaches m.
        for m in ms[k] + np.spacing(ms[k]) * np.array([0, 1, -1, 2, -2, 3, -3]):
            if m / b == dlam[k] and b * dlam[k] >= m:
                ms[k] = m
                whole += 1
                break
    assert whole > len(a) // 10
    needed = ms / b
    reference = _crossing_by_bisection(a, t, needed, lambda lo, hi: tl.cum_mean_at(hi) - tl.cum_mean_at(lo))
    worst = 0.0
    for ak, tk, mk, ref in zip(a.tolist(), t.tolist(), ms.tolist(), reference.tolist()):
        cfg = replace(cfg0, threshold_m=mk)
        _, alarm = step_events(CusumState.initial(), [], cfg, (ak, tk), tl.cumulative)
        assert alarm is not None
        assert ak <= alarm.time <= tk
        worst = max(worst, abs(alarm.time - ref) / math.ulp(max(abs(tk), 1.0)))
    assert worst <= 16


# --- timeline runs -------------------------------------------------------------

def test_aggregated_vs_event_granularity_inequality():
    tl = SlotTimeline.from_rates([40.0, 60.0, 30.0, 80.0] * 5)
    cfg_e = _cfg(rho=1.3, m=1e9, mode=EVENT_TIMES)
    cfg_a = _cfg(rho=1.3, m=1e9)
    for rep in range(40):
        path = simulate_events(tl, ChangeSpec(), seed=99, replication=rep)
        ev = run_events(tl, path.event_times, cfg_e)
        ag = run_aggregated(tl, path.counts, cfg_a)
        assert np.all(ag.v <= ev.v + 1e-9)


def test_in_control_drift_signs_small():
    dlam = 5.0
    cfg = _cfg(rho=1.3, m=1e9)
    rng = np.random.default_rng(3)
    n = 20000
    counts = rng.poisson(dlam, size=n)
    du = counts - cfg.beta * dlam
    expected = dlam * (1.0 - cfg.beta)
    assert expected < 0
    assert abs(du.mean() - expected) < 3 * du.std(ddof=1) / math.sqrt(n)
    counts0 = rng.poisson(1.3 * dlam, size=n)
    du0 = counts0 - cfg.beta * dlam
    expected0 = dlam * (1.3 - cfg.beta)
    assert expected0 > 0
    assert abs(du0.mean() - expected0) < 3 * du0.std(ddof=1) / math.sqrt(n)


def test_run_aggregated_alarm_clock_is_interval_end():
    tl = SlotTimeline.from_rates([1.0, 1.0, 1.0])
    cfg = _cfg(m=3.0)
    run = run_aggregated(tl, [10, 0, 0], cfg)
    assert len(run.alarms) == 1
    assert run.alarms[0].time == 1.0  # end of the first slot


def test_run_aggregated_counts_length_mismatch():
    tl = SlotTimeline.from_rates([1.0, 1.0])
    with pytest.raises(ValidationError):
        run_aggregated(tl, [1], _cfg())


def test_run_detector_on_calendar_series(truth_model):
    d = date(2018, 1, 8)
    rates = truth_model.slot_rates(d)
    series = [
        SlotRecord(d, time(7, 30), int(rates[0])),
        SlotRecord(d, time(8, 0), int(rates[1])),
    ]
    run = run_detector(series, truth_model, _cfg(m=1e9))
    assert len(run.records) == 2
    assert run.records[0].timestamp == datetime(2018, 1, 8, 8, 0)
    assert run.records[1].lambda_increment == pytest.approx(rates[1])
    # Counts at the model mean keep v near zero.
    assert run.records[-1].v < 2.0


def test_run_detector_state_frozen_across_gap(truth_model):
    cfg = _cfg(m=1e9)
    monday = date(2018, 1, 8)
    thursday = date(2018, 1, 11)  # Tue + Wed missing entirely
    series = [SlotRecord(monday, time(9, 0), 200), SlotRecord(thursday, time(9, 0), 0)]
    run = run_detector(series, truth_model, cfg)
    v_after_first = run.records[0].v
    dlam = truth_model.slot_rate(thursday, 3)
    assert run.records[1].v == pytest.approx(max(0.0, v_after_first - cfg.beta * dlam))


def test_double_sided_matches_single_sided(truth_model):
    d = date(2018, 1, 8)
    rates = truth_model.slot_rates(d)
    series = [SlotRecord(d, slot_start(k), int(r)) for k, r in enumerate(rates[:6])]
    up_cfg = _cfg(rho=1.2, m=30.0)
    down_cfg = _cfg(rho=1 / 1.2, m=30.0, direction=DECREASE)
    up, down, merged = double_sided_run(series, truth_model, up_cfg, down_cfg)
    solo_up = run_detector(series, truth_model, up_cfg)
    solo_down = run_detector(series, truth_model, down_cfg)
    assert [r.v for r in up.records] == [r.v for r in solo_up.records]
    assert [r.v for r in down.records] == [r.v for r in solo_down.records]
    assert merged == sorted(up.alarms + down.alarms, key=lambda a: a.time)


def test_double_sided_zero_counts_only_decrease_alarms(truth_model):
    d = date(2018, 1, 8)
    series = [SlotRecord(d, time(7, 30), 0), SlotRecord(d, time(8, 0), 0), SlotRecord(d, time(8, 30), 0),
              SlotRecord(d, time(9, 0), 0), SlotRecord(d, time(9, 30), 0), SlotRecord(d, time(10, 0), 0)]
    up_cfg = _cfg(rho=1.2, m=20.0)
    down_cfg = _cfg(rho=1 / 1.2, m=20.0, direction=DECREASE)
    up, down, merged = double_sided_run(series, truth_model, up_cfg, down_cfg)
    assert not up.alarms
    assert down.alarms
    assert all(a.direction == DECREASE for a in merged)


def test_double_sided_requires_opposed_directions(truth_model):
    cfg = _cfg(m=5.0)
    with pytest.raises(ValidationError):
        double_sided_run([], truth_model, cfg, cfg)


def test_count_equal_to_drift_leaves_v_unchanged():
    cfg = _cfg(rho=1.2, m=1e9)
    dlam = 20.0 / cfg.beta  # beta * dlam == 20 up to rounding
    state = CusumState(v=3.25, u=3.25, u_min=0.0)
    new, _ = step_aggregated(state, 20, dlam, cfg)
    assert new.v == pytest.approx(3.25, abs=1e-9)


def test_finer_chunking_never_lowers_v():
    # Splitting an observation interval adds reflection opportunities for the
    # running minimum, which can only raise the reflected statistic.
    cfg = _cfg(rho=1.3, m=1e9)
    rng = np.random.default_rng(11)
    for _ in range(50):
        counts = rng.poisson(6.0, size=8)
        coarse = CusumState.initial()
        fine = CusumState.initial()
        for count in counts:
            coarse, _ = step_aggregated(coarse, int(count), 6.0, cfg)
            split = int(rng.integers(0, count + 1))
            fine, _ = step_aggregated(fine, split, 3.0, cfg)
            fine, _ = step_aggregated(fine, int(count) - split, 3.0, cfg)
            assert fine.v >= coarse.v - 1e-12


def test_in_control_run_stays_near_zero():
    # Matched counts keep the time-average of V well under a quarter of a
    # threshold calibrated for a long run length.
    tl = SlotTimeline.from_rates([40.0, 70.0, 90.0, 60.0, 30.0] * 50)
    cfg = _cfg(rho=1.2, m=20.0)
    averages = []
    for rep in range(10):
        path = simulate_slot_counts(tl, ChangeSpec(), seed=61, replication=rep)
        run = run_aggregated(tl, path.counts, cfg)
        averages.append(float(run.v.mean()))
    assert np.mean(averages) < cfg.threshold_m / 4


# --- batch kernels against the step functions ------------------------------------

# Two weeks from Monday 2018-01-08: Saturdays close after ten slots, Sundays are
# closed all day, and dates left out of a draw are gaps.
_DAYS = [date(2018, 1, 8 + i) for i in range(14)]


@st.composite
def _calendar_series(draw):
    records = []
    for d in draw(st.lists(st.sampled_from(_DAYS), unique=True, max_size=6)):
        for k in draw(st.lists(st.integers(0, 21), unique=True, min_size=1, max_size=22)):
            records.append(SlotRecord(d, slot_start(k), draw(st.integers(0, 80))))
    return draw(st.permutations(records))


_configs = st.builds(
    lambda up, m, reset: _cfg(rho=1.2 if up else 1 / 1.2, m=m, direction=INCREASE if up else DECREASE, reset=reset),
    st.booleans(),
    st.floats(min_value=1.0, max_value=60.0),
    st.booleans(),
)


_states = st.builds(
    lambda v, u, n, clock, armed: CusumState(v=v, u=u, u_min=u - v, events_seen=n, clock=clock, armed=armed),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(0, 100),
    st.floats(min_value=-5.0, max_value=0.0),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
# Resumed and disarmed starts with any clock: run_detector reads every field of the state.
@given(series=_calendar_series(), cfg=_configs, start=_states)
def test_run_detector_chunked_equals_batch_equals_step_loop(truth_model, series, cfg, start):
    batch = run_detector(series, truth_model, cfg, start)

    state, records, alarms = start, [], []
    for d in sorted({r.date for r in series}):
        day = run_detector([r for r in series if r.date == d], truth_model, cfg, state)
        state = day.state
        records += day.records
        alarms += day.alarms
    assert (records, alarms, state) == (batch.records, batch.alarms, batch.state)

    oracle, oracle_v, oracle_alarms = start, [], []
    for rec in sorted(series):
        dlam = truth_model.slot_rate(rec.date, rec.slot_index)
        end = slot_timestamp(rec.date, rec.slot_index, end=True)
        oracle, alarm = step_aggregated(oracle, rec.count, dlam, cfg, clock=end)
        oracle_v.append(alarm.v_at_alarm if alarm is not None else oracle.v)
        if alarm is not None:
            oracle_alarms.append(alarm)
    assert [r.v for r in batch.records] == oracle_v
    assert (batch.alarms, batch.state) == (oracle_alarms, oracle)


def _step_loop(records, model, cfg, start):
    """step_aggregated over `records` in SlotRecord's dataclass order: (records, alarms, state)."""
    state, steps, alarms = start, [], []
    for rec in sorted(records):
        dlam = model.slot_rate(rec.date, rec.slot_index)
        end = slot_timestamp(rec.date, rec.slot_index, end=True)
        state, alarm = step_aggregated(state, rec.count, dlam, cfg, clock=end)
        level = alarm.v_at_alarm if alarm is not None else state.v
        steps.append(StepRecord(end, level, dlam, rec.count, alarm is not None))
        if alarm is not None:
            alarms.append(alarm)
    return steps, alarms, state


@st.composite
def _series_with_duplicates(draw):
    # Slots drawn with repeats, so one (date, slot) can carry several counts,
    # plus exact copies of some records, all shuffled.
    slots = draw(st.lists(st.tuples(st.sampled_from(_DAYS[:3]), st.integers(0, 21)), min_size=1, max_size=8))
    records = [SlotRecord(d, slot_start(k), draw(st.integers(0, 80))) for d, k in slots]
    records += draw(st.lists(st.sampled_from(records), max_size=4))
    return draw(st.permutations(records))


@settings(max_examples=60, deadline=None)
@given(series=_series_with_duplicates(), cfg=_configs, start=_states)
def test_run_detector_sorts_as_slot_records_order(truth_model, series, cfg, start):
    run = run_detector(series, truth_model, cfg, start)
    expected = _step_loop(series, truth_model, cfg, start)
    assert (run.records, run.alarms, run.state) == expected
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(run.records) == repr(expected[0])

    up_cfg = _cfg(rho=1.2, m=cfg.threshold_m, reset=cfg.reset_on_alarm)
    down_cfg = _cfg(rho=1 / 1.2, m=cfg.threshold_m, direction=DECREASE, reset=cfg.reset_on_alarm)
    up, down, merged = double_sided_run(series, truth_model, up_cfg, down_cfg)
    for side, side_cfg in ((up, up_cfg), (down, down_cfg)):
        expected = _step_loop(series, truth_model, side_cfg, CusumState.initial())
        assert (side.records, side.alarms, side.state) == expected
        assert repr(side.records) == repr(expected[0])
    assert merged == sorted(up.alarms + down.alarms, key=lambda a: a.time)


def test_step_record_fields_are_fixed():
    assert StepRecord._fields == ("timestamp", "v", "lambda_increment", "count", "alarm")
    record = StepRecord(datetime(2018, 1, 8, 8, 0), 1.5, 2.25, 3, False)
    with pytest.raises(AttributeError):
        record.v = 0.0
    # A NamedTuple compares equal to the plain tuple of its fields.
    assert record == (datetime(2018, 1, 8, 8, 0), 1.5, 2.25, 3, False)


def test_run_detector_records_are_step_records(truth_model):
    records = [SlotRecord(date(2018, 1, 8), slot_start(k), 4 * k) for k in (3, 0, 21)]
    run = run_detector(records, truth_model, _cfg(m=5.0))
    assert [type(r) for r in run.records] == [StepRecord] * 3
    first, _, last = run.records
    assert (first.timestamp, first.count, last.timestamp, last.count) == (datetime(2018, 1, 8, 8, 0), 0, datetime(2018, 1, 8, 18, 30), 84)
    assert last.alarm and not first.alarm
    assert (last.v, last.lambda_increment) == (run.alarms[0].v_at_alarm, truth_model.slot_rate(date(2018, 1, 8), 21))


@pytest.mark.parametrize("k", [-1, 22])
def test_run_detector_refuses_a_slot_index_off_the_grid(truth_model, k):
    # A record that is not a SlotRecord carries any index; -1 would read the
    # last slot's end, as tuple indexing wraps around. A fitted model's
    # slot_rate refuses it first, in the same words.
    record = SimpleNamespace(date=date(2018, 1, 8), slot_start=time(7, 30), count=3, slot_index=k)
    for model in (_FlatRates(1.0), truth_model):
        with pytest.raises(ValidationError) as raised:
            run_detector([record], model, _cfg())
        assert str(raised.value) == f"slot index {k} outside [0, 22)"


@pytest.mark.parametrize("count", [-1, 2.5, math.nan])
def test_run_detector_rejects_counts_as_step_aggregated_does(truth_model, count):
    cfg = _cfg()
    with pytest.raises(ValidationError) as expected:
        step_aggregated(CusumState.initial(), count, 1.0, cfg)
    records = [SlotRecord(date(2018, 1, 8), slot_start(0), 3), SlotRecord(date(2018, 1, 8), slot_start(1), count)]
    with pytest.raises(ValidationError) as raised:
        run_detector(records, truth_model, cfg)
    assert str(raised.value) == str(expected.value) == f"count must be a nonnegative integer, got {count}"


# Unit slots from 0: slot i covers [i, i + 1], so integer times sit on boundaries.
@st.composite
def _events_on_timeline(draw):
    rates = draw(st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=1, max_size=6))
    n = len(rates)
    times = st.one_of(st.integers(0, n).map(float), st.floats(min_value=0.0, max_value=float(n)))
    return SlotTimeline.from_rates(rates), sorted(draw(st.lists(times, max_size=40)))


_event_configs = st.builds(
    lambda up, m, reset: _cfg(
        rho=1.3 if up else 0.7, m=m, direction=INCREASE if up else DECREASE, mode=EVENT_TIMES, reset=reset
    ),
    st.booleans(),
    st.floats(min_value=0.5, max_value=6.0),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(
    data=_events_on_timeline(),
    cfg=_event_configs,
    # u_min anywhere at or below u: run_events folds u and u_min apart from v
    # and restarts the fold after every alarm.
    start=st.none() | st.builds(lambda s, gap: replace(s, u_min=s.u - gap), _states, st.floats(0.0, 10.0)),
)
def test_run_events_equals_step_events_loop(data, cfg, start):
    tl, times = data
    run = run_events(tl, times, cfg, start)

    state, v, alarms = start or CusumState.initial(clock=0.0), [], []
    for i in range(len(tl)):
        a, b = float(tl.starts[i]), float(tl.ends[i])
        inside = [t for t in times if (a <= t if i == 0 else a < t) and t <= b]
        state, alarm = step_events(state, inside, cfg, (a, b), tl.cumulative)
        v.append(state.v)
        if alarm is not None:
            alarms.append(alarm)
    assert run.v.tolist() == v
    assert (run.alarms, run.state) == (alarms, state)


@settings(max_examples=60, deadline=None)
@given(
    data=_events_on_timeline(),
    fault=st.sampled_from(["unsorted", "nan", "inf", "before", "after"]),
    where=st.floats(min_value=0.0, max_value=1.0),
)
def test_run_events_rejects_bad_times(data, fault, where):
    tl, times = data
    times = sorted(times + [0.0, tl.total_time])
    if fault == "unsorted":
        times[0], times[-1] = times[-1], times[0]
    else:
        pos = {"before": 0, "after": len(times)}.get(fault, int(where * len(times)))
        bad = {"nan": math.nan, "inf": math.inf, "before": -0.5, "after": tl.total_time + 0.5}[fault]
        times.insert(pos, bad)
    with pytest.raises(ValidationError):
        run_events(tl, times, _cfg(mode=EVENT_TIMES))


@pytest.mark.parametrize("direction", [INCREASE, DECREASE])
def test_run_events_alarm_slot_with_a_later_slot_starting_inside_it(direction):
    # Slot 0 ends where slot 1 starts, at 0.1 + 0.3, where slot 0's own line
    # rounds off slot 1's. Slot 0's alarm is replayed on a Λ that reads slot
    # 1's line there, as `timeline.cumulative` does, and slot 0's last event
    # lies on that end.
    tl = SlotTimeline([0.3, 0.3, 0.3], [3.0, 5.0, 4.0], start=0.1)
    end = float(tl.ends[0])
    assert tl.cum_means[0] + tl.rates[0] * (end - tl.starts[0]) != tl.cum_means[1]
    cum = tl.slot_cumulative(0)
    for a, b in [(0.1, 0.2), (0.2, end), (end, end), (0.1, end)]:
        assert cum(a, b) == tl.cumulative(a, b)
    up = direction == INCREASE
    cfg = _cfg(rho=1.5 if up else 0.5, m=1.0 if up else 0.5, direction=direction, mode=EVENT_TIMES)
    times = [0.15, 0.2, 0.25, 0.3, end, 0.55] if up else [end, 0.55]
    run = run_events(tl, times, cfg)

    state, v, alarms = CusumState.initial(clock=0.0), [], []
    for i in range(len(tl)):
        a, b = float(tl.starts[i]), float(tl.ends[i])
        inside = [t for t in times if (a <= t if i == 0 else a < t) and t <= b]
        state, alarm = step_events(state, inside, cfg, (a, b), tl.cumulative)
        v.append(state.v)
        if alarm is not None:
            alarms.append(alarm)
    assert alarms and alarms[0].time < tl.ends[0]
    assert run.v.tolist() == v
    assert (run.alarms, run.state) == (alarms, state)


@pytest.mark.parametrize("direction", [INCREASE, DECREASE])
def test_run_events_events_past_the_start_of_the_next_slot(direction):
    # Slots 0 and 1 each end on an event, three of them at slot 0's end, where
    # Λ reads slot 1's line and slot 0's own line rounds off it; no alarm fires.
    tl = SlotTimeline([0.3, 0.3, 0.3], [3.0, 5.0, 4.0], start=0.1)
    e0, e1 = float(tl.ends[0]), float(tl.ends[1])
    times = [0.3, e0, e0, e0, 0.5, e1, 0.85]
    assert tl.slot_at(np.array(times[1:4])).tolist() == [1, 1, 1]
    up = direction == INCREASE
    cfg = _cfg(rho=1.5 if up else 0.5, m=50.0, direction=direction, mode=EVENT_TIMES)
    run = run_events(tl, times, cfg)
    v, alarms, state = _step_events_loop(tl, times, cfg)
    assert not alarms
    assert run.v.tolist() == v
    assert run.state == state


# Unit slots over three and a half blocks of run_events' Λ evaluation. The two
# slots around every block edge are empty, every fifth integer time is an event
# on a slot boundary, and the rate alternates between a third, one and two times
# the model's every 20 slots, so small thresholds alarm in both directions.
def _block_edge_events():
    rng = np.random.default_rng(2024)
    n = 3 * _EVENT_BLOCK + 100
    rates = rng.uniform(0.0, 6.0, n)
    factor = np.repeat(rng.choice([1 / 3, 1.0, 2.0], n // 20 + 1), 20)[:n]
    times = np.concatenate([i + rng.uniform(0.0, 1.0, c) for i, c in enumerate(rng.poisson(rates * factor))])
    times = np.sort(np.concatenate([times, np.arange(0.0, n + 1, 5.0)]))
    edges = np.arange(_EVENT_BLOCK, n, _EVENT_BLOCK)
    slot = np.maximum(np.ceil(times) - 1, 0)
    times = times[~np.isin(slot, np.concatenate([edges - 1, edges]))]
    return SlotTimeline.from_rates(rates), times.tolist()


def _step_events_loop(tl, times, cfg, start=None):
    """v at every slot end, the alarms and the final state of a per-slot `step_events` loop over sorted times."""
    state, v, alarms, lo = start or CusumState.initial(clock=float(tl.starts[0])), [], [], 0
    for i in range(len(tl)):
        hi = bisect.bisect_right(times, float(tl.ends[i]))
        state, alarm = step_events(state, times[lo:hi], cfg, (float(tl.starts[i]), float(tl.ends[i])), tl.cumulative)
        v.append(state.v)
        if alarm is not None:
            alarms.append(alarm)
        lo = hi
    return v, alarms, state


_RESUMED = CusumState(v=1.5, u=0.5, u_min=-1.0, events_seen=7, clock=-3.0)


@pytest.mark.parametrize("start", [None, _RESUMED, replace(_RESUMED, v=2.5, armed=False)], ids=["initial", "resumed", "disarmed"])
@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no-reset"])
@pytest.mark.parametrize("direction", [INCREASE, DECREASE])
def test_run_events_across_blocks_equals_step_events_loop(direction, reset, start):
    tl, times = _block_edge_events()
    up = direction == INCREASE
    cfg = _cfg(rho=1.3 if up else 0.7, m=3.0 if up else 2.0, direction=direction, mode=EVENT_TIMES, reset=reset)
    run = run_events(tl, times, cfg, start)

    v, alarms, state = _step_events_loop(tl, times, cfg, start)
    assert run.v.tolist() == v
    assert (run.alarms, run.state) == (alarms, state)

    # Alarms are dense where they can re-arm, and decrease ones include
    # crossings in a slot's final drift, after its last event.
    if reset and (start is None or start.armed):
        assert len(alarms) >= 20
        if not up:
            event_set = set(times)
            assert any(
                a.time not in event_set
                and bisect.bisect_right(times, a.time) == bisect.bisect_right(times, math.ceil(a.time))
                for a in alarms
            )


def _run_key(run):
    """repr of everything a run reports, so the sign of zero counts too."""
    return (
        repr(run.v.tolist()),
        repr([(a.time, a.v_at_alarm, a.events_at_alarm, a.direction) for a in run.alarms]),
        repr(run.state),
    )


@settings(max_examples=80, deadline=None)
@given(
    rates=st.lists(st.sampled_from([0.0, -0.0, 0.5, 3.0]) | st.floats(min_value=0.0, max_value=12.0), min_size=1, max_size=40),
    rows=st.integers(1, 5),
    cfg=st.builds(
        lambda up, m, reset: _cfg(rho=1.2 if up else 1 / 1.2, m=m, direction=INCREASE if up else DECREASE, reset=reset),
        st.booleans(),
        st.floats(min_value=0.25, max_value=6.0),
        st.booleans(),
    ),
    start=st.none() | _states | _states.map(lambda state: replace(state, v=-0.0)),
    data=st.data(),
)
def test_run_aggregated_dense_alarms_equals_step_loop(rates, rows, cfg, start, data):
    """Each row of one `_aggregated_rows` call equals a `step_aggregated` loop and the 1-D `run_aggregated` call."""
    tl = SlotTimeline.from_rates(rates)
    row = st.lists(st.integers(0, 30), min_size=len(rates), max_size=len(rates))
    counts = data.draw(st.lists(row, min_size=rows, max_size=rows))
    first = start or CusumState.initial(clock=float(tl.starts[0]))
    path, fired, seen, v, u, u_min, armed = _aggregated_rows(tl, np.array(counts), cfg, first)
    assert path.shape == fired.shape == seen.shape == (rows, len(rates))
    ends = tl.ends.tolist()
    for r, row in enumerate(counts):
        state, levels, alarms = first, [], []
        for count, dlam, end in zip(row, tl.means.tolist(), ends):
            state, alarm = step_aggregated(state, count, dlam, cfg, clock=end)
            levels.append(alarm.v_at_alarm if alarm is not None else state.v)
            alarms.extend([alarm] if alarm is not None else [])
        reference = TimelineRun(v=np.array(levels), alarms=alarms, state=state)
        assert _run_key(run_aggregated(tl, row, cfg, start)) == _run_key(reference)
        assert repr(path[r].tolist()) == repr(levels)
        fired_at = np.flatnonzero(fired[r]).tolist()
        assert repr([(ends[s], path[r, s].item(), seen[r, s].item()) for s in fired_at]) == repr(
            [(a.time, a.v_at_alarm, a.events_at_alarm) for a in alarms]
        )
        final = (v[r].item(), u[r].item(), u_min[r].item(), seen[r, -1].item(), armed[r].item())
        assert repr(final) == repr((state.v, state.u, state.u_min, state.events_seen, state.armed))


def test_run_aggregated_reflects_negative_zero_as_max_does():
    # v + x is -0.0 only for an incoming v of -0.0 and a -0.0 decrease drift
    # (a zero rate stored as -0.0); max(0.0, -0.0) is 0.0, np.maximum's is
    # -0.0. min keeps its first argument on a tie of 0.0 and -0.0.
    tl = SlotTimeline.from_rates([-0.0])
    cfg = _cfg(rho=1 / 1.3, m=5.0, direction=DECREASE)
    start = CusumState(v=-0.0, u=-0.0, u_min=0.0)
    state, _ = step_aggregated(start, 0, -0.0, cfg, clock=1.0)
    run = run_aggregated(tl, [0], cfg, start)
    assert (repr(run.v.tolist()), repr(run.state)) == (repr([state.v]), repr(state))
    assert (repr(state.v), repr(state.u), repr(state.u_min)) == ("0.0", "-0.0", "0.0")


def test_run_aggregated_rows_are_validated_and_shaped():
    tl = SlotTimeline.from_rates([1.0, 2.0, 3.0])
    # The message names a bad count of the first slot holding one, whatever its row.
    with pytest.raises(ValidationError, match="got -1$"):
        _aggregated_rows(tl, np.array([[1, 2, -2], [1, -1, 3]]), _cfg(), CusumState.initial())
    right_length_rows = np.zeros((1, 3), dtype=int)
    for bad_shape in (np.zeros((2, 2), dtype=int), np.zeros((1, 2, 3), dtype=int), right_length_rows, 4):
        with pytest.raises(ValidationError, match="length"):
            run_aggregated(tl, bad_shape, _cfg())


@pytest.mark.parametrize(
    "rates, counts",
    [([1.0, 2.0], [3, -1]), ([1.0, 2.0], [3, 2.5]), ([1.0, math.nan], [3, 2])],
    ids=["negative-count", "non-integral-count", "nan-increment"],
)
def test_run_aggregated_rejects_bad_records(rates, counts):
    with pytest.raises(ValidationError):
        run_aggregated(SlotTimeline.from_rates(rates), counts, _cfg())


@pytest.mark.parametrize("start", [0.0, 2.0**20 - 100 + 1 / 3], ids=["open-time", "far-start"])
@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no-reset"])
@pytest.mark.parametrize("direction", [INCREASE, DECREASE])
def test_run_events_on_calendar_equals_step_events_loop(truth_model, direction, reset, start):
    # Three weeks of 2018 span two blocks of seasonal slot rates, with closed
    # Sundays; m = 3 alarms every few slots in both directions. The far copy
    # starts a third of a unit past 2**20 - 100, so no slot bound is a round
    # number, and the unit step that crosses 2**20 rounds: each end is the
    # next slot's start by construction only.
    tl = truth_model.timeline([date(2018, 1, 1) + timedelta(days=k) for k in range(21)])
    tl = SlotTimeline(tl.lengths, tl.rates, start=start, days=tl.days, grid=tl.grid)
    if start:
        assert np.count_nonzero(tl.ends - tl.starts != 1.0) == 1
    assert _EVENT_BLOCK < len(tl) < 2 * _EVENT_BLOCK
    times = simulate_events(tl, seed=5).event_times.tolist()
    up = direction == INCREASE
    cfg = _cfg(rho=1.2 if up else 1 / 1.2, m=3.0, direction=direction, mode=EVENT_TIMES, reset=reset)
    run = run_events(tl, times, cfg)

    v, alarms, state = _step_events_loop(tl, times, cfg)
    assert run.v.tolist() == v
    assert (run.alarms, run.state) == (alarms, state)
    if reset:
        edge = tl.ends[_EVENT_BLOCK - 1]
        assert sum(a.time < edge for a in alarms) > 20 and sum(a.time > edge for a in alarms) > 20


def test_add_accumulate_is_a_left_fold():
    # run_events folds the free walk u with np.add.accumulate and relies on it
    # adding one step at a time, exactly as `u = u + x` in a loop.
    rng = np.random.default_rng(3)
    steps = rng.standard_normal(20_000) * 10.0 ** rng.integers(-8, 9, 20_000)
    u, fold = 0.1, []
    for x in steps.tolist():
        u = u + x
        fold.append(u)
    assert np.add.accumulate(np.concatenate([[0.1], steps]))[1:].tolist() == fold



# --- exact threshold hits and infinite increments ---------------------------


class _FlatRates:
    """A model stand-in: every slot's intensity increment is `rate`."""

    def __init__(self, rate):
        self.rate = rate

    def slot_rate(self, d, k):
        return self.rate


def test_aggregated_alarm_where_v_lands_exactly_on_m():
    # Zero increments: V moves by whole counts and lands on m = 3 exactly,
    # twice with the reset. step_aggregated alarms at V >= m, and so must
    # run_aggregated and run_detector.
    cfg = _cfg(rho=1.2, m=3.0)
    counts = [1, 2, 0, 3, 1]
    tl = SlotTimeline.from_rates([0.0] * len(counts))
    state, v, alarms = CusumState.initial(clock=0.0), [], []
    for count, end in zip(counts, tl.ends.tolist()):
        state, alarm = step_aggregated(state, count, 0.0, cfg, clock=end)
        v.append(alarm.v_at_alarm if alarm is not None else state.v)
        alarms.extend([alarm] if alarm is not None else [])
    assert [a.v_at_alarm for a in alarms] == [3.0, 3.0]
    assert _run_key(run_aggregated(tl, counts, cfg)) == _run_key(TimelineRun(np.array(v), alarms, state))

    records = [SlotRecord(date(2018, 1, 8), slot_start(k), c) for k, c in enumerate(counts)]
    run = run_detector(records, _FlatRates(0.0), cfg)
    assert (run.records, run.alarms, run.state) == _step_loop(records, _FlatRates(0.0), cfg, CusumState.initial())
    assert len(run.alarms) == 2


@pytest.mark.parametrize("event", [0.75, 0.25], ids=["before-the-event", "at-the-slot-end"])
def test_decrease_alarm_where_the_drift_lands_exactly_on_m(event):
    # One slot [0, 1] at rate 4 with one event: Λ is dyadic (1 or 3 at the
    # event, 4 at the end), so each drift is one rounding of beta * dΛ, and m
    # is set to the peak of V: b * 3 just before an event at 0.75, or from
    # zero after an event at 0.25 up to the slot end. step_events alarms at
    # V >= m, and so must run_events.
    b = _cfg(rho=0.7, direction=DECREASE).beta
    cfg = _cfg(rho=0.7, m=0.0 + b * 3.0, direction=DECREASE, mode=EVENT_TIMES)
    tl = SlotTimeline.from_rates([4.0])
    run = run_events(tl, [event], cfg)
    v, alarms, state = _step_events_loop(tl, [event], cfg)
    assert [a.v_at_alarm for a in alarms] == [cfg.threshold_m]
    assert run.v.tolist() == v
    assert (run.alarms, run.state) == (alarms, state)


def test_step_aggregated_rejects_infinite_increment():
    with pytest.raises(ValidationError, match="got inf"):
        step_aggregated(CusumState(v=4.0, u=4.0, u_min=0.0), 1, math.inf, _cfg())


def test_vectorised_kernels_reject_infinite_increment():
    # A finite rate over a long slot overflows to an infinite mean, which the
    # timeline itself does not refuse.
    message = "intensity increment must be nonnegative and finite, got inf"
    with np.errstate(over="ignore"):
        tl = SlotTimeline.from_rates([1.0, 1e308], length=10.0)
    assert tl.means[1] == math.inf
    with pytest.raises(ValidationError, match=message):
        run_aggregated(tl, [3, 2], _cfg())
    records = [SlotRecord(date(2018, 1, 8), slot_start(0), 3)]
    with pytest.raises(ValidationError, match=message):
        run_detector(records, _FlatRates(math.inf), _cfg())
