from __future__ import annotations

import math
from datetime import date, time, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasonal_cusum import detect, evaluate
from seasonal_cusum.detect import (
    AGGREGATED_COUNTS,
    DECREASE,
    EVENT_TIMES,
    AlarmEvent,
    CusumState,
    DetectorConfig,
    run_aggregated,
    run_events,
    step_aggregated,
)
from seasonal_cusum.errors import ValidationError
from seasonal_cusum.evaluate import (
    _AGGREGATED_BLOCK,
    _IN_CONTROL_REPLICATIONS,
    DelayReport,
    DelayStats,
    _Paths,
    _runs,
    detection_delay,
    exceedance_fraction,
    worst_case_delay,
)
from seasonal_cusum.simulate import MAX_PATH_EVENTS, MAX_SLOT_COUNTS, ChangeSpec, simulate_events, simulate_slot_counts
from seasonal_cusum.synthetic import synthetic_model
from seasonal_cusum.timeline import SlotTimeline

from chains import chain_delay


def _cfg(rho, m, mode=EVENT_TIMES, reset=True):
    return DetectorConfig(rho=rho, threshold_m=m, direction="increase", mode=mode, reset_on_alarm=reset)


def test_exceedance_trivial_cases():
    assert exceedance_fraction(np.zeros(50), 1.0) == 0.0
    assert exceedance_fraction(np.full(50, 2.5), 2.5) == 1.0  # boundary counts
    assert exceedance_fraction([0.0, 3.0, 0.0, 3.0], 1.0) == 0.5
    with pytest.raises(ValidationError):
        exceedance_fraction([], 1.0)


@pytest.mark.parametrize(
    "v_path, m", [([1.0, 2.0], math.nan), ([1.0, math.nan], 1.0), ([math.nan], math.inf)], ids=["m", "v", "v-below-inf"]
)
def test_exceedance_refuses_nan(v_path, m):
    # A NaN threshold read as never reached and a NaN V as below it.
    with pytest.raises(ValidationError, match="NaN"):
        exceedance_fraction(v_path, m)


def test_delay_decreases_with_change_size():
    tl = SlotTimeline.from_rates([5.0] * 40)
    theta = 10.0
    means = []
    for rho in (1.5, 3.0, 10.0):
        stats = detection_delay(tl, ChangeSpec(theta=theta, rho=rho), _cfg(rho, 8.0), replications=150, seed=31)
        assert stats.detect_probability > 0.9
        means.append(stats.mean_delay_events)
    assert means[0] > means[1] > means[2]
    assert means[2] < 15.0  # a huge change is caught within a few events


def test_delay_theta_beyond_horizon():
    tl = SlotTimeline.from_rates([5.0] * 10)
    stats = detection_delay(tl, ChangeSpec(theta=tl.total_time + 5.0, rho=2.0), _cfg(2.0, 5.0), replications=50, seed=1)
    assert stats.detect_probability == 0.0
    assert math.isnan(stats.mean_delay_events)


def test_delay_requires_finite_theta():
    tl = SlotTimeline.from_rates([5.0] * 10)
    with pytest.raises(ValidationError):
        detection_delay(tl, ChangeSpec(), _cfg(2.0, 5.0))


def test_delay_monotone_in_threshold_with_shared_seeds():
    tl = SlotTimeline.from_rates([5.0] * 40)
    change = ChangeSpec(theta=10.0, rho=3.0)
    low = detection_delay(tl, change, _cfg(3.0, 3.0), replications=120, seed=77)
    high = detection_delay(tl, change, _cfg(3.0, 9.0), replications=120, seed=77)
    assert low.detect_probability >= high.detect_probability
    assert low.mean_delay_events <= high.mean_delay_events + 1e-9


def test_delay_counts_standing_alarm_as_zero_without_reset():
    # Pre-change alarms leave the detector in alarm; the change is "caught"
    # with zero additional events.
    tl = SlotTimeline.from_rates([5.0] * 40)
    change = ChangeSpec(theta=150.0, rho=2.0)
    stats = detection_delay(tl, change, _cfg(2.0, 1.5, reset=False), replications=80, seed=5)
    assert stats.detect_probability > 0.9
    assert stats.mean_delay_events < 3.0


def test_delay_aggregated_mode():
    tl = SlotTimeline.from_rates([5.0] * 40)
    change = ChangeSpec(theta=10.0, rho=3.0)
    stats = detection_delay(tl, change, _cfg(3.0, 8.0, mode=AGGREGATED_COUNTS), replications=120, seed=9)
    assert stats.detect_probability > 0.9
    assert stats.mean_delay_events > 0.0


def test_aggregated_mean_delay_matches_the_chain(truth_model):
    # Four weeks of the truth model, both directions, a change at 09:00 (a
    # slot end, whose slot's events count as before the change) and one
    # inside a slot: the mean delay within 3 standard errors of the chain's,
    # which needs no seed.
    tl = truth_model.timeline([date(2018, 1, 1) + timedelta(days=i) for i in range(28)])
    thetas = [tl.locate(date(2018, 1, 3), time(9, 0)), tl.locate(date(2018, 1, 4), time(14, 10))]
    assert thetas[0] in tl.ends.tolist() and thetas[1] not in tl.ends.tolist()
    for rho, m in ((1.5, 20.0), (0.7, 15.0)):
        cfg = _config(rho, m, True, AGGREGATED_COUNTS)
        for theta in thetas:
            change = ChangeSpec(theta=theta, rho=rho)
            chain, detected = chain_delay(tl, change, cfg)
            stats = detection_delay(tl, change, cfg, replications=1000, seed=3)
            assert stats.detect_probability == 1.0 and detected > 0.999, (rho, theta, detected)
            assert abs(stats.mean_delay_events - chain) < 3.0 * stats.stderr, (rho, theta, stats, chain)


def test_worst_case_single_point_grid():
    tl = SlotTimeline.from_rates([5.0] * 40)
    report = worst_case_delay(tl, theta_grid=[10.0], config=_cfg(2.0, 6.0), replications=100, seed=3)
    assert report.worst_case_delay_events == report.per_theta[0].mean_delay_events
    assert report.worst_case_max_delay_events == report.per_theta[0].max_delay_events
    assert 0.0 <= report.exceedance_fraction <= 1.0


def test_worst_case_homogeneous_rate_theta_invariant():
    tl = SlotTimeline.from_rates([5.0] * 60)
    report = worst_case_delay(
        tl, theta_grid=[10.0, 30.0, 50.0], config=_cfg(2.0, 6.0), replications=200, seed=17
    )
    means = [d.mean_delay_events for d in report.per_theta]
    ses = [d.stderr for d in report.per_theta]
    spread = max(means) - min(means)
    assert spread < 6.0 * max(ses)  # no systematic theta effect at constant rate


def test_worst_case_empty_grid():
    tl = SlotTimeline.from_rates([5.0] * 10)
    with pytest.raises(ValidationError):
        worst_case_delay(tl, theta_grid=[], config=_cfg(2.0, 6.0))


def test_worst_case_refuses_a_repeated_change_time():
    tl = SlotTimeline.from_rates([5.0] * 10)
    with pytest.raises(ValidationError, match="^theta grid repeats the change time 3.0$"):
        worst_case_delay(tl, theta_grid=[3.0, 7.0, 3], config=_cfg(2.0, 6.0), replications=5)


def test_report_serialization(tmp_path):
    from seasonal_cusum.evaluate import write_delay_report_json, write_delay_table_csv

    tl = SlotTimeline.from_rates([5.0] * 30)
    report = worst_case_delay(tl, theta_grid=[5.0, 15.0], config=_cfg(2.0, 6.0), replications=60, seed=2)
    write_delay_report_json(report, tmp_path / "r.json")
    write_delay_table_csv(report, tmp_path / "r.csv")
    import json

    doc = json.loads((tmp_path / "r.json").read_text())
    assert len(doc["per_theta"]) == 2
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0].startswith("theta,")
    assert len(lines) == 3


def test_fewer_than_one_replication_is_rejected():
    tl = SlotTimeline.from_rates([5.0] * 10)
    cfg = _cfg(2.0, 5.0, mode=AGGREGATED_COUNTS)
    for reps in (0, -3):
        with pytest.raises(ValidationError, match="replications"):
            detection_delay(tl, ChangeSpec(theta=3.0, rho=2.0), cfg, replications=reps)
        with pytest.raises(ValidationError, match="replications"):
            worst_case_delay(tl, theta_grid=[3.0], config=cfg, replications=reps)


@pytest.mark.parametrize("reps", [math.nan, 150.5, 20.0], ids=["nan", "fraction", "float"])
def test_replications_that_are_not_an_integer_are_refused(reps):
    tl = SlotTimeline.from_rates([5.0] * 10)
    cfg = _cfg(2.0, 5.0, mode=AGGREGATED_COUNTS)
    with pytest.raises(ValidationError, match="replications must be an integer"):
        detection_delay(tl, ChangeSpec(theta=3.0, rho=2.0), cfg, replications=reps)
    with pytest.raises(ValidationError, match="replications must be an integer"):
        worst_case_delay(tl, theta_grid=[3.0], config=cfg, replications=reps)


def test_replications_past_the_slot_count_limit_are_refused():
    # One more replication than 2**31 slot counts allow on 10 slots, and a
    # 23-digit count: each is refused before a path is drawn.
    tl = SlotTimeline.from_rates([5.0] * 10)
    cfg = _cfg(2.0, 5.0)
    for reps in (MAX_SLOT_COUNTS // 10 + 1, 12345678901234567890123):
        message = f"{reps} replications of the 10-slot timeline draw over 2\\*\\*31 slot counts"
        with pytest.raises(ValidationError, match=message):
            detection_delay(tl, ChangeSpec(theta=3.0, rho=2.0), cfg, replications=reps)
        with pytest.raises(ValidationError, match=message):
            worst_case_delay(tl, theta_grid=[3.0], config=cfg, replications=reps)


def test_paths_expecting_more_events_than_int64_counts_hold_are_refused(monkeypatch):
    # 2e18 calls a day expect 4.5e19 events over 28 days, and the change 6.3e19:
    # past 2**62, where a path's int64 events seen could wrap negative and read
    # as no alarm. Each is refused before a path is drawn.
    monkeypatch.setattr(evaluate, "simulate_slot_counts", None)
    tl = synthetic_model(base_daily=2e18).timeline([date(2018, 1, 1) + timedelta(days=k) for k in range(28)])
    assert tl.total_mean > MAX_PATH_EVENTS
    cfg = _cfg(1.5, 20.0, mode=AGGREGATED_COUNTS)
    thetas = [tl.locate(date(2018, 1, d), time(14, 0)) for d in (5, 8)]
    message = r"^a path over the 480-slot timeline expects 6\.283e\+19 events, past the 2\*\*62 "
    with pytest.raises(ValidationError, match=message):
        detection_delay(tl, ChangeSpec(theta=thetas[0], rho=1.5), cfg, replications=20)
    with pytest.raises(ValidationError, match=r"^a path over the 480-slot timeline expects [0-9.]+e\+19 events"):
        worst_case_delay(tl, thetas, cfg, replications=20)


def _reference_report(tl, thetas, config, replications, seed):
    """`worst_case_delay`, one path and one detector run per replication, read off its alarm list.

    Aggregated paths run through a 1-D `run_aggregated` call, event-time
    paths through `run_events`.
    """

    def run(change, seed, rep):
        if config.mode == EVENT_TIMES:
            path = simulate_events(tl, change, seed, rep)
            before = int(np.searchsorted(path.event_times, change.theta, side="left"))
            return run_events(tl, path.event_times, config), before
        path = simulate_slot_counts(tl, change, seed, rep)
        before = sum(c for c, end in zip(path.counts, tl.ends.tolist()) if end <= change.theta)
        return run_aggregated(tl, path.counts, config), before

    per_theta = []
    for theta in thetas:
        change = ChangeSpec(theta=theta, rho=config.rho)
        delays, time_delays = [], []
        for rep in range(replications):
            detector, n_theta = run(change, seed, rep)
            post = [a for a in detector.alarms if float(a.time) >= theta]
            if post:
                delays.append(max(0, post[0].events_at_alarm - n_theta))
                time_delays.append(float(post[0].time) - theta)
            elif detector.alarms and not config.reset_on_alarm:
                delays.append(0)
                time_delays.append(0.0)
        arr = np.array(delays, dtype=float)
        per_theta.append(
            DelayStats(
                theta=theta,
                mean_delay_events=float(arr.mean()) if delays else math.nan,
                stderr=float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else (0.0 if delays else math.nan),
                detect_probability=len(delays) / replications,
                max_delay_events=float(arr.max()) if delays else math.nan,
                replications=replications,
                mean_delay_time=float(np.mean(time_delays)) if delays else math.nan,
            )
        )
    alarms = exceed = steps = 0
    for rep in range(_IN_CONTROL_REPLICATIONS):
        detector, _ = run(ChangeSpec(), seed + 1, rep)
        alarms += len(detector.alarms)
        exceed += int(np.sum(detector.v >= config.threshold_m))
        steps += len(detector.v)
    means = [d.mean_delay_events for d in per_theta if not math.isnan(d.mean_delay_events)]
    maxes = [d.max_delay_events for d in per_theta if not math.isnan(d.max_delay_events)]
    return DelayReport(
        per_theta=per_theta,
        worst_case_delay_events=max(means) if means else math.nan,
        worst_case_max_delay_events=max(maxes) if maxes else math.nan,
        false_alarm_rate=alarms / (_IN_CONTROL_REPLICATIONS * tl.total_time),
        exceedance_fraction=exceed / steps,
        rho=config.rho,
    )


_CASES = pytest.mark.parametrize(
    "rho, m, reset",
    [(2.0, 6.0, True), (2.0, 2.0, False), (1.3, 1.5, True), (0.5, 4.0, True), (0.5, 1.0, False)],
    ids=["up", "up-dense-no-reset", "up-dense", "down", "down-dense-no-reset"],
)


def _config(rho, m, reset, mode):
    return DetectorConfig(
        rho=rho, threshold_m=m, direction="increase" if rho > 1 else DECREASE, mode=mode, reset_on_alarm=reset
    )


# Closed slots between busy ones, half-unit slots: change times fall inside slots and on their ends.
_TIMELINE_RATES = [4.0, 0.0, 6.5, 2.0, 0.0, 5.0] * 4
_THETAS = [0.75, 4.0, 10.9]


@_CASES
def test_aggregated_worst_case_equals_per_replication_loop(rho, m, reset):
    tl = SlotTimeline.from_rates(_TIMELINE_RATES, length=0.5)
    cfg = _config(rho, m, reset, AGGREGATED_COUNTS)
    reps = _AGGREGATED_BLOCK + 9  # one full block and a partial one
    got = worst_case_delay(tl, _THETAS, cfg, replications=reps, seed=23)
    assert repr(got.to_dict()) == repr(_reference_report(tl, _THETAS, cfg, reps, 23).to_dict())


@_CASES
def test_event_worst_case_equals_per_replication_loop(rho, m, reset):
    tl = SlotTimeline.from_rates(_TIMELINE_RATES, length=0.5)
    cfg = _config(rho, m, reset, EVENT_TIMES)
    got = worst_case_delay(tl, _THETAS, cfg, replications=60, seed=29)
    want = _reference_report(tl, _THETAS, cfg, 60, 29)
    assert repr(got.to_dict()) == repr(want.to_dict())
    # Every case detects some changes and raises in-control alarms.
    assert all(d.detect_probability > 0 for d in want.per_theta) and want.false_alarm_rate > 0


def _step_loop_paths(tl, change, config, seed, reps):
    """The replications' `_Paths`, from a `step_aggregated` loop over each one's slot counts."""
    rows = []
    ends = tl.ends.tolist()
    for rep in range(reps):
        counts = simulate_slot_counts(tl, change, seed, rep).counts.tolist()
        state, first, alarms, exceeded = CusumState.initial(), (-1, math.nan), 0, 0
        for count, dlam, end in zip(counts, tl.means.tolist(), ends):
            state, alarm = step_aggregated(state, count, dlam, config, clock=end)
            level = state.v if alarm is None else alarm.v_at_alarm
            exceeded += level >= config.threshold_m
            alarms += alarm is not None
            if alarm is not None and first[0] < 0 and end >= change.theta:
                first = (alarm.events_at_alarm, end)
        before = sum(c for c, end in zip(counts, ends) if end <= change.theta)
        rows.append((before, *first, alarms, exceeded))
    return _Paths(*(np.array(column) for column in zip(*rows)))


def _listed(paths):
    return [a.tolist() for a in paths]


@settings(max_examples=30, deadline=None)
@given(
    block=st.integers(1, 120),
    case=st.sampled_from([(2.0, 6.0, True), (2.0, 2.0, False), (1.3, 1.5, True), (0.5, 4.0, True), (0.5, 1.0, False)]),
    theta=st.sampled_from(_THETAS + [0.0, 12.0, math.inf]),
    reps=st.integers(1, 9),
)
def test_aggregated_paths_do_not_depend_on_the_chunk(block, case, theta, reps):
    # Any block size, down to chunks of one slot: every replication's
    # entries are those of one chunk of all slots and of a step_aggregated loop.
    tl = SlotTimeline.from_rates(_TIMELINE_RATES, length=0.5)
    cfg = _config(*case, AGGREGATED_COUNTS)
    change = ChangeSpec() if math.isinf(theta) else ChangeSpec(theta=theta, rho=cfg.rho)
    whole = _runs(tl, change, cfg, 31, reps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detect, "_BLOCK_FLOATS", block)
        cut = _runs(tl, change, cfg, 31, reps)
    loop = _step_loop_paths(tl, change, cfg, 31, reps)
    assert repr(_listed(cut)) == repr(_listed(whole)) == repr(_listed(loop))


def test_aggregated_worst_case_builds_no_alarm_objects(monkeypatch):
    built = []
    init = AlarmEvent.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AlarmEvent, "__init__", counting_init)
    tl = SlotTimeline.from_rates(_TIMELINE_RATES, length=0.5)
    cfg = _config(1.3, 1.5, True, AGGREGATED_COUNTS)
    report = worst_case_delay(tl, _THETAS, cfg, replications=40, seed=23)
    assert report.false_alarm_rate > 0 and all(d.detect_probability > 0 for d in report.per_theta)
    assert built == []
    # The same detector, run for its alarms, does build them.
    run_aggregated(tl, simulate_slot_counts(tl, ChangeSpec(), 24, 0).counts, cfg)
    assert built
