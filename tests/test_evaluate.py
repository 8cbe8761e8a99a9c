from __future__ import annotations

import math

import numpy as np
import pytest

from seasonal_cusum.detect import (
    AGGREGATED_COUNTS,
    DECREASE,
    EVENT_TIMES,
    AlarmEvent,
    DetectorConfig,
    run_aggregated,
    run_events,
)
from seasonal_cusum.errors import ValidationError
from seasonal_cusum.evaluate import (
    _AGGREGATED_BLOCK,
    _IN_CONTROL_REPLICATIONS,
    DelayReport,
    DelayStats,
    detection_delay,
    exceedance_fraction,
    worst_case_delay,
)
from seasonal_cusum.simulate import MAX_SLOT_COUNTS, ChangeSpec, simulate_events, simulate_slot_counts
from seasonal_cusum.timeline import SlotTimeline


def _cfg(rho, m, mode=EVENT_TIMES, reset=True):
    return DetectorConfig(rho=rho, threshold_m=m, direction="increase", mode=mode, reset_on_alarm=reset)


def test_exceedance_trivial_cases():
    assert exceedance_fraction(np.zeros(50), 1.0) == 0.0
    assert exceedance_fraction(np.full(50, 2.5), 2.5) == 1.0  # boundary counts
    assert exceedance_fraction([0.0, 3.0, 0.0, 3.0], 1.0) == 0.5
    with pytest.raises(ValidationError):
        exceedance_fraction([], 1.0)


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
