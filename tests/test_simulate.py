from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
import pytest

from seasonal_cusum.daycal import MORNING_SLOT_COUNT, slot_start
from seasonal_cusum.errors import ValidationError
from seasonal_cusum.ingest import SlotRecord
from seasonal_cusum.simulate import (
    POSTPONE_THIRD_TUESDAY,
    ChangeSpec,
    ScenarioTransform,
    apply_scenario,
    rng_for,
    simulate_events,
    simulate_slot_counts,
    slot_means_with_change,
)
from seasonal_cusum.synthetic import sample_dataset
from seasonal_cusum.timeline import SlotTimeline


def test_slot_counts_in_control_mean():
    tl = SlotTimeline.from_rates([70.0])
    n = 10_000
    draws = np.array(
        [simulate_slot_counts(tl, seed=5, replication=r).counts[0] for r in range(n)],
        dtype=float,
    )
    band = 3.0 * math.sqrt(70.0 / n)
    assert abs(draws.mean() - 70.0) < band


def test_slot_counts_change_split_mean():
    # theta at the slot midpoint with rho=3 turns a mean of 10 into 5 + 15.
    tl = SlotTimeline.from_rates([10.0])
    means = slot_means_with_change(tl, ChangeSpec(theta=0.5, rho=3.0))
    assert means[0] == pytest.approx(20.0)
    means_before = slot_means_with_change(tl, ChangeSpec(theta=1.0, rho=3.0))
    assert means_before[0] == pytest.approx(10.0)
    means_after = slot_means_with_change(tl, ChangeSpec(theta=0.0, rho=3.0))
    assert means_after[0] == pytest.approx(30.0)


def test_slot_counts_deterministic():
    tl = SlotTimeline.from_rates([5.0, 15.0, 30.0])
    a = simulate_slot_counts(tl, ChangeSpec(theta=1.5, rho=2.0), seed=42)
    b = simulate_slot_counts(tl, ChangeSpec(theta=1.5, rho=2.0), seed=42)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_slot_counts(tl, ChangeSpec(theta=1.5, rho=2.0), seed=43)
    assert not np.array_equal(a.counts, c.counts)


def test_events_mean_matches_cumulative_intensity():
    tl = SlotTimeline.from_rates([6.0])
    n = 10_000
    totals = np.array([len(simulate_events(tl, seed=9, replication=r).event_times) for r in range(n)])
    band = 3.0 * math.sqrt(6.0 / n)
    assert abs(totals.mean() - 6.0) < band


def test_events_rate_doubles_after_immediate_change():
    tl = SlotTimeline.from_rates([8.0] * 4)
    n = 2000
    totals = np.array(
        [len(simulate_events(tl, ChangeSpec(theta=0.0, rho=2.0), seed=4, replication=r).event_times) for r in range(n)]
    )
    expected = 2.0 * tl.total_mean
    band = 3.0 * math.sqrt(expected / n)
    assert abs(totals.mean() - expected) < band


def test_events_zero_intensity_gives_empty_path():
    tl = SlotTimeline.from_rates([0.0, 0.0])
    path = simulate_events(tl, seed=1)
    assert len(path.event_times) == 0
    assert sum(path.counts) == 0


def test_events_strictly_increasing_and_histogram_consistent():
    tl = SlotTimeline.from_rates([20.0, 40.0, 10.0])
    for rep in range(50):
        path = simulate_events(tl, seed=77, replication=rep)
        times = np.array(path.event_times)
        assert np.all(np.diff(times) > 0)
        edges = np.concatenate([tl.starts, [tl.ends[-1]]])
        hist = np.histogram(times, bins=edges)[0]
        assert hist.tolist() == list(path.counts)


@pytest.mark.parametrize("change", [ChangeSpec(), ChangeSpec(theta=1.5, rho=2.0), ChangeSpec(theta=0.2, rho=0.4)])
def test_events_counts_are_the_slot_counts(change):
    tl = SlotTimeline.from_rates([5.0, 15.0, 30.0])
    for seed in (0, 3, 17):
        for rep in range(5):
            events = simulate_events(tl, change, seed=seed, replication=rep)
            assert np.array_equal(events.counts, simulate_slot_counts(tl, change, seed=seed, replication=rep).counts)
            assert len(events.event_times) == events.counts.sum()


def test_events_theta_slot_placement():
    # Rate 10 on two unit slots, tripled from mid-slot 0: means 5 before theta, 15 after it, 30 in slot 1.
    tl = SlotTimeline.from_rates([10.0, 10.0])
    change = ChangeSpec(theta=0.5, rho=3.0)
    n = 10_000
    split = np.zeros((n, 3))
    for rep in range(n):
        path = simulate_events(tl, change, seed=31, replication=rep)
        split[rep] = np.histogram(path.event_times, bins=[0.0, 0.5, 1.0, 2.0])[0]
    for observed, mean in zip(split.mean(axis=0), (5.0, 15.0, 30.0)):
        assert abs(observed - mean) < 4.0 * math.sqrt(mean / n)


def test_events_poisson_distribution_chi2():
    # Per-slot counts from thinning must be Poisson(slot mean).
    tl = SlotTimeline.from_rates([3.0, 7.0, 1.5])
    n = 10_000
    counts = np.array([simulate_events(tl, seed=21, replication=r).counts for r in range(n)])
    from scipy import stats

    for j, mean in enumerate(tl.means):
        observed = counts[:, j]
        kmax = int(observed.max())
        bins = np.arange(kmax + 2)
        obs_freq = np.bincount(observed, minlength=kmax + 1).astype(float)
        probs = stats.poisson.pmf(bins[:-1], mean)
        probs[-1] = 1.0 - probs[:-1].sum() + probs[-1]
        # Merge sparse tail bins so the chi-squared approximation holds.
        exp_freq = probs * n
        while len(exp_freq) > 2 and exp_freq[-1] < 5:
            exp_freq[-2] += exp_freq[-1]
            obs_freq[-2] += obs_freq[-1]
            exp_freq, obs_freq = exp_freq[:-1], obs_freq[:-1]
        stat = float(((obs_freq - exp_freq) ** 2 / exp_freq).sum())
        p = 1.0 - stats.chi2.cdf(stat, df=len(exp_freq) - 1)
        assert p > 0.01


def _make_week(first_monday: date, per_slot: int = 50) -> list[SlotRecord]:
    records = []
    for offset in range(6):
        d = first_monday + timedelta(days=offset)
        slots = 22 if d.weekday() <= 4 else 10
        records += [SlotRecord(d, slot_start(k), per_slot) for k in range(slots)]
    return records


def test_scenario_preserves_daily_totals_and_moves_morning():
    records = _make_week(date(2018, 1, 8)) + _make_week(date(2018, 1, 15))
    transform = ScenarioTransform(kind=POSTPONE_THIRD_TUESDAY)
    out = apply_scenario(records, transform)
    affected = date(2018, 1, 9)  # first Tuesday present anchors the schedule
    morning = [r for r in out if r.date == affected and r.slot_index < MORNING_SLOT_COUNT]
    afternoon = [r for r in out if r.date == affected and r.slot_index >= MORNING_SLOT_COUNT]
    assert all(r.count == 0 for r in morning)
    assert sum(r.count for r in afternoon) == 22 * 50  # whole day now in the afternoon
    day_total_before = sum(r.count for r in records if r.date == affected)
    day_total_after = sum(r.count for r in out if r.date == affected)
    assert day_total_before == day_total_after
    # Wednesday untouched.
    wed = date(2018, 1, 10)
    assert [r for r in out if r.date == wed] == [r for r in records if r.date == wed]
    # The following Tuesday is not an affected week.
    tue2 = date(2018, 1, 16)
    assert [r for r in out if r.date == tue2] == [r for r in records if r.date == tue2]


def test_scenario_total_conservation_on_sampled_data(truth_model):
    ds = sample_dataset(truth_model, date(2018, 1, 1), date(2018, 3, 31), seed=8)
    out = apply_scenario(list(ds.slots), ScenarioTransform(kind=POSTPONE_THIRD_TUESDAY))
    assert sum(r.count for r in out) == sum(r.count for r in ds.slots)
    by_day_before: dict[date, int] = {}
    for r in ds.slots:
        by_day_before[r.date] = by_day_before.get(r.date, 0) + r.count
    by_day_after: dict[date, int] = {}
    for r in out:
        by_day_after[r.date] = by_day_after.get(r.date, 0) + r.count
    assert by_day_before == by_day_after


def test_scenario_requires_afternoon_coverage():
    d = date(2018, 1, 9)
    records = [SlotRecord(d, slot_start(k), 5) for k in range(MORNING_SLOT_COUNT)]
    with pytest.raises(ValidationError):
        apply_scenario(records, ScenarioTransform(kind=POSTPONE_THIRD_TUESDAY))


def test_change_spec_validation():
    with pytest.raises(ValidationError):
        ChangeSpec(theta=1.0, rho=-2.0)
    for rho in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="change factor"):
            ChangeSpec(theta=1.0, rho=rho)
    with pytest.raises(ValidationError, match="NaN"):
        ChangeSpec(theta=math.nan, rho=2.0)
    assert ChangeSpec().in_control


def test_change_spec_refuses_minus_infinity():
    # -inf would read as in control, yet any finite theta before the timeline changes every slot.
    with pytest.raises(ValidationError, match=r"finite, or \+inf for no change"):
        ChangeSpec(theta=-math.inf, rho=3.0)
    tl = SlotTimeline.from_rates([2.0, 4.0])
    assert slot_means_with_change(tl, ChangeSpec(theta=-1e300, rho=3.0)).tolist() == [6.0, 12.0]
    assert slot_means_with_change(tl, ChangeSpec(theta=math.inf, rho=3.0)).tolist() == [2.0, 4.0]


def test_negative_seed_or_stream_key_is_refused():
    tl = SlotTimeline.from_rates([3.0, 5.0])
    for seed, stream in ((-1, ()), (-1, (0, 2)), (4, (-3, 0)), (4, (1, -1))):
        with pytest.raises(ValidationError, match=f"seed {seed} "):
            rng_for(seed, *stream)
    with pytest.raises(ValidationError, match="seed -1 "):
        simulate_slot_counts(tl, ChangeSpec(), seed=-1)
    with pytest.raises(ValidationError, match="seed -7 "):
        simulate_events(tl, ChangeSpec(), seed=-7, replication=2)
    # Valid keys keep their streams.
    for seed, stream in ((0, ()), (11, (3, 1)), (2**40, (7, 0))):
        expected = np.random.default_rng(np.random.SeedSequence([seed, *stream])).random(4)
        assert rng_for(seed, *stream).random(4).tolist() == expected.tolist()


@pytest.mark.parametrize("simulate", [simulate_slot_counts, simulate_events])
def test_in_control_mean_past_the_poisson_limit_is_refused(simulate):
    # A finite mean past numpy's Poisson limit, which the timeline does not
    # refuse; numpy would fail with "lam value too large".
    tl = SlotTimeline.from_rates([1.0, 1e19], length=10.0)
    with pytest.raises(ValidationError, match=r"^mean 1e\+20 of the slot at 10\.0 is past numpy's Poisson limit [0-9.e+]+$"):
        simulate(tl, ChangeSpec(), seed=3)
