from __future__ import annotations

import math
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasonal_cusum.daycal import slot_end, slot_start
from seasonal_cusum.errors import CoverageError, ValidationError
from seasonal_cusum.timeline import SlotTimeline


def test_from_rates_layout():
    tl = SlotTimeline.from_rates([60.0, 80.0])
    assert len(tl) == 2
    assert tl.total_time == 2.0
    assert tl.total_mean == 140.0


def test_cumulative_two_half_slots():
    # Half of a rate-60 slot plus half of a rate-80 slot integrates to 70.
    tl = SlotTimeline.from_rates([60.0, 80.0])
    assert tl.cumulative(0.5, 1.5) == pytest.approx(70.0, abs=1e-12)


def test_cumulative_degenerate_and_full_slot():
    tl = SlotTimeline.from_rates([70.0])
    assert tl.cumulative(0.3, 0.3) == 0.0
    assert tl.cumulative(0.0, 1.0) == pytest.approx(70.0)


@settings(max_examples=50, deadline=None)
@given(
    rates=st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=1, max_size=12),
    cuts=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
)
def test_cumulative_additive(rates, cuts):
    tl = SlotTimeline.from_rates(rates)
    a, b, c = sorted(x * tl.total_time for x in cuts)
    total = tl.cumulative(a, b) + tl.cumulative(b, c)
    assert total == pytest.approx(tl.cumulative(a, c), rel=1e-9, abs=1e-9)


def test_rejects_gaps_and_empty():
    # Slots are laid end to end, so a gap cannot be built; empty timelines and
    # slots of no length are refused, and a positional start is no longer read.
    with pytest.raises(ValidationError):
        SlotTimeline([], [])
    for length in (0.0, -1.0):
        with pytest.raises(ValidationError, match="lengths must be positive"):
            SlotTimeline([1.0, length], [5.0, 5.0])
    with pytest.raises(TypeError):
        SlotTimeline([0.0, 1.0], [1.0, 1.0], [5.0, 5.0])


@pytest.mark.parametrize("start", [float("nan"), float("inf")])
def test_rejects_a_start_that_is_not_finite(start):
    with pytest.raises(ValidationError, match="finite"):
        SlotTimeline([1.0], [2.0], start=start)


@pytest.mark.parametrize(
    "lengths, rates",
    [([1.0, math.inf], [1.0, 1.0]), ([math.inf], [0.0]), ([10.0, 10.0], [1.0, 1e308])],
    ids=["infinite-end", "nan-mean", "infinite-mean"],
)
def test_rejects_ends_and_means_that_are_not_finite(lengths, rates):
    # Each is refused when built, with no numpy warning on the way: an
    # infinite end, an infinite length times a zero rate, and a finite rate
    # over a long slot overflowing to an infinite mean.
    with pytest.raises(ValidationError, match="; both must be finite$"):
        SlotTimeline(lengths, rates)


@settings(max_examples=80, deadline=None)
@given(
    lengths=st.lists(st.sampled_from([1 / 24, 0.1, 1.0]) | st.floats(1e-3, 1e3), min_size=1, max_size=12),
    start=st.just(0.0) | st.floats(-1e6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
def test_slots_are_laid_end_to_end(lengths, start, seed):
    rng = np.random.default_rng(seed)
    tl = SlotTimeline(lengths, rng.uniform(0.0, 50.0, len(lengths)), start=start)
    assert tl.starts[0] == start
    assert tl.starts[1:].tolist() == tl.ends[:-1].tolist()
    # Every slot end but the last is the next slot's start, where Λ reads that slot's line.
    assert tl.cum_mean_at(tl.ends[:-1]).tolist() == tl.cum_means[1:-1].tolist()


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
def test_rejects_rates_that_are_negative_or_not_finite(rate):
    with pytest.raises(ValidationError, match="rates nonnegative and finite"):
        SlotTimeline.from_rates([5.0, rate])


def test_out_of_range_raises():
    tl = SlotTimeline.from_rates([1.0, 2.0])
    with pytest.raises(CoverageError):
        tl.cumulative(-0.5, 1.0)
    with pytest.raises(CoverageError):
        tl.cumulative(0.0, 2.5)


def test_calendar_timeline_locate_and_timestamp(truth_model):
    tl = truth_model.timeline([date(2018, 1, 8), date(2018, 1, 9)])
    assert tl.locate(date(2018, 1, 8), time(7, 30)) == 0.0
    assert tl.locate(date(2018, 1, 8), time(9, 15)) == pytest.approx(3.5)
    assert tl.locate(date(2018, 1, 9), time(7, 30)) == 22.0
    # Instants inside closed periods snap to the next open boundary.
    assert tl.locate(date(2018, 1, 8), time(19, 0)) == 22.0
    assert tl.timestamp(0) == datetime(2018, 1, 8, 7, 30)
    assert tl.timestamp(0, end=True) == datetime(2018, 1, 8, 8, 0)


def test_locate_keeps_seconds_inside_a_slot(truth_model):
    tl = truth_model.timeline([date(2018, 1, 8)])
    at = [tl.locate(date(2018, 1, 8), tod) for tod in (time(9, 10), time(9, 10, 30), time(9, 10, 59), time(9, 11))]
    assert at[0] < at[1] < at[2] < at[3]
    assert at[1] == pytest.approx(0.5 * (at[0] + at[3]), rel=1e-15)


def test_calendar_timeline_locate_edges(truth_model):
    # Monday 2018-01-01 to Saturday 2018-01-06: five 22-slot days and a 10-slot Saturday.
    tl = truth_model.timeline([date(2018, 1, 1) + timedelta(days=i) for i in range(6)])
    assert tl.ends[-1] == 120.0
    assert tl.locate(date(2018, 1, 1), time(7, 0)) == 0.0
    assert tl.locate(date(2018, 1, 6), time(12, 30)) == tl.ends[-1]
    with pytest.raises(CoverageError, match="timeline"):
        tl.locate(date(2017, 6, 1), time(9, 0))
    with pytest.raises(CoverageError, match="timeline"):
        tl.locate(date(2017, 12, 31), time(9, 0))
    with pytest.raises(CoverageError, match="timeline"):
        tl.locate(date(2018, 1, 6), time(12, 31))


def _us(t):
    return ((t.hour * 60 + t.minute) * 60 + t.second) * 1_000_000 + t.microsecond


def _locate_by_loop(tl, d, tod):
    """Slot-by-slot search for an instant's position: the reference for `locate`."""
    days, grid = tl.days.tolist(), tl.grid.tolist()
    if d < days[0]:
        raise CoverageError("before the start of the timeline")
    for start, length, day, k in zip(tl.starts.tolist(), tl.lengths.tolist(), days, grid):
        if day < d:
            continue
        if day > d or tod <= slot_start(k):
            return start
        if tod <= slot_end(k):
            return start + (_us(tod) - _us(slot_start(k))) / (30 * 60_000_000) * length
    raise CoverageError("past the end of the timeline")


def test_locate_matches_slot_by_slot_search(truth_model):
    # Thursday 2017-04-27 to Wednesday 2017-05-03: a Saturday, a Sunday and the 2017-05-01 holiday.
    days = [date(2017, 4, 27) + timedelta(days=i) for i in range(7)]
    tl = truth_model.timeline(days)
    instants = [(t.date(), t.time()) for i in range(len(tl)) for t in (tl.timestamp(i), tl.timestamp(i, end=True))]
    instants += [(t.date(), (t + timedelta(minutes=12, seconds=34, microseconds=500)).time())
                 for t in map(tl.timestamp, range(len(tl)))]
    evening, saturday_afternoon = time(19, 0), time(14, 0)
    instants += [(d, tod) for d in days for tod in (time(7, 0), time(0, 0), time(6, 0), time(12, 30, 1), saturday_afternoon,
                                                  time(18, 29, 59), time(18, 30), evening, time(23, 59, 59))]
    instants += [(date(2017, 4, 26), time(9, 0)), (date(2017, 5, 4), time(7, 30)), (date(2017, 5, 3), time(18, 30, 0, 1))]
    checked = 0
    for d, tod in instants:
        try:
            expected = _locate_by_loop(tl, d, tod)
        except CoverageError:
            with pytest.raises(CoverageError, match="timeline"):
                tl.locate(d, tod)
            continue
        assert tl.locate(d, tod) == expected, (d, tod)
        checked += 1
    assert checked > 3 * len(tl)
    assert tl.locate(days[0], time(7, 30)) == tl.starts[0]
    assert tl.locate(days[-1], time(18, 30)) == tl.ends[-1]


def test_calendar_timeline_matches_model_cumulative(truth_model):
    days = [date(2018, 1, 8), date(2018, 1, 9)]
    tl = truth_model.timeline(days)
    a = datetime(2018, 1, 8, 9, 0)
    b = datetime(2018, 1, 9, 10, 15)
    # 09:00 opens slot 3 of the first day; 10:15 is halfway through slot 5 of the second.
    first, second = (truth_model.slot_rates(d) for d in days)
    via_model = first[3:].sum() + second[:5].sum() + 0.5 * second[5]
    via_timeline = tl.cumulative(tl.locate(a.date(), a.time()), tl.locate(b.date(), b.time()))
    assert via_model == pytest.approx(via_timeline, rel=1e-12)


def test_cum_mean_at_array_equals_scalar_bitwise():
    tl = SlotTimeline.from_rates([3.0, 0.0, 7.25, 1.5], length=0.5, start=2.0)
    t = np.concatenate([np.linspace(2.0, 4.0, 37), tl.starts, tl.ends])
    assert tl.cum_mean_at(t).tolist() == [tl.cum_mean_at(x) for x in t.tolist()]
    assert tl.cum_mean_at(np.array([])).size == 0
    for bad in ([1.5, 3.0], [3.0, 4.5], [3.0, np.nan]):
        with pytest.raises(CoverageError):
            tl.cum_mean_at(np.array(bad))
