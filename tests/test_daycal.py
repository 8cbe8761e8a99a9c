from __future__ import annotations

import math
import re
from datetime import date, datetime, time, timedelta

import pytest

from seasonal_cusum.daycal import (
    DEFAULT_ORIGIN,
    SATURDAY_SLOT_COUNT,
    WEEKDAY_SLOT_COUNT,
    ScenarioSchedule,
    day_meta,
    read_holidays,
    slot_end,
    slot_index,
    slot_start,
    slot_timestamp,
)
from seasonal_cusum.errors import ParseError, ValidationError
from seasonal_cusum.synthetic import synthetic_model


def test_slot_grid_bounds():
    assert slot_start(0) == time(7, 30)
    assert slot_start(21) == time(18, 0)
    assert slot_end(21) == time(18, 30)
    assert slot_start(SATURDAY_SLOT_COUNT - 1) == time(12, 0)
    assert slot_end(SATURDAY_SLOT_COUNT - 1) == time(12, 30)


def test_slot_timestamp_reads_the_half_hour_grid():
    d = date(2018, 1, 8)
    opening = datetime(2018, 1, 8, 7, 30)
    for i in range(WEEKDAY_SLOT_COUNT):
        assert slot_timestamp(d, i) == opening + timedelta(minutes=30 * i)
        assert slot_timestamp(d, i, end=True) == opening + timedelta(minutes=30 * i + 30)


@pytest.mark.parametrize("index", [-1, WEEKDAY_SLOT_COUNT])
@pytest.mark.parametrize("call", [slot_start, slot_end, lambda i: slot_timestamp(date(2018, 1, 8), i, end=True)],
                         ids=["slot_start", "slot_end", "slot_timestamp"])
def test_slot_index_off_the_grid_is_refused(call, index):
    # A negative index used to wrap silently: slot_end(-1) read 07:30.
    with pytest.raises(ValidationError, match=f"slot index {index} outside"):
        call(index)


def test_timeline_timestamps_are_slot_timestamps():
    days = [date(2018, 1, 1) + timedelta(days=i) for i in range(365)]
    tl = synthetic_model().timeline(days)
    for i in range(len(tl)):
        d, k = tl.days[i].item(), int(tl.grid[i])
        assert tl.timestamp(i) == slot_timestamp(d, k)
        assert tl.timestamp(i, end=True) == slot_timestamp(d, k, end=True)


def test_slot_index_round_trip():
    for k in range(WEEKDAY_SLOT_COUNT):
        assert slot_index(slot_start(k)) == k


def test_slot_index_rejects_off_grid():
    with pytest.raises(ValidationError):
        slot_index(time(9, 15))
    with pytest.raises(ValidationError):
        slot_index(time(18, 30))
    with pytest.raises(ValidationError):
        slot_index(time(7, 0))


def test_day_meta_monday():
    meta = day_meta(date(2017, 1, 2))
    assert meta.day_of_week == 0
    assert meta.is_weekday
    assert meta.is_open
    assert meta.open_slot_count == WEEKDAY_SLOT_COUNT


def test_day_meta_days_since_origin():
    meta = day_meta(date(2015, 4, 6), origin=date(2015, 4, 1))
    assert meta.days_since_origin == 5


def test_day_meta_weekend_and_holiday():
    saturday = day_meta(date(2017, 1, 7))
    assert not saturday.is_weekday
    assert saturday.is_open
    assert saturday.open_slot_count == SATURDAY_SLOT_COUNT
    sunday = day_meta(date(2017, 1, 8))
    assert not sunday.is_open
    holidays = frozenset({date(2017, 5, 1)})
    holiday = day_meta(date(2017, 5, 1), holidays)
    assert not holiday.is_open
    after = day_meta(date(2017, 5, 2), holidays)
    assert after.is_day_after_holiday and after.is_open


def test_day_meta_is_pure():
    holidays = frozenset({date(2017, 5, 1)})
    a = day_meta(date(2017, 5, 2), holidays, DEFAULT_ORIGIN)
    b = day_meta(date(2017, 5, 2), holidays, DEFAULT_ORIGIN)
    assert a == b


def test_read_holidays(tmp_path):
    p = tmp_path / "holidays.txt"
    p.write_text("2017-05-01\n\n2017-08-15\n")
    assert read_holidays(p) == frozenset({date(2017, 5, 1), date(2017, 8, 15)})
    bad = tmp_path / "bad.txt"
    bad.write_text("2017-05-01\nnot-a-date\n")
    with pytest.raises(ParseError):
        read_holidays(bad)


def test_read_holidays_reads_past_a_byte_order_mark(tmp_path):
    plain, marked, bad = tmp_path / "plain.txt", tmp_path / "marked.txt", tmp_path / "bad.txt"
    plain.write_bytes(b"2017-05-01\n2017-08-15\n")
    marked.write_bytes(b"\xef\xbb\xbf2017-05-01\n2017-08-15\n")
    bad.write_bytes(b"\xef\xbb\xbf2017-05-01\n\n2017-\xff8-15\n")
    assert read_holidays(marked) == read_holidays(plain)
    with pytest.raises(ParseError, match="^line 3: byte 0xff is not valid UTF-8$"):
        read_holidays(bad)


def test_scenario_schedule_every_third_tuesday():
    schedule = ScenarioSchedule(anchor=date(2018, 1, 2))
    assert schedule.is_affected(date(2018, 1, 2))
    assert not schedule.is_affected(date(2018, 1, 9))
    assert not schedule.is_affected(date(2018, 1, 16))
    assert schedule.is_affected(date(2018, 1, 23))
    assert not schedule.is_affected(date(2018, 1, 24))  # a Wednesday
    assert not schedule.is_affected(date(2017, 12, 26))  # before the anchor


def test_scenario_schedule_anchor_must_be_tuesday():
    with pytest.raises(ValidationError):
        ScenarioSchedule(anchor=date(2018, 1, 3))


@pytest.mark.parametrize("every", [2.5, 3.0, math.nan, math.inf, True, False, 0, -1, "3", None])
def test_scenario_period_must_be_a_whole_number_of_weeks(every):
    # 2.5 marked every fifth Tuesday, NaN none and True every one.
    with pytest.raises(ValidationError, match=f"^scenario period must be a whole number of weeks >= 1, got {re.escape(repr(every))}$"):
        ScenarioSchedule(anchor=date(2018, 1, 2), every=every)
    assert ScenarioSchedule(anchor=date(2018, 1, 2), every=1).is_affected(date(2018, 1, 9))


def test_scenario_from_first_tuesday():
    days = [date(2018, 1, 4), date(2018, 1, 5), date(2018, 1, 9), date(2018, 1, 16)]
    schedule = ScenarioSchedule.from_first_tuesday(days)
    assert schedule.anchor == date(2018, 1, 9)
