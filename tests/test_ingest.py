from __future__ import annotations

from dataclasses import replace
from datetime import date, time, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasonal_cusum.errors import DuplicateKeyError, ParseError, ValidationError
from seasonal_cusum.ingest import (
    DailyRecord,
    SlotRecord,
    build_dataset,
    load_dataset,
    parse_daily_csv,
    parse_slot_csv,
    split_train_test,
    write_daily_csv,
    write_slot_csv,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_daily_basic(tmp_path):
    p = _write(tmp_path, "daily.csv", "date,count\n2015-04-07,1100\n2015-04-06,1200\n")
    assert parse_daily_csv(p) == (DailyRecord(date(2015, 4, 6), 1200), DailyRecord(date(2015, 4, 7), 1100))
    ds = load_dataset(p, origin=date(2015, 4, 1))
    assert ds.meta[date(2015, 4, 6)].days_since_origin == 5
    assert ds.meta[date(2015, 4, 6)].day_of_week == 0  # a Monday


def test_parse_daily_derives_holiday_flag(tmp_path):
    p = _write(tmp_path, "daily.csv", "date,count\n2017-05-02,900\n")
    ds = load_dataset(p, holidays=frozenset({date(2017, 5, 1)}))
    assert ds.meta[date(2017, 5, 2)].is_day_after_holiday


def test_parse_daily_errors(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_daily_csv(_write(tmp_path, "a.csv", "date,count\n2017-01-02,abc\n"))
    assert err.value.line == 2
    with pytest.raises(DuplicateKeyError):
        parse_daily_csv(_write(tmp_path, "b.csv", "date,count\n2017-01-02,1\n2017-01-02,2\n"))
    with pytest.raises(ValidationError):
        parse_daily_csv(_write(tmp_path, "c.csv", "date,count\n2017-01-02,-5\n"))
    with pytest.raises(ParseError):
        parse_daily_csv(_write(tmp_path, "d.csv", "day,count\n2017-01-02,5\n"))
    with pytest.raises(ParseError, match="no data rows") as err:
        parse_daily_csv(_write(tmp_path, "e.csv", "date,count\n"))
    assert err.value.line == 2


def test_parse_slot_basic(tmp_path):
    p = _write(tmp_path, "slots.csv", "date,slot_start,count\n2017-01-02,09:00,85\n")
    records = parse_slot_csv(p)
    assert records[0] == SlotRecord(date(2017, 1, 2), time(9, 0), 85)
    assert records[0].slot_index == 3
    assert repr(records[0]) == "SlotRecord(date=datetime.date(2017, 1, 2), slot_start=datetime.time(9, 0), count=85)"
    later = replace(records[0], slot_start=time(10, 30))
    assert later.slot_index == 6 and later < SlotRecord(date(2017, 1, 2), time(11, 0), 0)
    assert hash(later) == hash(SlotRecord(date(2017, 1, 2), time(10, 30), 85))
    with pytest.raises(ValidationError, match="09:15"):
        SlotRecord(date(2017, 1, 2), time(9, 15), 1)


def test_parse_slot_errors(tmp_path):
    with pytest.raises(DuplicateKeyError):
        parse_slot_csv(
            _write(tmp_path, "a.csv", "date,slot_start,count\n2017-01-02,09:00,85\n2017-01-02,09:00,86\n")
        )
    with pytest.raises(ValidationError, match="^line 2: slot start 09:15"):
        parse_slot_csv(_write(tmp_path, "b.csv", "date,slot_start,count\n2017-01-02,09:15,85\n"))
    with pytest.raises(ValidationError):  # Saturday afternoon is off-grid
        parse_slot_csv(_write(tmp_path, "c.csv", "date,slot_start,count\n2017-01-07,14:00,5\n"))
    with pytest.raises(ValidationError):  # Sundays are closed
        parse_slot_csv(_write(tmp_path, "d.csv", "date,slot_start,count\n2017-01-08,09:00,5\n"))
    with pytest.raises(ParseError, match="no data rows") as err:
        parse_slot_csv(_write(tmp_path, "e.csv", "date,slot_start,count\n\n"))
    assert err.value.line == 2


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_daily_csv, "date,count\n2017-01-02,1100\n2017-01-03,1200\n"),
        (parse_slot_csv, "date,slot_start,count\n2017-01-02,09:00,85\n2017-01-02,09:30,7\n"),
    ],
    ids=["daily", "slots"],
)
def test_a_leading_byte_order_mark_is_read_past(tmp_path, parse, text):
    # Excel's "CSV UTF-8" export starts the file with one.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    assert parse(marked) == parse(plain)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(BOM + text.encode().replace(b"2017-01-03" if parse is parse_daily_csv else b"09:30", b"\xff"))
    with pytest.raises(ParseError, match="^line 3: byte 0xff is not valid UTF-8$"):
        parse(bad)


def test_round_trip(tmp_path):
    daily = [DailyRecord(date(2017, 1, 2) + timedelta(days=i), 100 + i) for i in range(5)]
    slots = [SlotRecord(date(2017, 1, 2), time(9, 0), 7), SlotRecord(date(2017, 1, 2), time(9, 30), 9)]
    write_daily_csv(daily, tmp_path / "d.csv")
    write_slot_csv(slots, tmp_path / "s.csv")
    ds = load_dataset(tmp_path / "d.csv", tmp_path / "s.csv")
    assert list(ds.daily) == daily
    assert list(ds.slots) == slots
    # And writing the parsed dataset again reproduces identical bytes.
    write_daily_csv(ds.daily, tmp_path / "d2.csv")
    write_slot_csv(ds.slots, tmp_path / "s2.csv")
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()


@settings(max_examples=25, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=40),
    start_offset=st.integers(min_value=0, max_value=3000),
)
def test_round_trip_property(tmp_path_factory, counts, start_offset):
    base = date(2015, 4, 1) + timedelta(days=start_offset)
    daily = [DailyRecord(base + timedelta(days=i), c) for i, c in enumerate(counts)]
    tmp = tmp_path_factory.mktemp("roundtrip")
    write_daily_csv(daily, tmp / "d.csv")
    assert list(parse_daily_csv(tmp / "d.csv")) == daily


def test_split_partition():
    days = [DailyRecord(date(2017, 1, 2) + timedelta(days=i), i) for i in range(100)]
    ds = build_dataset(daily=days)
    split = date(2017, 2, 15)
    train, test = split_train_test(ds, split)
    assert len(train.daily) + len(test.daily) == 100
    assert all(r.date < split for r in train.daily)
    assert all(r.date >= split for r in test.daily)
    assert sorted(train.daily + test.daily) == sorted(days)


def test_split_out_of_range():
    days = [DailyRecord(date(2017, 1, 2) + timedelta(days=i), i) for i in range(10)]
    ds = build_dataset(daily=days)
    with pytest.raises(ValidationError):
        split_train_test(ds, date(2016, 12, 1))
    with pytest.raises(ValidationError):
        split_train_test(ds, date(2018, 1, 1))
    # One date leaves no split that gives both halves a day.
    one = build_dataset(daily=days[:1])
    for split in (date(2017, 1, 2), date(2017, 1, 3)):
        with pytest.raises(ValidationError, match=r"outside data range \(2017-01-02, 2017-01-02\]"):
            split_train_test(one, split)


def test_meta_covers_slot_dates():
    slots = [SlotRecord(date(2017, 1, 2), time(9, 0), 5)]
    daily = [DailyRecord(date(2017, 1, 3), 50)]
    ds = build_dataset(daily=daily, slots=slots)
    assert date(2017, 1, 2) in ds.meta and date(2017, 1, 3) in ds.meta
