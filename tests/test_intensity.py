from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seasonal_cusum.daycal import ScenarioSchedule, day_meta
from seasonal_cusum.errors import ConvergenceError, SingularDesignError, ValidationError
from seasonal_cusum.ingest import SlotRecord, build_dataset
from seasonal_cusum.intensity import (
    ALL_FACTORS,
    DAY_AFTER_HOLIDAY,
    DAY_OF_WEEK,
    DEFAULT_CANDIDATES,
    MONTH,
    TREND,
    WEEKDAY,
    GlmModel,
    IntensityModel,
    SlotProfile,
    bic_score,
    busyness_quartile_check,
    design_matrix,
    encode_features,
    feature_names,
    fit_constant_rate,
    fit_daily_glm,
    fit_intensity_model,
    fit_poisson_glm,
    fit_slot_profile,
    poisson_deviance,
    poisson_log_likelihood,
    select_model,
)
from seasonal_cusum.intensity import _DEVIANCE_RTOL, _MAX_ITER, _SCORE_TOL, _column_medians
from seasonal_cusum.simulate import rng_for
from seasonal_cusum.synthetic import sample_dataset


# --- feature encoding -------------------------------------------------------

def test_encode_weekday_flag_only():
    meta = day_meta(date(2017, 1, 2))  # a January Monday
    assert encode_features(meta, frozenset({WEEKDAY})).tolist() == [1.0, 1.0]


def test_encode_full_factor_row_saturday():
    spec = frozenset({TREND, MONTH, DAY_OF_WEEK, DAY_AFTER_HOLIDAY})
    meta = day_meta(date(2017, 3, 4))  # a March Saturday
    row = encode_features(meta, spec)
    X, names = design_matrix([meta], spec)
    assert WEEKDAY not in "".join(names)
    assert row[names.index("month_mar")] == 1.0
    assert row[names.index("dow_sat")] == 1.0
    assert sum(row[names.index(f"month_{m}")] for m in ("feb", "apr", "may")) == 0.0


def test_encode_day_after_holiday():
    spec = frozenset({DAY_AFTER_HOLIDAY})
    meta = day_meta(date(2017, 5, 2), frozenset({date(2017, 5, 1)}))  # Tuesday after a Monday holiday
    row = encode_features(meta, spec)
    assert row.tolist() == [1.0, 1.0]


def test_encode_reference_levels_are_zero():
    spec = frozenset({MONTH, DAY_OF_WEEK})
    meta = day_meta(date(2017, 1, 2))  # January Monday: all dummies off
    row = encode_features(meta, spec)
    assert row.tolist() == [1.0] + [0.0] * 16


_MONTHS = ("jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec")
_WEEKDAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
# Each factor's columns in canonical order; January and Monday are the reference levels.
_FACTOR_COLUMNS = {
    WEEKDAY: ["weekday"],
    TREND: ["trend"],
    MONTH: [f"month_{n}" for n in _MONTHS[1:]],
    DAY_OF_WEEK: [f"dow_{n}" for n in _WEEKDAYS[1:6]],
    DAY_AFTER_HOLIDAY: ["day_after_holiday"],
}


def test_design_columns_align_for_every_factor_subset():
    holidays = frozenset({date(2017, 5, 1), date(2017, 12, 25)})
    metas = [day_meta(date(2017, 1, 1) + timedelta(days=k), holidays) for k in range(365)]
    assert any(m.day_of_week == 5 for m in metas) and any(m.is_day_after_holiday for m in metas)
    assert tuple(_FACTOR_COLUMNS) == ALL_FACTORS
    # Every column's value on each day: each dummy and flag is 1.0 exactly on its own level.
    levels = [
        {
            "weekday": float(m.is_weekday),
            "trend": float(m.days_since_origin),
            "day_after_holiday": float(m.is_day_after_holiday),
            **{f"month_{n}": float(m.month == k) for k, n in enumerate(_MONTHS, start=1)},
            **{f"dow_{n}": float(m.day_of_week == k) for k, n in enumerate(_WEEKDAYS)},
        }
        for m in metas
    ]
    for size in range(len(ALL_FACTORS) + 1):
        for factors in itertools.combinations(ALL_FACTORS, size):
            spec = frozenset(factors)
            names = feature_names(spec)
            assert names == ["intercept"] + [c for f, columns in _FACTOR_COLUMNS.items() if f in spec for c in columns]
            for meta, level in zip(metas, levels):
                expected = [1.0] + [level[name] for name in names[1:]]
                assert encode_features(meta, spec).tolist() == expected, (sorted(spec), meta.date)


# --- IRLS fitting -----------------------------------------------------------

def test_intercept_only_equals_log_mean():
    X = np.ones((3, 1))
    y = np.array([2.0, 4.0, 6.0])
    model = fit_poisson_glm(X, y, ["intercept"])
    assert model.coefficients[0] == pytest.approx(math.log(4.0), abs=1e-10)
    assert model.score_norm < 1e-8


def test_fit_recovers_known_coefficients():
    rng = rng_for(123, 7)
    n = 800
    X = np.column_stack([np.ones(n), rng.uniform(-1, 1, n), rng.integers(0, 2, n).astype(float)])
    truth = np.array([3.0, 0.8, -0.4])
    y = rng.poisson(np.exp(X @ truth))
    model = fit_poisson_glm(X, y.astype(float))
    assert np.max(np.abs(model.coefficients - truth)) < 0.05
    assert model.score_norm < 1e-8


def test_deterministic_refit_is_bit_identical():
    rng = rng_for(5, 1)
    X = np.column_stack([np.ones(200), rng.normal(0, 1, 200)])
    y = rng.poisson(np.exp(1.5 + 0.3 * X[:, 1])).astype(float)
    a = fit_poisson_glm(X, y)
    b = fit_poisson_glm(X, y)
    assert a.bic == b.bic
    assert a.coefficients.tolist() == b.coefficients.tolist()


def _irls_oracle(X, y):
    """fit_poisson_glm's IRLS loop run without the fixed-point exit: (score_norm, coefficients, iteration)."""
    beta_hat = np.zeros(X.shape[1])
    beta_hat[0] = math.log(float(np.mean(y)) + 0.1)
    x_ext, y_ext = X.astype(np.longdouble), y.astype(np.longdouble)
    deviance, stalled, best = math.inf, False, None
    for iteration in range(1, _MAX_ITER + 1):
        mu_ext = np.exp(x_ext @ beta_hat.astype(np.longdouble))
        score = x_ext.T @ (y_ext - mu_ext)
        score_norm = float(np.max(np.abs(score)))
        if best is None or score_norm < best[0]:
            best = (score_norm, beta_hat.copy(), iteration)
        new_deviance = poisson_deviance(y, np.asarray(mu_ext, dtype=float))
        now_stalled = math.isfinite(deviance) and abs(deviance - new_deviance) <= _DEVIANCE_RTOL * max(abs(deviance), 1.0)
        deviance = new_deviance
        if score_norm < _SCORE_TOL:
            break
        if stalled and now_stalled and score_norm > best[0]:
            break
        stalled = now_stalled
        mu = np.exp(np.clip(X @ beta_hat, -30.0, 30.0))
        beta_hat = beta_hat + np.linalg.solve((X.T * mu) @ X, np.asarray(score, dtype=float))
    else:
        assert stalled
    return best


def _training_designs(train_dataset):
    open_daily = [r for r in train_dataset.daily if train_dataset.meta[r.date].is_open]
    metas = [train_dataset.meta[r.date] for r in open_daily]
    y = np.array([r.count for r in open_daily], dtype=float)
    return [(design_matrix(metas, spec)[0], y) for spec in DEFAULT_CANDIDATES]


def _random_designs():
    # Counts in the hundreds to thousands against a raw trend column: some
    # fits converge, others land on the score's double-precision floor.
    designs = []
    for seed in range(6):
        rng = rng_for(seed, 10)
        n, k = int(rng.integers(200, 600)), int(rng.integers(2, 5))
        X = np.column_stack([np.ones(n), np.arange(n, dtype=float)] + [rng.integers(0, 2, n).astype(float) for _ in range(k - 2)])
        truth = np.concatenate([[rng.uniform(5.0, 8.0), rng.uniform(-1e-3, 1e-3)], rng.normal(0.0, 0.2, k - 2)])
        designs.append((X, rng.poisson(np.exp(X @ truth)).astype(float)))
    return designs


def test_irls_fixed_point_exit_gives_the_full_loops_answer(train_dataset, monkeypatch):
    designs = _training_designs(train_dataset) + _random_designs()
    expected = [_irls_oracle(X, y) for X, y in designs]
    solve, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
    runs = []
    for (X, y), (score_norm, coefficients, n_iter) in zip(designs, expected):
        solves.clear()
        model = fit_poisson_glm(X, y)
        runs.append(len(solves))
        assert (model.score_norm, model.coefficients.tobytes(), model.n_iter) == (score_norm, coefficients.tobytes(), n_iter)
    # Without the exit, the fits on the score's floor repeat their last step
    # until _MAX_ITER: on the training set that is four of the five candidates.
    assert all(n < _MAX_ITER for n in runs), runs
    assert sum(e[0] >= _SCORE_TOL for e in expected) >= 4


@settings(max_examples=100, deadline=None)
@given(
    arrays(
        float,
        st.tuples(st.integers(1, 12), st.integers(1, 4)),
        # Ties, and finite values without -0.0, whose sort order against 0.0 is unspecified.
        elements=st.sampled_from([0.0, 0.25, 1 / 3, 0.5]) | st.floats(-1e3, 1e3).filter(lambda x: math.copysign(1.0, x) > 0 or x),
    )
)
def test_column_medians_equal_np_median(rows):
    assert _column_medians(rows).tobytes() == np.median(rows, axis=0).tobytes()


def test_fit_intensity_model_does_not_import_numpy_ma():
    # np.median imports numpy.ma (about 23 ms) the first time it runs.
    code = """
import sys
from datetime import date
from seasonal_cusum.intensity import fit_intensity_model
from seasonal_cusum.synthetic import sample_dataset, synthetic_model
ds = sample_dataset(synthetic_model(), date(2016, 1, 4), date(2016, 3, 31), seed=2)
model, report = fit_intensity_model(ds)
assert not report.profile_fallback and report.quartile_profiles
print("numpy.ma" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)}
    )
    assert done.stdout.strip() == "False"


def test_collinear_design_raises_with_names():
    # On weekday-only data the weekday flag duplicates the intercept.
    metas = [day_meta(date(2017, 1, 2) + timedelta(days=i)) for i in range(5)]
    assert all(m.is_weekday for m in metas)
    with pytest.raises(SingularDesignError) as err:
        fit_daily_glm(metas, [100, 110, 105, 98, 102], frozenset({WEEKDAY}))
    assert err.value.columns


def test_dependent_column_named_after_the_columns_it_depends_on():
    # Four Monday-to-Saturday weeks: weekday + dow_sat equals the intercept, and dow_sat
    # is the column lying in the span of the columns before it.
    metas = [day_meta(date(2017, 1, 2) + timedelta(days=i)) for i in range(28) if i % 7 != 6]
    with pytest.raises(SingularDesignError) as err:
        fit_daily_glm(metas, [100 + i for i in range(len(metas))], frozenset({WEEKDAY, DAY_OF_WEEK}))
    assert err.value.columns == ["dow_sat"]


def test_likelihood_and_deviance_match_scipy_oracle():
    from scipy.special import gammaln, xlogy

    rng = rng_for(7, 0)
    y = np.concatenate([[0.0, 0.0, 1.0, 200_000.0], rng.integers(0, 200_001, 500), rng.integers(0, 30, 500)]).astype(float)
    eta = np.log(y + 1.0) + rng.normal(0.0, 0.3, y.size)
    mu = np.exp(eta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loglik = poisson_log_likelihood(y, eta)
        deviance = poisson_deviance(y, mu)
    assert loglik == pytest.approx(float(np.sum(y * eta - mu - gammaln(y + 1.0))), rel=1e-12)
    assert deviance == pytest.approx(float(2.0 * np.sum(xlogy(y, y / mu) - (y - mu))), rel=1e-12)


def test_negative_counts_rejected():
    with pytest.raises(ValidationError):
        fit_poisson_glm(np.ones((3, 1)), np.array([1.0, -2.0, 3.0]))


def test_an_outlying_count_fails_the_fit_without_a_warning(train_dataset):
    # One daily count of 1.2e22 among about a thousand throws IRLS off: the
    # iterates overflow, then a weighted design goes singular. Each is a
    # ConvergenceError, so no candidate fits; warnings are errors in this suite.
    opens = [r for r in train_dataset.daily if train_dataset.meta[r.date].is_open]
    metas = [train_dataset.meta[r.date] for r in opens]
    counts = [r.count for r in opens]
    counts[0] = 12345678901234567890123
    with pytest.raises(ConvergenceError):
        fit_daily_glm(metas, counts, frozenset({WEEKDAY}))
    with pytest.raises(ValidationError, match="all candidate fits failed"):
        select_model(DEFAULT_CANDIDATES, metas, counts)


# --- BIC and model selection --------------------------------------------------

def test_bic_arithmetic():
    model = GlmModel(
        factor_spec=frozenset(),
        coefficients=np.zeros(1),
        column_names=("intercept",),
        log_likelihood=0.0,
        bic=bic_score(0.0, 1, round(math.e**2)),
        n_obs=round(math.e**2),
    )
    assert model.bic == pytest.approx(math.log(round(math.e**2)), rel=1e-12)
    assert bic_score(0.0, 1, 100) == pytest.approx(math.log(100.0))
    assert bic_score(-10.0, 2, 50) == pytest.approx(2 * math.log(50.0) + 20.0)


def test_richer_nested_model_wins_on_seasonal_data(truth_model, train_dataset):
    opens = [r for r in train_dataset.daily if train_dataset.meta[r.date].is_open]
    metas = [train_dataset.meta[r.date] for r in opens]
    counts = [r.count for r in opens]
    lean = fit_daily_glm(metas, counts, frozenset({WEEKDAY}))
    rich = fit_daily_glm(metas, counts, frozenset({WEEKDAY, MONTH}))
    assert rich.bic < lean.bic


def test_identical_specs_identical_bic(train_dataset):
    opens = [r for r in train_dataset.daily if train_dataset.meta[r.date].is_open]
    metas = [train_dataset.meta[r.date] for r in opens]
    counts = [r.count for r in opens]
    a = fit_daily_glm(metas, counts, frozenset({WEEKDAY}))
    b = fit_daily_glm(metas, counts, frozenset({WEEKDAY}))
    assert a.bic == b.bic


def test_select_model_single_candidate(train_dataset):
    opens = [r for r in train_dataset.daily if train_dataset.meta[r.date].is_open]
    metas = [train_dataset.meta[r.date] for r in opens]
    counts = [r.count for r in opens]
    model = select_model([frozenset({WEEKDAY})], metas, counts)
    assert model.factor_spec == frozenset({WEEKDAY})


def test_select_model_prefers_low_bic(train_dataset):
    opens = [r for r in train_dataset.daily if train_dataset.meta[r.date].is_open]
    metas = [train_dataset.meta[r.date] for r in opens]
    counts = [r.count for r in opens]
    best = select_model(DEFAULT_CANDIDATES, metas, counts)
    assert MONTH in best.factor_spec and DAY_OF_WEEK in best.factor_spec


def test_select_model_all_fail():
    metas = [day_meta(date(2017, 1, 2) + timedelta(days=i)) for i in range(4)]
    with pytest.raises(ValidationError):
        select_model([frozenset({WEEKDAY})], metas, [10, 11, 12, 13])  # collinear on weekdays only


# --- slot profile -------------------------------------------------------------

def _full_day(d: date, counts: list[int]) -> list[SlotRecord]:
    from seasonal_cusum.daycal import slot_start

    return [SlotRecord(d, slot_start(k), c) for k, c in enumerate(counts)]


def test_uniform_days_give_uniform_profile():
    weekday_counts = [10] * 22
    saturday_counts = [30] * 10
    records = _full_day(date(2017, 1, 2), weekday_counts) + _full_day(date(2017, 1, 7), saturday_counts)
    ds = build_dataset(slots=records)
    profile = fit_slot_profile(ds.slots, ds.meta)
    assert profile.weekday_fractions == pytest.approx([1 / 22] * 22)
    assert profile.saturday_fractions == pytest.approx([1 / 10] * 10)


def test_single_day_fractions():
    counts = [0] * 22
    counts[0], counts[1] = 10, 30
    records = _full_day(date(2017, 1, 2), counts) + _full_day(date(2017, 1, 7), [1] * 10)
    ds = build_dataset(slots=records)
    profile = fit_slot_profile(ds.slots, ds.meta)
    assert profile.weekday_fractions[0] == pytest.approx(0.25)
    assert profile.weekday_fractions[1] == pytest.approx(0.75)


def test_profile_requires_positive_totals():
    records = _full_day(date(2017, 1, 2), [0] * 22) + _full_day(date(2017, 1, 7), [0] * 10)
    ds = build_dataset(slots=records)
    with pytest.raises(ValidationError):
        fit_slot_profile(ds.slots, ds.meta)


def test_saturday_fraction_twice_weekday_under_shared_shape(truth_model):
    # Ground truth: morning mass is exactly half, so Saturday = 2x weekday.
    ds = sample_dataset(truth_model, date(2017, 1, 2), date(2017, 6, 30), seed=3)
    profile = fit_slot_profile(ds.slots, ds.meta)
    ratios = [s / w for s, w in zip(profile.saturday_fractions, profile.weekday_fractions[:10])]
    assert np.mean(ratios) == pytest.approx(2.0, rel=0.1)


def test_profile_fractions_validation():
    with pytest.raises(ValidationError):
        SlotProfile(weekday_fractions=tuple([0.5] * 22), saturday_fractions=tuple([0.1] * 10))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_profile_fractions_must_be_finite(bad):
    # NaN fails both the sign and the sum test, so it needs its own.
    weekday = list(SlotProfile.uniform().weekday_fractions)
    weekday[3] = bad
    with pytest.raises(ValidationError, match="finite"):
        SlotProfile(weekday_fractions=tuple(weekday), saturday_fractions=SlotProfile.uniform().saturday_fractions)


# --- quartile diagnostic --------------------------------------------------------

def test_quartiles_identical_shape_agree():
    base = [10, 30] + [5] * 20
    records = []
    d = date(2017, 1, 2)
    made = 0
    while made < 8:
        if day_meta(d).is_weekday:
            scale = made + 1
            records += _full_day(d, [c * scale for c in base])
            made += 1
        d += timedelta(days=1)
    ds = build_dataset(slots=records)
    quartiles = busyness_quartile_check(ds.slots, ds.meta)
    assert [q.day_count for q in quartiles] == [2, 2, 2, 2]
    for q in quartiles[1:]:
        assert q.fractions == pytest.approx(quartiles[0].fractions)


def test_quartiles_expose_busy_morning_spike():
    records = []
    d = date(2017, 1, 2)
    made = 0
    while made < 16:
        if day_meta(d).is_weekday:
            total = 100 * (made + 1)
            counts = [total // 22] * 22
            if made >= 12:  # busiest days get a deliberate morning spike
                counts[2] += total
            records += _full_day(d, counts)
            made += 1
        d += timedelta(days=1)
    ds = build_dataset(slots=records)
    quartiles = busyness_quartile_check(ds.slots, ds.meta)
    assert quartiles[3].fractions[2] > quartiles[0].fractions[2]


def test_quartiles_need_eight_days():
    records = _full_day(date(2017, 1, 2), [1] * 22)
    ds = build_dataset(slots=records)
    with pytest.raises(ValidationError):
        busyness_quartile_check(ds.slots, ds.meta)


# --- intensity model surface ----------------------------------------------------

def test_slot_intensity_multiplies_profile(truth_model):
    d = date(2018, 1, 8)
    daily = truth_model.daily_mean(d)
    frac = truth_model.profile.weekday_fractions[3]
    assert truth_model.slot_rate(d, 3) == pytest.approx(daily * frac)


def test_slot_intensity_zero_when_closed(truth_model):
    assert truth_model.slot_rate(date(2018, 1, 7), 3) == 0.0  # Sunday
    assert truth_model.slot_rate(date(2018, 1, 13), 15) == 0.0  # Saturday afternoon


def test_slot_rate_equals_slot_rates_lookup(truth_model, monkeypatch):
    # Four weeks around the 2017-05-01 holiday and the days around 2017-08-15:
    # holidays, Sundays, Saturday tails and, for the scenario model, the
    # postponed Tuesday mornings of 2017-04-25 and 2017-05-16.
    days = [date(2017, 4, 24) + timedelta(days=i) for i in range(28)]
    days += [date(2017, 8, 14) + timedelta(days=i) for i in range(3)]
    slot_rates = IntensityModel.slot_rates
    computed = []
    monkeypatch.setattr(IntensityModel, "slot_rates", lambda self, d: computed.append(d) or slot_rates(self, d))

    def read_every_slot_twice(model):
        zeros = 0
        for d in days:
            meta, rates = model.meta(d), slot_rates(model, d)
            for index in range(22):
                open_slot = meta.is_open and index < meta.open_slot_count
                expected = float(rates[index]) if open_slot else 0.0
                first, again = model.slot_rate(d, index), model.slot_rate(d, index)
                assert repr(first) == repr(again) == repr(expected), (model.kind, d, index)
                zeros += expected == 0.0
        return zeros

    # A replace copy starts with an empty memo, so the first read of each day
    # is a miss; every slot is read before the copies below are derived.
    model = replace(truth_model)
    zeros = read_every_slot_twice(model)
    scenario = model.with_scenario(ScenarioSchedule(anchor=date(2017, 4, 25)))
    for copy in (model.as_naive(), scenario):
        zeros += read_every_slot_twice(copy)
    assert computed == days * 3  # one computation per day and model, hits included
    assert repr(model) == repr(truth_model) and model == truth_model
    assert scenario.slot_rate(date(2017, 5, 16), 0) == 0.0 < model.slot_rate(date(2017, 5, 16), 0)
    assert zeros > 3 * 22 * 3  # closed days and Saturday tails in every model


def test_daily_prediction_equals_slot_sum(truth_model):
    for d in (date(2018, 1, 8), date(2018, 1, 13)):
        rates = truth_model.slot_rates(d)
        assert rates.sum() == pytest.approx(truth_model.daily_mean(d), rel=1e-12)


def test_naive_baseline_constant_on_every_open_slot(truth_model):
    naive = truth_model.as_naive()
    rate = naive.constant_rate
    assert naive.slot_rates(date(2018, 1, 8)).tolist() == [rate] * 22
    assert naive.slot_rates(date(2018, 1, 13)).tolist() == [rate] * 10
    assert naive.daily_mean(date(2018, 1, 8)) == pytest.approx(rate * 22)


def test_constant_rate_from_slot_data(train_dataset):
    rate = fit_constant_rate(train_dataset)
    counts = [r.count for r in train_dataset.slots]
    assert rate == pytest.approx(np.mean(counts))


def test_cumulative_intensity_examples(truth_model):
    d = date(2018, 1, 8)
    rate3 = truth_model.slot_rate(d, 3)
    tl = truth_model.timeline([d, date(2018, 1, 9)])

    def cumulative(start: datetime, end: datetime) -> float:
        return tl.cumulative(tl.locate(start.date(), start.time()), tl.locate(end.date(), end.time()))

    a = datetime(2018, 1, 8, 9, 0)
    assert cumulative(a, a) == 0.0
    assert cumulative(a, datetime(2018, 1, 8, 9, 30)) == pytest.approx(rate3)
    # Half of slot 3 plus half of slot 4.
    mid = cumulative(datetime(2018, 1, 8, 9, 15), datetime(2018, 1, 8, 9, 45))
    assert mid == pytest.approx(0.5 * rate3 + 0.5 * truth_model.slot_rate(d, 4))
    # Overnight spans contribute nothing between close and open.
    overnight = cumulative(datetime(2018, 1, 8, 18, 30), datetime(2018, 1, 9, 7, 30))
    assert overnight == 0.0


def test_positive_means_everywhere(truth_model):
    d = date(2018, 1, 8)
    assert truth_model.daily_mean(d) > 0
    assert all(r > 0 for r in truth_model.slot_rates(d))


def test_model_persistence_round_trip(tmp_path, truth_model, train_dataset):
    model, report = fit_intensity_model(train_dataset)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = IntensityModel.load(path)
    assert loaded.glm.coefficients.tolist() == model.glm.coefficients.tolist()
    assert loaded.profile == model.profile
    assert loaded.constant_rate == model.constant_rate
    assert loaded.glm.bic == model.glm.bic
    d = date(2018, 2, 5)
    assert loaded.daily_mean(d) == model.daily_mean(d)



def test_scenario_model_persistence_round_trip(tmp_path, truth_model):
    model = truth_model.with_scenario(ScenarioSchedule(anchor=date(2018, 1, 2), every=2))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = IntensityModel.load(path)
    assert loaded.scenario == model.scenario
    days = [date(2018, 1, 1) + timedelta(days=i) for i in range(28)]
    rates = [[m.slot_rate(d, k) for d in days for k in range(22)] for m in (model, loaded)]
    assert rates[0] == rates[1]
    # Two postponed mornings (Jan 2 and 16) against the plain model's busy ones.
    for d in (date(2018, 1, 2), date(2018, 1, 16)):
        assert loaded.slot_rate(d, 0) == 0.0 < truth_model.slot_rate(d, 0)
    assert loaded.slot_rate(date(2018, 1, 9), 0) == truth_model.slot_rate(date(2018, 1, 9), 0) > 0.0

def test_model_with_nan_coefficient_rejected_at_load(truth_model):
    doc = truth_model.to_dict()
    doc["glm"]["coefficients"][1] = math.nan
    with pytest.raises(ValidationError):
        IntensityModel.from_dict(doc)


def test_overflowing_daily_mean_names_the_date(truth_model):
    coefficients = truth_model.glm.coefficients.copy()
    coefficients[0] = 1000.0
    model = replace(truth_model, glm=replace(truth_model.glm, coefficients=coefficients))
    d = date(2018, 1, 3)
    for call in (model.daily_mean, model.slot_rates, lambda d: model.slot_rate(d, 0), lambda d: model.timeline([d])):
        with pytest.raises(ValidationError, match="2018-01-03 is past numpy's Poisson limit"):
            call(d)

    def with_mean(target):
        coefficients[0] = truth_model.glm.coefficients[0] + math.log(target / truth_model.daily_mean(d))
        return replace(model, glm=replace(model.glm, coefficients=coefficients))

    # numpy's Poisson limit is about 9.2e18: a mean just under it passes and can be sampled, one just over fails.
    np.random.default_rng(0).poisson(with_mean(9.2e18).daily_mean(d))
    with pytest.raises(ValidationError, match="2018-01-03 is past numpy's Poisson limit"):
        with_mean(9.3e18).daily_mean(d)


def test_fit_intensity_model_report(train_dataset):
    model, report = fit_intensity_model(train_dataset)
    # The raw trend column (hundreds) times call volume (thousands) puts the
    # double-precision floor of the score near 1e-7; the fit lands on it.
    assert model.glm.score_norm < 5e-7
    assert len(report.candidates) == 5
    assert report.selected == model.glm.factor_spec
    assert not report.profile_fallback
    assert len(report.quartile_profiles) == 4
    bics = [c.model.bic for c in report.candidates if c.model is not None]
    assert min(bics) == model.glm.bic


def test_fit_intensity_model_daily_only(train_dataset):
    daily_only = build_dataset(
        daily=train_dataset.daily,
        holidays=train_dataset.holidays,
        origin=train_dataset.origin,
    )
    model, report = fit_intensity_model(daily_only)
    assert report.profile_fallback
    assert model.profile == SlotProfile.uniform()
