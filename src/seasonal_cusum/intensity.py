"""Seasonal arrival-rate model: daily Poisson GLM, slot profile, intensity surface.

The daily count model is a log-link Poisson regression over calendar
factors, fitted by iteratively reweighted least squares and compared by
BIC. Daily predictions are spread over half-hour slots with a per-slot
median-fraction profile, giving a piecewise-constant rate surface whose
timeline (`SlotTimeline`) integrates it over any interval. A constant-rate baseline (the
training mean per open half hour) is kept alongside for comparison runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .daycal import (
    MORNING_SLOT_COUNT,
    SATURDAY_SLOT_COUNT,
    WEEKDAY_SLOT_COUNT,
    DayMeta,
    ScenarioSchedule,
    day_meta,
)
from .errors import (
    ConvergenceError,
    CoverageError,
    SingularDesignError,
    ValidationError,
)
from .ingest import Dataset, SlotRecord
from .timeline import SlotTimeline

MODEL_SCHEMA_VERSION = 1

# Factor vocabulary for the daily GLM.
WEEKDAY = "weekday"
TREND = "trend"
MONTH = "month"
DAY_OF_WEEK = "day_of_week"
DAY_AFTER_HOLIDAY = "day_after_holiday"
ALL_FACTORS = (WEEKDAY, TREND, MONTH, DAY_OF_WEEK, DAY_AFTER_HOLIDAY)

# Default candidate ladder, from a bare weekday flag up to the full factor set.
DEFAULT_CANDIDATES: tuple[frozenset[str], ...] = (
    frozenset({WEEKDAY}),
    frozenset({WEEKDAY, TREND}),
    frozenset({WEEKDAY, TREND, MONTH}),
    frozenset({TREND, MONTH, DAY_OF_WEEK}),
    frozenset({TREND, MONTH, DAY_OF_WEEK, DAY_AFTER_HOLIDAY}),
)

_MONTH_NAMES = ("jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec")
_DOW_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")


def feature_names(factor_spec: frozenset[str]) -> list[str]:
    """Column names of the design matrix, in canonical order."""
    unknown = factor_spec - set(ALL_FACTORS)
    if unknown:
        raise ValidationError(f"unknown factors: {sorted(unknown)}")
    names = ["intercept"]
    if WEEKDAY in factor_spec:
        names.append("weekday")
    if TREND in factor_spec:
        names.append("trend")
    if MONTH in factor_spec:
        # January is the reference level.
        names.extend(f"month_{_MONTH_NAMES[m - 1]}" for m in range(2, 13))
    if DAY_OF_WEEK in factor_spec:
        # Monday is the reference level; Sundays are closed and never fitted.
        names.extend(f"dow_{_DOW_NAMES[d]}" for d in range(1, 6))
    if DAY_AFTER_HOLIDAY in factor_spec:
        names.append("day_after_holiday")
    return names


def encode_features(meta: DayMeta, factor_spec: frozenset[str]) -> np.ndarray:
    """Encode one day's metadata into a design row (intercept always first)."""
    row = [1.0]
    if WEEKDAY in factor_spec:
        row.append(1.0 if meta.is_weekday else 0.0)
    if TREND in factor_spec:
        row.append(float(meta.days_since_origin))
    if MONTH in factor_spec:
        row.extend(1.0 if meta.month == m else 0.0 for m in range(2, 13))
    if DAY_OF_WEEK in factor_spec:
        row.extend(1.0 if meta.day_of_week == d else 0.0 for d in range(1, 6))
    if DAY_AFTER_HOLIDAY in factor_spec:
        row.append(1.0 if meta.is_day_after_holiday else 0.0)
    return np.array(row)


def design_matrix(metas: Sequence[DayMeta], factor_spec: frozenset[str]) -> tuple[np.ndarray, list[str]]:
    X = np.array([encode_features(m, factor_spec) for m in metas])
    return X, feature_names(factor_spec)


# The largest log mean whose exp is a finite float.
_MAX_LOG_MEAN = math.log(np.finfo(float).max)
# numpy's Poisson sampler refuses a mean above this (POISSON_LAM_MAX in
# numpy.random), and simulation and calibration draw every count from it.
_MAX_MEAN = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class GlmModel:
    """Fitted log-link Poisson regression for daily totals."""

    factor_spec: frozenset[str]
    coefficients: np.ndarray
    column_names: tuple[str, ...]
    log_likelihood: float
    bic: float
    n_obs: int
    score_norm: float = float("nan")
    n_iter: int = 0

    def predict_mean(self, meta: DayMeta) -> float:
        eta = float(encode_features(meta, self.factor_spec) @ self.coefficients)
        # NaN fails the comparisons too.
        mean = math.exp(eta) if eta <= _MAX_LOG_MEAN else math.inf
        if not mean <= _MAX_MEAN:
            raise ValidationError(
                f"predicted daily mean for {meta.date} is past numpy's Poisson limit {_MAX_MEAN:.4g} (log mean {eta!r})"
            )
        return mean


def bic_score(log_likelihood: float, k: int, n_obs: int) -> float:
    return k * math.log(n_obs) - 2.0 * log_likelihood


def poisson_log_likelihood(y: np.ndarray, eta: np.ndarray) -> float:
    log_factorial = np.array([math.lgamma(v + 1.0) for v in y.tolist()])
    return float(np.sum(y * eta - np.exp(eta) - log_factorial))


def poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    # y log(y / mu) is taken as 0 where y = 0, without evaluating log(0).
    ylogy = y * np.log(y / mu, out=np.zeros_like(y), where=y > 0)
    return float(2.0 * np.sum(ylogy - (y - mu)))


def _check_rank(X: np.ndarray, names: Sequence[str]) -> None:
    # |R_jj| of an unpivoted QR is column j's distance from the span of the
    # columns before it, so a (near-)zero diagonal names a dependent column.
    diag = np.abs(np.diag(np.linalg.qr(X, mode="r")))
    tol = diag.max() * max(X.shape) * np.finfo(float).eps if diag.size else 0.0
    bad = [names[j] for j in np.flatnonzero(diag <= tol)]
    if bad:
        raise SingularDesignError(bad)


# IRLS stopping rule: converged once the score max-norm drops below
# _SCORE_TOL, or stalled once the relative deviance change falls below
# _DEVIANCE_RTOL; _MAX_ITER iterations without either is a failure. A step
# that leaves the coefficients where they were, bit for bit, is a fixed
# point: every later iteration would repeat the last one, stalled exactly
# when its deviance is finite, so the loop stops there with their answer.
_MAX_ITER = 100
_SCORE_TOL = 1e-8
_DEVIANCE_RTOL = 1e-10


def fit_poisson_glm(
    X: np.ndarray,
    y: np.ndarray,
    column_names: Sequence[str] | None = None,
    factor_spec: frozenset[str] = frozenset(),
) -> GlmModel:
    """Maximum-likelihood fit by IRLS from a deterministic start.

    Returns the iterate with the smallest score max-norm once the score
    converges, the deviance stalls or a step no longer moves the
    coefficients (see the stopping rule above).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValidationError("X must be (n, k) and y (n,) with matching n")
    if np.any(y < 0):
        raise ValidationError("counts must be nonnegative")
    n, k = X.shape
    names = list(column_names) if column_names is not None else [f"x{i}" for i in range(k)]
    if n < k:
        raise SingularDesignError(names)
    _check_rank(X, names)

    # Start at the intercept-only estimate; +0.1 keeps the log finite on all-zero data.
    beta_hat = np.zeros(k)
    beta_hat[0] = math.log(float(np.mean(y)) + 0.1)

    # Residuals are evaluated in extended precision: near the optimum the
    # score is pure cancellation and double-precision evaluation floors well
    # above _SCORE_TOL on large designs.
    x_ext = X.astype(np.longdouble)
    y_ext = y.astype(np.longdouble)

    deviance = math.inf
    stalled = False
    best: tuple[float, np.ndarray, int] | None = None
    # An iterate thrown off by an outlying count overflows: its score or deviance is not
    # finite, which the stopping rule never accepts, so the fit raises ConvergenceError.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
                break  # bouncing on the representable floor; keep the best iterate
            stalled = now_stalled

            eta = np.clip(X @ beta_hat, -30.0, 30.0)
            mu = np.exp(eta)
            xtw = X.T * mu
            try:
                stepped = beta_hat + np.linalg.solve(xtw @ X, np.asarray(score, dtype=float))
            except np.linalg.LinAlgError:
                raise ConvergenceError("IRLS step has a singular weighted design", deviance) from None
            if iteration < _MAX_ITER and stepped.tobytes() == beta_hat.tobytes():
                # A fixed point (see the stopping rule): what the later iterations would find.
                stalled = math.isfinite(deviance)
                break
            beta_hat = stepped
    if not (score_norm < _SCORE_TOL or stalled):
        raise ConvergenceError(f"IRLS did not converge in {_MAX_ITER} iterations", deviance)
    score_norm, beta_hat, iteration = best

    eta = X @ beta_hat
    loglik = poisson_log_likelihood(y, eta)
    return GlmModel(
        factor_spec=factor_spec,
        coefficients=beta_hat,
        column_names=tuple(names),
        log_likelihood=loglik,
        bic=bic_score(loglik, k, n),
        n_obs=n,
        score_norm=score_norm,
        n_iter=iteration,
    )


def fit_daily_glm(metas: Sequence[DayMeta], counts: Sequence[int], factor_spec: frozenset[str]) -> GlmModel:
    X, names = design_matrix(metas, factor_spec)
    return fit_poisson_glm(X, np.asarray(counts, dtype=float), names, factor_spec=factor_spec)


@dataclass(frozen=True)
class CandidateFit:
    factor_spec: frozenset[str]
    model: GlmModel | None
    error: str | None


def fit_candidates(
    metas: Sequence[DayMeta],
    counts: Sequence[int],
    candidates: Sequence[frozenset[str]],
) -> list[CandidateFit]:
    fits = []
    for spec in candidates:
        try:
            fits.append(CandidateFit(spec, fit_daily_glm(metas, counts, spec), None))
        except (SingularDesignError, ConvergenceError, ValidationError) as exc:
            fits.append(CandidateFit(spec, None, str(exc)))
    return fits


def select_model(
    candidates: Sequence[frozenset[str]],
    metas: Sequence[DayMeta],
    counts: Sequence[int],
) -> GlmModel:
    """Fit every candidate factor set and return the lowest-BIC model.

    Ties break toward fewer coefficients.
    """
    return _lowest_bic(fit_candidates(metas, counts, candidates))


def _lowest_bic(fits: Sequence[CandidateFit]) -> GlmModel:
    fitted = [f.model for f in fits if f.model is not None]
    if not fitted:
        details = "; ".join(f"{sorted(f.factor_spec)}: {f.error}" for f in fits)
        raise ValidationError(f"all candidate fits failed: {details}")
    return min(fitted, key=lambda m: (m.bic, len(m.coefficients)))


@dataclass(frozen=True)
class SlotProfile:
    """Fraction of a day's calls in each half-hour slot (weekday and Saturday grids)."""

    weekday_fractions: tuple[float, ...]
    saturday_fractions: tuple[float, ...]

    def __post_init__(self):
        if len(self.weekday_fractions) != WEEKDAY_SLOT_COUNT:
            raise ValidationError(f"weekday profile needs {WEEKDAY_SLOT_COUNT} fractions")
        if len(self.saturday_fractions) != SATURDAY_SLOT_COUNT:
            raise ValidationError(f"saturday profile needs {SATURDAY_SLOT_COUNT} fractions")
        for fr in (self.weekday_fractions, self.saturday_fractions):
            if not all(0 <= f < math.inf for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
                raise ValidationError("profile fractions must be finite, nonnegative and sum to 1")

    @classmethod
    def uniform(cls) -> "SlotProfile":
        return cls(
            weekday_fractions=tuple([1.0 / WEEKDAY_SLOT_COUNT] * WEEKDAY_SLOT_COUNT),
            saturday_fractions=tuple([1.0 / SATURDAY_SLOT_COUNT] * SATURDAY_SLOT_COUNT),
        )

    def fractions_for(self, meta: DayMeta) -> np.ndarray:
        if not meta.is_open:
            raise CoverageError(f"{meta.date} is closed")
        if meta.day_of_week == 5:
            return np.array(self.saturday_fractions)
        return np.array(self.weekday_fractions)


def _daily_fraction_rows(
    slots: Iterable[SlotRecord],
    meta: Mapping[date, DayMeta],
    want_saturday: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-day fraction vectors and day totals for one grid class.

    Only fully covered open days with a positive total qualify; partial or
    zero-total days cannot contribute a well-defined fraction vector.
    """
    grid = SATURDAY_SLOT_COUNT if want_saturday else WEEKDAY_SLOT_COUNT
    by_day: dict[date, dict[int, int]] = {}
    for rec in slots:
        m = meta.get(rec.date)
        if m is None:
            raise CoverageError(f"no metadata for {rec.date}")
        if not m.is_open or (m.day_of_week == 5) != want_saturday:
            continue
        by_day.setdefault(rec.date, {})[rec.slot_index] = rec.count
    rows = []
    totals = []
    for d in sorted(by_day):
        counts = by_day[d]
        if len(counts) != grid:
            continue
        vec = np.array([counts[i] for i in range(grid)], dtype=float)
        total = vec.sum()
        if total <= 0:
            continue
        rows.append(vec / total)
        totals.append(total)
    return np.array(rows), np.array(totals)


def _column_medians(rows: np.ndarray) -> np.ndarray:
    """np.median(rows, axis=0) of finite rows, bit for bit, without the numpy.ma import it makes."""
    ranked = np.sort(rows, axis=0)
    mid = len(ranked) // 2
    return ranked[mid] if len(ranked) % 2 else (ranked[mid - 1] + ranked[mid]) / 2.0


def fit_slot_profile(slots: Iterable[SlotRecord], meta: Mapping[date, DayMeta]) -> SlotProfile:
    """Median per-slot fraction of the day's calls, renormalized to sum to 1."""
    slots = list(slots)
    parts = {}
    for is_sat, label in ((False, "weekday"), (True, "Saturday")):
        rows, _ = _daily_fraction_rows(slots, meta, is_sat)
        if rows.size == 0:
            raise ValidationError(f"no usable {label} days with positive totals")
        med = _column_medians(rows)
        parts[label] = tuple(med / med.sum())
    return SlotProfile(weekday_fractions=parts["weekday"], saturday_fractions=parts["Saturday"])


@dataclass(frozen=True)
class QuartileProfile:
    quartile: int  # 1 = quietest days
    day_count: int
    total_range: tuple[float, float]
    fractions: tuple[float, ...]


def busyness_quartile_check(slots: Iterable[SlotRecord], meta: Mapping[date, DayMeta]) -> list[QuartileProfile]:
    """Median weekday slot fractions with days grouped by daily-total quartile.

    A diagnostic for the assumption that the intraday shape does not depend
    on how busy the day is; compare the four rows by eye or by test.
    """
    rows, totals = _daily_fraction_rows(list(slots), meta, want_saturday=False)
    if len(rows) < 8:
        raise ValidationError(f"need at least 8 days for a quartile split, got {len(rows)}")
    order = np.argsort(totals, kind="stable")
    out = []
    for q, idx in enumerate(np.array_split(order, 4), start=1):
        group = rows[idx]
        group_totals = totals[idx]
        out.append(
            QuartileProfile(
                quartile=q,
                day_count=len(idx),
                total_range=(float(group_totals.min()), float(group_totals.max())),
                fractions=tuple(_column_medians(group)),
            )
        )
    return out


def fit_constant_rate(dataset: Dataset) -> float:
    """Training mean calls per open half hour (the naive baseline rate)."""
    if dataset.slots:
        usable = [r for r in dataset.slots if dataset.meta[r.date].is_open]
        if usable:
            return float(np.mean([r.count for r in usable]))
    total = sum(r.count for r in dataset.daily if dataset.meta[r.date].is_open)
    open_slots = sum(dataset.meta[r.date].open_slot_count for r in dataset.daily)
    if open_slots == 0:
        raise ValidationError("no open slots in dataset")
    return total / open_slots


@dataclass(frozen=True)
class IntensityModel:
    """Deterministic seasonal rate surface: zero when closed, constant on slots.

    `slot_rate` computes a day's rates once per model and keeps them, keyed
    by date, in a memo of its own: about 0.6 kB per day on average, so
    about 0.23 MB for a year (measured with tracemalloc). Copies made with
    `dataclasses.replace` (`as_naive`, `with_scenario`) start with an empty
    memo, and the memo takes no part in equality or `repr`.
    """

    kind: str  # "seasonal" or "constant"
    profile: SlotProfile
    holidays: frozenset[date]
    origin: date
    glm: GlmModel | None = None
    constant_rate: float | None = None
    scenario: ScenarioSchedule | None = None
    _day_rates: dict[date, tuple[float, ...]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("seasonal", "constant"):
            raise ValidationError(f"unknown model kind {self.kind!r}")
        if self.kind == "seasonal" and self.glm is None:
            raise ValidationError("seasonal model requires a fitted GLM")
        if self.kind == "constant" and self.constant_rate is None:
            raise ValidationError("constant model requires a rate")

    def meta(self, d: date) -> DayMeta:
        return day_meta(d, self.holidays, self.origin)

    def daily_mean(self, d: date) -> float:
        m = self.meta(d)
        if not m.is_open:
            return 0.0
        if self.kind == "constant":
            return self.constant_rate * m.open_slot_count
        return self.glm.predict_mean(m)

    def _scenario_applies(self, m: DayMeta) -> bool:
        return (
            self.scenario is not None
            and m.is_open
            and m.day_of_week != 5
            and self.scenario.is_affected(m.date)
        )

    def slot_rates(self, d: date) -> np.ndarray:
        """Expected calls per open slot of the day (empty array when closed)."""
        m = self.meta(d)
        if not m.is_open:
            return np.zeros(0)
        if self.kind == "constant":
            return np.full(m.open_slot_count, self.constant_rate)
        fractions = self.profile.fractions_for(m)
        if self._scenario_applies(m):
            # Mornings postponed: zero before the boundary, the full day spread
            # over the afternoon in proportion to the normal afternoon shape.
            fractions = fractions.copy()
            afternoon = fractions[MORNING_SLOT_COUNT:]
            fractions[:MORNING_SLOT_COUNT] = 0.0
            fractions[MORNING_SLOT_COUNT:] = afternoon / afternoon.sum()
        return self.glm.predict_mean(m) * fractions

    def slot_rate(self, d: date, index: int) -> float:
        """Expected calls in grid slot `index` of the day; 0.0 in a closed slot."""
        if not 0 <= index < WEEKDAY_SLOT_COUNT:
            raise ValidationError(f"slot index {index} outside [0, {WEEKDAY_SLOT_COUNT})")
        rates = self._day_rates.get(d)
        if rates is None:
            rates = self._day_rates[d] = tuple(self.slot_rates(d).tolist())
        return rates[index] if index < len(rates) else 0.0

    def timeline(self, dates: Sequence[date]) -> SlotTimeline:
        """Open slots of the given dates strung on the open-time axis (unit slots)."""
        days = sorted(dates)
        rates = [self.slot_rates(d) for d in days]
        per_day = [len(r) for r in rates]
        n = sum(per_day)
        if not n:
            raise CoverageError("no open slots in the requested dates")
        return SlotTimeline(
            np.ones(n),
            np.concatenate(rates),
            days=np.repeat(np.array(days, dtype="datetime64[D]"), per_day),
            grid=np.concatenate([np.arange(c) for c in per_day]),
        )

    def as_naive(self) -> "IntensityModel":
        if self.constant_rate is None:
            raise ValidationError("model carries no constant baseline rate")
        return replace(self, kind="constant", scenario=None)

    def with_scenario(self, schedule: ScenarioSchedule | None) -> "IntensityModel":
        return replace(self, scenario=schedule)

    def to_dict(self) -> dict:
        doc = {
            "schema_version": MODEL_SCHEMA_VERSION,
            "kind": self.kind,
            "origin": self.origin.isoformat(),
            "holidays": sorted(d.isoformat() for d in self.holidays),
            "profile": {
                "weekday_fractions": list(self.profile.weekday_fractions),
                "saturday_fractions": list(self.profile.saturday_fractions),
            },
            "constant_rate": self.constant_rate,
        }
        if self.glm is not None:
            doc["glm"] = {
                "factor_spec": sorted(self.glm.factor_spec),
                "coefficients": self.glm.coefficients.tolist(),
                "column_names": list(self.glm.column_names),
                "log_likelihood": self.glm.log_likelihood,
                "bic": self.glm.bic,
                "n_obs": self.glm.n_obs,
            }
        if self.scenario is not None:
            doc["scenario"] = {"anchor": self.scenario.anchor.isoformat(), "every": self.scenario.every}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "IntensityModel":
        try:
            if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
                raise ValidationError(f"unsupported model schema {doc.get('schema_version')!r}")
            glm = None
            if "glm" in doc:
                g = doc["glm"]
                coefficients = np.array(g["coefficients"], dtype=float)
                if not np.all(np.isfinite(coefficients)):
                    raise ValidationError("model GLM coefficients must be finite")
                factor_spec = frozenset(g["factor_spec"])
                names = feature_names(factor_spec)
                if list(g["column_names"]) != names:
                    raise ValidationError(f"GLM columns {g['column_names']} do not match factors {sorted(factor_spec)}")
                if coefficients.shape != (len(names),):
                    raise ValidationError(f"GLM has {coefficients.size} coefficients for {len(names)} columns")
                glm = GlmModel(
                    factor_spec=factor_spec,
                    coefficients=coefficients,
                    column_names=tuple(names),
                    log_likelihood=g["log_likelihood"],
                    bic=g["bic"],
                    n_obs=g["n_obs"],
                )
            rate = doc.get("constant_rate")
            # NaN fails the comparison too.
            if rate is not None and not 0 < rate < math.inf:
                raise ValidationError(f"constant rate must be positive and finite, got {rate}")
            scenario = None
            if "scenario" in doc:
                scenario = ScenarioSchedule(
                    anchor=date.fromisoformat(doc["scenario"]["anchor"]),
                    every=doc["scenario"]["every"],
                )
            return cls(
                kind=doc["kind"],
                profile=SlotProfile(
                    weekday_fractions=tuple(doc["profile"]["weekday_fractions"]),
                    saturday_fractions=tuple(doc["profile"]["saturday_fractions"]),
                ),
                holidays=frozenset(date.fromisoformat(s) for s in doc["holidays"]),
                origin=date.fromisoformat(doc["origin"]),
                glm=glm,
                constant_rate=rate,
                scenario=scenario,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ValidationError(f"malformed model: {detail}") from None

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "IntensityModel":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (UnicodeDecodeError, json.JSONDecodeError, ValidationError) as exc:
            raise ValidationError(f"model file {path}: {exc}") from None


@dataclass(frozen=True)
class FitReport:
    """Everything the fit step learned, for the report file."""

    candidates: list[CandidateFit]
    selected: frozenset[str]
    n_train_days: int
    constant_rate: float
    quartile_profiles: list[QuartileProfile] = field(default_factory=list)
    profile_fallback: bool = False

    def to_dict(self) -> dict:
        return {
            "bic_table": [
                {
                    "factors": sorted(c.factor_spec),
                    "bic": None if c.model is None else c.model.bic,
                    "log_likelihood": None if c.model is None else c.model.log_likelihood,
                    "n_coefficients": None if c.model is None else len(c.model.coefficients),
                    "error": c.error,
                }
                for c in self.candidates
            ],
            "selected_factors": sorted(self.selected),
            "n_train_days": self.n_train_days,
            "constant_rate": self.constant_rate,
            "profile_fallback_uniform": self.profile_fallback,
            "quartile_profiles": [
                {
                    "quartile": q.quartile,
                    "day_count": q.day_count,
                    "total_range": list(q.total_range),
                    "fractions": list(q.fractions),
                }
                for q in self.quartile_profiles
            ],
        }


def fit_intensity_model(train: Dataset) -> tuple[IntensityModel, FitReport]:
    """Fit the full intensity model on a training dataset.

    The GLM selects among `DEFAULT_CANDIDATES` on open days with daily
    totals; gap dates simply carry no rows.
    Without slot data the profile falls back to uniform.
    """
    open_daily = [r for r in train.daily if train.meta[r.date].is_open]
    if not open_daily:
        raise ValidationError("training set has no open days with daily counts")
    metas = [train.meta[r.date] for r in open_daily]
    counts = [r.count for r in open_daily]
    fits = fit_candidates(metas, counts, DEFAULT_CANDIDATES)
    best = _lowest_bic(fits)

    fallback = False
    quartiles: list[QuartileProfile] = []
    try:
        profile = fit_slot_profile(train.slots, train.meta)
    except ValidationError:
        profile = SlotProfile.uniform()
        fallback = True
    if not fallback:
        try:
            quartiles = busyness_quartile_check(train.slots, train.meta)
        except ValidationError:
            quartiles = []

    model = IntensityModel(
        kind="seasonal",
        profile=profile,
        holidays=train.holidays,
        origin=train.origin,
        glm=best,
        constant_rate=fit_constant_rate(train),
    )
    report = FitReport(
        candidates=fits,
        selected=best.factor_spec,
        n_train_days=len(open_daily),
        constant_rate=model.constant_rate,
        quartile_profiles=quartiles,
        profile_fallback=fallback,
    )
    return model, report
