"""Quickest detection of proportional intensity changes in seasonal count data."""

__version__ = "0.1.0"

from .calibrate import CalibrationResult, CalibrationTarget, calibrate_threshold, estimate_arl
from .daycal import DayMeta, ScenarioSchedule, day_meta, read_holidays
from .detect import (
    AlarmEvent,
    CusumState,
    DetectorConfig,
    beta,
    double_sided_run,
    run_aggregated,
    run_detector,
    run_events,
    step_aggregated,
    step_events,
)
from .errors import SeasonalCusumError
from .evaluate import DelayReport, detection_delay, exceedance_fraction, worst_case_delay
from .ingest import (
    DailyRecord,
    Dataset,
    SlotRecord,
    load_dataset,
    parse_daily_csv,
    parse_slot_csv,
    split_train_test,
)
from .intensity import (
    GlmModel,
    IntensityModel,
    SlotProfile,
    busyness_quartile_check,
    encode_features,
    fit_intensity_model,
    fit_poisson_glm,
    fit_slot_profile,
    select_model,
)
from .simulate import (
    ChangeSpec,
    ScenarioTransform,
    SimPath,
    apply_scenario,
    simulate_events,
    simulate_slot_counts,
)
from .timeline import SlotTimeline

__all__ = [
    "AlarmEvent",
    "CalibrationResult",
    "CalibrationTarget",
    "ChangeSpec",
    "CusumState",
    "DailyRecord",
    "Dataset",
    "DayMeta",
    "DelayReport",
    "DetectorConfig",
    "GlmModel",
    "IntensityModel",
    "ScenarioSchedule",
    "ScenarioTransform",
    "SeasonalCusumError",
    "SimPath",
    "SlotProfile",
    "SlotRecord",
    "SlotTimeline",
    "apply_scenario",
    "beta",
    "busyness_quartile_check",
    "calibrate_threshold",
    "day_meta",
    "detection_delay",
    "double_sided_run",
    "encode_features",
    "estimate_arl",
    "exceedance_fraction",
    "fit_intensity_model",
    "fit_poisson_glm",
    "fit_slot_profile",
    "load_dataset",
    "parse_daily_csv",
    "parse_slot_csv",
    "read_holidays",
    "run_aggregated",
    "run_detector",
    "run_events",
    "select_model",
    "simulate_events",
    "simulate_slot_counts",
    "split_train_test",
    "step_aggregated",
    "step_events",
    "worst_case_delay",
]
