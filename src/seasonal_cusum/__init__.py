"""Quickest detection of proportional intensity changes in seasonal count data.

Names load on first use (PEP 562): `import seasonal_cusum` imports no
submodule, and so no numpy, until one of its names is read.
"""

import importlib

__version__ = "0.1.0"

# Each submodule, with the names it exports from the package.
_EXPORTS = {
    "calibrate": ("CalibrationResult", "CalibrationTarget", "calibrate_threshold", "estimate_arl"),
    "cli": (),
    "daycal": ("DayMeta", "ScenarioSchedule", "day_meta", "read_holidays"),
    "detect": (
        "AlarmEvent",
        "CusumState",
        "DetectorConfig",
        "beta",
        "double_sided_run",
        "run_aggregated",
        "run_detector",
        "run_events",
        "step_aggregated",
        "step_events",
    ),
    "errors": ("SeasonalCusumError",),
    "evaluate": ("DelayReport", "detection_delay", "exceedance_fraction", "worst_case_delay"),
    "ingest": (
        "DailyRecord",
        "Dataset",
        "SlotRecord",
        "load_dataset",
        "parse_daily_csv",
        "parse_slot_csv",
        "split_train_test",
    ),
    "intensity": (
        "GlmModel",
        "IntensityModel",
        "SlotProfile",
        "busyness_quartile_check",
        "encode_features",
        "fit_intensity_model",
        "fit_poisson_glm",
        "fit_slot_profile",
        "select_model",
    ),
    "simulate": (
        "ChangeSpec",
        "ScenarioTransform",
        "SimPath",
        "apply_scenario",
        "simulate_events",
        "simulate_slot_counts",
    ),
    "synthetic": (),
    "timeline": ("SlotTimeline",),
}

# Every name the package resolves lazily, exported name or submodule, to its module.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
