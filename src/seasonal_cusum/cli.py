"""Command-line pipeline: fit, calibrate, simulate, detect, evaluate.

Every command writes its artifacts plus a manifest (arguments, seeds,
schema versions) under the output directory; re-running with the same
manifest reproduces identical bytes. Figures are emitted as tidy CSVs for
external plotting. Exit codes: 0 ran (alarms are data, not failures),
2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from datetime import date, datetime, timedelta
from pathlib import Path

from . import __version__
from .calibrate import CalibrationResult, CalibrationTarget, SharedDraws, calibrate_threshold
from .daycal import DEFAULT_ORIGIN, read_holidays
from .detect import (
    AGGREGATED_COUNTS,
    DECREASE,
    EVENT_TIMES,
    INCREASE,
    DetectorConfig,
    double_sided_run,
    run_detector,
    write_alarms_jsonl,
    write_vpath_csv,
)
from .errors import (
    BracketingError,
    ConvergenceError,
    HorizonTooShortError,
    SeasonalCusumError,
    SingularDesignError,
    ValidationError,
)
from .evaluate import worst_case_delay, write_delay_report_json, write_delay_table_csv
from .ingest import load_dataset, parse_slot_csv, split_train_test, write_slot_csv
from .intensity import IntensityModel, fit_intensity_model
from .simulate import (
    POSTPONE_THIRD_TUESDAY,
    ChangeSpec,
    ScenarioTransform,
    apply_scenario,
    simulate_events,
    simulate_slot_counts,
)
from .timeline import SlotTimeline

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

MANIFEST_SCHEMA_VERSION = 1


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace) -> None:
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "arguments": {
            k: (v.isoformat() if isinstance(v, (date, datetime)) else v)
            for k, v in sorted(vars(args).items())
            if k != "func"
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_out(out: Path) -> None:
    """Refuse an --out that a finished run could not replace without losing data."""
    if out.is_symlink() or (out.exists() and not out.is_dir()):
        raise ValidationError(f"--out {out} exists and is not a directory")
    # The nearest existing ancestor must be a directory, or --out could never be created.
    ancestor = next(p for p in out.absolute().parents if os.path.lexists(p))
    if not ancestor.is_dir():
        raise ValidationError(f"--out {out} cannot be created: {ancestor} is not a directory")
    if out.is_dir() and not (out / "manifest.json").is_file() and any(out.iterdir()):
        raise ValidationError(f"--out {out} is not empty and holds no manifest.json; not replacing it")


@contextmanager
def _output(args, command: str):
    """A fresh sibling of --out for the command's files; it replaces --out once all are written."""
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    replaced = staging.with_name(staging.name + "-replaced")
    try:
        yield staging
        _write_manifest(staging, command, args)
        if out.exists():
            os.rename(out, replaced)
        os.rename(staging, out)
    finally:
        for path in (staging, replaced):
            shutil.rmtree(path, ignore_errors=True)


def _write_calibration(result: CalibrationResult, timeline: SlotTimeline, path: Path) -> None:
    doc = result.to_dict()
    # Convenience: the same budget expressed in open half-hours of calendar.
    doc["expected_open_halfhours_to_false_alarm"] = result.pi / (timeline.total_mean / timeline.total_time)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _date_range(start: date, days: int) -> list[date]:
    if days > (date.max - start).days + 1:
        raise ValidationError(f"--start-date {start} with --days {days} runs past {date.max}, the last date there is")
    return [start + timedelta(days=i) for i in range(days)]


def _load_model(args) -> IntensityModel:
    model = IntensityModel.load(args.model)
    return model.as_naive() if args.naive_lambda else model


def cmd_fit(args) -> int:
    holidays = read_holidays(args.holidays) if args.holidays else frozenset()
    dataset = load_dataset(args.daily, slot_path=args.slots, holidays=holidays, origin=args.origin)
    if args.split_date is not None:
        train, _ = split_train_test(dataset, args.split_date)
    else:
        train = dataset
    model, report = fit_intensity_model(train)
    with _output(args, "fit") as out:
        model.save(out / "model.json")
        (out / "fit_report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"selected factors: {sorted(report.selected)}")
    print(f"model written to {Path(args.out) / 'model.json'}")
    return EXIT_OK


def _detector(rho: float, threshold: float, mode: str, reset_on_alarm: bool = True) -> DetectorConfig:
    """The detector for a change by the factor rho: an increase above 1, a decrease below."""
    direction = INCREASE if rho > 1 else DECREASE
    return DetectorConfig(rho=rho, threshold_m=threshold, direction=direction, mode=mode, reset_on_alarm=reset_on_alarm)


def _calibrate(
    args,
    timeline: SlotTimeline,
    config: DetectorConfig,
    horizon_cap: float | None = None,
    draws: SharedDraws | None = None,
) -> CalibrationResult:
    """The threshold for the false-alarm budget --pi, from --replications paths seeded by --seed."""
    target = CalibrationTarget(pi=args.pi, replications=args.replications, horizon_cap=horizon_cap)
    return calibrate_threshold(timeline, config, target, seed=args.seed, draws=draws)


def cmd_detect(args) -> int:
    model = _load_model(args)
    series = list(parse_slot_csv(args.series))
    if args.scenario == POSTPONE_THIRD_TUESDAY:
        series = apply_scenario(series, ScenarioTransform(kind=POSTPONE_THIRD_TUESDAY))

    rhos, sides = [args.rho], [""]
    # --double-sided adds 1/rho, and the side above 1 detects the increase; rho <= 0 or NaN is refused below.
    if args.double_sided and args.rho > 0:
        rhos, sides = sorted([args.rho, 1.0 / args.rho], reverse=True), ["_up", "_down"]
    if args.pi is not None:
        timeline = model.timeline({r.date for r in series})
        # Every side's calibration reads one draw per replication.
        draws = SharedDraws([_detector(rho, 1.0, EVENT_TIMES) for rho in rhos])
    configs, calibrations = [], {}
    for rho, side in zip(rhos, sides):
        m = args.m
        if m is None:
            result = _calibrate(args, timeline, _detector(rho, 1.0, EVENT_TIMES), draws=draws)
            calibrations[f"calibration{side}.json"] = result
            m = result.threshold_m
        configs.append(_detector(rho, m, AGGREGATED_COUNTS, args.reset_on_alarm))

    if args.double_sided:
        *runs, alarms = double_sided_run(series, model, *configs)
    else:
        runs = [run_detector(series, model, *configs)]
        alarms = runs[0].alarms
    with _output(args, "detect") as out:
        for side, run in zip(sides, runs):
            write_vpath_csv(run.records, out / f"vpath{side}.csv")
        write_alarms_jsonl(alarms, out / "alarms.jsonl")
        for name, result in calibrations.items():
            _write_calibration(result, timeline, out / name)
    print(f"{len(alarms)} alarm(s); outputs in {Path(args.out)}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    model = _load_model(args)
    timeline = model.timeline(_date_range(args.start_date, args.days))
    config = _detector(args.rho, 1.0, AGGREGATED_COUNTS if args.aggregated else EVENT_TIMES)
    result = _calibrate(args, timeline, config, args.horizon_cap)
    with _output(args, "calibrate") as out:
        _write_calibration(result, timeline, out / "calibration.json")
    print(f"threshold m = {result.threshold_m!r} (ARL {result.arl_estimate:.1f} events)")
    return EXIT_OK


def _change_time(timeline: SlotTimeline, text: str) -> float:
    """Open-time position of a change time: an open-time float inside the timeline, or a naive ISO datetime."""
    text = text.strip()
    try:
        theta = float(text)
    except ValueError:
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise ValidationError(f"change time {text!r} is neither an open-time number nor an ISO datetime") from None
        if dt.tzinfo is not None:
            raise ValidationError(f"change time {text!r} has a UTC offset; times are local and naive")
        return timeline.locate(dt.date(), dt.time())
    # NaN fails the comparison too.
    if not timeline.starts[0] <= theta <= timeline.ends[-1]:
        raise ValidationError(f"change time {text} outside the timeline [{timeline.starts[0]}, {timeline.ends[-1]}]")
    return theta


def cmd_simulate(args) -> int:
    if args.events and args.scenario is not None:
        # The scenario rewrites the slot records after the draw; the event times cannot follow.
        raise ValidationError("--events cannot be combined with --scenario: events.csv would not match slots.csv")
    if args.theta is None and args.rho != 1.0:
        raise ValidationError(f"--rho {args.rho} needs --theta: without a change time the series is in control")
    model = _load_model(args)
    timeline = model.timeline(_date_range(args.start_date, args.days))
    change = ChangeSpec() if args.theta is None else ChangeSpec(theta=_change_time(timeline, args.theta), rho=args.rho)
    path = (simulate_events if args.events else simulate_slot_counts)(timeline, change, seed=args.seed)
    records = path.to_slot_records()
    if args.scenario == POSTPONE_THIRD_TUESDAY:
        records = apply_scenario(records, ScenarioTransform(kind=POSTPONE_THIRD_TUESDAY))
    sidecar = {
        "seed": args.seed,
        "change": {"theta": None if change.in_control else change.theta, "rho": change.rho},
        "scenario": args.scenario,
    }
    with _output(args, "simulate") as out:
        if args.events:
            lines = ["event_time"] + [repr(t) for t in path.event_times.tolist()]
            (out / "events.csv").write_text("\n".join(lines) + "\n")
        write_slot_csv(records, out / "slots.csv")
        (out / "sim_info.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"simulated series in {Path(args.out) / 'slots.csv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = _load_model(args)
    timeline = model.timeline(_date_range(args.start_date, args.days))
    thetas = [_change_time(timeline, tok) for tok in args.theta_grid.split(",")]
    config = _detector(args.rho, args.m, AGGREGATED_COUNTS, args.reset_on_alarm)
    report = worst_case_delay(
        timeline, theta_grid=thetas, config=config, replications=args.replications, seed=args.seed
    )
    with _output(args, "evaluate") as out:
        write_delay_report_json(report, out / "delay_report.json")
        write_delay_table_csv(report, out / "per_theta.csv")
    print(f"worst-case mean delay {report.worst_case_delay_events!r} events; report in {Path(args.out)}")
    return EXIT_OK


def _add_common_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seasonal-cusum",
        description="Quickest detection of proportional rate changes in seasonal count data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the seasonal intensity model from CSVs")
    p_fit.add_argument("--daily", required=True, help="daily counts CSV (date,count)")
    p_fit.add_argument("--slots", default=None, help="half-hour counts CSV (date,slot_start,count)")
    p_fit.add_argument("--holidays", default=None, help="holiday list, one ISO date per line")
    p_fit.add_argument("--split-date", type=date.fromisoformat, default=None)
    p_fit.add_argument("--origin", type=date.fromisoformat, default=DEFAULT_ORIGIN)
    _add_common_out(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    # Flags every model-reading command shares, defined once.
    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--model", required=True)
    model_flags.add_argument("--seed", type=int, default=0)
    model_flags.add_argument("--naive-lambda", action="store_true", help="constant baseline rate")
    span_flags = argparse.ArgumentParser(add_help=False)
    span_flags.add_argument("--start-date", type=date.fromisoformat, required=True)
    span_flags.add_argument("--days", type=int, required=True)

    p_cal = sub.add_parser(
        "calibrate", parents=[model_flags, span_flags], help="choose the alarm threshold for a false-alarm budget"
    )
    p_cal.add_argument("--rho", type=float, required=True)
    p_cal.add_argument("--pi", type=float, required=True, help="expected events to false alarm")
    p_cal.add_argument("--replications", type=int, default=2000)
    p_cal.add_argument("--horizon-cap", type=float, default=None)
    p_cal.add_argument("--aggregated", action="store_true", help="calibrate at half-hour granularity")
    _add_common_out(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_sim = sub.add_parser("simulate", parents=[model_flags, span_flags], help="draw a synthetic series from a model")
    p_sim.add_argument("--rho", type=float, default=1.0)
    p_sim.add_argument("--theta", default=None, help="change time: open-time float or ISO datetime")
    p_sim.add_argument("--events", action="store_true", help="also write exact event times")
    p_sim.add_argument("--scenario", choices=[POSTPONE_THIRD_TUESDAY], default=None)
    _add_common_out(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", parents=[model_flags], help="run the detector over a slot series")
    p_det.add_argument("--series", required=True, help="slot counts CSV")
    p_det.add_argument("--rho", type=float, required=True)
    group = p_det.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=float, default=None, help="alarm threshold")
    group.add_argument("--pi", type=float, default=None, help="calibrate the threshold to this budget")
    p_det.add_argument("--replications", type=int, default=2000, help="calibration replications")
    p_det.add_argument("--double-sided", action="store_true")
    p_det.add_argument("--reset-on-alarm", action=argparse.BooleanOptionalAction, default=True)
    p_det.add_argument("--scenario", choices=[POSTPONE_THIRD_TUESDAY], default=None)
    _add_common_out(p_det)
    p_det.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser(
        "evaluate", parents=[model_flags, span_flags], help="delay and false-alarm statistics by simulation"
    )
    p_eval.add_argument("--rho", type=float, required=True)
    p_eval.add_argument("--m", type=float, required=True)
    p_eval.add_argument("--theta-grid", required=True, help="comma list: open-time floats or ISO datetimes")
    p_eval.add_argument("--replications", type=int, default=200)
    p_eval.add_argument("--reset-on-alarm", action=argparse.BooleanOptionalAction, default=True)
    _add_common_out(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(Path(args.out))
        return args.func(args)
    except (ConvergenceError, SingularDesignError, BracketingError, HorizonTooShortError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # A path argument that cannot be used: missing, a directory, under a file, or not permitted.
    except (SeasonalCusumError, FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
