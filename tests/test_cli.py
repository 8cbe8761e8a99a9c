from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from datetime import date, time, timedelta
from pathlib import Path

import pytest

from seasonal_cusum import cli
from seasonal_cusum.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from seasonal_cusum.detect import DECREASE, DetectorConfig, run_detector, write_vpath_csv
from seasonal_cusum.errors import ValidationError
from seasonal_cusum.ingest import parse_slot_csv, write_daily_csv, write_slot_csv
from seasonal_cusum.intensity import IntensityModel
from seasonal_cusum.simulate import POSTPONE_THIRD_TUESDAY, ScenarioTransform, apply_scenario
from seasonal_cusum.synthetic import synthetic_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, train_dataset):
    """CSV inputs plus a fitted model directory, produced through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    daily = root / "daily.csv"
    slots = root / "slots.csv"
    holidays = root / "holidays.txt"
    write_daily_csv(train_dataset.daily, daily)
    write_slot_csv(train_dataset.slots, slots)
    holidays.write_text("".join(f"{d.isoformat()}\n" for d in sorted(train_dataset.holidays)))
    fit_dir = root / "fit"
    rc = main(
        [
            "fit",
            "--daily", str(daily),
            "--slots", str(slots),
            "--holidays", str(holidays),
            "--out", str(fit_dir),
        ]
    )
    assert rc == EXIT_OK
    return {
        "root": root,
        "daily": daily,
        "slots": slots,
        "holidays": holidays,
        "model": fit_dir / "model.json",
        "fit_dir": fit_dir,
    }


def test_fit_outputs(workspace):
    report = json.loads((workspace["fit_dir"] / "fit_report.json").read_text())
    assert len(report["bic_table"]) == 5
    assert set(report["selected_factors"]) >= {"month", "day_of_week"}
    assert not report["profile_fallback_uniform"]
    manifest = json.loads((workspace["fit_dir"] / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert (workspace["model"]).exists()


def test_fit_without_slots_falls_back_to_uniform(workspace, tmp_path):
    rc = main(["fit", "--daily", str(workspace["daily"]), "--out", str(tmp_path / "fit2")])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "fit2" / "fit_report.json").read_text())
    assert report["profile_fallback_uniform"]


def test_fit_empty_training_set_errors(workspace, tmp_path, capsys):
    rc = main(
        [
            "fit",
            "--daily", str(workspace["daily"]),
            "--split-date", "2016-01-04",  # first record date: empty train half
            "--out", str(tmp_path / "fit3"),
        ]
    )
    assert rc == EXIT_INPUT
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "fit3").exists()  # a refused run writes nothing


def test_simulate_roundtrips_through_detect(workspace, tmp_path):
    sim_dir = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--model", str(workspace["model"]),
            "--start-date", "2018-01-01",
            "--days", "14",
            "--seed", "3",
            "--out", str(sim_dir),
        ]
    )
    assert rc == EXIT_OK
    det_dir = tmp_path / "det"
    rc = main(
        [
            "detect",
            "--model", str(workspace["model"]),
            "--series", str(sim_dir / "slots.csv"),
            "--rho", "1.2",
            "--m", "40.0",
            "--out", str(det_dir),
        ]
    )
    assert rc == EXIT_OK
    vpath = (det_dir / "vpath.csv").read_text().splitlines()
    series_rows = (sim_dir / "slots.csv").read_text().splitlines()
    assert len(vpath) == len(series_rows)  # header for header, row for row
    assert vpath[0] == "timestamp,v,lambda_increment,count,alarm_flag"
    assert (det_dir / "alarms.jsonl").exists()


def test_detect_is_byte_deterministic(workspace, tmp_path):
    sim_dir = tmp_path / "sim"
    main(
        [
            "simulate",
            "--model", str(workspace["model"]),
            "--start-date", "2018-01-01",
            "--days", "7",
            "--seed", "5",
            "--out", str(sim_dir),
        ]
    )
    out = tmp_path / "det"
    argv = [
        "detect",
        "--model", str(workspace["model"]),
        "--series", str(sim_dir / "slots.csv"),
        "--rho", "1.2",
        "--m", "38.7",
        "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    assert main(argv) == EXIT_OK
    second = {f.name: f.read_bytes() for f in out.iterdir()}
    assert first == second


def test_simulate_is_byte_deterministic(workspace, tmp_path):
    out = tmp_path / "sim"
    argv = [
        "simulate",
        "--model", str(workspace["model"]),
        "--start-date", "2018-02-01",
        "--days", "10",
        "--seed", "11",
        "--rho", "1.5",
        "--theta", "2018-02-06T09:00",
        "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    assert main(argv) == EXIT_OK
    second = {f.name: f.read_bytes() for f in out.iterdir()}
    assert first == second


def test_calibrate_pi_one(workspace, tmp_path):
    out = tmp_path / "cal"
    rc = main(
        [
            "calibrate",
            "--model", str(workspace["model"]),
            "--rho", "1.2",
            "--pi", "1",
            "--start-date", "2018-01-01",
            "--days", "7",
            "--replications", "200",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    doc = json.loads((out / "calibration.json").read_text())
    assert doc["threshold_m"] <= 1.0
    assert doc["arl_estimate"] == 1.0


def test_detect_with_pi_calibrates_first(workspace, tmp_path):
    sim_dir = tmp_path / "sim"
    main(
        [
            "simulate",
            "--model", str(workspace["model"]),
            "--start-date", "2018-04-02",
            "--days", "7",
            "--seed", "13",
            "--out", str(sim_dir),
        ]
    )
    out = tmp_path / "detpi"
    rc = main(
        [
            "detect",
            "--model", str(workspace["model"]),
            "--series", str(sim_dir / "slots.csv"),
            "--rho", "1.2",
            "--pi", "500",
            "--replications", "300",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    assert (out / "vpath.csv").exists()


def test_detect_requires_exactly_one_of_m_or_pi(workspace, tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "detect",
                "--model", str(workspace["model"]),
                "--series", "x.csv",
                "--rho", "1.2",
                "--out", str(tmp_path / "z"),
            ]
        )


def test_detect_missing_series_is_input_error(workspace, tmp_path, capsys):
    rc = main(
        [
            "detect",
            "--model", str(workspace["model"]),
            "--series", str(tmp_path / "missing.csv"),
            "--rho", "1.2",
            "--m", "10",
            "--out", str(tmp_path / "q"),
        ]
    )
    assert rc == EXIT_INPUT
    assert not (tmp_path / "q").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--model", "{dir}", "--rho", "1.2", "--pi", "50", "--start-date", "2018-01-01", "--days", "7"],
        ["detect", "--model", "{model}", "--series", "{dir}", "--rho", "1.2", "--m", "10"],
        ["fit", "--daily", "{dir}", "--slots", "{dir}"],
    ],
    ids=["calibrate-model", "detect-series", "fit-daily-slots"],
)
def test_directory_given_as_input_file_is_input_error(workspace, tmp_path, capsys, argv):
    directory = tmp_path / "fitdir"
    directory.mkdir()
    out = tmp_path / "out"
    argv = [a.format(dir=directory, model=workspace["model"]) for a in argv]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(directory) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--rho", "1.2", "--pi", "50", "--start-date", "2018-01-01", "--days", "7"],
        ["detect", "--series", "{series}", "--rho", "1.2", "--pi", "50"],
        ["simulate", "--start-date", "2018-01-01", "--days", "6"],
        ["evaluate", "--rho", "3.0", "--m", "10", "--theta-grid", "40.0", "--start-date", "2018-01-01", "--days", "7"],
    ],
    ids=["calibrate", "detect-pi", "simulate", "evaluate"],
)
def test_negative_seed_is_input_error(workspace, tmp_path, capsys, argv):
    series = tmp_path / "series.csv"
    series.write_text("date,slot_start,count\n2018-01-08,07:30,3\n")
    out = tmp_path / "out"
    argv = [argv[0], "--model", str(workspace["model"]), *(a.format(series=series) for a in argv[1:])]
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "seed -1" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["detect", "--model", "{model}", "--series", "{slots}", "--rho", "1.2", "--m", "20"],
     ["fit", "--daily", "{daily}", "--slots", "{slots}"]],
    ids=["detect-series", "fit-slots"],
)
def test_header_only_slot_file_is_input_error(workspace, tmp_path, capsys, argv):
    slots = tmp_path / "header_only.csv"
    slots.write_text("date,slot_start,count\n")
    out = tmp_path / "out"
    argv = [a.format(model=workspace["model"], daily=workspace["daily"], slots=slots) for a in argv]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "no data rows" in err[0], err
    assert not out.exists()


def test_out_under_a_file_is_refused_before_any_work(workspace, tmp_path, capsys, monkeypatch):
    called = []
    for name in ("_load_model", "run_detector"):
        run = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, name=name, run=run: called.append(name) or run(*a))
    series = tmp_path / "series.csv"
    series.write_bytes(workspace["slots"].read_bytes())
    out = series / "x"
    argv = ["detect", "--model", str(workspace["model"]), "--series", str(series), "--rho", "1.2", "--m", "10"]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --out {out} cannot be created: {series} is not a directory"]
    assert called == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]


def test_detect_with_nan_model_coefficient_is_input_error(workspace, tmp_path):
    doc = json.loads(workspace["model"].read_text())
    doc["glm"]["coefficients"][0] = float("nan")
    bad_model = tmp_path / "model.json"
    bad_model.write_text(json.dumps(doc))
    series = tmp_path / "series.csv"
    series.write_text("date,slot_start,count\n2018-01-08,07:30,3\n")
    rc = main(
        [
            "detect",
            "--model", str(bad_model),
            "--series", str(series),
            "--rho", "1.2",
            "--m", "10",
            "--out", str(tmp_path / "q"),
        ]
    )
    assert rc == EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--rho", "1.2", "--pi", "50", "--start-date", "2018-01-01", "--days", "7", "--replications", "100"],
        ["simulate", "--start-date", "2018-01-01", "--days", "7"],
        ["detect", "--series", "{series}", "--rho", "1.2", "--m", "10"],
        ["evaluate", "--rho", "1.5", "--m", "20", "--theta-grid", "40.0", "--start-date", "2018-01-01", "--days", "7"],
    ],
    ids=["calibrate", "simulate", "detect", "evaluate"],
)
@pytest.mark.parametrize("case", ["nan-fraction", "overflowing-coefficient", "past-poisson-limit"])
def test_non_finite_intensity_is_input_error(workspace, tmp_path, capsys, case, argv):
    doc = json.loads(workspace["model"].read_text())
    if case == "nan-fraction":
        doc["profile"]["weekday_fractions"][3] = float("nan")
        message = "profile fractions must be finite"
    else:
        # exp(1000) overflows a float; exp(100) is finite but past numpy's Poisson limit.
        doc["glm"]["coefficients"][0] = 1000.0 if case == "overflowing-coefficient" else 100.0
        message = "predicted daily mean for 2018-01-0"
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    series = tmp_path / "series.csv"
    series.write_text("date,slot_start,count\n2018-01-08,07:30,3\n")
    out = tmp_path / "out"
    argv = [argv[0], "--model", str(bad), *(a.format(series=series) for a in argv[1:])]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert not out.exists()


def test_double_sided_detect_outputs(workspace, tmp_path):
    sim_dir = tmp_path / "sim"
    main(
        [
            "simulate",
            "--model", str(workspace["model"]),
            "--start-date", "2018-03-05",
            "--days", "7",
            "--seed", "8",
            "--out", str(sim_dir),
        ]
    )
    out = tmp_path / "ds"
    rc = main(
        [
            "detect",
            "--model", str(workspace["model"]),
            "--series", str(sim_dir / "slots.csv"),
            "--rho", "1.2",
            "--m", "38.7",
            "--double-sided",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    assert (out / "vpath_up.csv").exists()
    assert (out / "vpath_down.csv").exists()
    assert (out / "alarms.jsonl").exists()


def test_evaluate_command(workspace, tmp_path):
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate",
            "--model", str(workspace["model"]),
            "--rho", "3.0",
            "--m", "10.0",
            "--theta-grid", "2018-01-03T09:00,40.0",
            "--start-date", "2018-01-01",
            "--days", "7",
            "--replications", "40",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    doc = json.loads((out / "delay_report.json").read_text())
    assert len(doc["per_theta"]) == 2
    assert (out / "per_theta.csv").exists()


def test_calibrate_aggregated_meets_budget_and_is_byte_deterministic(workspace, tmp_path):
    out = tmp_path / "cal"
    argv = [
        "calibrate",
        "--aggregated",
        "--model", str(workspace["model"]),
        "--rho", "1.2",
        "--pi", "5000",
        "--start-date", "2018-01-01",
        "--days", "7",
        "--replications", "200",
        "--seed", "4",
        "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    first = (out / "calibration.json").read_bytes()
    doc = json.loads(first)
    assert abs(doc["arl_estimate"] - 5000) <= 0.02 * 5000 + 2 * doc["arl_stderr"]
    assert doc["censored_fraction"] <= 0.5
    assert main(argv) == EXIT_OK
    assert (out / "calibration.json").read_bytes() == first


@pytest.mark.parametrize("command", ["detect", "calibrate", "evaluate", "detect-double-sided"])
@pytest.mark.parametrize("rho", ["1", "0", "-2", "nan"])
def test_rho_outside_domain_is_input_error(workspace, tmp_path, capsys, command, rho):
    series = tmp_path / "series.csv"
    series.write_text("date,slot_start,count\n2018-01-08,07:30,3\n")
    extra = {
        "detect": ["--series", str(series), "--m", "20"],
        "detect-double-sided": ["--series", str(series), "--m", "20", "--double-sided"],
        "calibrate": ["--pi", "50", "--start-date", "2018-01-01", "--days", "7"],
        "evaluate": ["--m", "20", "--theta-grid", "40.0", "--start-date", "2018-01-01", "--days", "7"],
    }[command]
    argv = [command.split("-")[0], "--model", str(workspace["model"]), "--rho", rho, *extra]
    argv += ["--out", str(tmp_path / "q")]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: rho must be positive"), err
    assert not (tmp_path / "q").exists()


def _evaluate_argv(workspace, out, **overrides):
    opts = {
        "--rho": "3.0",
        "--m": "10.0",
        "--theta-grid": "2018-01-03T09:00,40.0",
        "--start-date": "2018-01-01",
        "--days": "7",
        "--replications": "20",
        "--seed": "2",
        **overrides,
    }
    return ["evaluate", "--model", str(workspace["model"]), *[x for kv in opts.items() for x in kv], "--out", str(out)]


def test_evaluate_without_detections_writes_strict_json(workspace, tmp_path):
    out = tmp_path / "eval"
    assert main(_evaluate_argv(workspace, out, **{"--m": "1e6"})) == EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads((out / "delay_report.json").read_text(), parse_constant=reject)
    assert doc["worst_case_delay_events"] is None
    assert doc["worst_case_max_delay_events"] is None
    assert all(d["detect_probability"] == 0.0 and d["mean_delay_events"] is None for d in doc["per_theta"])


@pytest.mark.parametrize("replications", ["0", "-3"])
def test_evaluate_rejects_fewer_than_one_replication(workspace, tmp_path, capsys, replications):
    out = tmp_path / "eval"
    assert main(_evaluate_argv(workspace, out, **{"--replications": replications})) == EXIT_INPUT
    assert "replications" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("theta", ["nan", "1e9", "-1.0", "inf", "2018-03-01T09:00", "2017-06-01T09:00"])
def test_evaluate_rejects_change_time_off_the_timeline(workspace, tmp_path, capsys, theta):
    out = tmp_path / "eval"
    assert main(_evaluate_argv(workspace, out, **{"--theta-grid": f"40.0,{theta}"})) == EXIT_INPUT
    assert "timeline" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_refuses_a_repeated_change_time(workspace, tmp_path, capsys):
    # The same number twice, and an ISO time with the number it locates to.
    days = [date(2018, 1, 1) + timedelta(days=i) for i in range(7)]
    position = float(IntensityModel.load(workspace["model"]).timeline(days).locate(date(2018, 1, 3), time(9, 0)))
    for grid in ("40.0,5,40", f"2018-01-03T09:00,{position!r}"):
        out = tmp_path / "eval"
        assert main(_evaluate_argv(workspace, out, **{"--theta-grid": grid})) == EXIT_INPUT
        repeated = 40.0 if grid.startswith("40") else position
        assert capsys.readouterr().err == f"error: theta grid repeats the change time {repeated!r}\n"
        assert not out.exists()


@pytest.mark.parametrize("theta", ["2017-06-01T09:00", "2018-03-01T09:00"])
def test_simulate_rejects_change_time_off_the_timeline(workspace, tmp_path, capsys, theta):
    out = tmp_path / "sim"
    argv = ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-01-01", "--days", "6",
            "--theta", theta, "--rho", "1.5", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert "timeline" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option, value, token",
    [
        ("evaluate", "--theta-grid", "abc", "'abc'"),
        ("evaluate", "--theta-grid", "2018-01-03T09:00,", "''"),
        ("evaluate", "--theta-grid", "2018-01-03T09:00+01:00", "'2018-01-03T09:00+01:00'"),
        ("simulate", "--theta", "notadate", "'notadate'"),
        ("simulate", "--theta", "2018-01-03T09:00Z", "'2018-01-03T09:00Z'"),
    ],
    ids=["grid-word", "grid-empty-token", "grid-utc-offset", "theta-word", "theta-utc"],
)
def test_malformed_change_time_is_input_error(workspace, tmp_path, capsys, command, option, value, token):
    out = tmp_path / "q"
    if command == "evaluate":
        argv = _evaluate_argv(workspace, out, **{option: value})
    else:
        argv = ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-01-01", "--days", "6",
                option, value, "--rho", "1.5", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert f"change time {token}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cap", ["nan", "inf", "0", "-5"])
def test_calibrate_rejects_bad_horizon_cap(workspace, tmp_path, capsys, cap):
    out = tmp_path / "cal"
    argv = ["calibrate", "--model", str(workspace["model"]), "--rho", "1.2", "--pi", "50", "--start-date", "2018-01-01",
            "--days", "7", "--replications", "100", "--horizon-cap", cap, "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert "horizon cap" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_events_adds_sorted_event_times_to_the_same_slots(workspace, tmp_path):
    argv = ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-01-01", "--days", "6",
            "--seed", "5", "--rho", "1.5", "--theta", "2018-01-03T09:10"]
    assert main([*argv, "--out", str(tmp_path / "counts")]) == EXIT_OK
    assert main([*argv, "--events", "--out", str(tmp_path / "events")]) == EXIT_OK
    slots = (tmp_path / "counts" / "slots.csv").read_bytes()
    assert (tmp_path / "events" / "slots.csv").read_bytes() == slots
    header, *rows = (tmp_path / "events" / "events.csv").read_text().splitlines()
    assert header == "event_time"
    times = [float(r) for r in rows]
    assert rows == [repr(t) for t in times]
    assert times == sorted(times)
    assert len(times) == sum(int(line.rsplit(",", 1)[1]) for line in slots.decode().splitlines()[1:])


def test_simulate_change_time_keeps_its_seconds(workspace, tmp_path):
    argv = ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-01-01", "--days", "6", "--rho", "1.5"]
    thetas = []
    for tod in ("09:10", "09:10:59", "09:11"):
        out = tmp_path / tod.replace(":", "")
        assert main([*argv, "--theta", f"2018-01-03T{tod}", "--out", str(out)]) == EXIT_OK
        thetas.append(json.loads((out / "sim_info.json").read_text())["change"]["theta"])
    assert thetas[0] < thetas[1] < thetas[2]


def test_fit_runs_without_scipy(workspace, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    out = tmp_path / "fit"
    argv = ["fit", "--daily", str(workspace["daily"]), "--slots", str(workspace["slots"]), "--out", str(out)]
    code = f"import sys; sys.modules['scipy'] = None; from seasonal_cusum.cli import main; sys.exit(main({argv!r}))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == EXIT_OK, done.stderr
    assert (out / "model.json").exists()


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import seasonal_cusum.cli, sys; print(any(k.split('.')[0] == 'scipy' for k in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)}
    )
    assert done.stdout.strip() == "False"


def test_simulate_rejects_events_with_scenario(workspace, tmp_path, capsys):
    out = tmp_path / "sim"
    argv = ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-01-01", "--days", "28",
            "--seed", "1", "--events", "--scenario", POSTPONE_THIRD_TUESDAY, "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--events" in err and "--scenario" in err
    assert not out.exists()


def test_simulate_scenario_rewrites_the_drawn_slots(workspace, tmp_path):
    argv = ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-01-01", "--days", "28", "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == EXIT_OK
    assert main([*argv, "--scenario", POSTPONE_THIRD_TUESDAY, "--out", str(tmp_path / "scenario")]) == EXIT_OK
    plain = list(parse_slot_csv(tmp_path / "plain" / "slots.csv"))
    write_slot_csv(apply_scenario(plain, ScenarioTransform(kind=POSTPONE_THIRD_TUESDAY)), tmp_path / "expected.csv")
    written = (tmp_path / "scenario" / "slots.csv").read_bytes()
    assert written == (tmp_path / "expected.csv").read_bytes()
    assert written != (tmp_path / "plain" / "slots.csv").read_bytes()


@pytest.mark.parametrize(
    "option, value",
    [("--pi", "1e9"), ("--pi", "1e300"), ("--horizon-cap", "1e300")],
    ids=["pi-1e9", "pi-1e300", "cap-1e300"],
)
def test_calibrate_refuses_a_horizon_too_large_to_simulate(workspace, tmp_path, capsys, option, value):
    out = tmp_path / "cal"
    argv = ["calibrate", "--model", str(workspace["model"]), "--rho", "1.2", "--start-date", "2018-01-01",
            "--days", "7", "--out", str(out)]
    argv += [option, value] if option == "--pi" else ["--pi", "50", option, value]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "pi=" in err and " cycles of the " in err and "--horizon-cap" in err
    assert not out.exists()


def _series(workspace, tmp_path, days="7"):
    sim = tmp_path / "sim"
    argv = ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-03-05", "--days", days, "--seed", "8"]
    assert main([*argv, "--out", str(sim)]) == EXIT_OK
    return sim / "slots.csv"


def _tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_rerun_into_out_keeps_only_the_new_run(workspace, tmp_path):
    series = _series(workspace, tmp_path)
    out = tmp_path / "det"
    argv = ["detect", "--model", str(workspace["model"]), "--series", str(series), "--rho", "1.2", "--m", "20"]
    assert main([*argv, "--double-sided", "--out", str(out)]) == EXIT_OK
    assert {"vpath_up.csv", "vpath_down.csv"} <= set(_tree(out))
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert set(_tree(out)) == {"vpath.csv", "alarms.jsonl", "manifest.json"}
    assert json.loads((out / "manifest.json").read_text())["arguments"]["double_sided"] is False
    assert sorted(p.name for p in tmp_path.iterdir()) == ["det", "sim"]  # no temporary sibling left


def test_simulate_rerun_without_events_drops_events_csv(workspace, tmp_path):
    out = tmp_path / "sim"
    argv = ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-01-01", "--days", "6", "--seed", "5"]
    assert main([*argv, "--events", "--out", str(out)]) == EXIT_OK
    assert "events.csv" in _tree(out)
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert set(_tree(out)) == {"slots.csv", "sim_info.json", "manifest.json"}


@pytest.mark.parametrize("kept", ["notes.txt", "subdir"])
def test_out_holding_other_data_is_refused(workspace, tmp_path, capsys, kept):
    out = tmp_path / "mine"
    out.mkdir()
    if kept == "subdir":
        (out / kept).mkdir()
    else:
        (out / kept).write_text("keep me")
    argv = ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-01-01", "--days", "6"]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "manifest.json" in err[0]
    assert [p.name for p in out.iterdir()] == [kept]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mine"]


def test_failed_rerun_leaves_the_previous_output_intact(workspace, tmp_path, monkeypatch):
    series = _series(workspace, tmp_path)
    out = tmp_path / "det"
    argv = ["detect", "--model", str(workspace["model"]), "--series", str(series), "--rho", "1.2", "--m", "20"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    before = _tree(out)
    # Refused before anything is written.
    assert main([*argv[:4], str(tmp_path / "missing.csv"), *argv[5:], "--out", str(out)]) == EXIT_INPUT
    assert _tree(out) == before

    # Failing halfway through writing: the staging directory is dropped.
    def fail(*args):
        raise ValidationError("disk trouble")

    monkeypatch.setattr(cli, "write_alarms_jsonl", fail)
    assert main([*argv, "--double-sided", "--out", str(out)]) == EXIT_INPUT
    assert _tree(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["det", "sim"]


def _malformed_model(doc, case):
    if case == "corrupt-json":
        return b'{"schema_version": 1, "kind": '
    if case == "not-utf8":
        return b"\xff\xfe{}"
    if case == "missing-profile":
        del doc["profile"]
    elif case == "bad-holiday":
        doc["holidays"] = ["2018-13-01"]
    elif case == "short-coefficients":
        doc["glm"]["coefficients"] = doc["glm"]["coefficients"][:-1]
    elif case == "negative-constant-rate":
        doc["constant_rate"] = -3.0
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "case", ["corrupt-json", "not-utf8", "missing-profile", "bad-holiday", "short-coefficients", "negative-constant-rate"]
)
def test_malformed_model_file_is_input_error(workspace, tmp_path, capsys, case):
    bad = tmp_path / "model.json"
    bad.write_bytes(_malformed_model(json.loads(workspace["model"].read_text()), case))
    out = tmp_path / "cal"
    argv = ["calibrate", "--model", str(bad), "--rho", "1.2", "--pi", "50", "--start-date", "2018-01-01",
            "--days", "7", "--replications", "100", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: model file {bad}: "), err
    assert not out.exists()


@pytest.mark.parametrize("every", [2.5, math.nan, True, 0, "3"], ids=["fraction", "nan", "bool", "zero", "string"])
def test_model_with_a_scenario_period_of_no_whole_weeks_is_input_error(workspace, tmp_path, capsys, every):
    # 2.5, NaN and true were read as periods: detect exited 0 with 8, 0 and 32 alarms on the quick start.
    doc = json.loads(workspace["model"].read_text())
    doc["scenario"] = {"anchor": "2018-01-02", "every": every}
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    series = _series(workspace, tmp_path)
    out = tmp_path / "det"
    argv = ["detect", "--model", str(bad), "--series", str(series), "--rho", "1.2", "--m", "38.7", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: model file {bad}: "), err
    assert "scenario period must be a whole number of weeks >= 1" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("double_sided", [False, True], ids=["single", "double-sided"])
def test_detect_pi_writes_the_calibrations_it_ran_with(workspace, tmp_path, monkeypatch, double_sided):
    series = _series(workspace, tmp_path)
    used = []
    for name in ("run_detector", "double_sided_run"):
        run = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, run=run: used.extend(c.threshold_m for c in a[2:]) or run(*a))
    out = tmp_path / "det"
    argv = ["detect", "--model", str(workspace["model"]), "--series", str(series), "--rho", "1.2", "--pi", "300",
            "--replications", "200", "--seed", "3", "--out", str(out)]
    assert main([*argv, "--double-sided"] if double_sided else argv) == EXIT_OK
    names = ["calibration_up.json", "calibration_down.json"] if double_sided else ["calibration.json"]
    docs = [json.loads((out / name).read_text()) for name in names]
    assert [d["threshold_m"] for d in docs] == used
    for doc in docs:
        assert doc["pi"] == 300 and doc["replications"] == 200 and doc["seed"] == 3
        assert [e["m"] for e in doc["trace"]][:2] == [1e-9, 0.5]
        assert abs(doc["arl_estimate"] - 300) <= 0.02 * 300 + 2 * doc["arl_stderr"]


def _detect_argv(workspace, series, *options):
    return ["detect", "--model", str(workspace["model"]), "--series", str(series), *options]


def test_detect_rho_below_one_runs_a_decrease_detector(workspace, tmp_path):
    series = _series(workspace, tmp_path)
    out = tmp_path / "det"
    assert main([*_detect_argv(workspace, series, "--rho", "0.8", "--m", "10"), "--out", str(out)]) == EXIT_OK
    config = DetectorConfig(rho=0.8, threshold_m=10.0, direction=DECREASE)
    run = run_detector(parse_slot_csv(series), IntensityModel.load(workspace["model"]), config)
    write_vpath_csv(run.records, tmp_path / "expected.csv")
    assert (out / "vpath.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    directions = [json.loads(line)["direction"] for line in (out / "alarms.jsonl").read_text().splitlines()]
    assert run.alarms and directions == [DECREASE] * len(run.alarms)


@pytest.mark.parametrize("threshold", [["--m", "20"], ["--pi", "300", "--replications", "200"]], ids=["m", "pi"])
def test_double_sided_detect_reads_rho_and_its_reciprocal_alike(workspace, tmp_path, threshold):
    series = _series(workspace, tmp_path)
    trees = []
    for rho in ("0.8", "1.25"):
        out = tmp_path / rho
        argv = _detect_argv(workspace, series, "--rho", rho, "--double-sided", *threshold)
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        trees.append({name: data for name, data in _tree(out).items() if name != "manifest.json"})
    assert trees[0] == trees[1]
    assert "vpath_up.csv" in trees[0] and "vpath_down.csv" in trees[0]


def test_detect_naive_lambda_uses_the_constant_rate(workspace, tmp_path):
    series = _series(workspace, tmp_path)
    out = tmp_path / "det"
    argv = [*_detect_argv(workspace, series, "--rho", "1.2", "--m", "20", "--naive-lambda"), "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = (out / "vpath.csv").read_text().splitlines()[1:]
    assert len(rows) == len(list(parse_slot_csv(series)))
    rate = IntensityModel.load(workspace["model"]).constant_rate
    assert {float(row.split(",")[2]) for row in rows} == {rate}


def test_detect_scenario_rewrites_the_series(workspace, tmp_path):
    series = _series(workspace, tmp_path, days="28")
    out = tmp_path / "det"
    argv = [*_detect_argv(workspace, series, "--rho", "1.2", "--m", "20", "--scenario", POSTPONE_THIRD_TUESDAY)]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    plain = list(parse_slot_csv(series))
    expected = [r.count for r in apply_scenario(plain, ScenarioTransform(kind=POSTPONE_THIRD_TUESDAY))]
    counts = [int(row.split(",")[3]) for row in (out / "vpath.csv").read_text().splitlines()[1:]]
    assert counts == expected != [r.count for r in plain]


def _simulate_argv(workspace, *options):
    return ["simulate", "--model", str(workspace["model"]), "--start-date", "2018-01-01", "--days", "6", "--seed", "5",
            *options]


def test_simulate_reads_a_change_time_as_open_time_or_iso(workspace, tmp_path):
    # 2018-01-02T16:30 is 22 + 18 slots into a timeline from Monday 2018-01-01.
    out = tmp_path / "eval"
    assert main(_evaluate_argv(workspace, out, **{"--theta-grid": "2018-01-03T09:10", "--days": "6"})) == EXIT_OK
    reported = json.loads((out / "delay_report.json").read_text())["per_theta"][0]["theta"]
    for pair in (("40.0", "2018-01-02T16:30"), (repr(reported), "2018-01-03T09:10")):
        outs = [tmp_path / f"sim{k}" for k in range(2)]
        for theta, sim in zip(pair, outs):
            assert main([*_simulate_argv(workspace, "--theta", theta, "--rho", "1.5"), "--out", str(sim)]) == EXIT_OK
        assert json.loads((outs[0] / "sim_info.json").read_text())["change"]["theta"] == float(pair[0])
        assert all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in ("slots.csv", "sim_info.json"))


def test_simulate_rho_without_theta_is_input_error(workspace, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main([*_simulate_argv(workspace, "--rho", "1.5"), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --rho 1.5 needs --theta"), err
    assert not out.exists()


def _huge_mean_model(workspace, tmp_path):
    # The model scaled so that its largest daily mean over the week is 9e18, just under numpy's Poisson limit.
    doc = json.loads(workspace["model"].read_text())
    model = IntensityModel.from_dict(doc)
    largest = max(model.daily_mean(date(2018, 1, 1) + timedelta(days=i)) for i in range(7))
    doc["glm"]["coefficients"][0] += math.log(9e18 / largest)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "mode, limit", [([], "event-time calibration chunk of over 2**23 events"), (["--aggregated"], "the 2**62 that")],
    ids=["events", "aggregated"],
)
def test_calibrate_refuses_more_events_than_a_path_can_hold(workspace, tmp_path, capsys, mode, limit):
    out = tmp_path / "cal"
    argv = ["calibrate", "--model", str(_huge_mean_model(workspace, tmp_path)), "--rho", "1.2", "--pi", "50",
            "--start-date", "2018-01-01", "--days", "7", "--replications", "100", *mode, "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and limit in err[0], err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--rho", "30", "--m", "20", "--theta-grid", "40.0", "--start-date", "2018-01-01", "--days", "7",
         "--replications", "5"],
        ["simulate", "--theta", "2018-01-03T09:00", "--rho", "30", "--start-date", "2018-01-01", "--days", "7"],
    ],
    ids=["evaluate", "simulate"],
)
def test_changed_mean_past_poisson_limit_is_input_error(workspace, tmp_path, capsys, argv):
    out = tmp_path / "out"
    model = _huge_mean_model(workspace, tmp_path)
    assert main([argv[0], "--model", str(model), *argv[1:], "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: changed mean") and "Poisson limit" in err[0], err
    assert not out.exists()


def test_evaluate_refuses_paths_past_int64_event_counts(tmp_path, capsys):
    # 2e18 calls a day over 28 days: a path expects more than 2**62 events.
    model = tmp_path / "model.json"
    synthetic_model(base_daily=2e18).save(model)
    out = tmp_path / "eval"
    argv = ["evaluate", "--model", str(model), "--rho", "1.5", "--m", "20", "--theta-grid", "2018-01-05T14:00",
            "--start-date", "2018-01-01", "--days", "28", "--replications", "20", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: a path over the 480-slot timeline") and "2**62" in err[0], err
    assert not out.exists()


def test_calibrate_budget_below_the_shortest_run_is_numeric_failure(tmp_path, capsys):
    model = tmp_path / "model.json"
    synthetic_model().save(model)
    out = tmp_path / "cal"
    argv = ["calibrate", "--aggregated", "--model", str(model), "--rho", "1.2", "--pi", "5", "--start-date",
            "2018-01-01", "--days", "7", "--replications", "100", "--out", str(out)]
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: run length at a vanishing threshold already exceeds pi=5.0"], err
    assert not out.exists()


def test_cli_import_does_not_load_concurrent_futures():
    # Calibration runs on one thread and imports no concurrent.futures.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import seasonal_cusum.cli, sys; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)}
    )
    assert done.stdout.strip() == "False"


def _env_without_blas_threads(**extra) -> dict:
    # This process imported cli, which set OPENBLAS_NUM_THREADS; children get an explicit env.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": str(src), **extra}


# Prints OPENBLAS_NUM_THREADS as numpy starts to load under `import seasonal_cusum.cli`,
# then the thread count once numpy is in ("" where /proc/self/task does not exist).
_BLAS_AT_NUMPY_IMPORT = """
import os, sys

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_NUM_THREADS"))
            sys.meta_path.remove(self)
        return None

sys.meta_path.insert(0, Watch())
import seasonal_cusum.cli, numpy
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "")
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_sets_one_blas_thread_before_numpy_loads(preset, expected):
    env = _env_without_blas_threads(**({} if preset is None else {"OPENBLAS_NUM_THREADS": preset}))
    done = subprocess.run([sys.executable, "-c", _BLAS_AT_NUMPY_IMPORT], capture_output=True, text=True, check=True, env=env)
    at_import, threads = done.stdout.split("\n")[:2]
    assert at_import == expected
    if preset is None and threads:
        assert threads == "1"


def test_cli_output_does_not_depend_on_blas_threads(workspace, tmp_path):
    commands = [
        ["fit", "--daily", str(workspace["daily"]), "--slots", str(workspace["slots"]), "--out", "fit"],
        ["calibrate", "--model", "fit/model.json", "--rho", "1.2", "--pi", "300", "--start-date", "2018-01-01",
         "--days", "3", "--replications", "100", "--out", "cal"],
    ]
    trees = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        for argv in commands:
            subprocess.run([sys.executable, "-m", "seasonal_cusum.cli", *argv], cwd=cwd, capture_output=True, check=True,
                           env=_env_without_blas_threads(OPENBLAS_NUM_THREADS=threads))
        trees.append({p.relative_to(cwd).as_posix(): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()})
    assert {"fit/model.json", "fit/manifest.json", "cal/calibration.json", "cal/manifest.json"} <= set(trees[0])
    assert trees[0] == trees[1]


def test_double_sided_detect_draws_each_replication_once(workspace, tmp_path, monkeypatch):
    from seasonal_cusum import calibrate

    seeded = []
    rng_for = calibrate.rng_for
    monkeypatch.setattr(calibrate, "rng_for", lambda *a: seeded.append(a) or rng_for(*a))
    series = _series(workspace, tmp_path)
    argv = _detect_argv(workspace, series, "--rho", "1.2", "--pi", "300", "--replications", "150", "--double-sided")
    assert main([*argv, "--out", str(tmp_path / "det")]) == EXIT_OK
    assert seeded == [(0, rep, 2) for rep in range(150)]


@pytest.mark.parametrize("command", ["fit", "calibrate", "simulate", "evaluate"])
def test_date_past_the_calendar_is_input_error(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    model = ["--model", str(workspace["model"])]
    dates = ["--start-date", "9999-12-25", "--days", "30"]
    if command == "fit":
        daily = tmp_path / "daily.csv"
        header, *rows = workspace["daily"].read_text().splitlines(keepends=True)
        daily.write_text("".join([header, "0001-01-01,5\n", *rows]))
        argv, named = ["fit", "--daily", str(daily)], "0001-01-01"
    elif command == "calibrate":
        argv, named = ["calibrate", *model, "--rho", "1.2", "--pi", "50", *dates], "9999-12-25"
    elif command == "simulate":
        argv, named = ["simulate", *model, *dates], "9999-12-25"
    else:
        argv, named = ["evaluate", *model, "--rho", "1.2", "--m", "5", "--theta-grid", "1.0", *dates], "9999-12-25"
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
    assert not out.exists()
