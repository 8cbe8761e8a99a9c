from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seasonal_cusum import cli
from seasonal_cusum.cli import EXIT_INPUT, EXIT_OK, main
from seasonal_cusum.errors import ValidationError
from seasonal_cusum.ingest import parse_slot_csv, write_daily_csv, write_slot_csv
from seasonal_cusum.simulate import POSTPONE_THIRD_TUESDAY, ScenarioTransform, apply_scenario


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


@pytest.mark.parametrize("command", ["detect", "calibrate", "evaluate"])
@pytest.mark.parametrize("rho", ["1", "0", "-2"])
def test_rho_outside_domain_is_input_error(workspace, tmp_path, command, rho):
    series = tmp_path / "series.csv"
    series.write_text("date,slot_start,count\n2018-01-08,07:30,3\n")
    extra = {
        "detect": ["--series", str(series), "--m", "20"],
        "calibrate": ["--pi", "50", "--start-date", "2018-01-01", "--days", "7"],
        "evaluate": ["--m", "20", "--theta-grid", "40.0", "--start-date", "2018-01-01", "--days", "7"],
    }[command]
    argv = [command, "--model", str(workspace["model"]), "--rho", rho, *extra, "--out", str(tmp_path / "q")]
    assert main(argv) == EXIT_INPUT
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
