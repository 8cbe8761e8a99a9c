"""The benchmark's workloads, their correctness checks and their traced runs.

Each workload is driven from one process, closed loop: one CLI command or
library call at a time, the next issued only when the previous returned.
`SEASONAL_CUSUM_THREADS` is left unset, so calibration runs on one thread.

- quickstart: the README CLI chain (fit, calibrate, simulate, detect,
  evaluate), each command its own subprocess, on 21 months of training CSVs.
- threshold: `detect --pi --double-sided` on a 28-day series, then
  `calibrate --aggregated`; calibration does almost all of the work.
- monitor: one in-control year of slot counts, one day per `run_detector`
  call in both directions, state carried from day to day.
- events: the same year's exact event times through one `run_events` call,
  which scans every event for every slot.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import date, datetime
from pathlib import Path

import numpy as np

import seasonal_cusum.cli as sc_cli
import seasonal_cusum.detect as sc_detect
import seasonal_cusum.evaluate as sc_evaluate
from seasonal_cusum.calibrate import THREADS_ENV, estimate_arl
from seasonal_cusum.detect import DECREASE, EVENT_TIMES, INCREASE, CusumState, DetectorConfig, step_aggregated, step_events
from seasonal_cusum.ingest import SlotRecord
from seasonal_cusum.intensity import IntensityModel
from seasonal_cusum.synthetic import synthetic_model
from seasonal_cusum.timeline import SlotTimeline

import inputs
from tracer import Tracer

CLI_COMMANDS = ("fit", "calibrate", "simulate", "detect", "evaluate")
MODULES = ("cli", "ingest", "intensity", "calibrate", "simulate", "detect", "evaluate", "timeline", "bench")
SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 150.0
RHO = 1.2
MONITOR_M = 38.7
V_RTOL = 1e-9

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.startup_s": "s",
    **{f"cli.{c}{suffix}": "s" for c in CLI_COMMANDS for suffix in ("_s", "_cpu_s")},
    "ingest.load_dataset_s": "s",
    "ingest.parse_slot_csv_s": "s",
    "ingest.rows": "count",
    "intensity.fit_s": "s",
    "intensity.irls_iters": "count",
    "intensity.timeline_s": "s",
    "intensity.slot_rate_s": "s",
    "intensity.model_load_s": "s",
    "calibrate.threshold_events_s": "s",
    "calibrate.threshold_aggregated_s": "s",
    "calibrate.arl_eval_events_s": "s",
    "calibrate.arl_eval_aggregated_s": "s",
    "calibrate.sims_per_threshold_events": "ratio",
    "calibrate.sims_per_threshold_aggregated": "ratio",
    "calibrate.bisection_steps": "count",
    "calibrate.censored_fraction": "ratio",
    "simulate.slot_counts_s": "s",
    "simulate.events": "count",
    "detect.run_detector_s": "s",
    "detect.run_aggregated_s": "s",
    "detect.run_events_s": "s",
    "detect.step_events_s": "s",
    "detect.double_sided_run_s": "s",
    "detect.alarms_up": "count",
    "detect.alarms_down": "count",
    "detect.alarms_events": "count",
    "evaluate.worst_case_delay_s": "s",
    "evaluate.paths": "count",
    "evaluate.paths_per_s": "1/s",
    "timeline.cumulative_us": "us",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes, fixed once; `TINY` exists only for the harness's own smoke test."""

    train_first: date = date(2016, 1, 4)
    train_last: date = date(2017, 9, 29)
    start: date = date(2018, 1, 1)
    qs_pi: float = 2000.0
    qs_cal_days: int = 14
    qs_cal_reps: int = 1000
    qs_sim_days: int = 28
    qs_eval_days: int = 28
    qs_eval_reps: int = 200
    qs_theta_grid: str = "2018-01-03T09:00,2018-01-10T14:00"
    th_series_days: int = 28
    th_pi: float = 2000.0
    th_reps: int = 400
    th_agg_pi: float = 20000.0
    th_agg_days: int = 14
    th_agg_reps: int = 500
    th_agg_horizon_cap: float = 960.0
    monitor_days: int = 365


DEFAULT_SIZES = Sizes()
TINY = replace(
    DEFAULT_SIZES,
    qs_pi=300.0,
    qs_cal_days=7,
    qs_cal_reps=100,
    qs_sim_days=7,
    qs_eval_days=7,
    qs_eval_reps=10,
    qs_theta_grid="2018-01-02T09:00,2018-01-04T14:00",
    th_series_days=7,
    th_pi=300.0,
    th_reps=100,
    th_agg_pi=3000.0,
    th_agg_days=7,
    th_agg_reps=100,
    th_agg_horizon_cap=480.0,
    monitor_days=21,
)


def summary(samples: list[float]) -> dict:
    """Median and quartiles of a sample list, kept next to the samples themselves."""
    if not samples:
        return {"n": 0, "median": None, "q1": None, "q3": None, "samples": []}
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "median": statistics.median(samples), "q1": q1, "q3": q3, "samples": samples}


class Ledger:
    """Operations and correctness checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append({"name": name, "detail": detail[-2000:]})
        return ok


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    sizes: Sizes
    ledger: Ledger = field(default_factory=Ledger)
    env: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def input_dir(self) -> Path:
        return self.work / "inputs"

    def fresh_dir(self, name: str) -> Path:
        d = self.work / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Set-up time: interpreter launch to package imported and model JSON loaded.

SETUP_CODE = (
    "import sys, time\n"
    "import seasonal_cusum.cli\n"
    "t_import = time.monotonic()\n"
    "from seasonal_cusum.intensity import IntensityModel\n"
    "IntensityModel.load(sys.argv[1])\n"
    "print(t_import, time.monotonic())\n"
)


def measure_setup(ctx: Context, model_path: Path) -> dict:
    startup, setup = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(model_path)],
            env=ctx.env, cwd=ctx.work, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        if not ctx.ledger.record("setup probe", proc.returncode == 0, proc.stderr):
            continue
        t_import, t_loaded = map(float, proc.stdout.split())
        startup.append(t_import - t0)
        setup.append(t_loaded - t0)
    return {"startup_s": summary(startup), "setup_s": summary(setup),
            "model_load_s": summary([b - a for a, b in zip(startup, setup)])}


# ---------------------------------------------------------------------------
# CLI commands as subprocesses, and their in-process replay.

@dataclass
class CommandRun:
    name: str
    wall_s: float
    cpu_s: float
    returncode: int | None
    stderr: str


def run_command(ctx: Context, name: str, argv: list[str], cwd: Path) -> CommandRun:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "seasonal_cusum.cli", *argv],
            cwd=cwd, env=ctx.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        rc, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        rc, err = None, f"timed out after {exc.timeout} s"
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    ctx.ledger.record(f"cli {name}", rc == 0, f"exit {rc}: {err}")
    return CommandRun(name, wall, cpu, rc, err)


@contextlib.contextmanager
def working_dir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def replay_command(ctx: Context, name: str, argv: list[str], cwd: Path) -> None:
    """Run one CLI command in-process through `seasonal_cusum.cli.main`, same arguments."""
    rc: object
    with working_dir(cwd), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            rc = sc_cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the replay must keep going and report the failure
            rc = f"{type(exc).__name__}: {exc}"
    ctx.ledger.record(f"replay {name}", rc == 0, f"exit {rc}: {err.getvalue()}")


def tree_digest(base: Path) -> dict[str, str]:
    return inputs.digests([p for p in base.rglob("*") if p.is_file()], base)


# ---------------------------------------------------------------------------
# Output checks.

def check_calibration(ctx: Context, label: str, arl: float, stderr: float, censored: float, pi: float) -> None:
    ok = abs(arl - pi) <= 0.02 * pi + 2.0 * stderr and censored <= 0.5
    ctx.ledger.record(f"calibration {label}", ok, f"arl {arl} stderr {stderr} censored {censored} pi {pi}")


def check_calibration_file(ctx: Context, path: Path, label: str) -> None:
    try:
        doc = json.loads(path.read_text())
        fields = doc["arl_estimate"], doc["arl_stderr"], doc["censored_fraction"], doc["pi"]
    except (OSError, ValueError, KeyError) as exc:
        ctx.ledger.record(f"calibration {label}", False, repr(exc))
        return
    check_calibration(ctx, label, *fields)


def check_delay_report(ctx: Context, path: Path) -> None:
    try:
        doc = json.loads(path.read_text())
        worst = doc["worst_case_delay_events"]
        probs = [d["detect_probability"] for d in doc["per_theta"]]
    except (OSError, ValueError, KeyError) as exc:
        ctx.ledger.record("evaluate report", False, repr(exc))
        return
    ok = worst is not None and math.isfinite(worst) and bool(probs) and all(0.0 <= p <= 1.0 for p in probs)
    ctx.ledger.record("evaluate report", ok, f"worst {worst} detect probabilities {probs}")


def check_alarm_order(ctx: Context, path: Path) -> None:
    try:
        times = [datetime.fromisoformat(json.loads(line)["time"]) for line in path.read_text().splitlines() if line]
    except (OSError, ValueError, KeyError) as exc:
        ctx.ledger.record("double-sided alarm order", False, str(exc))
        return
    ok = all(a <= b for a, b in zip(times, times[1:]))
    ctx.ledger.record("double-sided alarm order", ok, f"{len(times)} alarms")


def same_run(v_a, alarms_a, v_b, alarms_b) -> tuple[bool, str]:
    """Identical alarm times and V within V_RTOL * max(1, |V|)."""
    a, b = np.asarray(v_a, dtype=float), np.asarray(v_b, dtype=float)
    if a.shape != b.shape:
        return False, f"{a.shape} vs {b.shape} values"
    worst = float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))) if len(a) else 0.0
    if worst > V_RTOL:
        return False, f"V differs by {worst:.3g} relative"
    ta, tb = [x.time for x in alarms_a], [x.time for x in alarms_b]
    if ta != tb:
        return False, f"alarm times differ: {len(ta)} vs {len(tb)} alarms"
    return True, f"{len(a)} values, {len(ta)} alarms"


# ---------------------------------------------------------------------------
# Workload definitions.

def write_truth_model(ctx: Context) -> Path:
    path = ctx.input_dir / "truth_model.json"
    synthetic_model().save(path)
    return path


def quickstart_commands(ctx: Context) -> list[tuple[str, list[str]]]:
    s, seed = ctx.sizes, str(ctx.seed)
    start = s.start.isoformat()
    return [
        ("fit", ["fit", "--daily", "../inputs/daily.csv", "--slots", "../inputs/slots.csv", "--out", "fit"]),
        ("calibrate", ["calibrate", "--model", "fit/model.json", "--rho", str(RHO), "--pi", repr(s.qs_pi),
                       "--start-date", start, "--days", str(s.qs_cal_days), "--replications", str(s.qs_cal_reps),
                       "--seed", seed, "--out", "cal"]),
        ("simulate", ["simulate", "--model", "../inputs/truth_model.json", "--start-date", start,
                      "--days", str(s.qs_sim_days), "--seed", str(ctx.seed + 1), "--out", "sim"]),
        ("detect", ["detect", "--model", "fit/model.json", "--series", "sim/slots.csv", "--rho", str(RHO),
                    "--m", str(MONITOR_M), "--out", "det"]),
        ("evaluate", ["evaluate", "--model", "fit/model.json", "--rho", "1.5", "--m", "20",
                      "--theta-grid", s.qs_theta_grid, "--start-date", start, "--days", str(s.qs_eval_days),
                      "--replications", str(s.qs_eval_reps), "--seed", seed, "--out", "eval"]),
    ]


def threshold_commands(ctx: Context) -> list[tuple[str, list[str]]]:
    s, seed = ctx.sizes, str(ctx.seed)
    return [
        ("detect", ["detect", "--model", "../inputs/truth_model.json", "--series", "../inputs/series.csv",
                    "--rho", str(RHO), "--pi", repr(s.th_pi), "--double-sided", "--replications", str(s.th_reps),
                    "--seed", seed, "--out", "det"]),
        ("calibrate", ["calibrate", "--aggregated", "--model", "../inputs/truth_model.json", "--rho", str(RHO),
                       "--pi", repr(s.th_agg_pi), "--start-date", s.start.isoformat(), "--days", str(s.th_agg_days),
                       "--replications", str(s.th_agg_reps), "--horizon-cap", repr(s.th_agg_horizon_cap),
                       "--seed", seed, "--out", "cal"]),
    ]


class CliWorkload:
    """A chain of CLI commands; one pass runs every command once as its own subprocess."""

    min_passes = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.commands: list[tuple[str, list[str]]] = []
        self.passes: list[dict] = []

    def run_pass(self, k: int) -> float:
        d = self.ctx.fresh_dir(f"pass{k}")
        t0 = time.perf_counter()
        runs = [run_command(self.ctx, name, argv, d) for name, argv in self.commands]
        wall = time.perf_counter() - t0
        self.passes.append({"dir": d, "runs": runs, "wall_s": wall})
        return wall

    def check_outputs(self, d: Path) -> None:
        raise NotImplementedError

    def check(self) -> None:
        for p in self.passes:
            self.check_outputs(p["dir"])

    def report(self) -> dict:
        out = {}
        for name, _ in self.commands:
            walls = [r.wall_s for p in self.passes for r in p["runs"] if r.name == name]
            cpus = [r.cpu_s for p in self.passes for r in p["runs"] if r.name == name]
            out[f"cli.{name}"] = {"wall_s": summary(walls), "cpu_s": summary(cpus)}
        return out

    # Traced cycle: one subprocess pass for the CLI layer, then the same
    # commands replayed in-process, once plain and once with spans around the
    # public functions; the gap between the two replays is the tracing overhead.
    def replay(self, d: Path) -> float:
        t0 = time.perf_counter()
        for name, argv in self.commands:
            replay_command(self.ctx, name, argv, d)
        return time.perf_counter() - t0

    def traced_cycle(self, tracer: Tracer, k: int, setup: dict) -> dict:
        self.run_pass(k)
        sub = self.passes[-1]
        untraced = self.replay(self.ctx.fresh_dir(f"replay{k}"))
        d = self.ctx.fresh_dir(f"traced{k}")
        cap = Capture()
        with tracer.patched(cli_targets(cap)):
            with tracer.span("pass") as root:
                for name, argv in self.commands:
                    with tracer.span(f"cli.{name}"):
                        replay_command(self.ctx, name, argv, d)
        self.check_outputs(d)
        for label, _, result in cap.calibrations:
            check_calibration(self.ctx, f"{label} (replay)", result.arl_estimate, result.arl_stderr,
                              result.censored_fraction, result.pi)
        same = tree_digest(sub["dir"]) == tree_digest(d)
        self.ctx.ledger.record("replayed output matches subprocess output", same, str(d))
        metrics = layer_metrics(tracer, root, cap, probe_arl(tracer, cap))
        for r in sub["runs"]:
            metrics[f"cli.{r.name}_s"] = r.wall_s
            metrics[f"cli.{r.name}_cpu_s"] = r.cpu_s
        metrics["trace.overhead_frac"] = root.duration / untraced - 1.0
        startup = setup["startup_s"]["median"] or 0.0
        self.ctx.notes.setdefault("startup_share_of_subprocess_pass", []).append(
            len(self.commands) * startup / sub["wall_s"])
        return metrics


class Quickstart(CliWorkload):
    min_passes = 2  # two passes give the byte-identical output check

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        rng = inputs.generator(ctx.seed, 1)
        model = synthetic_model()
        write_truth_model(ctx)
        train = inputs.slot_series(model, inputs.date_range(ctx.sizes.train_first,
                                                            (ctx.sizes.train_last - ctx.sizes.train_first).days + 1), rng)
        train.write_daily_csv(ctx.input_dir / "daily.csv")
        train.write_csv(ctx.input_dir / "slots.csv")
        self.commands = quickstart_commands(ctx)

    def check_outputs(self, d: Path) -> None:
        check_calibration_file(self.ctx, d / "cal" / "calibration.json", "quickstart calibrate")
        check_delay_report(self.ctx, d / "eval" / "delay_report.json")

    def check(self) -> None:
        super().check()
        digests = [tree_digest(p["dir"]) for p in self.passes]
        if len(digests) >= 2:  # a traced run compares its replay with its subprocess pass instead
            same = all(dg == digests[0] for dg in digests[1:])
            self.ctx.ledger.record("repeated quickstart output is byte-identical", same, f"{len(digests)} passes")

    def report(self) -> dict:
        out = super().report()
        out["quickstart_s"] = summary([p["wall_s"] for p in self.passes])
        return out


class Threshold(CliWorkload):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        rng = inputs.generator(ctx.seed, 2)
        write_truth_model(ctx)
        series = inputs.slot_series(synthetic_model(), inputs.date_range(ctx.sizes.start, ctx.sizes.th_series_days), rng)
        series.write_csv(ctx.input_dir / "series.csv")
        self.commands = threshold_commands(ctx)

    def check_outputs(self, d: Path) -> None:
        check_calibration_file(self.ctx, d / "cal" / "calibration.json", "threshold calibrate --aggregated")
        check_alarm_order(self.ctx, d / "det" / "alarms.jsonl")

    def report(self) -> dict:
        out = super().report()
        out["threshold_events_s"] = out["cli.detect"]["wall_s"]
        out["threshold_aggregated_s"] = out["cli.calibrate"]["wall_s"]
        return out


class Year:
    """One in-control year on the ground-truth model, loaded from its JSON."""

    def __init__(self, ctx: Context):
        path = write_truth_model(ctx)
        self.model = IntensityModel.load(path)
        days = inputs.date_range(ctx.sizes.start, ctx.sizes.monitor_days)
        self.series, self.event_times = inputs.year_events(self.model, days, inputs.generator(ctx.seed, 3))
        self.timeline = self.model.timeline(self.series.days)
        self.n_slots = len(self.timeline)


class Monitor:
    min_passes = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.year = Year(ctx)
        self.year.series.write_csv(ctx.input_dir / "year_slots.csv")
        self.by_day = [
            [SlotRecord(d, inputs.slot_time(k), int(c)) for k, c in enumerate(row)]
            for d, row in zip(self.year.series.days, self.year.series.counts)
        ]
        self.config_up = DetectorConfig(rho=RHO, threshold_m=MONITOR_M, direction=INCREASE)
        self.config_down = DetectorConfig(rho=1.0 / RHO, threshold_m=MONITOR_M, direction=DECREASE)
        self.passes: list[dict] = []
        self.last: dict = {}

    def run_pass(self, k: int) -> float:
        model, up_cfg, down_cfg = self.year.model, self.config_up, self.config_down
        state_up = state_down = None
        latencies, v_up, v_down, alarms_up, alarms_down = [], [], [], [], []
        t0 = time.perf_counter()
        for records in self.by_day:
            t = time.perf_counter()
            try:
                up = sc_detect.run_detector(records, model, up_cfg, state_up)
                down = sc_detect.run_detector(records, model, down_cfg, state_down)
            except Exception as exc:  # counted as a failed update; the stream goes on
                self.ctx.ledger.record("day update", False, repr(exc))
                continue
            latencies.append(time.perf_counter() - t)
            self.ctx.ledger.record("day update", True)
            state_up, state_down = up.state, down.state
            v_up.extend(r.v for r in up.records)
            v_down.extend(r.v for r in down.records)
            alarms_up.extend(up.alarms)
            alarms_down.extend(down.alarms)
        wall = time.perf_counter() - t0
        self.passes.append({"wall_s": wall, "day_latency_s": latencies})
        self.last = {"up": (v_up, alarms_up), "down": (v_down, alarms_down)}
        return wall

    def oracle(self, config: DetectorConfig) -> tuple[list[float], list]:
        tl = self.year.timeline
        counts = np.concatenate(self.year.series.counts)
        state, v, alarms = CusumState.initial(), [], []
        for i in range(len(tl)):
            state, alarm = step_aggregated(state, int(counts[i]), float(tl.means[i]), config,
                                           clock=tl.timestamp(i, end=True))
            v.append(alarm.v_at_alarm if alarm is not None else state.v)
            if alarm is not None:
                alarms.append(alarm)
        return v, alarms

    def check(self) -> None:
        if not self.last:
            return
        records = [r for day in self.by_day for r in day]
        for key, config in (("up", self.config_up), ("down", self.config_down)):
            batch = sc_detect.run_detector(records, self.year.model, config)
            batch_v = [r.v for r in batch.records]
            oracle_v, oracle_alarms = self.oracle(config)
            stream_v, stream_alarms = self.last[key]
            ok, detail = same_run(stream_v, stream_alarms, batch_v, batch.alarms)
            self.ctx.ledger.record(f"monitor {key}: day-by-day stream matches one batch call", ok, detail)
            ok, detail = same_run(batch_v, batch.alarms, oracle_v, oracle_alarms)
            self.ctx.ledger.record(f"monitor {key}: batch matches the step_aggregated loop", ok, detail)

    def report(self) -> dict:
        walls = [p["wall_s"] for p in self.passes]
        days = [x for p in self.passes for x in p["day_latency_s"]]
        return {
            "stream_slots_per_s": summary([self.year.n_slots / w for w in walls]),
            "day_update_ms": summary([x * 1e3 for x in days]),
            "day_update_p50_ms": statistics.median(days) * 1e3,
            "day_update_p95_ms": float(np.percentile(days, 95)) * 1e3,
            "day_update_samples": len(days),
        }

    def traced_cycle(self, tracer: Tracer, k: int, setup: dict) -> dict:
        untraced = self.run_pass(k)
        cap = Capture()
        targets = [(sc_detect, "run_detector", "detect.run_detector", cap.alarms),
                   (IntensityModel, "slot_rate", "intensity.slot_rate", None)]
        with tracer.patched(targets):
            with tracer.span("pass") as root:
                self.run_pass(k)
        metrics = layer_metrics(tracer, root, cap, {})
        metrics["trace.overhead_frac"] = root.duration / untraced - 1.0
        return metrics


class Events:
    min_passes = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.year = Year(ctx)
        np.save(ctx.input_dir / "year_events.npy", self.year.event_times)
        self.config = DetectorConfig(rho=RHO, threshold_m=MONITOR_M, direction=INCREASE, mode=EVENT_TIMES)
        self.passes: list[dict] = []
        self.last = None

    def run_pass(self, k: int) -> float:
        t0 = time.perf_counter()
        try:
            self.last = sc_detect.run_events(self.year.timeline, self.year.event_times, self.config)
        except Exception as exc:  # counted as a failed call
            self.ctx.ledger.record("run_events", False, repr(exc))
        else:
            self.ctx.ledger.record("run_events", True)
        wall = time.perf_counter() - t0
        self.passes.append({"wall_s": wall})
        return wall

    def oracle(self) -> tuple[list[float], list]:
        """Per-slot `step_events` loop; slot 0 takes [start, end], later slots (start, end]."""
        tl, times = self.year.timeline, self.year.event_times
        cut = np.searchsorted(times, tl.ends, side="right")
        state, v, alarms, lo = CusumState.initial(clock=float(tl.starts[0])), [], [], 0
        for i in range(len(tl)):
            state, alarm = step_events(state, times[lo:cut[i]].tolist(), self.config,
                                       (float(tl.starts[i]), float(tl.ends[i])), tl.cumulative)
            lo = cut[i]
            v.append(state.v)
            if alarm is not None:
                alarms.append(alarm)
        return v, alarms

    def check(self) -> None:
        if self.last is None:
            return
        oracle_v, oracle_alarms = self.oracle()
        ok, detail = same_run(self.last.v, self.last.alarms, oracle_v, oracle_alarms)
        self.ctx.ledger.record("events: run_events matches the step_events loop", ok, detail)

    def report(self) -> dict:
        n = len(self.year.event_times)
        return {"events": n, "events_per_s": summary([n / p["wall_s"] for p in self.passes])}

    def traced_cycle(self, tracer: Tracer, k: int, setup: dict) -> dict:
        untraced = self.run_pass(k)
        cap = Capture()
        targets = [(sc_detect, "run_events", "detect.run_events", cap.event_alarms),
                   (sc_detect, "step_events", "detect.step_events", None)]
        with tracer.patched(targets):
            with tracer.span("pass") as root:
                self.run_pass(k)
        metrics = layer_metrics(tracer, root, cap, {})
        metrics["trace.overhead_frac"] = root.duration / untraced - 1.0
        return metrics


WORKLOAD_CLASSES = {"quickstart": Quickstart, "threshold": Threshold, "monitor": Monitor, "events": Events}


# ---------------------------------------------------------------------------
# Tracing targets and per-layer metrics.

COUNTED = ("ingest.rows", "intensity.irls_iters", "simulate.events",
           "detect.alarms_up", "detect.alarms_down", "detect.alarms_events")


@dataclass
class Capture:
    """Calibration results and exact counts taken from return values during a traced pass."""

    calibrations: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNTED, 0))

    def add(self, key: str, n: int) -> None:
        self.counts[key] += int(n)

    def alarms(self, result, series, model, config, *a, **kw) -> None:
        self.add("detect.alarms_up" if config.direction == INCREASE else "detect.alarms_down", len(result.alarms))

    def event_alarms(self, result, *a, **kw) -> None:
        self.add("detect.alarms_events", len(result.alarms))

    def dataset_rows(self, result, *a, **kw) -> None:
        self.add("ingest.rows", len(result.daily) + len(result.slots))

    def record_rows(self, result, *a, **kw) -> None:
        self.add("ingest.rows", len(result))

    def irls(self, result, *a, **kw) -> None:
        self.add("intensity.irls_iters", sum(c.model.n_iter for c in result[1].candidates if c.model is not None))

    def simulated(self, result, *a, **kw) -> None:
        self.add("simulate.events", sum(result.counts))

    def calibration(self, result, *args, **kwargs) -> None:
        self.calibrations.append((calibration_name(*args), (args, kwargs), result))


def calibration_name(timeline, config, *a, **kw) -> str:
    return "calibrate.threshold_events" if config.mode == EVENT_TIMES else "calibrate.threshold_aggregated"


def cli_targets(cap: Capture) -> list[tuple]:
    """Public functions the CLI commands call, each bound to a span name."""
    return [
        (sc_cli, "load_dataset", "ingest.load_dataset", cap.dataset_rows),
        (sc_cli, "parse_slot_csv", "ingest.parse_slot_csv", cap.record_rows),
        (sc_cli, "write_slot_csv", "ingest.write_slot_csv", None),
        (sc_cli, "fit_intensity_model", "intensity.fit", cap.irls),
        (IntensityModel, "load", "intensity.load", None),
        (IntensityModel, "save", "intensity.save", None),
        (IntensityModel, "timeline", "intensity.timeline", None),
        (IntensityModel, "slot_rate", "intensity.slot_rate", None),
        (SlotTimeline, "__init__", "timeline.build", None),
        (SlotTimeline, "locate", "timeline.locate", None),
        (sc_cli, "calibrate_threshold", calibration_name, cap.calibration),
        (sc_cli, "simulate_slot_counts", "simulate.slot_counts", cap.simulated),
        (sc_evaluate, "simulate_slot_counts", "simulate.slot_counts", cap.simulated),
        (sc_cli, "run_detector", "detect.run_detector", cap.alarms),
        (sc_detect, "run_detector", "detect.run_detector", cap.alarms),
        (sc_cli, "double_sided_run", "detect.double_sided_run", None),
        (sc_evaluate, "run_aggregated", "detect.run_aggregated", None),
        (sc_cli, "write_vpath_csv", "detect.write_vpath_csv", None),
        (sc_cli, "write_alarms_jsonl", "detect.write_alarms_jsonl", None),
        (sc_cli, "worst_case_delay", "evaluate.worst_case_delay", None),
        (sc_cli, "write_delay_report_json", "evaluate.write_report", None),
        (sc_cli, "write_delay_table_csv", "evaluate.write_report", None),
    ]


def probe_arl(tracer: Tracer, cap: Capture) -> dict[str, float]:
    """One `estimate_arl` call at each calibrated threshold: the cost of a single simulation."""
    spent: dict[str, float] = {}
    with tracer.span("probe"):
        for label, (args, kwargs), result in cap.calibrations:
            timeline, config, target = args[:3]
            seed = kwargs.get("seed", args[3] if len(args) > 3 else 0)
            t0 = time.perf_counter()
            estimate_arl(result.threshold_m, timeline, config, target, seed)
            spent[label] = spent.get(label, 0.0) + time.perf_counter() - t0
    return spent


def timeline_probe(model: IntensityModel, start: date, calls: int = 2000, repeats: int = 5) -> float:
    """Microseconds per `SlotTimeline.cumulative` call over a fixed batch of intervals on a year."""
    tl = model.timeline(inputs.date_range(start, 365))
    a = np.linspace(0.0, tl.total_time - 40.0, calls)
    pairs = list(zip(a.tolist(), (a + 37.25).tolist()))
    best = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x, y in pairs:
            tl.cumulative(x, y)
        best.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(best)


SPAN_TOTALS = {
    "ingest.load_dataset_s": "ingest.load_dataset",
    "ingest.parse_slot_csv_s": "ingest.parse_slot_csv",
    "intensity.fit_s": "intensity.fit",
    "intensity.timeline_s": "intensity.timeline",
    "intensity.slot_rate_s": "intensity.slot_rate",
    "simulate.slot_counts_s": "simulate.slot_counts",
    "detect.run_detector_s": "detect.run_detector",
    "detect.run_aggregated_s": "detect.run_aggregated",
    "detect.run_events_s": "detect.run_events",
    "detect.step_events_s": "detect.step_events",
    "detect.double_sided_run_s": "detect.double_sided_run",
    "evaluate.worst_case_delay_s": "evaluate.worst_case_delay",
}


def layer_metrics(tracer: Tracer, root, cap: Capture, arl_evals: dict[str, float]) -> dict:
    """Per-layer metrics of one traced pass: summed span time, exact counts, self time by module."""
    m = {name: 0.0 for name in PER_LAYER}
    m.update(cap.counts)

    def total(name: str) -> float:
        return tracer.total(name, within=root)[0]

    for metric, span in SPAN_TOTALS.items():
        m[metric] = total(span)
    paths = sum(tracer.total("simulate.slot_counts", within=s)[1]
                for s in tracer.descendants(root) if s.name == "evaluate.worst_case_delay")
    m["evaluate.paths"] = paths
    if m["evaluate.worst_case_delay_s"] > 0:
        m["evaluate.paths_per_s"] = paths / m["evaluate.worst_case_delay_s"]
    for mode in ("events", "aggregated"):
        spent = total(f"calibrate.threshold_{mode}")
        m[f"calibrate.threshold_{mode}_s"] = spent
        one = arl_evals.get(f"calibrate.threshold_{mode}", 0.0)
        m[f"calibrate.arl_eval_{mode}_s"] = one
        if one > 0:
            m[f"calibrate.sims_per_threshold_{mode}"] = spent / one
    results = [r for _, _, r in cap.calibrations]
    m["calibrate.bisection_steps"] = sum(len(r.trace) for r in results)
    m["calibrate.censored_fraction"] = max((r.censored_fraction for r in results), default=0.0)
    for module, spent in tracer.self_by_module(root).items():
        if f"{module}.self_s" in m:
            m[f"{module}.self_s"] = spent
    m["trace.spans"] = len(tracer.descendants(root))
    return m
