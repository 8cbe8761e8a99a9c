"""Benchmark harness for seasonal-cusum.

Run from the repository root:

    python3 bench/run.py --workload quickstart --seed 0 --seconds 15 --trace 0

Workloads: quickstart, threshold, monitor, events (see workloads.py and
README.md in this directory). Inputs are generated from --seed before timing
starts. Passes of the workload repeat until --seconds have elapsed. With
--trace 0 the run reports end-to-end metrics; with --trace 1 it replays the
workload with spans around the package's public functions and reports
per-layer metrics instead. Every run checks the program's outputs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full record (machine,
input digests, every raw sample with its median and quartiles, the checks,
and the spans of a traced run's last cycle) is written to
`.bench_build/seasonal-cusum/results/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("quickstart", "threshold", "monitor", "events")
OUT_DIR = Path(".bench_build") / "seasonal-cusum"


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(root: Path, threads_found: str | None) -> dict:
    import numpy
    import scipy
    from seasonal_cusum.calibrate import worker_count

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "SEASONAL_CUSUM_THREADS": {"in_environment": threads_found, "effective": worker_count()},
    }


def execute(workload: str, seed: int, seconds: float, trace: bool, sizes=None, root: Path = ROOT) -> dict:
    """Run one workload; returns the full record, including the `result` object printed last."""
    import inputs
    import workloads as wl
    from seasonal_cusum.calibrate import THREADS_ENV
    from seasonal_cusum.intensity import IntensityModel
    from tracer import Tracer

    threads_found = os.environ.pop(THREADS_ENV, None)
    work = root / OUT_DIR / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    ctx = wl.Context(root=root, work=work, seed=seed, sizes=sizes or wl.DEFAULT_SIZES, env=wl.child_env(root))
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "environment": environment(root, threads_found)}
    try:
        runner = wl.WORKLOAD_CLASSES[workload](ctx)
        record["inputs_sha256"] = inputs.digests(list(ctx.input_dir.iterdir()), ctx.input_dir)
        setup = wl.measure_setup(ctx, ctx.input_dir / "truth_model.json")
        record["setup"] = setup

        t0 = time.perf_counter()
        if not trace:
            walls: list[float] = []
            while len(walls) < runner.min_passes or time.perf_counter() - t0 < seconds:
                walls.append(runner.run_pass(len(walls)))
            rss = peak_rss_mb()
            runner.check()
            # Time per pass over the whole timed region: short passes flip between the
            # machine's fast and slow spells, and their median flips with them.
            metrics = {"pass_s": statistics.fmean(walls), "setup_s": setup["setup_s"]["median"], "peak_rss_mb": rss}
            units = wl.END_TO_END
            record["pass_s"] = wl.summary(walls)
        else:
            cycles: list[dict] = []
            while not cycles or time.perf_counter() - t0 < seconds:
                tracer = Tracer(run_id=f"{workload}-seed{seed}-cycle{len(cycles)}")
                cycles.append(runner.traced_cycle(tracer, len(cycles), setup))
            runner.check()
            metrics = {k: statistics.median(c[k] for c in cycles) for k in wl.PER_LAYER}
            metrics["cli.startup_s"] = setup["startup_s"]["median"]
            metrics["intensity.model_load_s"] = setup["model_load_s"]["median"]
            model = IntensityModel.load(ctx.input_dir / "truth_model.json")
            metrics["timeline.cumulative_us"] = wl.timeline_probe(model, ctx.sizes.start)
            units = wl.PER_LAYER
            self_total = sum(metrics[f"{m}.self_s"] for m in wl.MODULES)
            record["shares"] = {m: metrics[f"{m}.self_s"] / self_total for m in wl.MODULES} if self_total else {}
            record["cycles"] = cycles
            record["spans"] = tracer.to_records()  # the last cycle's
        record["report"] = runner.report()
        record["notes"] = ctx.notes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger = ctx.ledger
    record["checks"] = {"attempted": ledger.attempted, "failed": len(ledger.failures), "failures": ledger.failures,
                        "failed_frac": len(ledger.failures) / max(ledger.attempted, 1)}
    record["result"] = {
        "correct": not ledger.failures,
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return record


def describe(record: dict) -> list[str]:
    """Human-readable lines printed ahead of the result object."""
    res, checks = record["result"], record["checks"]
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
             f"{checks['attempted']} operations and checks, {checks['failed']} failed "
             f"(failed_frac {checks['failed_frac']:.4f})"]
    if "inputs_sha256" in record:
        joined = "\n".join(f"{k} {v}" for k, v in sorted(record["inputs_sha256"].items()))
        lines.append(f"  inputs sha256 (combined)                 {hashlib.sha256(joined.encode()).hexdigest()}")
    for name, m in res["metrics"].items():
        lines.append(f"  {name:40s} {m['value']!r} {m['unit']}")
    for name, value in record.get("report", {}).items():
        if isinstance(value, dict) and "wall_s" in value:
            w, c = value["wall_s"], value["cpu_s"]
            lines.append(f"  {name + ' wall / cpu':40s} median {w['median']!r} s / {c['median']!r} s over {w['n']}")
        elif isinstance(value, dict) and "median" in value:
            lines.append(f"  {name:40s} median {value['median']!r} [q1 {value['q1']!r}, q3 {value['q3']!r}] n={value['n']}")
        else:
            lines.append(f"  {name:40s} {value!r}")
    for name, share in record.get("shares", {}).items():
        lines.append(f"  share {name:34s} {share:.3f}")
    for f in checks["failures"][:10]:
        lines.append(f"  FAILED {f['name']}: {f['detail'][:300]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "seasonal_cusum" / "__init__.py"
    if not src.is_file():
        print(f"error: package source not found at {src.parent}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    results = ROOT / OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, default=str) + "\n")
    for line in describe(record):
        print(line)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
