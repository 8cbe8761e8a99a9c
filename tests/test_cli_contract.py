"""The CLI's input contract, fuzzed one flag, CSV cell or row, model leaf or holiday line at a time.

Each example takes a small valid invocation of one command and replaces one
of its flags with an edge value, or one cell of its daily or slot CSV, or
one leaf of its model JSON; or it drops or adds a field of one CSV row,
repeats a row, or leaves an empty line, a bad date or a repeated date in
the holiday file. Whatever the edit, the command exits 0 (ran),
2 (input error) or 3 (numeric failure); a refusal prints exactly one
`error:` line and leaves no --out behind, and nothing ends in a traceback.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
from datetime import date
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seasonal_cusum.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from seasonal_cusum.ingest import write_daily_csv, write_slot_csv
from seasonal_cusum.simulate import simulate_slot_counts
from seasonal_cusum.synthetic import sample_dataset

EDGES = ["0", "-1", "-inf", "nan", "inf", "1e-300", "1e300", date.min.isoformat(), date.max.isoformat()]
HUGE = "12345678901234567890123"
# Flags that take an integer also get a 23-digit one.
INTEGER_FLAGS = {"--seed", "--replications", "--days"}

# The flags each command's skeleton may have replaced.
FLAGS = {
    "fit": ["--split-date", "--origin"],
    "calibrate": ["--rho", "--pi", "--start-date", "--days", "--replications", "--horizon-cap", "--seed"],
    "simulate": ["--start-date", "--days", "--seed", "--rho", "--theta"],
    "detect": ["--rho", "--m", "--seed"],
    "detect-pi": ["--rho", "--pi", "--replications", "--seed"],
    "evaluate": ["--rho", "--m", "--theta-grid", "--start-date", "--days", "--replications", "--seed"],
}
CASES = [
    (command, flag, value)
    for command, flags in FLAGS.items()
    for flag in flags
    for value in (EDGES + [HUGE] if flag in INTEGER_FLAGS else EDGES)
]
# Edge values for one CSV cell or model leaf, each as the JSON type it would be read as.
FILE_EDGES = ["", -1, float("nan"), 1e300, int(HUGE), "2018-02-30"]
# The input file each command's skeleton reads, by the flag that names it.
FILES = {
    "fit": ["--daily"],
    "calibrate": ["--model"],
    "simulate": ["--model"],
    "detect": ["--model", "--series"],
    "detect-pi": ["--model", "--series"],
    "evaluate": ["--model"],
}
_OUTS = itertools.count()


@pytest.fixture(scope="module")
def skeletons(tmp_path_factory, truth_model):
    """A small valid argv per command, on a saved model and short CSVs."""
    root = tmp_path_factory.mktemp("contract")
    model = str(root / "model.json")
    truth_model.save(root / "model.json")
    sample = sample_dataset(truth_model, date(2016, 1, 4), date(2016, 6, 30), seed=1)
    write_daily_csv(sample.daily, root / "daily.csv")
    write_slot_csv(sample.slots, root / "slots.csv")
    timeline = truth_model.timeline([date(2018, 1, 1), date(2018, 1, 2), date(2018, 1, 3)])
    write_slot_csv(simulate_slot_counts(timeline, seed=0).to_slot_records(), root / "series.csv")
    (root / "holidays.txt").write_text("2016-03-28\n2016-05-16\n")
    series = ["--model", model, "--series", str(root / "series.csv"), "--rho", "1.5"]
    days = ["--start-date", "2018-01-01", "--days", "2"]
    return root, {
        "fit": ["fit", "--daily", str(root / "daily.csv"), "--holidays", str(root / "holidays.txt")],
        "fit-slots": ["fit", "--daily", str(root / "daily.csv"), "--slots", str(root / "slots.csv")],
        "calibrate": ["calibrate", "--model", model, "--rho", "1.5", "--pi", "50", *days, "--replications", "100"],
        "simulate": ["simulate", "--model", model, *days, "--rho", "1.5", "--theta", "5.0"],
        "detect": ["detect", *series, "--m", "3.0"],
        "detect-pi": ["detect", *series, "--pi", "50", "--replications", "100", "--double-sided"],
        "evaluate": ["evaluate", "--model", model, "--rho", "1.5", "--m", "3.0", "--theta-grid", "5.0", *days, "--replications", "5"],
    }


def _run(argv):
    """Exit code, stdout and stderr of one in-process CLI call; argparse's refusals exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_skeleton_runs(skeletons):
    root, argvs = skeletons
    for command, argv in argvs.items():
        code, _, err = _run([*argv, "--out", str(root / f"skeleton-{command}")])
        assert (code, err) == (EXIT_OK, ""), command


def _assert_contract(root, argv, case):
    out = root / f"out-{next(_OUTS)}"
    code, stdout, stderr = _run([*argv, "--out", str(out)])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC), (case, stderr)
    assert "Traceback" not in stdout + stderr
    if code != EXIT_OK:
        assert sum("error:" in line for line in stderr.splitlines()) == 1, (case, stderr)
        assert not out.exists()


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES))
@example(case=("calibrate", "--replications", HUGE))
@example(case=("detect-pi", "--replications", HUGE))
@example(case=("evaluate", "--replications", HUGE))
def test_one_edge_value_exits_cleanly(skeletons, case):
    root, argvs = skeletons
    command, flag, value = case
    argv = list(argvs[command])
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    _assert_contract(root, argv, case)


def _leaves(doc, path=()):
    """The key path of every leaf of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else None
    if items is None:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, (*path, key))]


def _mutated(source, target, draw, value):
    """Write `source` to `target` with one drawn CSV cell or JSON leaf replaced by `value`."""
    text = source.read_text()
    if source.suffix == ".json":
        doc = json.loads(text)
        *parents, last = draw(st.sampled_from(_leaves(doc)))
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        target.write_text(json.dumps(doc))
        return
    rows = list(csv.reader(io.StringIO(text)))
    r = draw(st.integers(0, len(rows) - 1))
    rows[r][draw(st.integers(0, len(rows[r]) - 1))] = str(value)
    with open(target, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_edge_value_in_an_input_file_exits_cleanly(skeletons, data):
    root, argvs = skeletons
    command = data.draw(st.sampled_from(sorted(FILES)))
    flag = data.draw(st.sampled_from(FILES[command]))
    value = data.draw(st.sampled_from(FILE_EDGES))
    argv = list(argvs[command])
    source = Path(argv[argv.index(flag) + 1])
    target = root / f"input-{next(_OUTS)}{source.suffix}"
    _mutated(source, target, data.draw, value)
    argv[argv.index(flag) + 1] = str(target)
    _assert_contract(root, argv, (command, flag, value))


# Whole-line edits, each mapping one line of an input file to the lines that replace it.
CSV_ROW_EDITS = {
    "missing-field": lambda line: [line.rsplit(",", 1)[0]],
    "extra-field": lambda line: [line + ",7"],
    "repeated-row": lambda line: [line, line],
}
HOLIDAY_EDITS = {
    "empty-line": lambda line: ["", line],
    "bad-date": lambda line: ["2018-02-30"],
    "repeated-date": lambda line: [line, line],
}
ROW_CASES = [
    (command, flag, name)
    for (command, flag), edits in {
        ("fit", "--daily"): CSV_ROW_EDITS,
        ("fit", "--holidays"): HOLIDAY_EDITS,
        ("detect", "--series"): CSV_ROW_EDITS,
        ("detect-pi", "--series"): CSV_ROW_EDITS,
    }.items()
    for name in edits
]


@pytest.mark.parametrize("command, flag, name", ROW_CASES)
def test_one_whole_line_edit_exits_cleanly(skeletons, command, flag, name):
    # The header, the first two lines after it, one in the middle and the last.
    root, argvs = skeletons
    edit = {**CSV_ROW_EDITS, **HOLIDAY_EDITS}[name]
    argv = list(argvs[command])
    source = Path(argv[argv.index(flag) + 1])
    lines = source.read_text().splitlines()
    for i in sorted({0, 1, 2, len(lines) // 2, len(lines) - 1} & set(range(len(lines)))):
        target = root / f"input-{next(_OUTS)}{source.suffix}"
        target.write_text("\n".join(lines[:i] + edit(lines[i]) + lines[i + 1 :]) + "\n")
        argv[argv.index(flag) + 1] = str(target)
        _assert_contract(root, argv, (command, flag, name, i))


# Every input file read line by line, by the skeleton and the flag that names it.
TEXT_INPUTS = [
    ("fit", "--daily"),
    ("fit", "--holidays"),
    ("fit-slots", "--slots"),
    ("detect", "--series"),
    ("detect-pi", "--series"),
]


@pytest.mark.parametrize("command, flag", TEXT_INPUTS)
def test_an_undecodable_byte_exits_2_on_its_line(skeletons, command, flag):
    # A 0xff byte, never valid UTF-8, inside the header, the first line after
    # it, one in the middle or the last: one error line naming that line.
    root, argvs = skeletons
    argv = list(argvs[command])
    source = Path(argv[argv.index(flag) + 1])
    lines = source.read_bytes().splitlines()
    for i in sorted({0, 1, len(lines) // 2, len(lines) - 1}):
        target = root / f"input-{next(_OUTS)}{source.suffix}"
        target.write_bytes(b"\n".join(lines[:i] + [lines[i][:3] + b"\xff" + lines[i][3:]] + lines[i + 1 :]) + b"\n")
        argv[argv.index(flag) + 1] = str(target)
        out = root / f"out-{next(_OUTS)}"
        code, _, stderr = _run([*argv, "--out", str(out)])
        assert (code, stderr) == (EXIT_INPUT, f"error: line {i + 1}: byte 0xff is not valid UTF-8\n"), (flag, i)
        assert not out.exists()
