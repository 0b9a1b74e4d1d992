"""The CLI's outputs against golden files kept under tests/golden/.

Each case directory holds the ``config.json`` it was run with and the
files the command wrote.  Keys, selectors, flags and counts must match
exactly; floats to 1e-9 relative, so that numpy/BLAS builds differing
in the last bits still agree.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from sensorreg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9
SWEEP_ARGS = ["--axis", "noise_std", "--values", "1,3"]
OUTPUTS = {
    "simulate": ["simulated/batch.csv", "simulated/sensors.json",
                 "simulated/truth.json"],
    "calibrate": ["result.json"],
    "experiment": ["results/runs.csv", "results/cost_trace.csv",
                   "results/summary.json"],
    "sweep": ["results/sweep.csv", "results/sweep_summary.json"],
}
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


def same_number(got, want):
    return got == want or math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def assert_json_close(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert type(got) is float and same_number(got, want), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


def assert_csv_close(got_path, want_path):
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(want_path, newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert [len(row) for row in got] == [len(row) for row in want]
    for line, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        for g, w in zip(g_row, w_row):
            assert g == w or same_number(float(g), float(w)), \
                f"{want_path.name} line {line}: {g!r} != {w!r}"


def assert_same_file(got_path, want_path):
    if want_path.suffix == ".json":
        assert_json_close(json.loads(got_path.read_text()),
                          json.loads(want_path.read_text()), want_path.name)
    else:
        assert_csv_close(got_path, want_path)


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(case, tmp_path, monkeypatch):
    golden = GOLDEN / case
    config = str(golden / "config.json")
    command = case.split("-")[0]
    monkeypatch.chdir(tmp_path)
    if command == "calibrate":
        # the stored batch is what simulate wrote for this config
        run("simulate", "--config", config)
        for name in ("batch.csv", "sensors.json"):
            assert_same_file(tmp_path / "simulated" / name, golden / name)
        run("calibrate", "--batch", str(golden / "batch.csv"),
            "--sensors-file", str(golden / "sensors.json"), "--out", "result.json")
    else:
        run(command, "--config", config, *(SWEEP_ARGS if command == "sweep" else []))
    for output in OUTPUTS[command]:
        assert_same_file(tmp_path / output, golden / Path(output).name)
