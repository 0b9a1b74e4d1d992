"""End-to-end tests of the command-line interface."""

import codecs
import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sensorreg import calibration
from sensorreg.calibration import CalibrationResult, MeasurementBatch, SensorMeasurements
from sensorreg.cli import _select_algorithm, main
from sensorreg.errors import RegistrationError
from sensorreg import experiments
from sensorreg.experiments import (BATCH_COLUMNS, ExperimentConfig, read_batch,
                                   realizations, run_experiment, write_batch)
from sensorreg.geometry import EulerAngles, euler_to_rotation
from sensorreg.scenario import SensorTruth, build_batch, generate_trajectory

RING = [[14500.0, 1700.0, -300.0], [2500.0, 8600.0, -600.0],
        [2500.0, -5100.0, -150.0]]

NOISELESS_CONFIG = {
    "algorithm": "alg4",
    "seed": 0,
    "mc_runs": 2,
    "sensor_count": 3,
    "sensor_kind": "3d",
    "sigma_range_m": 0.0,
    "sigma_az_mrad": 0.0,
    "sigma_el_mrad": 0.0,
    "fixed_biases_deg": [[2.0, -1.0, 1.0], [-1.0, 2.0, -1.0], [1.0, 1.0, 2.0]],
    "sensor_locations_m": RING,
}

# sensor 0 stands under the middle of the flight's first 3 s, 300 m of track
# 1000 m up, so every one of its sightings lies within 10 degrees of its pole
NEAR_POLE_CONFIG = {
    "algorithm": "alg7", "sensor_count": 4, "seed": 0, "mc_runs": 5,
    "duration_s": 3, "sample_period_s": 1, "bias_low_deg": 0.0, "bias_high_deg": 0.5,
    "sensor_locations_m": [[150, 0, 0], [14500, 1700, -300], [2500, 8600, -600],
                           [2500, -5100, -150]],
}


def write_config(tmp_path, **overrides):
    cfg = dict(NOISELESS_CONFIG)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestInferAlgorithm:
    def make(self, kinds):
        n = 3
        sensors = []
        for k, kind in enumerate(kinds):
            az = np.full(n, 0.1 * (k + 1))
            el = np.zeros(n)
            rng = np.full(n, 1000.0) if kind == "3d" else None
            sensors.append(SensorMeasurements(az=az, el=el, rng=rng))
        locations = np.arange(len(kinds) * 3, dtype=float).reshape(-1, 3)
        return MeasurementBatch(sensors=tuple(sensors), locations=locations)

    def test_choices(self):
        assert _select_algorithm(self.make(["3d", "3d"]), None) == "alg3"
        assert _select_algorithm(self.make(["3d", "3d", "3d"]), None) == "alg4"
        assert _select_algorithm(self.make(["2d", "2d"]), None) == "alg6"
        assert _select_algorithm(self.make(["2d", "2d", "2d"]), None) == "alg7"
        assert _select_algorithm(self.make(["2d", "3d"]), None) == "alg2"

    def test_unsupported_mix(self):
        with pytest.raises(RegistrationError, match=re.escape(
                "no algorithm takes this mix of sensor kinds: this batch has "
                "2 sensors of kinds ['3d', '2d']")):
            _select_algorithm(self.make(["3d", "2d"]), None)


class TestSimulate:
    def test_writes_batch_and_truth(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        batch = read_batch(out / "batch.csv", out / "sensors.json")
        assert batch.n_sensors == 3 and batch.n_epochs == 91
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["sensors"]) == 3
        assert len(truth["target_positions_m"]) == 91
        np.testing.assert_allclose(truth["sensors"][0]["bias_deg"],
                                   [2.0, -1.0, 1.0], atol=1e-12)

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path, sigma_az_mrad=3.0, sigma_el_mrad=3.0,
                           sigma_range_m=10.0, fixed_biases_deg=None)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        for name in ("batch.csv", "sensors.json", "truth.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sensor_on_the_flight_path_leaves_no_directory(self, tmp_path, capsys):
        # the trajectory starts at [0, 0, -1000]
        locations = [[0.0, 0.0, -1000.0], *RING[1:]]
        path = write_config(tmp_path, sensor_locations_m=locations)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("error: trajectory passes through a sensor location: "
                        "sensor 0 is within 1 m of the target at epoch 0")
        assert not out.exists()

    def test_bom_prefixed_config_reads_as_the_original(self, tmp_path):
        config = write_config(tmp_path)
        bom_config = tmp_path / "bom.json"
        bom_config.write_bytes(codecs.BOM_UTF8 + config.read_bytes())
        for path, out in ((config, "plain"), (bom_config, "bom")):
            assert main(["simulate", "--config", str(path),
                         "--out-dir", str(tmp_path / out)]) == 0
        for name in ("batch.csv", "sensors.json", "truth.json"):
            assert ((tmp_path / "bom" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    def test_sample_count(self, tmp_path):
        cfg = write_config(tmp_path, sample_count=10)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        batch = read_batch(out / "batch.csv", out / "sensors.json")
        assert batch.n_epochs == 10
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["target_positions_m"]) == 10

    def test_writes_realization_zero(self, tmp_path, monkeypatch):
        overrides = dict(sigma_az_mrad=3.0, sigma_el_mrad=3.0, sigma_range_m=10.0,
                         fixed_biases_deg=None, sensor_locations_m=None,
                         sample_count=20)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(write_config(tmp_path, **overrides)),
                     "--out-dir", str(out)]) == 0

        built = []
        build_batch = experiments.build_batch
        monkeypatch.setattr(experiments, "build_batch",
                            lambda *a: built.append(build_batch(*a)) or built[-1])
        run_experiment(ExperimentConfig.from_dict({**NOISELESS_CONFIG, **overrides}))
        batch, truth = built[0]
        write_batch(batch, tmp_path / "batch.csv", tmp_path / "sensors.json")
        for name in ("batch.csv", "sensors.json"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        written = json.loads((out / "truth.json").read_text())
        assert written["target_positions_m"] == truth.target_positions.tolist()
        for sensor, rotation, bias in zip(written["sensors"], truth.rotations,
                                          truth.biases):
            assert sensor["rotation"] == rotation.tolist()
            assert sensor["bias_deg"] == [math.degrees(a) for a in bias]

    @pytest.mark.parametrize("key, value", [("rel_cost_tol", -1), ("max_iterations", 0)])
    def test_stopping_value_out_of_range(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, **{key: value})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {key} must be")
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, sigma_az_mrad=3.0, sigma_el_mrad=3.0,
                           sigma_range_m=10.0, fixed_biases_deg=None)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--out-dir", str(out2)]) == 0
        assert (out1 / "batch.csv").read_bytes() != (out2 / "batch.csv").read_bytes()


class TestCalibrate:
    def test_recovers_simulated_biases(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        result_path = tmp_path / "fit" / "result.json"
        rc = main(["calibrate", "--batch", str(out / "batch.csv"),
                   "--sensors-file", str(out / "sensors.json"),
                   "--out", str(result_path)])
        assert rc == 0
        result = json.loads(result_path.read_text())
        assert result["algorithm"] == "alg4"
        assert not result["gauge_ambiguous"]
        truth = json.loads((out / "truth.json").read_text())
        for est, true in zip(result["sensors"], truth["sensors"]):
            fitted = [est["yaw_deg"], est["pitch_deg"], est["roll_deg"]]
            np.testing.assert_allclose(fitted, true["bias_deg"], atol=1e-5)
            assert np.asarray(est["rotation"]).shape == (3, 3)

    def test_explicit_algorithm(self, tmp_path):
        cfg = write_config(tmp_path, algorithm="alg1", sensor_count=2,
                           sensor_locations_m=RING[:2],
                           fixed_biases_deg=[[2.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        result_path = tmp_path / "result.json"
        rc = main(["calibrate", "--batch", str(out / "batch.csv"),
                   "--sensors-file", str(out / "sensors.json"),
                   "--algorithm", "alg1", "--out", str(result_path)])
        assert rc == 0
        result = json.loads(result_path.read_text())
        assert result["algorithm"] == "alg1"
        assert result["iterations"] == 1
        np.testing.assert_allclose(
            [result["sensors"][0]["yaw_deg"], result["sensors"][0]["pitch_deg"],
             result["sensors"][0]["roll_deg"]],
            [2.0, -1.0, 1.0], atol=1e-6)

    @pytest.mark.parametrize("algorithm, takes", [
        ("alg3", "2 sensors of kinds ['3d', '3d']"),
        ("alg7", "3 or more 2d sensors"),
    ])
    def test_requested_algorithm_must_accept_the_batch(self, tmp_path, capsys,
                                                       algorithm, takes):
        out = tmp_path / "sim"
        assert main(["simulate", "--sensors", "4", "--seed", "0",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        result_path = tmp_path / "result.json"
        assert main(["calibrate", "--batch", str(out / "batch.csv"),
                     "--sensors-file", str(out / "sensors.json"),
                     "--algorithm", algorithm, "--out", str(result_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {algorithm} takes {takes}, but this batch has 4 sensors "
            "of kinds ['3d', '3d', '3d', '3d']"]
        assert not result_path.exists()

    def test_requested_algorithm_matches_inference(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--sensors", "4", "--seed", "0",
                     "--out-dir", str(out)]) == 0
        files = ["--batch", str(out / "batch.csv"), "--sensors-file", str(out / "sensors.json")]
        assert main(["calibrate", *files, "--out", str(tmp_path / "inferred.json")]) == 0
        assert main(["calibrate", *files, "--algorithm", "alg4",
                     "--out", str(tmp_path / "requested.json")]) == 0
        assert (tmp_path / "inferred.json").read_bytes() \
            == (tmp_path / "requested.json").read_bytes()

    @pytest.mark.parametrize("column, value, sensor, epoch", [
        ("az_rad", "nan", 1, 5),
        ("rng_m", "-5.0", 2, 17),
    ])
    def test_rejects_bad_measurement(self, tmp_path, capsys, column, value,
                                     sensor, epoch):
        cfg = write_config(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        csv_path = out / "batch.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        for k, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if cells[:2] == [str(sensor), str(epoch)]:
                cells[header.index(column)] = value
                lines[k] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        rc = main(["calibrate", "--batch", str(csv_path),
                   "--sensors-file", str(out / "sensors.json"),
                   "--out", str(tmp_path / "result.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"sensor {sensor}" in err and f"epoch {epoch}" in err
        assert str(csv_path) in err
        assert not (tmp_path / "result.json").exists()

    def test_estimate_at_gimbal_lock_keeps_its_rotation(self, tmp_path, monkeypatch):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out)]) == 0
        # pitch +90 degrees: yaw and roll are not separately defined
        locked = euler_to_rotation(EulerAngles(0.3, math.pi / 2, 0.0))
        monkeypatch.setattr(calibration, "absolute_3d", lambda batch, stopping:
                            CalibrationResult(estimates=[locked, np.eye(3), np.eye(3)],
                                              cost_trace=[1.0], iterations=1,
                                              converged=True))
        result_path = tmp_path / "result.json"
        assert main(["calibrate", "--batch", str(out / "batch.csv"),
                     "--sensors-file", str(out / "sensors.json"),
                     "--out", str(result_path)]) == 0
        sensors = json.loads(result_path.read_text())["sensors"]
        assert set(sensors[0]) == {"id", "rotation"}
        np.testing.assert_allclose(sensors[0]["rotation"], locked)
        assert set(sensors[1]) == {"id", "rotation", "yaw_deg", "pitch_deg", "roll_deg"}

    def test_pair_at_one_location_is_refused(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--algorithm", "alg3", "--sensors", "2", "--seed", "0",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        sidecar = json.loads((out / "sensors.json").read_text())
        shared = sidecar["sensors"][0]["location_m"]
        sidecar["sensors"][1]["location_m"] = shared
        (out / "sensors.json").write_text(json.dumps(sidecar))
        result_path = tmp_path / "result.json"
        assert main(["calibrate", "--batch", str(out / "batch.csv"),
                     "--sensors-file", str(out / "sensors.json"),
                     "--out", str(result_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: sensors 0 and 1 share the location {shared}")
        assert not result_path.exists()

    def test_missing_batch_file(self, tmp_path, capsys):
        rc = main(["calibrate", "--batch", str(tmp_path / "nope.csv"),
                   "--sensors-file", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# cells that no column accepts: not a number, not blank
NOT_A_NUMBER = st.text(min_size=1).filter(
    lambda t: t.strip() and not _is_number(t))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12)


@lru_cache(maxsize=None)
def valid_batch():
    """Header and rows of a simulated 3-sensor, 6-epoch batch file, as
    tuples of cells, and its sidecar JSON text."""
    sensors = [SensorTruth(location=loc) for loc in RING]
    batch, _ = build_batch(generate_trajectory(50.0), sensors, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        write_batch(batch, Path(tmp) / "batch.csv", Path(tmp) / "sensors.json")
        with open(Path(tmp) / "batch.csv", newline="") as fh:
            rows = tuple(map(tuple, csv.reader(fh)))
        sidecar = (Path(tmp) / "sensors.json").read_text()
    return rows, sidecar


class TestMalformedBatch:
    """Every malformed batch file ends in exit status 1 and a one-line
    message, never in a traceback."""

    @property
    def rows(self):
        """A fresh, editable copy of the valid file's rows."""
        return [list(row) for row in valid_batch()[0]]

    def calibrate(self, csv_bytes, sidecar_text=None):
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = Path(tmp) / "batch.csv"
            csv_path.write_bytes(csv_bytes)
            sidecar = Path(tmp) / "sensors.json"
            sidecar.write_text(valid_batch()[1] if sidecar_text is None
                               else sidecar_text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["calibrate", "--batch", str(csv_path),
                           "--sensors-file", str(sidecar),
                           "--out", str(Path(tmp) / "result.json")])
            written = (Path(tmp) / "result.json").exists()
        return rc, err.getvalue(), written

    def calibrate_rows(self, rows, sidecar_text=None):
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return self.calibrate(out.getvalue().encode(), sidecar_text)

    def assert_rejected(self, outcome, *fragments):
        rc, err, written = outcome
        assert rc == 1 and not written
        assert err.startswith("error: ") and err.count("\n") == 1
        for fragment in fragments:
            assert fragment in err

    def test_valid_file_calibrates(self):
        rc, err, written = self.calibrate_rows(self.rows)
        assert rc == 0 and written and err == ""

    def test_short_row(self):
        rows = self.rows
        rows[3] = ["0", "5"]
        self.assert_rejected(self.calibrate_rows(rows), "line 4", "2 cells")

    @pytest.mark.parametrize("newline", [b"\r\n", b"\n", b"\r"])
    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
    def test_undecodable_byte_names_file_and_line(self, newline, bom):
        lines = [",".join(row).encode() for row in self.rows]
        lines[5] = lines[5][:3] + b"\xff" + lines[5][3:]
        self.assert_rejected(self.calibrate(bom + newline.join(lines) + newline),
                             "batch.csv line 6: not UTF-8 text\n")

    def test_uneven_epoch_counts_name_the_file(self):
        # the last row is sensor 2's last epoch
        self.assert_rejected(self.calibrate_rows(self.rows[:-1]),
                             "batch.csv: sensor 2 has 5 epochs but sensor 0 has 6")

    def test_header_without_range_column(self):
        rows = [[c for k, c in enumerate(r) if k != 2] for r in self.rows]
        self.assert_rejected(self.calibrate_rows(rows), "line 1", "rng_m")

    def test_non_finite_sidecar_location(self):
        sidecar = json.loads(valid_batch()[1])
        sidecar["sensors"][2]["location_m"][0] = float("inf")
        self.assert_rejected(self.calibrate_rows(self.rows, json.dumps(sidecar)),
                             "sensor 2 must be finite")

    def test_unknown_sidecar_kind(self):
        sidecar = json.loads(valid_batch()[1])
        sidecar["sensors"][1]["kind"] = "radar"
        self.assert_rejected(self.calibrate_rows(self.rows, json.dumps(sidecar)),
                             "sensor 1: kind must be \"2d\" or \"3d\", got 'radar'")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_damaged_rows(self, data):
        rows = self.rows
        line = data.draw(st.integers(1, len(rows) - 1))
        damage = data.draw(st.sampled_from(["short", "long", "cell", "header"]))
        if damage == "short":
            rows[line] = rows[line][:data.draw(st.integers(1, 4))]
            fragments = [f"line {line + 1}", "cells"]
        elif damage == "long":
            rows[line] += data.draw(st.lists(st.text(), min_size=1, max_size=3))
            fragments = [f"line {line + 1}", "cells"]
        elif damage == "cell":
            column = data.draw(st.integers(0, 4))
            rows[line][column] = data.draw(NOT_A_NUMBER)
            fragments = [f"line {line + 1}", BATCH_COLUMNS[column]]
        else:
            column = data.draw(st.integers(0, 4))
            rows[0][column] = data.draw(
                st.text().filter(lambda t: t.strip() not in BATCH_COLUMNS))
            fragments = ["line 1", BATCH_COLUMNS[column]]
        self.assert_rejected(self.calibrate_rows(rows), *fragments)

    @settings(max_examples=100, deadline=None)
    @given(position=st.integers(1, 12),
           junk=st.text(min_size=1).filter(str.strip))
    def test_junk_line(self, position, junk):
        lines = io.StringIO()
        csv.writer(lines).writerows(self.rows)
        text = lines.getvalue().splitlines(keepends=True)
        text.insert(position, junk + "\r\n")
        self.assert_rejected(self.calibrate("".join(text).encode("utf-8")))

    @settings(max_examples=100, deadline=None)
    @given(blob=st.binary(max_size=300))
    def test_arbitrary_bytes(self, blob):
        self.assert_rejected(self.calibrate(blob))

    @settings(max_examples=100, deadline=None)
    @given(sidecar=JSON_VALUES)
    def test_arbitrary_sidecar(self, sidecar):
        self.assert_rejected(self.calibrate_rows(self.rows, json.dumps(sidecar)))


class TestExperiment:
    def test_runs_and_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sigma_az_mrad=3.0, sigma_el_mrad=3.0,
                           sigma_range_m=10.0, fixed_biases_deg=None)
        out = tmp_path / "results"
        rc = main(["experiment", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "runs.csv").exists()
        assert (out / "cost_trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["success_rate"] == 1.0
        assert "success rate" in capsys.readouterr().out

    def test_mc_runs_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, sigma_az_mrad=3.0, sigma_el_mrad=3.0,
                           sigma_range_m=10.0, fixed_biases_deg=None)
        out = tmp_path / "results"
        rc = main(["experiment", "--config", str(cfg), "--mc-runs", "3",
                   "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["mc_runs"] == 3
        assert len(summary["iterations"]) == 3

    def test_algorithm_flag_sets_sensor_kind(self, tmp_path):
        # the default config is alg4 with 3D sensors; the flag alone must
        # be enough to run a bearing-only study
        out = tmp_path / "results"
        rc = main(["experiment", "--algorithm", "alg7", "--sensors", "3",
                   "--mc-runs", "2", "--out-dir", str(out)])
        assert rc == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert (config["algorithm"], config["sensor_kind"]) == ("alg7", "2d")

    def test_config_file_with_only_the_algorithm(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"algorithm": "alg7"}))
        out = tmp_path / "simulated"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        sensors = json.loads((out / "sensors.json").read_text())["sensors"]
        assert [s["kind"] for s in sensors] == ["2d"] * 4

    @pytest.mark.parametrize("key, value", [
        ("sensor_count", 3.0),
        ("mc_runs", 2.5),
        ("mc_runs", True),
        ("sample_count", 10.5),
        ("max_iterations", 2.5),
        ("seed", "x"),
        ("sigma_az_mrad", "3"),
        ("rel_cost_tol", None),
        ("sensor_locations_m", [RING[0], RING[1], [None, 0.0, 0.0]]),
        ("fixed_biases_deg", [[2.0, -1.0, 1.0], [0.0, 0.0, 0.0], 5]),
        ("placement_box_km", [1, 2]),
        ("algorithm", ["alg4"]),
        ("sensor_kind", 3),
        ("out_dir", 5),
        pytest.param("duration_s", 10**400, id="duration_s-beyond-float"),
    ])
    def test_mistyped_config_value(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, **{key: value})
        rc = main(["experiment", "--config", str(path),
                   "--out-dir", str(tmp_path / "results")])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and key in line

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", [
        "sigma_range_m", "sigma_az_mrad", "sigma_el_mrad", "bias_low_deg",
        "bias_high_deg", "duration_s", "sample_period_s", "rel_cost_tol",
        "placement_box_km", "fixed_biases_deg", "sensor_locations_m"])
    def test_non_finite_config_value(self, tmp_path, capsys, key, value):
        # json.dumps writes NaN and Infinity, which json.load reads back
        cells = {"placement_box_km": [20.0, value, 1.0],
                 "fixed_biases_deg": [[2.0, -1.0, 1.0], [0.0, 0.0, value],
                                      [1.0, 1.0, 2.0]],
                 "sensor_locations_m": [RING[0], [value, 0.0, 0.0], RING[2]]}
        path = write_config(tmp_path, **{key: cells.get(key, value)})
        rc = main(["experiment", "--config", str(path),
                   "--out-dir", str(tmp_path / "results")])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and key in line

    @pytest.mark.parametrize("command", ["experiment", "simulate"])
    @pytest.mark.parametrize("box, message", [
        pytest.param([0, 0, 1], "error: cannot draw 3 non-collinear sensor locations "
                                "in a box of [0.0, 0.0, 1000.0] m", id="no-width"),
        pytest.param([20, 20, -1], "error: placement_box_km extents must be "
                                   "nonnegative, got [20, 20, -1]", id="negative-depth"),
    ])
    def test_bad_placement_box(self, tmp_path, capsys, command, box, message):
        # a box with no width holds only collinear constellations, and one
        # of negative depth would put every sensor below ground
        path = write_config(tmp_path, sensor_locations_m=None, placement_box_km=box)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed(self, tmp_path, capsys, source):
        argv = ["experiment", "--mc-runs", "2", "--out-dir", str(tmp_path / "results")]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            argv += ["--config", str(write_config(tmp_path, seed=-1))]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be nonnegative, got -1"]

    @pytest.mark.parametrize("text, kind", [("[]", "list"), ("null", "NoneType"),
                                            ('"alg4"', "str"), ("5", "int")])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, text, kind):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["experiment", "--config", str(path),
                     "--out-dir", str(tmp_path / "results")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: a config must be a JSON object, got {kind}"]

    @pytest.mark.parametrize("content, problem", [
        (b'{"seed": 0, x}', "Expecting property name enclosed in double quotes"),
        (b'\xff{}', "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_malformed_config_file_is_named(self, tmp_path, capsys, content, problem):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["experiment", "--config", str(path),
                     "--out-dir", str(tmp_path / "results")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}: {problem}")

    def test_sensor_that_sees_only_near_its_pole(self, tmp_path):
        # only sensor 0's azimuths fix its yaw about its own z axis, near
        # its pole as they all are: calibrate and the study must run (a
        # solve that left them out raised on a singular system)
        path = tmp_path / "near-pole.json"
        path.write_text(json.dumps(NEAR_POLE_CONFIG))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out-dir", str(sim)]) == 0
        assert main(["calibrate", "--batch", str(sim / "batch.csv"),
                     "--sensors-file", str(sim / "sensors.json"),
                     "--out", str(tmp_path / "result.json")]) == 0
        assert main(["experiment", "--config", str(path),
                     "--out-dir", str(tmp_path / "study")]) == 0

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"algorithm": "alg4", "sigma": 1.0}))
        rc = main(["experiment", "--config", str(path)])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err


@st.composite
def studies(draw):
    """A simulated study: any selector with a sensor count it takes, 1 to
    59 periods of 1 to 10 s, biases up to 0.5 to 170 degrees, drawn
    sensors in a box of 0.2 to 20 km a side, default or zero noise."""
    algorithm = draw(st.sampled_from(sorted(calibration.ALGORITHMS)))
    period = draw(st.sampled_from([1, 2, 5, 10]))
    noise = {} if draw(st.booleans()) else {
        "sigma_range_m": 0.0, "sigma_az_mrad": 0.0, "sigma_el_mrad": 0.0}
    return {"algorithm": algorithm, "seed": draw(st.integers(0, 2**16)), "mc_runs": 1,
            "sensor_count": (2 if calibration.ALGORITHMS[algorithm].pair
                             else draw(st.integers(3, 8))),
            "sample_period_s": period, "duration_s": period * draw(st.integers(1, 59)),
            "bias_low_deg": 0.0, "bias_high_deg": draw(st.sampled_from([0.5, 4, 40, 170])),
            "placement_box_km": draw(st.lists(st.sampled_from([0.2, 2, 20]),
                                              min_size=3, max_size=3)),
            **noise}


@settings(max_examples=100, deadline=None)
@given(study=studies())
@example(study=NEAR_POLE_CONFIG)
def test_no_study_gives_an_opaque_error(study):
    # solving a simulated batch returns a result or names the problem
    # with a RegistrationError, never a bare numpy error
    cfg = ExperimentConfig(**study)
    try:
        batch, _ = next(realizations(cfg, 1))
    except (RegistrationError, ValueError):
        assume(False)  # simulate refuses it too
    try:
        result = calibration.ALGORITHMS[cfg.algorithm].solve(batch, cfg.stopping())
    except RegistrationError:
        return
    assert isinstance(result, CalibrationResult)


class TestSweep:
    def test_noise_sweep(self, tmp_path):
        cfg = write_config(tmp_path, fixed_biases_deg=None,
                           sigma_range_m=10.0)
        out = tmp_path / "results"
        rc = main(["sweep", "--config", str(cfg), "--axis", "noise_std",
                   "--values", "1,3", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        payload = json.loads((out / "sweep_summary.json").read_text())
        assert payload["values"] == [1.0, 3.0]

    @pytest.mark.parametrize("axis, values", [("sensor_count", "3.7,4"),
                                              ("sample_count", "10.9")])
    def test_integer_axis_rejects_fractions(self, tmp_path, capsys, axis, values):
        rc = main(["sweep", "--axis", axis, "--values", values, "--mc-runs", "1",
                   "--out-dir", str(tmp_path / "results")])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and axis in line
        assert not (tmp_path / "results").exists()

    def test_sample_count_beyond_the_epochs_runs_no_study(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(experiments, "run_experiment", None)  # no run starts
        rc = main(["sweep", "--axis", "sample_count", "--values", "10,20,1000",
                   "--mc-runs", "1", "--out-dir", str(tmp_path / "results")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: sample_count must be 2 to the trajectory's 91 epochs, got 1000"]
        assert not (tmp_path / "results").exists()

    def test_empty_value_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "noise_std", "--values", "1,,2"])
        assert exc.value.code == 2
        assert "argument --values: expected comma-separated numbers, got '1,,2'" \
            in capsys.readouterr().err

    def test_axis_choices_enforced(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "bias", "--values", "1"])


class TestWrittenFiles:
    def test_json_layout_and_new_directories(self, tmp_path, monkeypatch, capsys):
        """Every JSON file a command writes has one layout, and every
        command creates the nested directory it writes into."""
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path)
        for command in (
                ["simulate", "--config", "config.json", "--out-dir", "sim/a"],
                ["calibrate", "--batch", "sim/a/batch.csv",
                 "--sensors-file", "sim/a/sensors.json", "--out", "cal/a/result.json"],
                ["experiment", "--config", "config.json", "--out-dir", "exp/a"],
                ["sweep", "--config", "config.json", "--axis", "noise_std",
                 "--values", "1,2", "--out-dir", "swp/a"]):
            assert main(command) == 0
        assert f"wrote {Path('cal/a/result.json')} (alg4, " in capsys.readouterr().out
        written = sorted(path.relative_to(tmp_path).as_posix()
                         for path in tmp_path.rglob("*.json"))
        assert written == ["cal/a/result.json", "config.json", "exp/a/summary.json",
                           "sim/a/sensors.json", "sim/a/truth.json",
                           "swp/a/sweep_summary.json"]
        for name in written:
            if name != "config.json":
                text = (tmp_path / name).read_text(encoding="ascii")
                assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestParser:
    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_console_script(self):
        if shutil.which("sensorreg"):
            cmd, env = ["sensorreg", "--help"], None
        else:
            # not installed: run the module the console script points at
            src = str(Path(__file__).resolve().parent.parent / "src")
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            cmd = [sys.executable, "-m", "sensorreg.cli", "--help"]
            env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        for name in ("simulate", "calibrate", "experiment", "sweep"):
            assert name in proc.stdout
