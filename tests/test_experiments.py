"""Tests for the Monte-Carlo experiment harness and file formats."""

import csv
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorreg import calibration, experiments
from sensorreg.calibration import ALGORITHMS, MeasurementBatch
from sensorreg.errors import ConfigError, DegenerateInputError, ExperimentError
from sensorreg.experiments import (
    BATCH_COLUMNS,
    SWEEP_AXES,
    ExperimentConfig,
    _score_run,
    _thin_indices,
    emit_reports,
    emit_sweep_reports,
    read_batch,
    realizations,
    run_experiment,
    sweep,
    write_batch,
)
from sensorreg.scenario import SensorTruth, build_batch, generate_trajectory

RING = [[14500.0, 1700.0, -300.0], [2500.0, 8600.0, -600.0],
        [2500.0, -5100.0, -150.0], [-1500.0, 1700.0, -450.0]]


def quiet_config(**overrides):
    """A small, fast, noiseless 3-sensor config for exactness checks."""
    base = dict(algorithm="alg4", seed=0, mc_runs=2, sensor_count=3,
                sensor_kind="3d", sigma_range_m=0.0, sigma_az_mrad=0.0,
                sigma_el_mrad=0.0,
                fixed_biases_deg=[[2.0, -1.0, 1.0], [-1.0, 2.0, -1.0],
                                  [1.0, 1.0, 2.0]],
                sensor_locations_m=RING[:3])
    base.update(overrides)
    return ExperimentConfig(**base)


class TestAlgorithmTable:
    def test_selectors(self):
        assert sorted(ALGORITHMS) == ["alg1", "alg2", "alg3", "alg4",
                                      "alg6", "alg7"]
        assert list(SWEEP_AXES) == ["sensor_count", "noise_std", "sample_count"]


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.algorithm == "alg4" and cfg.mc_runs == 50

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(algorithm="alg5")

    def test_kind_must_match_algorithm(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(algorithm="alg2", sensor_kind="3d",
                             sensor_count=2)

    def test_pair_algorithms_need_two_sensors(self):
        # the registry's wording, as the command line gives it
        with pytest.raises(ConfigError, match=re.escape(
                "alg3 takes 2 sensors of kinds ['3d', '3d'], got 3")):
            ExperimentConfig(algorithm="alg3", sensor_count=3)

    def test_network_algorithms_need_three(self):
        with pytest.raises(ConfigError, match="alg4 takes 3 or more 3d sensors, got 2"):
            ExperimentConfig(algorithm="alg4", sensor_count=2)

    def test_scalar_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mc_runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(sigma_az_mrad=-1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(bias_low_deg=5.0, bias_high_deg=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(sample_count=1)

    @pytest.mark.parametrize("key, value, message", [
        ("rel_cost_tol", -1e-3, "rel_cost_tol must be finite and non-negative, got -0.001"),
        ("max_iterations", 0, "max_iterations must be at least 1, got 0"),
    ])
    def test_stopping_values(self, key, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize("value, kind", [([], "list"), (None, "NoneType"),
                                             ("alg4", "str"), (5, "int")])
    def test_from_dict_needs_an_object(self, value, kind):
        with pytest.raises(ConfigError, match=f"a config must be a JSON object, got {kind}$"):
            ExperimentConfig.from_dict(value)

    @pytest.mark.parametrize("duration, sample_period, key", [
        (900.0, 0.0, "sample_period_s"),
        (900.0, -10.0, "sample_period_s"),
        (0.0, 10.0, "duration_s"),
        (-5.0, 10.0, "duration_s"),
        (905.0, 10.0, "duration_s"),
        (1e7 + 10.0, 10.0, "duration_s"),
        (1e300, 10.0, "duration_s"),
    ])
    def test_duration_and_sample_period(self, duration, sample_period, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(duration_s=duration, sample_period_s=sample_period)
        # the largest flight the cap allows, and the finest sampling in use
        ExperimentConfig(duration_s=1e7, sample_period_s=10.0)
        ExperimentConfig(duration_s=900.0, sample_period_s=2.0)

    def test_fixed_arrays_must_match_sensor_count(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(sensor_count=3,
                             fixed_biases_deg=[[1.0, 1.0, 1.0]] * 2)
        with pytest.raises(ConfigError):
            ExperimentConfig(sensor_count=3, sensor_locations_m=RING)

    def test_dict_round_trip(self):
        cfg = quiet_config()
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_from_dict_rejects_unknown_keys(self):
        d = ExperimentConfig().to_dict()
        d["sigma_az"] = 3.0
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_sensor_kind_follows_the_algorithm(self):
        assert ExperimentConfig(algorithm="alg7").sensor_kind == "2d"
        assert ExperimentConfig.from_dict({"algorithm": "alg6", "sensor_count": 2}
                                          ).to_dict()["sensor_kind"] == "2d"
        assert ExperimentConfig().to_dict()["sensor_kind"] == "3d"
        with pytest.raises(ConfigError, match="alg7 needs sensor_kind='2d', got '3d'"):
            ExperimentConfig(algorithm="alg7", sensor_kind="3d")

    def test_sensor_kinds(self):
        assert quiet_config().sensor_kinds() == ["3d", "3d", "3d"]
        hetero = ExperimentConfig(algorithm="alg2", sensor_kind="hetero",
                                  sensor_count=2)
        assert hetero.sensor_kinds() == ["2d", "3d"]

    def test_stopping(self):
        cfg = ExperimentConfig(rel_cost_tol=1e-6, max_iterations=7)
        stopping = cfg.stopping()
        assert stopping.rel_cost_tol == 1e-6
        assert stopping.max_iterations == 7


class TestThinIndices:
    def test_endpoints_and_count(self):
        idx = _thin_indices(91, 10)
        assert idx[0] == 0 and idx[-1] == 90
        assert len(idx) == 10
        assert np.all(np.diff(idx) > 0)

    def test_full_count_is_identity(self):
        np.testing.assert_array_equal(_thin_indices(91, 91), np.arange(91))

    def test_too_many_requested(self):
        # the config rejects it before any realization is drawn
        with pytest.raises(ConfigError, match="sample_count must be 2 to the "
                                              "trajectory's 10 epochs, got 11"):
            ExperimentConfig(duration_s=90.0, sample_count=11)
        ExperimentConfig(duration_s=90.0, sample_count=10)

    def test_realizations_validate_first(self):
        cfg = quiet_config()
        cfg.sample_count = 92
        with pytest.raises(ConfigError, match="sample_count"):
            next(realizations(cfg, 1))


class TestRunExperiment:
    def test_noiseless_recovery(self):
        report = run_experiment(quiet_config())
        assert report.success_rate == 1.0
        assert np.all(report.rms_mrad < 1e-6)
        assert np.all(report.per_sensor_rms_mrad < 1e-6)
        assert report.rms_geodesic_mrad < 1e-6
        # noiseless cost keeps shrinking geometrically, so the relative
        # stopping rule never fires; the runs simply use the full budget
        assert all(rec.ok for rec in report.runs)

    def test_relative_3d_wrapped_as_single_iteration(self):
        cfg = ExperimentConfig(algorithm="alg1", sensor_count=2, mc_runs=2,
                               sigma_range_m=0.0, sigma_az_mrad=0.0,
                               sigma_el_mrad=0.0,
                               fixed_biases_deg=[[2.0, -1.0, 1.0],
                                                 [0.0, 0.0, 0.0]],
                               sensor_locations_m=RING[:2])
        report = run_experiment(cfg)
        assert np.all(report.rms_mrad < 1e-6)
        assert all(rec.iterations == 1 for rec in report.runs)

    def test_relative_hetero_wrapped(self):
        cfg = ExperimentConfig(algorithm="alg2", sensor_kind="hetero",
                               sensor_count=2, mc_runs=2,
                               sigma_range_m=0.0, sigma_az_mrad=0.0,
                               sigma_el_mrad=0.0,
                               fixed_biases_deg=[[2.0, -1.0, 1.0],
                                                 [0.0, 0.0, 0.0]],
                               sensor_locations_m=RING[:2])
        report = run_experiment(cfg)
        assert np.all(report.rms_mrad < 1e-6)

    def test_relative_reference_forced_unbiased(self):
        # with drawn biases the reference sensor must be simulated clean,
        # otherwise the relative algorithms would be scored against a
        # bias they cannot see
        cfg = ExperimentConfig(algorithm="alg1", sensor_count=2, mc_runs=3,
                               sigma_range_m=0.0, sigma_az_mrad=0.0,
                               sigma_el_mrad=0.0,
                               sensor_locations_m=RING[:2])
        report = run_experiment(cfg)
        assert np.all(report.rms_mrad < 1e-6)

    def test_errors_compare_the_angles_of_the_true_rotation(self):
        # a 120 deg pitch is outside rotation_to_euler's [-90, 90] deg: the
        # same rotation reads (yaw + 180, 60, roll + 180) there
        report = run_experiment(quiet_config(fixed_biases_deg=[
            [10.0, 120.0, 20.0], [-1.0, 2.0, -1.0], [1.0, 1.0, 2.0]]))
        assert report.success_rate == 1.0
        assert np.all(report.rms_mrad < 1e-6)
        # at exactly 90 deg the truth has no yaw and roll of its own
        with pytest.raises(ExperimentError, match="GimbalLockError"):
            run_experiment(quiet_config(fixed_biases_deg=[
                [10.0, 90.0, 20.0], [-1.0, 2.0, -1.0], [1.0, 1.0, 2.0]]))

    def test_same_seed_same_result(self):
        noisy = dict(sigma_range_m=10.0, sigma_az_mrad=3.0, sigma_el_mrad=3.0,
                     fixed_biases_deg=None)
        r1 = run_experiment(quiet_config(**noisy))
        r2 = run_experiment(quiet_config(**noisy))
        r3 = run_experiment(quiet_config(seed=1, **noisy))
        np.testing.assert_array_equal(r1.rms_mrad, r2.rms_mrad)
        assert not np.array_equal(r1.rms_mrad, r3.rms_mrad)

    def test_realization_depends_only_on_its_index(self):
        cfg = quiet_config(sigma_range_m=10.0, sigma_az_mrad=3.0,
                           sigma_el_mrad=3.0, fixed_biases_deg=None)
        short = list(realizations(cfg, 2))
        long = list(realizations(cfg, 5))
        for (batch, truth), (again, truth_again) in zip(short, long):
            np.testing.assert_array_equal(batch.az, again.az)
            np.testing.assert_array_equal(batch.rng, again.rng)
            assert truth.biases == truth_again.biases
        assert long[2][1].biases != long[1][1].biases

    def test_sample_count_thins_epochs(self):
        report = run_experiment(quiet_config(sample_count=10))
        assert np.all(report.rms_mrad < 1e-4)

    def test_partial_failures_are_recorded(self, monkeypatch):
        original = calibration.absolute_3d
        calls = {"n": 0}

        def flaky(batch, stopping):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DegenerateInputError("synthetic failure")
            return original(batch, stopping)

        monkeypatch.setattr(calibration, "absolute_3d", flaky)
        report = run_experiment(quiet_config(mc_runs=5))
        assert report.success_rate == pytest.approx(0.8)
        assert not report.runs[0].ok
        assert "DegenerateInputError" in report.runs[0].failure
        assert all(rec.ok for rec in report.runs[1:])
        assert np.all(report.rms_mrad < 1e-6)

    def test_refused_realizations_are_failures(self, monkeypatch):
        # realization 1 keeps two of its epochs, too few for three
        # bearing-only sensors: the study records the solver's refusal
        cfg = quiet_config(algorithm="alg7", sensor_kind="2d", mc_runs=5)
        message = ("DegenerateInputError: 3 bearing-only sensors need at least "
                   "4 usable epochs, got 2")
        original = calibration.absolute_2d
        calls = []

        def thin_second(batch, stopping):
            calls.append(None)
            if len(calls) == 2:
                batch = dataclasses.replace(batch, az=batch.az[:, :2], el=batch.el[:, :2],
                                            rng=batch.rng[:, :2])
            return original(batch, stopping)

        monkeypatch.setattr(calibration, "absolute_2d", thin_second)
        report = run_experiment(cfg)
        assert [rec.failure for rec in report.runs] == [None, message, None, None, None]
        monkeypatch.setattr(calibration, "absolute_2d", original)
        with pytest.raises(ExperimentError, match="only 0/3 realizations succeeded"):
            run_experiment(quiet_config(algorithm="alg7", sensor_kind="2d",
                                        sample_count=2, mc_runs=3))

    def test_mass_failure_raises(self, monkeypatch):
        def broken(batch, stopping):
            raise DegenerateInputError("synthetic failure")

        monkeypatch.setattr(calibration, "absolute_3d", broken)
        with pytest.raises(ExperimentError, match="synthetic failure"):
            run_experiment(quiet_config())

    def test_score_run_records_failure(self):
        # a pair of bearing-only sensors staring down their own baseline
        # cannot triangulate anything
        locations = [(0.0, 0.0, 0.0), (1000.0, 0.0, 0.0)]
        points = np.stack([np.linspace(4000.0, 4010.0, 5),
                           np.zeros(5), np.zeros(5)], axis=1)
        sensors = [SensorTruth(location=loc, kind="2d") for loc in locations]
        batch, truth = build_batch(points, sensors, seed=0)
        cfg = ExperimentConfig(algorithm="alg6", sensor_kind="2d",
                               sensor_count=2)
        rec = _score_run(0, cfg, batch, truth, cfg.stopping())
        assert not rec.ok
        assert rec.angle_errors_mrad is None
        assert "DegenerateInputError" in rec.failure


class TestSweep:
    def test_noise_axis_sets_both_bearing_sigmas(self):
        cfg = quiet_config(fixed_biases_deg=None)
        results = sweep(cfg, "noise_std", [1.0, 2.0])
        assert [v for v, _ in results] == [1.0, 2.0]
        for value, report in results:
            assert report.config.sigma_az_mrad == value
            assert report.config.sigma_el_mrad == value

    def test_sensor_count_axis(self):
        cfg = quiet_config(sensor_locations_m=None, fixed_biases_deg=None)
        results = sweep(cfg, "sensor_count", [3, 4])
        assert results[0][1].config.sensor_count == 3
        assert results[1][1].config.sensor_count == 4
        assert results[0][1].per_sensor_rms_mrad.shape == (3, 3)
        assert results[1][1].per_sensor_rms_mrad.shape == (4, 3)

    def test_sample_count_axis(self):
        results = sweep(quiet_config(), "sample_count", [10, 91])
        assert results[0][1].config.sample_count == 10

    @pytest.mark.parametrize("axis", ["sensor_count", "sample_count"])
    def test_integer_axis_rejects_fractions(self, axis, monkeypatch):
        monkeypatch.setattr("sensorreg.experiments.run_experiment", None)  # no run starts
        with pytest.raises(ConfigError, match=f"sweep axis {axis} takes whole numbers, "
                                              "got 10.9"):
            sweep(quiet_config(sensor_locations_m=None, fixed_biases_deg=None), axis,
                  [4, 10.9])

    def test_sample_count_beyond_the_epochs_runs_no_study(self, monkeypatch):
        monkeypatch.setattr("sensorreg.experiments.run_experiment", None)  # no run starts
        with pytest.raises(ConfigError, match="sample_count .* got 1000"):
            sweep(quiet_config(), "sample_count", [10, 20, 1000])

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(quiet_config(), "bias_level", [1.0])


@pytest.fixture(scope="module")
def report():
    return run_experiment(quiet_config(mc_runs=3, sigma_range_m=10.0,
                                       sigma_az_mrad=3.0,
                                       sigma_el_mrad=3.0,
                                       fixed_biases_deg=None))


class TestEmitReports:
    def test_runs_csv_layout(self, report, tmp_path):
        paths = emit_reports(report, tmp_path)
        lines = paths["runs_csv"].read_text().strip().splitlines()
        assert lines[0] == ("run,sensor,err_psi_mrad,err_theta_mrad,"
                            "err_phi_mrad,geodesic_mrad,iterations,"
                            "final_cost,converged")
        assert len(lines) == 1 + 3 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        float(first[2])  # parses as a number

    def test_cost_trace_csv_layout(self, report, tmp_path):
        paths = emit_reports(report, tmp_path)
        lines = paths["cost_trace_csv"].read_text().strip().splitlines()
        assert lines[0] == "run_0,run_1,run_2"
        longest = max(len(rec.cost_trace) for rec in report.runs)
        assert len(lines) == 1 + longest
        assert float(lines[1].split(",")[0]) > 0.0

    def test_summary_json(self, report, tmp_path):
        paths = emit_reports(report, tmp_path)
        summary = json.loads(paths["summary_json"].read_text())
        assert summary["success_rate"] == 1.0
        assert set(summary["rms_mrad"]) == {"psi", "theta", "phi"}
        assert len(summary["iterations"]) == 3
        assert summary["failures"] == {}
        clone = ExperimentConfig.from_dict(summary["config"])
        assert clone == report.config

    def test_failed_realization(self, tmp_path, monkeypatch):
        solve = calibration.absolute_3d
        calls = []

        def fail_second(batch, stopping):
            calls.append(None)
            if len(calls) == 2:
                raise DegenerateInputError("collinear")
            return solve(batch, stopping)

        monkeypatch.setattr(calibration, "absolute_3d", fail_second)
        report = run_experiment(quiet_config(mc_runs=5))
        assert report.success_rate == 0.8
        paths = emit_reports(report, tmp_path)
        with open(paths["runs_csv"], newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["run"] == "1"]
        assert len(rows) == 3
        for row in rows:
            assert [row[key] for key in ("err_psi_mrad", "err_theta_mrad", "err_phi_mrad",
                                         "geodesic_mrad", "final_cost")] == [""] * 5
            assert (row["iterations"], row["converged"]) == ("0", "False")
        summary = json.loads(paths["summary_json"].read_text())
        assert summary["failures"] == {"1": "DegenerateInputError: collinear"}
        assert summary["iterations"][1] == 0 and summary["converged"][1] is False

        # the framing, byte for byte: CRLF line ends, unquoted cells,
        # True/False, and empty cells where a run has no value
        data = paths["runs_csv"].read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") == 1 + 5 * 3
        lines = data.decode("ascii").split("\r\n")
        assert lines[-1] == "" and '"' not in data.decode("ascii")
        assert lines[4:7] == [f"1,{s},,,,,0,,False" for s in range(3)]
        for rec in report.runs:
            for s in range(3):
                cells = lines[1 + 3 * rec.run + s].split(",")
                assert cells[-1] == ("True" if rec.converged else "False")
                if rec.ok:
                    assert cells[5] == repr(float(rec.geodesic_mrad[s]))
        data = paths["cost_trace_csv"].read_bytes()
        lines = data.decode("ascii").split("\r\n")
        assert data.count(b"\r\n") == data.count(b"\n") and lines[-1] == ""
        assert lines[0] == "run_0,run_1,run_2,run_3,run_4"
        longest = max(len(rec.cost_trace) for rec in report.runs)
        assert len(lines) == 2 + longest
        for i, line in enumerate(lines[1:-1]):
            # a run that has stopped, or failed, pads its column with ""
            assert line.split(",") == [repr(rec.cost_trace[i]) if i < len(rec.cost_trace)
                                       else "" for rec in report.runs]

    def test_sweep_reports(self, tmp_path):
        cfg = quiet_config(fixed_biases_deg=None)
        results = sweep(cfg, "noise_std", [1.0, 3.0])
        paths = emit_sweep_reports(results, "noise_std", tmp_path)
        lines = paths["sweep_csv"].read_text().strip().splitlines()
        assert lines[0].startswith("noise_std,rms_psi_mrad")
        assert len(lines) == 3
        payload = json.loads(paths["sweep_summary_json"].read_text())
        assert payload["axis"] == "noise_std"
        assert payload["values"] == [1.0, 3.0]
        assert len(payload["points"]) == 2
        # a sweep over no values writes the header line alone
        paths = emit_sweep_reports([], "noise_std", tmp_path / "empty")
        assert paths["sweep_csv"].read_bytes() == (
            b"noise_std,rms_psi_mrad,rms_theta_mrad,rms_phi_mrad,"
            b"rms_geodesic_mrad,success_rate,mean_iterations\r\n")


class TestBatchFiles:
    def make_batch(self):
        sensors = [SensorTruth(location=(0.0, 0.0, 0.0), kind="2d",
                               sigma_az=3e-3, sigma_el=3e-3),
                   SensorTruth(location=(8000.0, 1000.0, -200.0),
                               sigma_range=10.0, sigma_az=3e-3,
                               sigma_el=3e-3)]
        batch, _ = build_batch(generate_trajectory(100.0), sensors, seed=5)
        return batch

    def test_round_trip(self, tmp_path):
        batch = self.make_batch()
        # the writers create the directories they write into
        csv_path = tmp_path / "a" / "b" / "batch.csv"
        sidecar = tmp_path / "c" / "sensors.json"
        write_batch(batch, csv_path, sidecar)
        loaded = read_batch(csv_path, sidecar)
        assert loaded.n_sensors == 2 and loaded.n_epochs == batch.n_epochs
        np.testing.assert_array_equal(loaded.locations, batch.locations)
        for name in ("az", "el", "rng"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(batch, name))
        assert loaded.kinds == batch.kinds == ["2d", "3d"]
        assert loaded.ids == (0, 1)
        # the files carry each sensor's id
        renamed = dataclasses.replace(batch, ids=(30, 70))
        write_batch(renamed, csv_path, sidecar)
        assert read_batch(csv_path, sidecar).ids == (30, 70)

    def test_csv_header_and_empty_range_cells(self, tmp_path):
        batch = self.make_batch()
        csv_path = tmp_path / "batch.csv"
        write_batch(batch, csv_path, tmp_path / "sensors.json")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "sensor_id,epoch_index,rng_m,az_rad,el_rad"
        assert len(lines) == 1 + 2 * batch.n_epochs
        # bearing-only sensor 0 leaves the range column empty
        assert lines[1].split(",")[2] == ""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_writes_csv_writer_bytes_that_read_back_exactly(self, data):
        # -0.0, subnormals, +-1e308 and whole floats are all finite values
        # that a formatter could spell wrongly
        edges = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                 1.7976931348623157e308, 3.0, -12.0, 1e16, 0.1]
        angle = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(edges))
        distance = st.one_of(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            st.sampled_from([v for v in edges if v > 0.0]))
        n = data.draw(st.integers(2, 6), label="epochs")
        kinds = data.draw(st.lists(st.sampled_from(["2d", "3d"]), min_size=2,
                                   max_size=4), label="kinds")
        column = lambda values: np.array(data.draw(st.lists(values, min_size=n,
                                                             max_size=n)))
        az, el, rng = map(np.array, zip(*[
            (column(angle), column(angle),
             column(distance) if kind == "3d" else np.full(n, np.nan)) for kind in kinds]))
        locations = np.array(data.draw(st.lists(
            st.floats(-1e7, 1e7), min_size=3 * len(kinds), max_size=3 * len(kinds))))
        batch = MeasurementBatch(az=az, el=el, rng=rng, locations=locations.reshape(-1, 3))

        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(BATCH_COLUMNS)
        for s, kind in enumerate(kinds):
            for i in range(n):
                writer.writerow([s, i, repr(float(rng[s, i])) if kind == "3d" else "",
                                 repr(float(az[s, i])), repr(float(el[s, i]))])
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, sidecar = Path(tmp) / "batch.csv", Path(tmp) / "sensors.json"
            write_batch(batch, csv_path, sidecar)
            assert csv_path.read_bytes() == reference.getvalue().encode("ascii")
            # plain enough for the vectorized reader
            assert experiments._parse_plain(csv_path.read_text()) is not None
            loaded = read_batch(csv_path, sidecar)
        # a bearing-only sensor's empty cells read back as its NaN row
        for name in ("locations", "az", "el", "rng"):
            assert getattr(loaded, name).tobytes() == getattr(batch, name).tobytes()

    def write_pair(self, tmp_path, csv_text, sensors):
        csv_path = tmp_path / "batch.csv"
        sidecar = tmp_path / "sensors.json"
        csv_path.write_text(csv_text)
        sidecar.write_text(json.dumps({"sensors": sensors}))
        return csv_path, sidecar

    def test_sensor_id_mismatch(self, tmp_path):
        csv_text = ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
                    "0,0,100.0,0.1,0.0\n0,1,100.0,0.2,0.0\n")
        csv_path, sidecar = self.write_pair(
            tmp_path, csv_text,
            [{"id": 0, "location_m": [0, 0, 0], "kind": "3d"},
             {"id": 1, "location_m": [100, 0, 0], "kind": "3d"}])
        with pytest.raises(ValueError, match="ids") as info:
            read_batch(csv_path, sidecar)
        assert str(csv_path) in str(info.value)
        assert str(sidecar) in str(info.value)

    def test_bad_epoch_indices(self, tmp_path):
        csv_text = ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
                    "0,0,100.0,0.1,0.0\n0,2,100.0,0.2,0.0\n"
                    "1,0,100.0,0.1,0.0\n1,2,100.0,0.2,0.0\n")
        csv_path, sidecar = self.write_pair(
            tmp_path, csv_text,
            [{"id": 0, "location_m": [0, 0, 0], "kind": "3d"},
             {"id": 1, "location_m": [100, 0, 0], "kind": "3d"}])
        with pytest.raises(ValueError, match="epoch") as info:
            read_batch(csv_path, sidecar)
        assert str(info.value).startswith(f"{csv_path}: sensor 0: ")

    @pytest.mark.parametrize("counts, message", [
        ({5: 3, 7: 2}, "sensor 7 has 2 epochs but sensor 5 has 3: every sensor "
                       "must report the same number of targets"),
        ({5: 3}, "a batch needs at least two sensors"),
        ({5: 1, 7: 1}, "a batch needs at least two shared targets"),
    ], ids=["uneven-epochs", "one-sensor", "one-epoch"])
    def test_malformed_batch_names_the_file(self, tmp_path, counts, message):
        csv_text = "sensor_id,epoch_index,rng_m,az_rad,el_rad\n" + "".join(
            f"{sid},{epoch},,0.1,0.0\n" for sid, count in counts.items()
            for epoch in range(count))
        csv_path, sidecar = self.write_pair(
            tmp_path, csv_text, [{"id": sid, "location_m": [100 * sid, 0, 0]}
                                 for sid in counts])
        with pytest.raises(ValueError) as info:
            read_batch(csv_path, sidecar)
        assert str(info.value) == f"{csv_path}: {message}"

    def test_cell_over_the_csv_field_limit(self, tmp_path):
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
                            f"0,0,,{'1' * 200_000},0.0\n1,0,,0.1,0.0\n")
        _, sidecar = self.write_pair(tmp_path, "", [
            {"id": 0, "location_m": [0, 0, 0]}, {"id": 1, "location_m": [100, 0, 0]}])
        with pytest.raises(ValueError) as info:
            read_batch(csv_path, sidecar)
        assert str(info.value) == (f"{csv_path} line 2: field larger than field "
                                   f"limit ({csv.field_size_limit()})")

    def test_sensor_id_beyond_int64(self, tmp_path):
        big = 2**70
        csv_text = ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
                    f"0,0,,0.1,0.0\n0,1,,0.2,0.0\n{big},0,,0.3,0.0\n{big},1,,0.4,0.0\n")
        csv_path, sidecar = self.write_pair(
            tmp_path, csv_text, [{"id": big, "location_m": [100, 0, 0]},
                                 {"id": 0, "location_m": [0, 0, 0]}])
        batch = read_batch(csv_path, sidecar)
        assert batch.n_sensors == 2
        np.testing.assert_array_equal(batch.locations, [[0, 0, 0], [100, 0, 0]])
        np.testing.assert_array_equal(batch.az[1], [0.3, 0.4])

    def test_repeated_epoch_with_and_without_range(self, tmp_path):
        # sorting such rows as tuples compared a range with None
        csv_text = ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
                    "0,0,,0.1,0.0\n0,0,5.0,0.1,0.0\n"
                    "1,0,,0.1,0.0\n1,1,,0.2,0.0\n")
        csv_path, sidecar = self.write_pair(
            tmp_path, csv_text,
            [{"id": 0, "location_m": [0, 0, 0]},
             {"id": 1, "location_m": [100, 0, 0]}])
        with pytest.raises(ValueError, match="sensor 0: epoch indices"):
            read_batch(csv_path, sidecar)

    @pytest.mark.parametrize("csv_text, match", [
        ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n0,0,100.0,0.1,0.0\n0,5\n",
         "line 3: 2 cells, the header has 5"),
        ("sensor_id,epoch_index,az_rad,el_rad\n0,0,0.1,0.0\n",
         "line 1: header lacks column rng_m"),
        ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n0,0,100.0,0.1,0.0\n"
         "0,1,100.0,north,0.0\n", "line 3, column az_rad: 'north'"),
        ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n\"0\n\",0,1,0.1,0.0\n"
         "1,x,1,0.1,0.0\n", "line 4, column epoch_index"),
    ])
    def test_malformed_csv_names_line_and_column(self, tmp_path, csv_text, match):
        csv_path, sidecar = self.write_pair(
            tmp_path, csv_text,
            [{"id": 0, "location_m": [0, 0, 0], "kind": "3d"},
             {"id": 1, "location_m": [100, 0, 0], "kind": "3d"}])
        with pytest.raises(ValueError, match=match):
            read_batch(csv_path, sidecar)

    @pytest.mark.parametrize("sidecar, match", [
        ('{"sensors": [{"id": 0, "location_m": [0, 0, 0]},'
         ' {"id": 1, "location_m": [1, 2]}]}',
         r"sensors.json: sensor 1: location_m must be \[x, y, z\], got \[1.0, 2.0\]"),
        ('{"sensors": [{"id": 0, "location_m": [0, 0, 0]},'
         ' {"id": 1, "location_m": [100, 0, 0]}, {"id": 0, "location_m": [5, 0, 0]}]}',
         "sensors.json: sensor id 0 appears more than once"),
        ('{"sensors": [{"id": 0, "location_m": [0, 0, 0], "kind": "3d"},'
         ' {"id": 1, "location_m": [100, 0, 0], "kind": "2d"}]}',
         "sensors.json: sensor 0 has kind '3d' but its rng_m cells are empty"),
        ('{"sensors": [{"id": 0, "location_m": [0, 0, 0]}',
         "sensors.json: Expecting"),
        ('{"sensors": [{"id": Infinity, "location_m": [0, 0, 0]}]}',
         "sensors.json: expected"),
    ], ids=["short-location", "duplicate-id", "kind-3d-without-ranges",
            "json-syntax", "infinite-id"])
    def test_malformed_sidecar_names_file_and_sensor(self, tmp_path, sidecar, match):
        csv_text = ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
                    "0,0,,0.1,0.0\n0,1,,0.2,0.0\n"
                    "1,0,,0.1,0.0\n1,1,,0.2,0.0\n")
        csv_path, sidecar_path = self.write_pair(tmp_path, csv_text, [])
        sidecar_path.write_text(sidecar)
        with pytest.raises(ValueError, match=match):
            read_batch(csv_path, sidecar_path)

    def test_sidecar_kind_must_match_ranges(self, tmp_path):
        csv_text = ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
                    "0,0,100.0,0.1,0.0\n0,1,100.0,0.2,0.0\n"
                    "1,0,100.0,0.1,0.0\n1,1,100.0,0.2,0.0\n")
        csv_path, sidecar = self.write_pair(
            tmp_path, csv_text,
            [{"id": 0, "location_m": [0, 0, 0], "kind": "3d"},
             {"id": 1, "location_m": [100, 0, 0], "kind": "2d"}])
        with pytest.raises(ValueError, match="sensor 1 has kind '2d' but its "
                                             "rng_m cells hold ranges"):
            read_batch(csv_path, sidecar)

    def test_columns_found_by_header_name(self, tmp_path):
        csv_text = ("el_rad,az_rad,rng_m,epoch_index,sensor_id\n"
                    "0.0,0.1,100.0,0,0\n0.1,0.2,110.0,1,0\n"
                    "0.0,0.3,100.0,0,1\n0.1,0.4,120.0,1,1\n")
        csv_path, sidecar = self.write_pair(
            tmp_path, csv_text,
            [{"id": 0, "location_m": [0, 0, 0], "kind": "3d"},
             {"id": 1, "location_m": [100, 0, 0], "kind": "3d"}])
        batch = read_batch(csv_path, sidecar)
        np.testing.assert_array_equal(batch.az[1], [0.3, 0.4])
        np.testing.assert_array_equal(batch.rng[1], [100.0, 120.0])

    def test_mixed_range_cells(self, tmp_path):
        csv_text = ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
                    "0,0,100.0,0.1,0.0\n0,1,,0.2,0.0\n"
                    "1,0,100.0,0.1,0.0\n1,1,100.0,0.2,0.0\n")
        csv_path, sidecar = self.write_pair(
            tmp_path, csv_text,
            [{"id": 0, "location_m": [0, 0, 0], "kind": "3d"},
             {"id": 1, "location_m": [100, 0, 0], "kind": "3d"}])
        with pytest.raises(ValueError, match="rng_m") as info:
            read_batch(csv_path, sidecar)
        assert str(info.value).startswith(f"{csv_path}: sensor 0: ")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("kind", [None, "3d"])
    def test_range_cells_that_all_read_non_finite_are_refused(self, tmp_path, cell, kind):
        # an empty cell reads as NaN, the batch's mark of a bearing-only
        # sensor: cells that all read nan must not load as one
        csv_text = ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
                    "5,0,100.0,0.1,0.0\n5,1,100.0,0.2,0.0\n"
                    f"7,0,{cell},0.1,0.0\n7,1,{cell},0.2,0.0\n")
        sensors = [{"id": 5, "location_m": [0, 0, 0]}, {"id": 7, "location_m": [100, 0, 0]}]
        if kind is not None:
            sensors[1]["kind"] = kind
        csv_path, sidecar = self.write_pair(tmp_path, csv_text, sensors)
        with pytest.raises(DegenerateInputError) as info:
            read_batch(csv_path, sidecar)
        assert str(info.value) == (f"{csv_path}: sensor 7: rng must be finite and "
                                   f"positive, got {cell} at epoch 0")

    ID_CSV = ("sensor_id,epoch_index,rng_m,az_rad,el_rad\n"
              "0,0,,0.1,0.0\n0,1,,0.2,0.0\n1,0,,0.1,0.0\n1,1,,0.2,0.0\n")

    @pytest.mark.parametrize("bad_id, shown", [
        (1.9, "1.9"), (1.0, "1.0"), (True, "True"), ("1.9", "'1.9'"),
        ("-1", "'-1'"), (None, "None"), ([1], "[1]"),
    ], ids=["float", "integral-float", "boolean", "float-string",
            "signed-string", "null", "list"])
    def test_sidecar_id_must_be_an_integer(self, tmp_path, bad_id, shown):
        csv_path, sidecar = self.write_pair(
            tmp_path, self.ID_CSV,
            [{"id": 0, "location_m": [0, 0, 0]},
             {"id": bad_id, "location_m": [100, 0, 0]}])
        with pytest.raises(ValueError) as info:
            read_batch(csv_path, sidecar)
        assert str(info.value) == (f"{sidecar}: expected an integer id in "
                                   f"sensor entry 1, got {shown}")

    def test_sidecar_id_may_be_a_digit_string(self, tmp_path):
        csv_path, sidecar = self.write_pair(
            tmp_path, self.ID_CSV,
            [{"id": "1", "location_m": [100, 0, 0]},
             {"id": "0", "location_m": [0, 0, 0]}])
        batch = read_batch(csv_path, sidecar)
        np.testing.assert_array_equal(batch.locations,
                                      [[0, 0, 0], [100, 0, 0]])
