"""Tests for the synthetic flight scenario and measurement simulator."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from sensorreg.calibration import MeasurementBatch
from sensorreg.geometry import EulerAngles, euler_to_rotation, geodesic_angle
from sensorreg.scenario import (
    ScenarioTruth,
    SensorTruth,
    build_batch,
    generate_trajectory,
    sample_biases,
    sample_sensor_locations,
)

DEG = np.pi / 180.0


class TestGenerateTrajectory:
    def setup_method(self):
        self.traj = generate_trajectory()

    def test_shape_and_start(self):
        assert self.traj.shape == (91, 3)
        np.testing.assert_allclose(self.traj[0], [0.0, 0.0, -1000.0])

    def test_rejects_ragged_duration(self):
        for duration, sample_period in [(905.0, 10.0), (-10.0, 10.0), (900.0, 0.0),
                                        (900.0, -10.0), (math.nan, 10.0), (1e300, 10.0)]:
            with pytest.raises(ValueError):
                generate_trajectory(duration, sample_period)

    def test_sample_count(self):
        # a finer sampling of the same flight passes through the same
        # points: legs are integrated exactly, not stepped
        fine = generate_trajectory(900.0, 2.0)
        assert fine.shape == (451, 3)
        np.testing.assert_allclose(fine[::5], self.traj, rtol=0.0, atol=1e-6)

    def test_constant_climb(self):
        # 10 m/s up in NED: z drops 100 m per 10 s sample
        dz = np.diff(self.traj[:, 2])
        np.testing.assert_allclose(dz, -100.0, atol=1e-9)
        assert self.traj[-1, 2] == pytest.approx(-10000.0)

    def test_chord_lengths(self):
        # straight steps cover 1000 m; a 10 s slice of a rate pi/60
        # turn with radius v/omega covers chord 2 R sin(pi/12)
        horiz = np.linalg.norm(np.diff(self.traj[:, :2], axis=0), axis=1)
        radius = 100.0 / (math.pi / 60.0)
        turn_chord = 2.0 * radius * math.sin(math.pi / 12.0)
        # leg pattern repeats every 360 s = 36 steps: 12 straight,
        # 6 turn, 12 straight, 6 turn
        phase = np.arange(90) % 36
        straight = (phase < 12) | ((phase >= 18) & (phase < 30))
        np.testing.assert_allclose(horiz[straight], 1000.0, atol=1e-6)
        np.testing.assert_allclose(horiz[~straight], turn_chord, atol=1e-6)

    def test_racetrack_closes_horizontally(self):
        # one full circuit (360 s = 36 steps) returns over the start
        np.testing.assert_allclose(self.traj[36, :2], [0.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(self.traj[72, :2], [0.0, 0.0], atol=1e-6)

    def test_turn_extremes(self):
        # widest points sit one turn radius beyond the straights
        radius = 100.0 / (math.pi / 60.0)
        assert self.traj[:, 0].max() == pytest.approx(12000.0 + radius)
        assert self.traj[:, 0].min() == pytest.approx(-radius)
        assert self.traj[:, 1].max() == pytest.approx(2.0 * radius)
        assert self.traj[:, 1].min() == pytest.approx(0.0, abs=1e-9)


class TestSensorTruth:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensorTruth(location=(0, 0, 0), kind="4d")
        with pytest.raises(ValueError):
            SensorTruth(location=(0, 0, 0), sigma_az=-1.0)

    def test_correcting_rotation(self):
        bias = EulerAngles(0.1, -0.05, 0.02)
        sensor = SensorTruth(location=(0, 0, 0), bias=bias)
        assert geodesic_angle(sensor.correcting_rotation,
                              euler_to_rotation(bias)) < 1e-15


def observe(points, sensor):
    """Noiseless measurements of ``points`` by ``sensor``, from build_batch."""
    reference = SensorTruth(location=(0.0, 0.0, -5000.0))
    batch, _ = build_batch(np.atleast_2d(points), [sensor, reference], seed=0)
    return batch.sensors[0]


class TestObserve:
    """What a sensor reports: build_batch's measurement model, noiseless."""

    def test_yaw_bias_sign_convention(self):
        # a sensor whose frame is yawed +10 degrees sees a target dead
        # north at azimuth -10 degrees
        sensor = SensorTruth(location=(0.0, 0.0, 0.0),
                             bias=EulerAngles(10 * DEG, 0.0, 0.0))
        m = observe([[1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0]], sensor)
        assert m.az[0] == pytest.approx(-10 * DEG)
        assert m.el[0] == pytest.approx(0.0, abs=1e-12)
        assert m.rng[0] == pytest.approx(1000.0)

    def test_unbiased_measurement(self):
        sensor = SensorTruth(location=(100.0, 200.0, -50.0))
        m = observe([[1100.0, 200.0, -50.0], [100.0, 1200.0, -50.0]], sensor)
        assert m.az[0] == pytest.approx(0.0, abs=1e-12)
        assert m.rng[0] == pytest.approx(1000.0)

    def test_bearing_only_sensor_has_no_range(self):
        sensor = SensorTruth(location=(0.0, 0.0, 0.0), kind="2d")
        m = observe([[500.0, 500.0, -100.0], [500.0, -500.0, -100.0]], sensor)
        assert m.rng is None and not m.is_3d
        assert m.az[0] == pytest.approx(math.atan2(500.0, 500.0))

    def test_matches_build_batch_noiseless(self):
        # scipy's intrinsic Z-Y-X rotation is the independent reference
        traj = generate_trajectory()
        bias = EulerAngles(2 * DEG, -1 * DEG, 3 * DEG)
        sensor = SensorTruth(location=(3000.0, -2000.0, -100.0), bias=bias)
        m = observe(traj, sensor)
        rot = Rotation.from_euler("ZYX", list(bias)).as_matrix()
        local = (traj - sensor.location_array) @ rot
        np.testing.assert_allclose(m.rng, np.linalg.norm(local, axis=1),
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(m.az, np.arctan2(local[:, 1], local[:, 0]),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            m.el, np.arctan2(local[:, 2], np.hypot(local[:, 0], local[:, 1])),
            rtol=0.0, atol=1e-12)


class TestBuildBatch:
    def test_returns_batch_and_truth(self):
        sensors = [SensorTruth(location=(0.0, 0.0, 0.0)),
                   SensorTruth(location=(5000.0, 0.0, -100.0), kind="2d")]
        batch, truth = build_batch(generate_trajectory(), sensors, seed=1)
        assert isinstance(batch, MeasurementBatch)
        assert isinstance(truth, ScenarioTruth)
        assert batch.n_sensors == 2 and batch.n_epochs == 91
        assert batch.sensors[0].is_3d and not batch.sensors[1].is_3d
        assert truth.target_positions.shape == (91, 3)
        assert len(truth.rotations) == 2

    def test_noiseless_round_trip(self):
        bias = EulerAngles(4 * DEG, -2 * DEG, 1 * DEG)
        sensors = [SensorTruth(location=(2000.0, 1000.0, -300.0), bias=bias),
                   SensorTruth(location=(0.0, 0.0, 0.0))]
        batch, truth = build_batch(generate_trajectory(), sensors, seed=3)
        # correcting the local positions with the true rotation must
        # reproduce the trajectory exactly
        corrected = (batch.sensors[0].local_positions()
                     @ truth.rotations[0].T) + [2000.0, 1000.0, -300.0]
        np.testing.assert_allclose(corrected, truth.target_positions,
                                   atol=1e-6)

    def test_noise_levels(self):
        point = np.array([5000.0, 3000.0, -2000.0])
        traj = np.tile(point, (10000, 1))
        sensor = SensorTruth(location=(0.0, 0.0, 0.0), sigma_range=10.0,
                             sigma_az=3e-3, sigma_el=2e-3)
        batch, _ = build_batch(traj, [sensor, SensorTruth(location=(1.0, 1.0, 0.0))],
                               seed=7)
        az_true = math.atan2(3000.0, 5000.0)
        el_true = math.atan2(-2000.0, math.hypot(5000.0, 3000.0))
        r_true = np.linalg.norm(point)
        m = batch.sensors[0]
        assert abs(np.mean(m.az) - az_true) < 1e-4
        assert 2.9e-3 < np.std(m.az - az_true) < 3.1e-3
        assert 1.9e-3 < np.std(m.el - el_true) < 2.1e-3
        assert 9.5 < np.std(m.rng - r_true) < 10.5

    def test_sensor_noise_streams_independent(self):
        point = np.array([5000.0, 3000.0, -2000.0])
        traj = np.tile(point, (10000, 1))
        sensors = [SensorTruth(location=(0.0, 0.0, 0.0), sigma_az=1e-3),
                   SensorTruth(location=(10.0, 0.0, 0.0), sigma_az=1e-3)]
        batch, _ = build_batch(traj, sensors, seed=11)
        res0 = batch.sensors[0].az - np.mean(batch.sensors[0].az)
        res1 = batch.sensors[1].az - np.mean(batch.sensors[1].az)
        rho = np.corrcoef(res0, res1)[0, 1]
        assert abs(rho) < 0.05

    def test_same_seed_reproduces(self):
        sensors = [SensorTruth(location=(0.0, 0.0, 0.0), sigma_az=3e-3,
                               sigma_el=3e-3, sigma_range=10.0),
                   SensorTruth(location=(5000.0, 0.0, 0.0), sigma_az=3e-3)]
        b1, _ = build_batch(generate_trajectory(), sensors, seed=42)
        b2, _ = build_batch(generate_trajectory(), sensors, seed=42)
        b3, _ = build_batch(generate_trajectory(), sensors, seed=43)
        np.testing.assert_array_equal(b1.sensors[0].az, b2.sensors[0].az)
        np.testing.assert_array_equal(b1.sensors[0].rng, b2.sensors[0].rng)
        np.testing.assert_array_equal(b1.sensors[1].az, b2.sensors[1].az)
        assert not np.array_equal(b1.sensors[0].az, b3.sensors[0].az)

    def test_rejects_trajectory_through_sensor(self):
        traj = np.array([[0.0, 0.0, -1000.0], [100.0, 0.0, -1000.0]])
        sensors = [SensorTruth(location=(100.0, 0.5, -1000.0)),
                   SensorTruth(location=(5000.0, 0.0, 0.0))]
        with pytest.raises(ValueError):
            build_batch(traj, sensors, seed=0)


class TestSampleSensorLocations:
    def test_shape_and_bounds(self):
        locs = sample_sensor_locations(6, seed=0)
        assert locs.shape == (6, 3)
        assert np.all(np.abs(locs[:, 0]) <= 10000.0)
        assert np.all(np.abs(locs[:, 1]) <= 10000.0)
        assert np.all(locs[:, 2] <= 0.0) and np.all(locs[:, 2] >= -1000.0)

    def test_center_offset(self):
        locs = sample_sensor_locations(4, seed=1, center=(5000.0, -2000.0))
        assert np.all(np.abs(locs[:, 0] - 5000.0) <= 10000.0)
        assert np.all(np.abs(locs[:, 1] + 2000.0) <= 10000.0)

    def test_prefixes_are_nested_and_spread(self):
        from sensorreg.geometry import collinearity_ratio
        big = sample_sensor_locations(8, seed=5)
        small = sample_sensor_locations(3, seed=5)
        np.testing.assert_array_equal(big[:3], small)
        for k in range(3, 9):
            assert collinearity_ratio(big[:k]) > 0.01


class TestSampleBiases:
    def test_magnitude_range_and_signs(self):
        rng = np.random.default_rng(0)
        biases = sample_biases(200, rng)
        arr = np.array([list(b) for b in biases])
        assert arr.shape == (200, 3)
        mags = np.abs(arr)
        assert np.all(mags >= math.radians(1.0))
        assert np.all(mags <= math.radians(4.0))
        # both signs occur in every angle column
        assert np.all((arr > 0).any(axis=0))
        assert np.all((arr < 0).any(axis=0))

    def test_custom_bounds(self):
        rng = np.random.default_rng(1)
        biases = sample_biases(50, rng, low=0.1, high=0.2)
        mags = np.abs(np.array([list(b) for b in biases]))
        assert np.all(mags >= 0.1) and np.all(mags <= 0.2)
