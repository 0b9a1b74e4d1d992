"""Tests for rotation-bias estimation (relative, absolute, 2D, 3D)."""

import dataclasses
import itertools
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sensorreg import calibration
from sensorreg.calibration import (
    MeasurementBatch,
    StoppingCriteria,
    absolute_2d,
    absolute_3d,
    pairwise_cost,
    relative_3d,
    relative_hetero,
)
from sensorreg.errors import (
    DegenerateInputError,
    ExperimentError,
    MissingRangeError,
    ZeroVectorError,
)
from sensorreg.experiments import ExperimentConfig, realizations, run_experiment
from sensorreg.geometry import (
    EulerAngles,
    cart_to_spherical,
    direction_from_angles,
    euler_to_rotation,
    geodesic_angle,
    is_rotation_matrix,
    rotation_from_rotvec,
    skew,
)
from sensorreg.scenario import (
    SensorTruth,
    build_batch,
    generate_trajectory,
    sample_biases,
)
from sensorreg.triangulation import LAMBDA_INIT, LAMBDA_MAX, LAMBDA_MIN, bearing_residuals
from sensorreg.wahba import solve_wahba

DEG = np.pi / 180.0

RING = [[14500.0, 1700.0, -300.0], [2500.0, 8600.0, -600.0],
        [2500.0, -5100.0, -150.0], [-1500.0, 1700.0, -450.0]]
# criterion 4's constellation (tests/test_acceptance.py)
RING_8 = RING + [[10500.0, 8600.0, -750.0], [10500.0, -5100.0, -900.0],
                 [6500.0, 9700.0, -500.0], [6500.0, -6300.0, -250.0]]


def make_targets(n=40, seed=0):
    """A generic spread-out 3D point cloud for exact-recovery tests."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-4000, 4000, size=(n, 3)) + [2000, 1000, -5000]


def noiseless_batch(points, locations, biases, kinds=None):
    """Build exact measurements of ``points`` from biased sensors.

    Each sensor reports local coordinates distorted by the transpose of
    its correcting rotation euler_to_rotation(bias).
    """
    locations = np.asarray(locations, dtype=float)
    n_sensors = locations.shape[0]
    kinds = kinds or ["3d"] * n_sensors
    sph = [cart_to_spherical((points - locations[s]) @ euler_to_rotation(biases[s]))
           for s in range(n_sensors)]
    return MeasurementBatch(az=[m.az for m in sph], el=[m.el for m in sph],
                            rng=[m.rng if kind == "3d" else np.full(len(points), np.nan)
                                 for m, kind in zip(sph, kinds)],
                            locations=locations)


def add_noise(batch, rng, sigmas=(3e-3, 3e-3, 10.0)):
    """``batch`` plus Gaussian noise of ``sigmas`` on az, el and rng, drawn
    sensor by sensor in that order."""
    noise = np.array([[sigma * rng.normal(size=batch.n_epochs) for sigma in sigmas]
                      for _ in range(batch.n_sensors)])
    return dataclasses.replace(batch, az=batch.az + noise[:, 0], el=batch.el + noise[:, 1],
                               rng=batch.rng + noise[:, 2])


def batch_of(s, n, **kwargs):
    """S sensors with ranges that see n targets at one bearing."""
    return MeasurementBatch(**{"az": np.full((s, n), 0.1), "el": np.zeros((s, n)),
                               "rng": np.ones((s, n)), "locations": np.zeros((s, 3)),
                               **kwargs})


class TestDataStructures:
    def test_batch_shapes(self):
        batch = MeasurementBatch(az=[[0.1, 0.2], [0.3, 0.4]], el=np.zeros((2, 2)),
                                 rng=[[100.0, 200.0], [np.nan, np.nan]],
                                 locations=np.zeros((2, 3)))
        assert (batch.n_sensors, batch.n_epochs, batch.kinds) == (2, 2, ["3d", "2d"])
        for field, shape in (("az", (4,)), ("el", (2, 1)), ("rng", (2, 3)), ("rng", (3, 2))):
            with pytest.raises(ValueError, match=r"^az, el and rng must be \(S, n\) "
                                                 r"arrays of one shape$"):
                batch_of(2, 2, **{field: np.ones(shape)})

    @settings(max_examples=100, deadline=None)
    @given(n_sensors=st.integers(2, 5), n=st.integers(2, 20), data=st.data())
    def test_bad_values_name_field_and_first_epoch(self, n_sensors, n, data):
        # the first sensor with a bad value is named by its id, with its
        # first bad field (az, el, then rng) and that field's first bad
        # epoch; a bearing-only sensor's all-NaN ranges are not bad
        fields = ("az", "el", "rng")
        ids = data.draw(st.lists(st.integers(0, 999), min_size=n_sensors,
                                 max_size=n_sensors, unique=True), label="ids")
        ranged = np.array(data.draw(st.lists(st.booleans(), min_size=n_sensors,
                                             max_size=n_sensors), label="ranged"))
        values = {"az": np.full((n_sensors, n), 0.1), "el": np.full((n_sensors, n), -0.2),
                  "rng": np.where(ranged[:, np.newaxis], 1000.0, np.full((n_sensors, n), np.nan))}
        sensor = data.draw(st.integers(0, n_sensors - 1), label="sensor")
        field = data.draw(st.sampled_from(fields[:3 if ranged[sensor] else 2]), label="field")
        bad = [np.nan, np.inf, -np.inf] + ([0.0, -5.0] if field == "rng" else [])
        epoch = data.draw(st.integers(0, n - 1), label="epoch")
        values[field][sensor, epoch] = data.draw(st.sampled_from(bad))
        values[field][sensor, epoch + 1:] = data.draw(st.sampled_from(bad))
        # NaN ranges at every epoch make the sensor bearing-only
        assume(not np.isnan(values["rng"][sensor]).all())
        # bad values after the first one: in later fields, or in later sensors
        for s, later in itertools.product(range(sensor, n_sensors), fields):
            if (s, fields.index(later)) > (sensor, fields.index(field)) and data.draw(
                    st.booleans()):
                values[later][s, data.draw(st.integers(0, n - 1))] = np.inf
        with pytest.raises(DegenerateInputError, match=f"^sensor {ids[sensor]}: {field} "
                                                       f"must be .* at epoch {epoch}$"):
            batch_of(n_sensors, n, ids=ids, **values)

    @pytest.mark.parametrize("row, epoch", [
        ([1000.0, np.nan, 1000.0], 1), ([np.nan, 1000.0, 1000.0], 0),
        ([1000.0, 1000.0, np.nan], 2), ([np.nan, np.nan, 5.0], 0)])
    def test_range_row_mixing_nan_and_finite_is_refused(self, row, epoch):
        # NaN marks a bearing-only sensor only where it fills the row
        rng = np.array([[1000.0] * 3, [np.nan] * 3, row])
        with pytest.raises(DegenerateInputError, match=f"^sensor 70: rng must be finite "
                                                       f"and positive, got nan at epoch "
                                                       f"{epoch}$"):
            batch_of(3, 3, rng=rng, ids=(30, 50, 70))
        assert batch_of(2, 3, rng=rng[:2]).kinds == ["3d", "2d"]

    def test_batch_local_positions_stack_every_sensor(self):
        batch = noiseless_batch(make_targets(), RING_8[:5], sample_biases(
            5, np.random.default_rng(0)))
        rays, stacked = batch.directions(), batch.local_positions()
        assert rays.shape == stacked.shape == (5, 40, 3)
        for ray, got, az, el, rng in zip(rays, stacked, batch.az, batch.el, batch.rng):
            one = direction_from_angles(az, el)
            np.testing.assert_array_equal(ray, one)
            np.testing.assert_array_equal(got, rng[:, np.newaxis] * one)

    @settings(max_examples=40, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["2d", "3d"]), min_size=2, max_size=8))
    def test_kinds_name_each_sensor(self, kinds):
        batch = noiseless_batch(make_targets(n=3), RING_8[:len(kinds)],
                                [EulerAngles(0, 0, 0)] * len(kinds), kinds)
        assert batch.kinds == kinds
        assert batch.directions().shape == (len(kinds), 3, 3)

    @pytest.mark.parametrize("bearing_only", [0, 1, 2])
    def test_batch_local_positions_need_every_range(self, bearing_only):
        kinds = ["3d"] * 3
        kinds[bearing_only] = "2d"
        batch = noiseless_batch(make_targets(), RING[:3], [EulerAngles(0, 0, 0)] * 3, kinds)
        with pytest.raises(MissingRangeError):
            batch.local_positions()
        with pytest.raises(MissingRangeError):
            batch.local_positions([bearing_only])
        # the ranging sensors alone, in the order asked for
        ranging = [s for s in (2, 1, 0) if s != bearing_only]
        rays, positions = batch.directions(ranging), batch.local_positions(ranging)
        for ray, got, s in zip(rays, positions, ranging):
            one = direction_from_angles(batch.az[s], batch.el[s])
            np.testing.assert_array_equal(ray, one)
            np.testing.assert_array_equal(got, batch.rng[s, :, np.newaxis] * one)

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="^a batch needs at least two sensors$"):
            batch_of(1, 2)
        with pytest.raises(ValueError, match="^a batch needs at least two shared targets$"):
            batch_of(2, 1)
        with pytest.raises(ValueError, match=r"^locations must be \(2, 3\)$"):
            batch_of(2, 2, locations=np.zeros((3, 3)))
        assert batch_of(2, 2).ids == (0, 1)
        for ids in ((30,), (30, 30), (30, 70, 90)):
            with pytest.raises(ValueError, match="ids must be 2 distinct sensor ids"):
                batch_of(2, 2, ids=ids)

    def test_batch_rejects_non_finite_location(self):
        locations = np.zeros((3, 3))
        locations[1, 2] = np.nan
        with pytest.raises(DegenerateInputError, match="sensor 1 must be finite"):
            batch_of(3, 2, locations=locations)

    def test_stopping_criteria_validation(self):
        StoppingCriteria(rel_cost_tol=0.0)  # zero disables the cost rule
        with pytest.raises(ValueError):
            StoppingCriteria(rel_cost_tol=-1e-3)
        with pytest.raises(ValueError):
            StoppingCriteria(max_iterations=0)

    @pytest.mark.parametrize("field, value, message", [
        ("rel_cost_tol", float("nan"), "rel_cost_tol must be finite and non-negative"),
        ("rel_cost_tol", float("inf"), "rel_cost_tol must be finite and non-negative"),
        ("rel_cost_tol", -float("inf"), "rel_cost_tol must be finite and non-negative"),
        ("max_iterations", 2.5, "max_iterations must be an integer, got 2.5"),
        ("max_iterations", 3.0, "max_iterations must be an integer, got 3.0"),
        ("max_iterations", True, "max_iterations must be an integer, got True"),
        ("rel_cost_tol", "a", "rel_cost_tol must be a number, got 'a'"),
        ("rel_cost_tol", None, "rel_cost_tol must be a number, got None"),
        ("rel_cost_tol", True, "rel_cost_tol must be a number, got True"),
    ])
    def test_stopping_criteria_names_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            StoppingCriteria(**{field: value})
        StoppingCriteria(rel_cost_tol=np.float64(0.5), max_iterations=np.int64(3))


class TestPairwiseCost:
    def test_hand_value(self):
        # common-frame tracks differ by (10, 0, 0) at epoch 0 and agree at 1
        positions = [np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]]),
                     np.array([[-80.0, 0.0, 0.0], [-100.0, 10.0, 0.0]])]
        sph = cart_to_spherical(np.array(positions))
        batch = MeasurementBatch(az=sph.az, el=sph.el, rng=sph.rng,
                                 locations=[[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        cost = pairwise_cost([np.eye(3), np.eye(3)], batch.local_positions(),
                             batch.locations)
        assert cost == pytest.approx(100.0)

    def test_zero_at_truth(self):
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [6000.0, -2000.0, -300.0]])
        biases = [EulerAngles(5 * DEG, -3 * DEG, 2 * DEG),
                  EulerAngles(-4 * DEG, 2 * DEG, 6 * DEG)]
        batch = noiseless_batch(points, locations, biases)
        truth = [euler_to_rotation(b) for b in biases]
        assert pairwise_cost(truth, batch.local_positions(), batch.locations) \
            == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sensors=st.integers(2, 8),
           n=st.integers(2, 40))
    def test_centroid_form_equals_the_sum_over_pairs(self, seed, n_sensors, n):
        # S sum_s ||c_s - c||^2 is the pair sum, at random rotations and at
        # the truth of a noisy batch, where the tracks nearly agree; a
        # common shift of every location changes neither
        rng = np.random.default_rng(seed)
        points = rng.uniform(-20000.0, 20000.0, size=(n, 3)) + [0.0, 0.0, -5000.0]
        locations = rng.uniform(-20000.0, 20000.0, size=(n_sensors, 3))
        biases = [EulerAngles(*(rng.uniform(-5, 5, 3) * DEG)) for _ in range(n_sensors)]
        batch = add_noise(noiseless_batch(points, locations, biases), rng)
        shifted = dataclasses.replace(batch, locations=locations + rng.uniform(-20000.0,
                                                                               20000.0, 3))
        positions = batch.local_positions()
        for rotations in (rotation_from_rotvec(rng.normal(size=(n_sensors, 3))),
                          euler_to_rotation(biases)):
            expected = n_pair_cost(rotations, positions, locations)
            for cost in (pairwise_cost(rotations, positions, locations),
                         pairwise_cost(rotations, positions, shifted.locations)):
                assert cost == pytest.approx(expected, rel=1e-12, abs=0)


# the public solver behind each selector; the pair flag alone tells alg3
# from alg4 and alg6 from alg7
SOLVER_OF = {"alg1": "relative_3d", "alg2": "relative_hetero",
             "alg3": "absolute_3d", "alg4": "absolute_3d",
             "alg6": "absolute_2d", "alg7": "absolute_2d"}


@pytest.mark.parametrize("name", sorted(calibration.ALGORITHMS))
def test_selector_runs_through_its_module_solver(name, monkeypatch):
    # each selector looks its solver up on the module when it is called,
    # so a wrapped or patched module attribute is the one that runs
    calls = []
    for solver in set(SOLVER_OF.values()):
        monkeypatch.setattr(calibration, solver,
                            lambda *args, solver=solver: calls.append((solver, args))
                            or solver)
    batch, stopping = object(), StoppingCriteria()
    assert calibration.ALGORITHMS[name].solve(batch, stopping) == SOLVER_OF[name]
    expected = (batch,) if SOLVER_OF[name].startswith("relative") else (batch, stopping)
    assert calls == [(SOLVER_OF[name], expected)]


class TestRelative3d:
    def test_noiseless_recovery(self):
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 2000.0, -400.0]])
        bias = EulerAngles(7 * DEG, -4 * DEG, 3 * DEG)
        batch = noiseless_batch(points, locations,
                                [bias, EulerAngles(0.0, 0.0, 0.0)])
        rot = relative_3d(batch).estimates[0]
        assert geodesic_angle(rot, euler_to_rotation(bias)) < 1e-9

    def test_noisy_stays_close(self):
        rng = np.random.default_rng(30)
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 2000.0, -400.0]])
        bias = EulerAngles(7 * DEG, -4 * DEG, 3 * DEG)
        batch = noiseless_batch(points, locations,
                                [bias, EulerAngles(0.0, 0.0, 0.0)])
        az, el, rng_m = batch.az.copy(), batch.el.copy(), batch.rng.copy()
        az[0] += 3e-3 * rng.normal(size=points.shape[0])
        el[0] += 3e-3 * rng.normal(size=points.shape[0])
        rng_m[0] += 10.0 * rng.normal(size=points.shape[0])
        noisy = dataclasses.replace(batch, az=az, el=el, rng=rng_m)
        rot = relative_3d(noisy).estimates[0]
        assert geodesic_angle(rot, euler_to_rotation(bias)) < 20e-3

    def test_requires_exactly_two(self):
        points = make_targets(10)
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0],
                              [0.0, 5000.0, 0.0]])
        batch = noiseless_batch(points, locations,
                                [EulerAngles(0, 0, 0)] * 3)
        with pytest.raises(ValueError):
            relative_3d(batch)


class TestRelativeHetero:
    def test_noiseless_recovery(self):
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 2000.0, -400.0]])
        bias = EulerAngles(-6 * DEG, 5 * DEG, -2 * DEG)
        batch = noiseless_batch(points, locations,
                                [bias, EulerAngles(0.0, 0.0, 0.0)],
                                kinds=["2d", "3d"])
        rot = relative_hetero(batch).estimates[0]
        assert geodesic_angle(rot, euler_to_rotation(bias)) < 1e-9

    def test_reference_must_have_ranges(self):
        points = make_targets(10)
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0]])
        batch = noiseless_batch(points, locations, [EulerAngles(0, 0, 0)] * 2,
                                kinds=["2d", "2d"])
        with pytest.raises(MissingRangeError):
            relative_hetero(batch)

    def test_requires_exactly_two(self):
        points = make_targets(10)
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0],
                              [0.0, 5000.0, 0.0]])
        batch = noiseless_batch(points, locations, [EulerAngles(0, 0, 0)] * 3,
                                kinds=["2d", "3d", "3d"])
        with pytest.raises(ValueError, match="exactly 2 sensors required, got 3"):
            relative_hetero(batch)

    def test_target_at_sensor_raises(self):
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0]])
        # second target sits exactly at sensor 0, direction undefined
        points = np.array([[1000.0, 500.0, -200.0], [0.0, 0.0, 0.0]])
        az = np.array([0.1, 0.2])
        el = np.array([0.0, 0.0])
        ref_local = points - locations[1]
        sph = cart_to_spherical(ref_local)
        batch = MeasurementBatch(az=[az, sph.az], el=[el, sph.el],
                                 rng=[np.full(2, np.nan), sph.rng], locations=locations)
        with pytest.raises(ZeroVectorError):
            relative_hetero(batch)


class TestAbsolute3dPair:
    def test_identity_when_unbiased(self):
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 2000.0, -400.0]])
        batch = noiseless_batch(points, locations, [EulerAngles(0, 0, 0)] * 2)
        result = absolute_3d(batch, StoppingCriteria(rel_cost_tol=0.0,
                                                     max_iterations=5))
        assert result.gauge_ambiguous
        for est in result.estimates:
            assert geodesic_angle(est, np.eye(3)) < 1e-9

    def test_corrected_tracks_coincide(self):
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0]])
        biases = [EulerAngles(10 * DEG, 0.0, 0.0),
                  EulerAngles(-15 * DEG, 0.0, 0.0)]
        batch = noiseless_batch(points, locations, biases)
        result = absolute_3d(batch, StoppingCriteria(rel_cost_tol=0.0,
                                                     max_iterations=200))
        a1, a2 = result.estimates
        positions = batch.local_positions()
        track1 = positions[0] @ a1.T + locations[0]
        track2 = positions[1] @ a2.T + locations[1]
        np.testing.assert_allclose(track1, track2, atol=1e-5)

    def test_relative_rotation_is_gauge_invariant(self):
        # the product A1^T A2 survives the baseline ambiguity and must
        # match the true relative rotation Rz(10)^T Rz(-15) = Rz(-25)
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0]])
        biases = [EulerAngles(10 * DEG, 0.0, 0.0),
                  EulerAngles(-15 * DEG, 0.0, 0.0)]
        batch = noiseless_batch(points, locations, biases)
        result = absolute_3d(batch, StoppingCriteria(rel_cost_tol=0.0,
                                                     max_iterations=200))
        a1, a2 = result.estimates
        expected = euler_to_rotation(EulerAngles(-25 * DEG, 0.0, 0.0))
        assert geodesic_angle(a1.T @ a2, expected) < 1e-6

    def test_cost_invariant_under_baseline_rotation(self):
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0]])
        biases = [EulerAngles(10 * DEG, -5 * DEG, 3 * DEG),
                  EulerAngles(-15 * DEG, 2 * DEG, -8 * DEG)]
        batch = noiseless_batch(points, locations, biases)
        result = absolute_3d(batch)
        positions = batch.local_positions()
        base_cost = pairwise_cost(result.estimates, positions, locations)
        for alpha in (0.3, -1.2, 2.5):
            q = euler_to_rotation(EulerAngles(0.0, 0.0, alpha))  # about x = baseline
            turned = [q @ est for est in result.estimates]
            assert pairwise_cost(turned, positions, locations) == pytest.approx(
                base_cost, rel=1e-9, abs=1e-9)

    def test_cost_trace_never_increases(self):
        # each per-sensor update of the start and each Gauss-Newton step
        # kept after it lowers the pair cost, for any number of sensors
        rng = np.random.default_rng(31)
        points = make_targets(60, seed=31)
        for n_sensors in (2, 3, 4, 8):
            locations = np.array([[0.0, 0.0, 0.0], [7000.0, 1000.0, -300.0]]
                                 if n_sensors == 2 else RING_8[:n_sensors])
            for _ in range(30):
                biases = [EulerAngles(*(rng.uniform(-20, 20, 3) * DEG))
                          for _ in range(n_sensors)]
                batch = add_noise(noiseless_batch(points, locations, biases), rng)
                for stopping in (StoppingCriteria(), StoppingCriteria(rel_cost_tol=1e-12)):
                    trace = np.asarray(absolute_3d(batch, stopping).cost_trace)
                    assert np.all(np.diff(trace) <= 0.0), (n_sensors, stopping)

    @pytest.mark.parametrize("algorithm", ["alg3", "alg6"])
    def test_pair_at_one_location_is_refused(self, algorithm):
        # a pair at one location has no baseline, so no gauge axis: both
        # solvers must refuse it with an error that names the location and
        # that the Monte-Carlo study records, not a numpy error that ends it
        cfg = ExperimentConfig(algorithm=algorithm, sensor_count=2, mc_runs=5,
                               sensor_locations_m=[[1000, 0, 0], [1000, 0, 0]])
        batch, _ = next(iter(realizations(cfg, 1)))
        with pytest.raises(DegenerateInputError, match=r"^sensors 0 and 1 share the "
                                                        r"location \[1000\.0, 0\.0, 0\.0\]"):
            calibration.ALGORITHMS[algorithm].solve(batch, StoppingCriteria())
        with pytest.raises(ExperimentError, match="0/5 realizations succeeded.*share the "
                                                  "location"):
            run_experiment(cfg)

    def test_no_convergence_flag_on_tiny_budget(self):
        rng = np.random.default_rng(32)
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0]])
        biases = [EulerAngles(15 * DEG, -10 * DEG, 5 * DEG),
                  EulerAngles(-5 * DEG, 8 * DEG, -12 * DEG)]
        batch = noiseless_batch(points, locations, biases)
        az = batch.az.copy()
        az[0] += 3e-3 * rng.normal(size=points.shape[0])
        batch = dataclasses.replace(batch, az=az)
        result = absolute_3d(batch, StoppingCriteria(max_iterations=1))
        assert result.iterations == 1
        assert not result.converged


class TestAbsolute3d:
    def test_noiseless_exact_recovery(self):
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [8000.0, 1000.0, -200.0],
                              [2000.0, 7000.0, -500.0]])
        biases = [EulerAngles(10 * DEG, -10 * DEG, 10 * DEG),
                  EulerAngles(-10 * DEG, 10 * DEG, 10 * DEG),
                  EulerAngles(10 * DEG, 10 * DEG, -10 * DEG)]
        batch = noiseless_batch(points, locations, biases)
        result = absolute_3d(batch, StoppingCriteria(rel_cost_tol=0.0,
                                                     max_iterations=60))
        assert not result.gauge_ambiguous
        for est, bias in zip(result.estimates, biases):
            assert geodesic_angle(est, euler_to_rotation(bias)) < 1e-8

    def test_estimates_stay_on_manifold(self):
        rng = np.random.default_rng(33)
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [8000.0, 1000.0, -200.0],
                              [2000.0, 7000.0, -500.0], [-3000.0, 4000.0, -100.0]])
        biases = [EulerAngles(*(rng.uniform(-10, 10, 3) * DEG)) for _ in range(4)]
        batch = noiseless_batch(points, locations, biases)
        result = absolute_3d(add_noise(batch, rng))
        for est in result.estimates:
            assert is_rotation_matrix(est, tol=1e-9)

    def test_epoch_permutation_invariance(self):
        rng = np.random.default_rng(34)
        points = make_targets(30, seed=34)
        locations = np.array([[0.0, 0.0, 0.0], [8000.0, 1000.0, -200.0],
                              [2000.0, 7000.0, -500.0]])
        biases = [EulerAngles(*(rng.uniform(-5, 5, 3) * DEG)) for _ in range(3)]
        batch = noiseless_batch(points, locations, biases)
        perm = rng.permutation(points.shape[0])
        shuffled = dataclasses.replace(batch, az=batch.az[:, perm], el=batch.el[:, perm],
                                       rng=batch.rng[:, perm])
        r1 = absolute_3d(batch)
        r2 = absolute_3d(shuffled)
        for a, b in zip(r1.estimates, r2.estimates):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rejects_bearing_only_sensor(self):
        points = make_targets(10)
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0],
                              [0.0, 5000.0, 0.0]])
        batch = noiseless_batch(points, locations, [EulerAngles(0, 0, 0)] * 3,
                                kinds=["3d", "2d", "3d"])
        with pytest.raises(MissingRangeError):
            absolute_3d(batch)

    def test_large_biases_reach_the_right_minimum(self):
        # 20-40 degree biases on RING_8[:7] (seed 0), realization 10: a
        # start that aligned the sensor pairs one at a time led the steps
        # to a false minimum about 170 degrees off (cost 4.29e10 m^2,
        # 2983 mrad), reported as converged
        cfg = ExperimentConfig(algorithm="alg4", sensor_count=7, seed=0, mc_runs=11,
                               bias_low_deg=20.0, bias_high_deg=40.0,
                               sensor_locations_m=RING_8[:7])
        batch, truth = list(realizations(cfg, cfg.mc_runs))[10]
        result = absolute_3d(batch)
        assert result.converged and result.cost_trace[-1] < 1e7
        for est, rot in zip(result.estimates, truth.rotations):
            assert geodesic_angle(est, rot) < 5e-3

    def test_collinear_sensors_warn(self):
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 1.0, 0.0],
                              [10000.0, 2.0, 0.0]])
        batch = noiseless_batch(points, locations, [EulerAngles(0, 0, 0)] * 3)
        with pytest.warns(UserWarning, match="collinear") as record:
            absolute_3d(batch, StoppingCriteria(max_iterations=2))
        # the warning names the line that called the solver
        assert record[0].filename == __file__

    def test_exactly_collinear_sensors_warn(self):
        # a common rotation about the sensors' line leaves the cost
        # unchanged, so the Gauss-Newton system is singular up to rounding
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0], [10000.0, 0.0, 0.0]])
        biases = [EulerAngles(3 * DEG, -2 * DEG, 1 * DEG), EulerAngles(-1 * DEG, 2 * DEG, 4 * DEG),
                  EulerAngles(2 * DEG, 1 * DEG, -3 * DEG)]
        for bias in ([EulerAngles(0, 0, 0)] * 3, biases):
            batch = noiseless_batch(points, locations, bias)
            for stopping in (StoppingCriteria(max_iterations=2), StoppingCriteria(),
                             StoppingCriteria(rel_cost_tol=0.0, max_iterations=10)):
                with pytest.warns(UserWarning, match="collinear"):
                    result = absolute_3d(batch, stopping)
                for est in result.estimates:
                    assert is_rotation_matrix(est, tol=1e-9)

    def test_sensors_at_one_location_are_refused(self):
        # a common rotation about the shared point moves no track, so no
        # absolute rotation is observable, however many sensors share it
        for algorithm in ("alg4", "alg7"):
            cfg = ExperimentConfig(algorithm=algorithm, sensor_count=3, mc_runs=5,
                                   sensor_locations_m=[RING[0]] * 3)
            batch, _ = next(iter(realizations(cfg, 1)))
            with pytest.raises(DegenerateInputError, match=r"^sensors 0, 1 and 2 share the "
                                                            r"location \[14500\.0, 1700\.0, -300\.0\]"):
                calibration.ALGORITHMS[algorithm].solve(batch, StoppingCriteria())


def n_pair_cost(rotations, positions, locations):
    """``pairwise_cost`` summed pair by pair over all n targets."""
    common = [p @ r.T + loc for r, p, loc in zip(rotations, positions, locations)]
    return sum(float(np.sum((common[t] - common[s]) ** 2))
               for t in range(len(common)) for s in range(t + 1, len(common)))


def n_pair_absolute_3d(batch, stopping):
    """``absolute_3d`` as it was before its pair updates went through
    3x3 moments: every update solves Wahba's problem on all n target
    pairs, and the cost sums the pairs one by one."""
    positions, locations = batch.local_positions(), batch.locations
    n_sensors = batch.n_sensors
    rotations = [np.eye(3)] * n_sensors

    trace = [n_pair_cost(rotations, positions, locations)]
    for iterations in range(1, stopping.max_iterations + 1):
        for t in range(n_sensors - 1):
            for s in range(t + 1, n_sensors):
                target = positions[s] @ rotations[s].T + (locations[s] - locations[t])
                rotations[t] = solve_wahba(positions[t], target)
                target = positions[t] @ rotations[t].T + (locations[t] - locations[s])
                rotations[s] = solve_wahba(positions[s], target)
        trace.append(n_pair_cost(rotations, positions, locations))
        if trace[-2] <= 0.0 or abs(trace[-2] - trace[-1]) < stopping.rel_cost_tol * trace[-2]:
            return rotations, trace, iterations, True
    return rotations, trace, iterations, False


def n_pair_start(batch):
    """``absolute_3d``'s start without moments: ``WARM_START_SWEEPS``
    passes from identity, each fitting every sensor in turn by one Wahba
    solve on all n (S - 1) target pairs against its partners' current
    tracks.  At S = 2 each pass is the paper's pair update.  Returns the
    rotations and the cost there."""
    positions, locations = batch.local_positions(), batch.locations
    n_sensors = batch.n_sensors
    rotations = [np.eye(3)] * n_sensors

    for _ in range(calibration.WARM_START_SWEEPS):
        for t in range(n_sensors):
            others = [s for s in range(n_sensors) if s != t]
            targets = [positions[s] @ rotations[s].T + (locations[s] - locations[t])
                       for s in others]
            rotations[t] = solve_wahba(np.concatenate([positions[t]] * len(others)),
                                       np.concatenate(targets))
    return rotations, n_pair_cost(rotations, positions, locations)


class TestMomentSweep:
    # absolute_3d starts with WARM_START_SWEEPS per-sensor passes from
    # identity before its Gauss-Newton steps; with the damped loop stubbed
    # out it returns that start, at the cost its trace begins with
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sensors=st.integers(2, 6),
           n=st.integers(5, 120))
    def test_matches_n_pair_sweep(self, seed, n_sensors, n):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-20000.0, 20000.0, size=(n, 3)) + [0.0, 0.0, -5000.0]
        locations = rng.uniform(-20000.0, 20000.0, size=(n_sensors, 3))
        biases = [EulerAngles(*(rng.uniform(-5, 5, 3) * DEG)) for _ in range(n_sensors)]
        batch = add_noise(noiseless_batch(points, locations, biases), rng)
        with warnings.catch_warnings(), mock.patch.object(
                calibration, "_levenberg_marquardt", lambda state, *args: (state, 0, False)):
            warnings.simplefilter("ignore", UserWarning)  # near-collinear draws
            result = absolute_3d(batch)
        rotations, cost = n_pair_start(batch)
        assert result.iterations == 0 and result.converged is False
        np.testing.assert_allclose(result.cost_trace, [cost], rtol=1e-11, atol=0)
        for got, want in zip(result.estimates, rotations):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("algorithm, count", [("alg4", 4), ("alg3", 2)])
    def test_the_start_never_decides_converged(self, algorithm, count):
        # with a tolerance of 1 any accepted step converges, but the sweeps
        # are no step: from them one damped Gauss-Newton step still lowers
        # the cost (alg4 5.069e6 -> 2.217e6 m^2, alg3 3.481e5 -> 3.280e5),
        # where a verdict on the sweeps' own decrease stopped before it
        cfg = ExperimentConfig(algorithm=algorithm, sensor_count=count, seed=0, mc_runs=1,
                               sensor_locations_m=RING_8[:count])
        batch, _ = next(iter(realizations(cfg, 1)))
        result = absolute_3d(batch, StoppingCriteria(rel_cost_tol=1.0))
        assert result.converged and result.iterations == 1
        assert len(result.cost_trace) == 2 and result.cost_trace[1] < result.cost_trace[0]

    def test_damped_steps_reach_a_pair_far_from_the_sweep(self):
        # with 20-40 degree biases the start leaves these two pairs far
        # from the least-squares point (cost 1.03e7 and 6.86e7 against
        # 3.77e5 and 3.65e5 m^2, 27 and 188 times); the damped steps
        # still get there
        cfg = ExperimentConfig(algorithm="alg3", sensor_count=2, seed=3, mc_runs=26,
                               bias_low_deg=20.0, bias_high_deg=40.0,
                               sensor_locations_m=RING[:2])
        batches = [batch for batch, _ in realizations(cfg, cfg.mc_runs)]
        tight = StoppingCriteria(rel_cost_tol=1e-12)
        for batch in (batches[22], batches[25]):
            swept = n_pair_absolute_3d(batch, tight)[1][-1]
            result = absolute_3d(batch, tight)
            assert result.converged and result.iterations <= 7
            assert result.cost_trace[0] > 20.0 * swept
            assert result.cost_trace[-1] <= swept * (1.0 + 1e-12)

    @pytest.mark.parametrize("n_sensors", [2, 3, 4, 8])
    def test_gauss_newton_step_matches_central_differences(self, n_sensors):
        # the moment-form step against -(J^T J)^-1 J^T r with a dense
        # central-difference Jacobian of the track differences in the
        # solver's parameters, R_s exp(d_s); for a pair, the least-squares
        # step over an independent basis of the steps off its gauge direction
        rng = np.random.default_rng(9)
        locations = np.asarray(RING_8[:n_sensors])
        positions = rng.normal(size=(n_sensors, 7, 3)) * 4000.0
        rotations = rotation_from_rotvec(rng.normal(size=(n_sensors, 3)) * 0.05)
        xs, ys = calibration._pair_moments(positions, locations)
        gauge = calibration._gauge_direction(rotations, locations) if n_sensors == 2 else None
        hessian, rhs = calibration._pair_normal_equations(rotations, xs, ys)
        step = calibration._confined_solve(hessian, rhs, gauge)

        def differences(steps):
            common = positions @ (rotations @ rotation_from_rotvec(steps)).transpose(0, 2, 1)
            common += locations[:, np.newaxis]
            upper = np.triu_indices(n_sensors, 1)
            return (common[upper[0]] - common[upper[1]]).ravel()

        jac = np.empty((differences(np.zeros((n_sensors, 3))).size, 3 * n_sensors))
        for k in range(3 * n_sensors):
            delta = np.zeros(3 * n_sensors)
            delta[k] = 1e-6
            jac[:, k] = (differences(delta.reshape(-1, 3)) - differences(
                -delta.reshape(-1, 3))) / 2e-6
        if gauge is not None:
            basis = scipy.linalg.null_space(gauge[np.newaxis])
            jac = jac @ basis
            assert abs(gauge @ step) <= 1e-12 * np.linalg.norm(gauge) * np.linalg.norm(step)
        expected = -np.linalg.solve(jac.T @ jac, jac.T @ differences(np.zeros((n_sensors, 3))))
        if gauge is not None:
            expected = basis @ expected
        np.testing.assert_allclose(step.ravel(), expected, rtol=0,
                                   atol=1e-6 * np.abs(expected).max())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sensors=st.integers(2, 8),
           n=st.integers(1, 30))
    def test_closed_form_blocks_match_the_dense_jacobian(self, seed, n_sensors, n):
        # J^T J from the pair moments alone against J assembled epoch by
        # epoch: -R_s [p_s^i]x and +R_t [p_t^i]x in every pair's rows
        rng = np.random.default_rng(seed)
        positions = rng.normal(size=(n_sensors, n, 3)) * 4000.0
        locations = rng.normal(size=(n_sensors, 3)) * 10000.0
        rotations = rotation_from_rotvec(rng.normal(size=(n_sensors, 3)))
        xs, ys = calibration._pair_moments(positions, locations)
        hessian = calibration._pair_normal_equations(rotations, xs, ys)[0]
        pairs = list(itertools.combinations(range(n_sensors), 2))
        jac = np.zeros((len(pairs), n, 3, n_sensors, 3))
        for k, (s, t) in enumerate(pairs):
            jac[k, :, :, s] = -rotations[s] @ skew(positions[s])
            jac[k, :, :, t] = rotations[t] @ skew(positions[t])
        jac = jac.reshape(-1, 3 * n_sensors)
        dense = jac.T @ jac
        np.testing.assert_allclose(hessian, dense, rtol=1e-12,
                                   atol=1e-12 * np.abs(dense).max())

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("n_sensors", range(3, 9))
    def test_ends_at_or_below_the_converged_sweep(self, seed, n_sensors):
        # the repeated pair sweep settles above the least-squares point of
        # three or more sensors; the Gauss-Newton steps go below it
        cfg = ExperimentConfig(algorithm="alg4", sensor_count=n_sensors, seed=seed,
                               mc_runs=4, sensor_locations_m=RING_8[:n_sensors])
        tight = StoppingCriteria(rel_cost_tol=1e-12)
        for batch, _ in realizations(cfg, cfg.mc_runs):
            swept = n_pair_absolute_3d(batch, tight)[1][-1]
            for stopping in (StoppingCriteria(), tight):
                result = absolute_3d(batch, stopping)
                assert result.cost_trace[-1] == pairwise_cost(
                    result.estimates, batch.local_positions(), batch.locations)
                assert result.cost_trace[-1] <= swept * (1.0 + 1e-12)


class TestLevenbergMarquardt:
    def test_lambda_schedule(self):
        # a toy whose cost is its state x: a trial halves x once lambda
        # reaches what the script asks of its iteration and doubles it
        # below that, so the first trial, at LAMBDA_INIT, raises the cost.
        # Lambda must grow x10 per rejection, fall /10 after each
        # acceptance down to LAMBDA_MIN, and the loop must stop at a fixed
        # point once the last iteration's lambda passes LAMBDA_MAX
        needed = [100.0 * LAMBDA_INIT] + [0.0] * 12 + [np.inf]
        tried = []

        def linearize(x):
            need = needed[len(tried)]
            tried.append([])

            def trial(lam):
                tried[-1].append(lam)
                assert len(tried[-1]) <= 100, "lambda does not grow"
                return x / 2.0 if lam >= need else 2.0 * x
            return trial

        trace = [1.0]
        state, iterations, converged = calibration._levenberg_marquardt(
            1.0, linearize, lambda x: x, trace, 0.0, 100)
        assert (state, iterations, converged) == (2.0 ** -13, 14, True)
        assert trace == [2.0 ** -k for k in range(14)]
        assert tried[0] == pytest.approx([LAMBDA_INIT, 10.0 * LAMBDA_INIT,
                                          100.0 * LAMBDA_INIT], rel=1e-12, abs=0)
        # then one accepted trial per iteration, the last two at the floor
        expected = [max(10.0 * LAMBDA_INIT / 10.0 ** k, LAMBDA_MIN) for k in range(12)]
        assert expected[-2:] == [LAMBDA_MIN] * 2
        assert [len(lams) for lams in tried[1:13]] == [1] * 12
        assert [lams[0] for lams in tried[1:13]] == pytest.approx(expected, rel=1e-12, abs=0)
        last = np.array(tried[13])
        assert last[0] == pytest.approx(LAMBDA_MIN, rel=1e-12, abs=0)
        np.testing.assert_allclose(last[1:] / last[:-1], 10.0, rtol=1e-12)
        assert last[-1] <= LAMBDA_MAX < 10.0 * last[-1]


class TestProcrustesSweep:
    # the start of both absolute solvers: WARM_START_SWEEPS sweeps from
    # identity, one Wahba solve per sensor against all of its partners
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sensors=st.integers(2, 8),
           n=st.integers(3, 40))
    def test_no_update_raises_the_pair_cost(self, seed, n_sensors, n):
        rng = np.random.default_rng(seed)
        positions = rng.normal(size=(n_sensors, n, 3)) * 4000.0
        locations = rng.normal(size=(n_sensors, 3)) * 10000.0
        # the sweeps update sensors 0, 1, ..., S - 1 in turn, so the spy
        # tracks the rotations they hold from the results it hands back
        current = np.stack([np.eye(3)] * n_sensors)
        costs = [pairwise_cost(current, positions, locations)]

        def solve_then_cost(xs, ys):
            t = (len(costs) - 1) % n_sensors
            current[t] = solve_wahba(xs, ys)
            costs.append(pairwise_cost(current, positions, locations))
            return current[t].copy()

        with mock.patch.object(calibration, "solve_wahba", solve_then_cost):
            rotations = calibration._procrustes_sweeps(positions, locations)[0]
        assert len(costs) == calibration.WARM_START_SWEEPS * n_sensors + 1
        assert np.array_equal(rotations, current)
        for before, after in zip(costs, costs[1:]):
            assert after <= before * (1.0 + 1e-12)


class TestClosedFormSweep:
    @pytest.mark.parametrize("algorithm, kind, count, solve", [
        ("alg4", "3d", 4, lambda batch: absolute_3d(batch)),
        ("alg7", "2d", 8, lambda batch: calibration._warm_start(batch)),
    ])
    def test_no_sweep_call_falls_back(self, monkeypatch, algorithm, kind, count, solve):
        # a Wahba call that the closed form declines pays for the SVD as
        # well: neither absolute_3d's sweeps nor absolute_2d's epipolar
        # start may get there on criterion-4 data.  Each of absolute_3d's
        # sweeps solves each sensor once, on 4 moment rows per partner;
        # the epipolar start solves each sensor once, on its S - 1 baselines
        svd = np.linalg.svd
        from_wahba = []

        def counting_svd(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "sensorreg.wahba":
                from_wahba.append(args[0].shape)
            return svd(*args, **kwargs)

        solves = []

        def counting_solve(xs, ys):
            solves.append(len(xs))
            return solve_wahba(xs, ys)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(calibration, "solve_wahba", counting_solve)
        # the counter sees a declined call: a half turn goes to the SVD
        xs = np.eye(3)
        solve_wahba(xs, xs @ np.diag([1.0, -1.0, -1.0]))
        assert from_wahba == [(3, 3)]
        from_wahba.clear()
        cfg = ExperimentConfig(algorithm=algorithm, sensor_kind=kind, sensor_count=count,
                               seed=0, mc_runs=4, sensor_locations_m=RING_8[:count])
        for batch, _ in realizations(cfg, cfg.mc_runs):
            solve(batch)
        if algorithm == "alg4":
            assert solves == [4 * (count - 1)] * (cfg.mc_runs * calibration.WARM_START_SWEEPS
                                                  * count)
        else:
            assert solves == [count - 1] * (cfg.mc_runs * count)
        assert from_wahba == []


@pytest.mark.parametrize("algorithm, kind, solve", [
    ("alg4", "3d", absolute_3d),
    ("alg7", "2d", absolute_2d),
])
def test_both_absolute_solvers_stop_at_their_fixed_point_or_budget(algorithm, kind, solve):
    # with no cost tolerance only the fixed point (no damped step lowers
    # the cost) stops a solve before its budget; one iteration less
    # budget stops it there, unconverged
    cfg = ExperimentConfig(algorithm=algorithm, sensor_kind=kind, sensor_count=4,
                           seed=0, mc_runs=1, sensor_locations_m=RING)
    batch, _ = next(iter(realizations(cfg, 1)))
    result = solve(batch, StoppingCriteria(rel_cost_tol=0.0, max_iterations=100))
    assert result.converged and result.iterations < 100
    budget = result.iterations - 1
    cut = solve(batch, StoppingCriteria(rel_cost_tol=0.0, max_iterations=budget))
    assert not cut.converged and cut.iterations == budget


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2), count=st.integers(3, 5), budget=st.integers(1, 4),
       tol=st.sampled_from([0.0, 1e-3]))
@example(seed=0, count=3, budget=1, tol=1e-3)
@pytest.mark.parametrize("algorithm", sorted(calibration.ALGORITHMS))
def test_every_selector_counts_gauss_newton_systems(algorithm, seed, count, budget, tol):
    # every selector counts one way: iterations is the number of
    # Gauss-Newton systems built, at least one and at most max_iterations,
    # and the cost trace holds the start's cost and at most one more per
    # system; the one-shot relative fits build none and report one
    # iteration and one cost
    batch = world_frame_batch(algorithm, count, seed)
    with mock.patch.object(calibration, "_pair_normal_equations",
                           side_effect=calibration._pair_normal_equations) as pair, \
            mock.patch.object(calibration, "_normal_equations",
                              side_effect=calibration._normal_equations) as joint:
        result = calibration.ALGORITHMS[algorithm].solve(
            batch, StoppingCriteria(rel_cost_tol=tol, max_iterations=budget))
        systems = pair.call_count + joint.call_count
    assert result.iterations <= budget
    assert len(result.cost_trace) <= result.iterations + 1
    if calibration.ALGORITHMS[algorithm].relative:
        assert systems == 0 and result.iterations == 1 and len(result.cost_trace) == 1
    else:
        assert 1 <= systems == result.iterations


@settings(max_examples=10, deadline=None)
@given(seed=st.sampled_from([0, 1, 2]), angle=st.floats(0.01, 0.03),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       shift=st.tuples(*[st.floats(-5000.0, 5000.0)] * 3))
@pytest.mark.parametrize("algorithm, kind, solve", [
    ("alg4", "3d", absolute_3d),
    ("alg7", "2d", absolute_2d),
])
def test_estimates_turn_with_the_world(algorithm, kind, solve, seed, angle, axis, shift):
    # the same local measurements with every location turned by a small
    # world rotation Q give the estimates Q A_s at the fixed point, and with
    # every location shifted, the same A_s; both within 1e-5 mrad (measured:
    # at most 6e-7 mrad on RING, S=4)
    cfg = ExperimentConfig(algorithm=algorithm, sensor_kind=kind, sensor_count=4,
                           seed=seed, mc_runs=1, sensor_locations_m=RING)
    batch, _ = next(iter(realizations(cfg, 1)))
    turn = rotation_from_rotvec(angle * np.asarray(axis) / np.linalg.norm(axis))
    fixed_point = StoppingCriteria(rel_cost_tol=0.0)
    base = solve(batch, fixed_point).estimates
    turned = solve(dataclasses.replace(batch, locations=batch.locations @ turn.T),
                   fixed_point).estimates
    shifted = solve(dataclasses.replace(batch, locations=batch.locations + shift),
                    fixed_point).estimates
    for est, est_turned, est_shifted in zip(base, turned, shifted):
        assert geodesic_angle(turn @ est, est_turned) < 1e-8
        assert geodesic_angle(est, est_shifted) < 1e-8


# The world frame's metamorphic properties at the fixed point: realization
# 0 of a 24-epoch study on RING_8's first sensors, solved at 1e-12.  What
# a transform must leave alone is what a selector determines: every A_s,
# or for alg3/alg6 the relative rotation A_1^T A_0 (the pair's gauge about
# its baseline is free).  Each holds within 1e-5 mrad, from the worst
# cases measured over seeds 0-2 with 120 (pairs) or 126 (S = 3..8) random
# transforms per selector, given in each test.
WORLD_FRAME_TOL = 1e-8  # rad


def world_frame_batch(algorithm, count, seed):
    """Realization 0 of the study on RING_8's first ``count`` sensors, or
    its first two for a pair algorithm."""
    count = 2 if calibration.ALGORITHMS[algorithm].pair else count
    cfg = ExperimentConfig(algorithm=algorithm, sensor_count=count, seed=seed, mc_runs=1,
                           sample_count=24, sensor_locations_m=RING_8[:count])
    return next(iter(realizations(cfg, 1)))[0]


def determined(algorithm, batch, order=None):
    """What ``algorithm`` determines on ``batch`` at 1e-12: its estimates,
    or A_1^T A_0 for an absolute pair.  If the batch holds the sensors
    ``order`` picks, the estimates are put back in the original order."""
    selector = calibration.ALGORITHMS[algorithm]
    estimates = np.asarray(selector.solve(batch, StoppingCriteria(rel_cost_tol=1e-12)).estimates)
    if order is not None:
        estimates[np.asarray(order)] = estimates.copy()
    absolute_pair = selector.pair and not selector.relative
    return [estimates[1].T @ estimates[0]] if absolute_pair else list(estimates)


def assert_same_rotations(got, want):
    for a, b in zip(got, want, strict=True):
        assert geodesic_angle(a, b) < WORLD_FRAME_TOL


ABSOLUTE = ["alg3", "alg4", "alg6", "alg7"]


@settings(max_examples=15, deadline=None)
@given(seed=st.sampled_from([0, 1, 2]), count=st.integers(3, 8), data=st.data())
@pytest.mark.parametrize("algorithm", ABSOLUTE)
def test_permuting_the_sensors_permutes_the_estimates(algorithm, seed, count, data):
    # measured at most 7.0e-7 mrad (alg4), 7.4e-7 (alg7), 2.4e-8 (alg3)
    # and 3.6e-9 (alg6)
    batch = world_frame_batch(algorithm, count, seed)
    order = data.draw(st.permutations(range(batch.n_sensors)))
    permuted = MeasurementBatch(batch.az[order], batch.el[order], batch.rng[order],
                                batch.locations[order])
    assert_same_rotations(determined(algorithm, permuted, order), determined(algorithm, batch))


@settings(max_examples=15, deadline=None)
@given(seed=st.sampled_from([0, 1, 2]), count=st.integers(3, 8),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1))
@pytest.mark.parametrize("algorithm", ABSOLUTE)
def test_a_small_world_rotation_turns_the_estimates(algorithm, seed, count, axis):
    # the measurements are local, so a world rotation G turns only the
    # locations, and the estimates become G A_s (a pair's A_1^T A_0 stays);
    # measured at most 7.0e-7 mrad (alg4), 8.2e-7 (alg7), 1.2e-7 (alg3)
    # and 6.9e-7 (alg6)
    batch = world_frame_batch(algorithm, count, seed)
    turn = rotation_from_rotvec(0.02 * np.asarray(axis) / np.linalg.norm(axis))
    turned = dataclasses.replace(batch, locations=batch.locations @ turn.T)
    base = np.asarray(determined(algorithm, batch))
    want = base if calibration.ALGORITHMS[algorithm].pair else turn @ base
    assert_same_rotations(determined(algorithm, turned), want)


@settings(max_examples=15, deadline=None)
@given(seed=st.sampled_from([0, 1, 2]), count=st.integers(3, 8),
       shift=st.tuples(*[st.floats(-5000.0, 5000.0)] * 3))
@pytest.mark.parametrize("algorithm", sorted(calibration.ALGORITHMS))
def test_a_common_shift_changes_no_estimate(algorithm, seed, count, shift):
    # every solver sees only the differences of the locations; measured at
    # most 8.8e-7 mrad (alg7), 7.1e-7 (alg6), 7.0e-7 (alg4), 9.6e-8 (alg3)
    # and 1.8e-10 (alg1, alg2)
    batch = world_frame_batch(algorithm, count, seed)
    shifted = dataclasses.replace(batch, locations=batch.locations + shift)
    assert_same_rotations(determined(algorithm, shifted), determined(algorithm, batch))


@settings(max_examples=15, deadline=None)
@given(seed=st.sampled_from([0, 1, 2]), count=st.integers(3, 8),
       scale=st.floats(0.1, 10.0))
@pytest.mark.parametrize("algorithm", ["alg6", "alg7"])
def test_scaling_the_locations_changes_no_bearing_only_estimate(algorithm, seed, count,
                                                                 scale):
    # bearings fix the network only up to its scale (here 0.1-10 times);
    # measured at most 7.1e-7 mrad (alg6) and 5.8e-7 (alg7)
    batch = world_frame_batch(algorithm, count, seed)
    scaled = dataclasses.replace(batch, locations=scale * batch.locations)
    assert_same_rotations(determined(algorithm, scaled), determined(algorithm, batch))


def few_epochs(count, epochs, runs=3):
    """The first ``runs`` noiseless bearing-only realizations of ``count``
    sensors (RING's first ones, or a drawn constellation beyond four)
    with the trajectory thinned to ``epochs`` epochs."""
    cfg = ExperimentConfig(algorithm="alg6" if count == 2 else "alg7",
                           sensor_count=count, sample_count=epochs,
                           sigma_az_mrad=0.0, sigma_el_mrad=0.0,
                           sensor_locations_m=RING[:count] if count <= len(RING) else None)
    return list(realizations(cfg, runs))


class TestEpipolarStart:
    @settings(max_examples=10, deadline=None)
    @given(count=st.integers(2, 8), seed=st.sampled_from([0, 1, 2]),
           angle=st.floats(0.0, np.pi),
           axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
               lambda v: np.linalg.norm(v) > 0.1))
    @example(count=2, seed=0, angle=2.5, axis=(0.3, -0.5, 0.8))
    def test_estimates_turn_with_any_world_rotation(self, count, seed, angle, axis):
        # a world rotation G of any angle turns only the locations, and the
        # epipolar start depends on neither the biases nor the world frame,
        # so the fixed point's estimates are G A_s within 1e-5 mrad
        # (measured: at most 1.8e-6 mrad over 390 rotations of up to pi on
        # RING, S = 3..8, seeds 0-4, 24 epochs; from identity sweeps 15 of
        # 90 ended more than 1e-3 mrad off, up to 2970 mrad, and 51 were
        # refused).  A pair's start sets its gauge about the baseline from
        # the baseline itself, so only what it determines, A_1^T A_0, is
        # compared (measured: at most 1.6e-6 mrad over 100 rotations,
        # seeds 0-4)
        cfg = ExperimentConfig(algorithm="alg6" if count == 2 else "alg7", sensor_count=count,
                               seed=seed, mc_runs=1, sample_count=24,
                               sensor_locations_m=RING_8[:count])
        batch, _ = next(iter(realizations(cfg, 1)))
        turn = rotation_from_rotvec(angle * np.asarray(axis) / np.linalg.norm(axis))
        fixed_point = StoppingCriteria(rel_cost_tol=0.0)
        base = absolute_2d(batch, fixed_point).estimates
        turned = absolute_2d(dataclasses.replace(batch, locations=batch.locations @ turn.T),
                             fixed_point).estimates
        if count == 2:
            assert geodesic_angle(base[1].T @ base[0], turned[1].T @ turned[0]) < 1e-8
        else:
            for est, est_turned in zip(base, turned):
                assert geodesic_angle(turn @ est, est_turned) < 1e-8

    @settings(max_examples=20, deadline=None)
    @given(count=st.integers(2, 8), seed=st.sampled_from([0, 1, 2]),
           biases=st.sampled_from([(1.0, 4.0), (0.0, 0.2)]),
           angle=st.floats(0.0, np.pi),
           axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
               lambda v: np.linalg.norm(v) > 0.1))
    @example(count=4, seed=0, biases=(0.0, 0.2), angle=2.5, axis=(0.3, -0.5, 0.8))
    def test_start_turns_with_any_world_rotation(self, count, seed, biases, angle, axis):
        # whether the start is kept depends only on how its own rays meet,
        # so under any bias and any world rotation G the rotations
        # _warm_start returns are G A_s within 1e-9 rad, and a pair's
        # A_1^T A_0 is unchanged (measured: at most 4.1e-12 mrad over 70
        # draws of both bias ranges, S = 2..8, seeds 0-4).  Small biases
        # are drawn because a start kept only where it met better than
        # identity missed by up to 34.2 mrad under them
        cfg = ExperimentConfig(algorithm="alg6" if count == 2 else "alg7", sensor_count=count,
                               seed=seed, mc_runs=1, sample_count=24,
                               bias_low_deg=biases[0], bias_high_deg=biases[1],
                               sensor_locations_m=RING_8[:count])
        batch, _ = next(iter(realizations(cfg, 1)))
        turn = rotation_from_rotvec(angle * np.asarray(axis) / np.linalg.norm(axis))
        start = calibration._warm_start(batch)[0]
        turned = calibration._warm_start(dataclasses.replace(
            batch, locations=batch.locations @ turn.T))[0]
        if count == 2:
            assert geodesic_angle(start[1].T @ start[0], turned[1].T @ turned[0]) < 1e-9
        else:
            assert np.all(geodesic_angle(turn @ start, turned) < 1e-9)

    def test_kept_where_identity_meets_better(self, monkeypatch):
        # RING S = 4, seed 0, under 0-0.2 degree biases, run 0: on the
        # sample, identity's rays meet better (misfit 2.5e-5) than the
        # start's (6.6e-5), yet the start is kept, since only
        # EPIPOLAR_MAX_MISFIT decides; identity is never scored
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=4, seed=0, mc_runs=1,
                               bias_low_deg=0.0, bias_high_deg=0.2, sensor_locations_m=RING)
        batch, _ = next(iter(realizations(cfg, 1)))
        ray_misfits, scored = calibration._ray_misfits, []

        def recording_misfits(*args):
            scored.append(args)
            return ray_misfits(*args)

        monkeypatch.setattr(calibration, "_ray_misfits", recording_misfits)
        start = calibration._epipolar_start(batch.directions(), batch.locations)
        assert start is not None
        [(rotations, sample, locations)] = scored
        identity = np.broadcast_to(np.eye(3), start.shape)
        assert rotations is start
        assert (ray_misfits(identity, sample, locations) < ray_misfits(start, sample, locations)
                < calibration.EPIPOLAR_MAX_MISFIT)

    def test_large_biases_on_drawn_sensors(self):
        # drawn placement (S=4, seed 2) under 20-40 degree biases, realization
        # 19: the sweeps from identity led the joint solve 2948 mrad off with
        # 42 epochs dropped, reported converged; from the epipolar start it
        # ends 3.56 mrad off at its worst sensor with none dropped
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=4, seed=2, mc_runs=20,
                               bias_low_deg=20.0, bias_high_deg=40.0)
        batch, truth = list(realizations(cfg, cfg.mc_runs))[19]
        result = absolute_2d(batch, StoppingCriteria(rel_cost_tol=1e-12))
        assert result.converged and result.dropped_indices == 0
        assert max(geodesic_angle(est, rot)
                   for est, rot in zip(result.estimates, truth.rotations)) < 5e-3

    @pytest.mark.parametrize("case", ["200-s track", "pair", "7 epochs"])
    def test_sweeps_where_the_rays_cannot_fix_the_start(self, monkeypatch, case):
        # the eight-point fits of a 200-s track are degenerate (their starts
        # were 1285-3141 mrad off), for a pair as for four sensors, and seven
        # epochs are too few for them: each starts from WARM_START_SWEEPS
        # sweeps, one Wahba solve per sensor each, on 4 moment rows per
        # partner.  The 200-s tracks' epipolar starts are formed (for four
        # sensors by one solve per sensor on its S - 1 baselines, for a pair
        # by none) and refused by their ray misfit
        if case == "200-s track":
            cfg = ExperimentConfig(algorithm="alg7", sensor_count=4, seed=11, mc_runs=3,
                                   duration_s=200.0)
        else:
            cfg = ExperimentConfig(algorithm="alg6", sensor_count=2, seed=0, mc_runs=3,
                                   duration_s=200.0, sensor_locations_m=RING[:2])
        batches = few_epochs(4, 7) if case == "7 epochs" else list(realizations(cfg, 3))
        solves, misfits = [], []
        ray_misfits = calibration._ray_misfits

        def counting_solve(xs, ys):
            solves.append(len(xs))
            return solve_wahba(xs, ys)

        def counting_misfits(*args):
            misfits.append(ray_misfits(*args))
            return misfits[-1]

        monkeypatch.setattr(calibration, "solve_wahba", counting_solve)
        monkeypatch.setattr(calibration, "_ray_misfits", counting_misfits)
        for batch, _ in batches:
            del solves[:], misfits[:]
            calibration._warm_start(batch)
            count = batch.n_sensors
            tried = [count - 1] * count if case == "200-s track" else []
            assert solves == tried + [4 * (count - 1)] * (calibration.WARM_START_SWEEPS * count)
            assert len(misfits) == (case != "7 epochs")

    @pytest.mark.parametrize("case", ["7 epochs", "200-s track"])
    def test_the_fallback_intersects_the_rays_once(self, monkeypatch, case):
        # where no epipolar start is kept, the measured rays are
        # intersected once and absolute_3d's sweeps run on the tracks their
        # ranges give (intersecting the turned rays again before each sweep
        # did no better on 200-s tracks).  The 200-s tracks' epipolar start
        # intersects its sample, here every epoch, inside _ray_misfits
        short = {"sample_count": 7} if case == "7 epochs" else {
            "duration_s": 200.0, "bias_low_deg": 20.0, "bias_high_deg": 40.0}
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=4, seed=0, mc_runs=3,
                               sensor_locations_m=RING, **short)
        intersect, ray_misfits = calibration.intersect_rays, calibration._ray_misfits
        calls, scoring = [], []

        def counting_intersect(locations, directions):
            calls.append((bool(scoring), directions.shape[1]))
            return intersect(locations, directions)

        def flagged_misfits(*args):
            scoring.append(True)
            try:
                return ray_misfits(*args)
            finally:
                scoring.pop()

        for batch, _ in realizations(cfg, cfg.mc_runs):
            raw_dirs, locations = batch.directions(), batch.locations
            assert calibration._epipolar_start(raw_dirs, locations) is None
            points, ok = intersect(locations, raw_dirs)
            ranges = np.linalg.norm(points[ok] - locations[:, np.newaxis], axis=-1)
            want = calibration._procrustes_sweeps(ranges[..., np.newaxis] * raw_dirs[:, ok],
                                                  locations)[0]
            with monkeypatch.context() as patch:
                patch.setattr(calibration, "intersect_rays", counting_intersect)
                patch.setattr(calibration, "_ray_misfits", flagged_misfits)
                del calls[:]
                rotations = calibration._warm_start(batch)[0]
            assert np.array_equal(rotations, want)
            assert [n for scored, n in calls if not scored] == [batch.n_epochs]
            assert len(calls) == 1 + (case == "200-s track")

    def test_a_long_track_pair_starts_without_wahba(self, monkeypatch):
        # on a 900-s track a pair's epipolar start is kept: the smallest
        # rotation that lays sensor 0's local baseline on the common one,
        # and the pair's relative rotation, with no Wahba solve and no
        # sweep, within 50 mrad of the truth in A_1^T A_0 (measured: 4.0 to
        # 19.3 mrad on these runs, at most 21.9 over 800 pairs under 1-4,
        # 20-40 and 60-170 degree biases)
        cfg = ExperimentConfig(algorithm="alg6", sensor_count=2, seed=0, mc_runs=3,
                               sensor_locations_m=RING[:2])

        def no_solve(xs, ys):
            raise AssertionError("a long-track pair made a Wahba solve")

        monkeypatch.setattr(calibration, "solve_wahba", no_solve)
        for batch, truth in realizations(cfg, cfg.mc_runs):
            start = calibration._epipolar_start(batch.directions(), batch.locations)
            (a0, a1), _, ok = calibration._warm_start(batch)
            (r0, r1) = truth.rotations
            assert np.array_equal(start, [a0, a1]) and ok.all()
            assert geodesic_angle(a1.T @ a0, r1.T @ r0) < 5e-2

    def test_large_biases_on_a_pair(self):
        # RING's first pair (seed 1) under 20-40 degree biases, realization
        # 35: the sweeps from identity led the joint solve 2287 mrad off in
        # A_1^T A_0 with 38 epochs dropped, reported converged; from the
        # pair's epipolar start it ends 2.5 mrad off in 3 iterations
        cfg = ExperimentConfig(algorithm="alg6", sensor_count=2, seed=1, mc_runs=36,
                               bias_low_deg=20.0, bias_high_deg=40.0,
                               sensor_locations_m=RING[:2])
        batch, truth = list(realizations(cfg, cfg.mc_runs))[35]
        result = absolute_2d(batch)
        (a0, a1), (r0, r1) = result.estimates, truth.rotations
        assert result.converged and result.dropped_indices == 0
        assert geodesic_angle(a1.T @ a0, r1.T @ r0) < 1e-2

    @settings(max_examples=25, deadline=None)
    @given(biases=st.lists(st.floats(-170.0, 170.0), min_size=6, max_size=6),
           seed=st.integers(0, 2**16))
    def test_a_pair_under_any_biases(self, biases, seed):
        # RING's first pair on the default 900-s track, biased by up to 170
        # degrees about each axis: its epipolar start depends on no bias,
        # so the solve gives a result, never a refusal, within 25 mrad in
        # A_1^T A_0 (measured: at most 12.1 mrad over 3000 pairs drawn like
        # these, and 13.8 over the 600 pairs of 20-40 and 60-170 degree
        # studies; from the sweeps 58 of those 200 pairs under 60-170
        # degree biases ended gross and 80 were refused)
        cfg = ExperimentConfig(algorithm="alg6", sensor_count=2, seed=seed, mc_runs=1,
                               fixed_biases_deg=[biases[:3], biases[3:]],
                               sensor_locations_m=RING[:2])
        batch, truth = next(iter(realizations(cfg, 1)))
        result = absolute_2d(batch)
        (a0, a1), (r0, r1) = result.estimates, truth.rotations
        assert geodesic_angle(a1.T @ a0, r1.T @ r0) < 2.5e-2

    def test_a_wrong_short_track_start_is_refused(self):
        # drawn placement (S = 8, seed 0) on a 200-s track under 20-40
        # degree biases: the eight-point starts of realizations 3 and 6 met
        # their rays better than identity did, yet were 3038 and 2868 mrad
        # off, and the solves from them ended 2729 and 3117 mrad off,
        # reported converged.  Their rays miss by more than
        # EPIPOLAR_MAX_MISFIT, so both are refused: from the sweeps run 6
        # ends 5.8 mrad off, and run 3 keeps no epoch, which is refused too
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=8, seed=0, mc_runs=7,
                               duration_s=200.0, bias_low_deg=20.0, bias_high_deg=40.0)
        batches = list(realizations(cfg, cfg.mc_runs))
        for batch, _ in (batches[3], batches[6]):
            assert calibration._epipolar_start(batch.directions(), batch.locations) is None
        batch, truth = batches[6]
        result = absolute_2d(batch)
        assert result.converged
        assert max(geodesic_angle(est, rot)
                   for est, rot in zip(result.estimates, truth.rotations)) < 1e-2
        with pytest.raises(DegenerateInputError,
                           match="^8 bearing-only sensors need at least 3 usable epochs, got 0$"):
            absolute_2d(batches[3][0])

    def test_collinear_sensors_fall_back_to_the_sweeps(self, monkeypatch):
        # four sensors on one line: every baseline is parallel, so the
        # per-sensor Wahba solve on them is degenerate and the start gives
        # up before its misfit check; absolute_2d warns and sweeps instead
        # (the roll about the line is unobservable: this run ends about
        # 42 mrad from the truth)
        line = [[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0], [10000.0, 0.0, 0.0], [15000.0, 0.0, 0.0]]
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=4, seed=0, mc_runs=1,
                               sensor_locations_m=line)
        batch, _ = next(iter(realizations(cfg, 1)))
        assert batch.n_epochs == 91
        solves, refused = [], []

        def counting_solve(xs, ys):
            solves.append(len(xs))
            try:
                return solve_wahba(xs, ys)
            except DegenerateInputError:
                refused.append(len(xs))
                raise

        def no_misfit_check(*args):
            raise AssertionError("the collinear start reached its misfit check")

        monkeypatch.setattr(calibration, "solve_wahba", counting_solve)
        monkeypatch.setattr(calibration, "_ray_misfits", no_misfit_check)
        assert calibration._epipolar_start(batch.directions(), batch.locations) is None
        assert refused == [3]
        del solves[:], refused[:]
        with pytest.warns(UserWarning, match="nearly collinear"):
            result = absolute_2d(batch)
        assert refused == [3]
        assert solves == [3] + [4 * 3] * (calibration.WARM_START_SWEEPS * 4)
        assert result.converged


class TestAbsolute2d:
    def test_noiseless_recovery(self):
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [8000.0, 1000.0, -200.0],
                              [2000.0, 7000.0, -500.0]])
        biases = [EulerAngles(4 * DEG, -3 * DEG, 2 * DEG),
                  EulerAngles(-2 * DEG, 4 * DEG, -3 * DEG),
                  EulerAngles(3 * DEG, 2 * DEG, 4 * DEG)]
        batch = noiseless_batch(points, locations, biases,
                                kinds=["2d", "2d", "2d"])
        result = absolute_2d(batch, StoppingCriteria(rel_cost_tol=0.0,
                                                     max_iterations=500))
        for est, bias in zip(result.estimates, biases):
            assert geodesic_angle(est, euler_to_rotation(bias)) < 1e-6

    def test_pair_mutual_consistency(self):
        # pair solutions carry a baseline gauge freedom: individual
        # estimates need not match truth, but corrected tracks must
        # agree and the relative rotation A1^T A2 is pinned
        points = make_targets()
        locations = np.array([[0.0, 0.0, 0.0], [6000.0, 2000.0, -300.0]])
        biases = [EulerAngles(3 * DEG, -2 * DEG, 1 * DEG),
                  EulerAngles(-2 * DEG, 1 * DEG, 2 * DEG)]
        batch = noiseless_batch(points, locations, biases,
                                kinds=["2d", "2d"])
        result = absolute_2d(batch, StoppingCriteria(rel_cost_tol=0.0,
                                                     max_iterations=600))
        assert result.gauge_ambiguous
        assert result.cost_trace[-1] < 1e-9
        r1, r2 = (euler_to_rotation(b) for b in biases)
        a1, a2 = result.estimates
        assert geodesic_angle(a1.T @ a2, r1.T @ r2) < 1e-8

    def test_baseline_epoch_dropped(self):
        # epoch 7 sits exactly on the sensor baseline, so its rays are
        # parallel and the fix is flagged ill-conditioned and dropped;
        # the remaining epochs still determine the (identity) answer
        points = make_targets()
        points[7] = [4000.0, 0.0, 0.0]
        locations = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]])
        batch = noiseless_batch(points, locations,
                                [EulerAngles(0, 0, 0)] * 2,
                                kinds=["2d", "2d"])
        result = absolute_2d(batch)
        assert result.dropped_indices >= 1
        for est in result.estimates:
            assert geodesic_angle(est, np.eye(3)) < 1e-9

    def test_all_targets_degenerate_raises(self):
        # every target on the sensor baseline: nothing can be triangulated
        locations = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]])
        points = np.stack([np.linspace(4000.0, 9000.0, 8),
                           np.zeros(8), np.zeros(8)], axis=1)
        batch = noiseless_batch(points, locations,
                                [EulerAngles(0, 0, 0)] * 2,
                                kinds=["2d", "2d"])
        with pytest.raises(DegenerateInputError):
            absolute_2d(batch)

    @pytest.mark.parametrize("count, epochs, needed", [
        (2, 4, 6), (2, 5, 6), (3, 2, 4), (3, 3, 4), (4, 2, 3), (5, 2, 3), (6, 2, 3)])
    def test_too_few_epochs_raise(self, count, epochs, needed):
        # n epochs of S sensors give 2Sn residuals for 3S + 3n unknowns,
        # less a pair's baseline gauge.  With none to spare (S = 2, n = 5;
        # S = 3, n = 3) or with two epochs, noiseless batches fitted
        # exactly at answers up to 336 mrad off and reported converged
        batch, _ = few_epochs(count, epochs, runs=1)[0]
        with pytest.raises(DegenerateInputError,
                           match=f"^{count} bearing-only sensors need at least "
                                 f"{needed} usable epochs, got {epochs}$"):
            absolute_2d(batch)

    def test_no_residual_to_spare_can_fit_a_wrong_answer(self, monkeypatch):
        # why three sensors need four epochs: with three (2Sn = 3S + 3n)
        # the solve, let through, fits this noiseless batch exactly at an
        # answer 175 mrad off and calls it converged
        monkeypatch.setattr(calibration, "_check_usable", lambda ok, n_sensors: None)
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=3, sample_count=3,
                               sigma_az_mrad=0.0, sigma_el_mrad=0.0)
        batch, truth = list(realizations(cfg, 5))[4]
        result = absolute_2d(batch, StoppingCriteria(rel_cost_tol=1e-12))
        assert result.converged and result.cost_trace[-1] < 1e-20
        assert max(geodesic_angle(est, rot) for est, rot in
                   zip(result.estimates, truth.rotations)) > 0.1

    @pytest.mark.parametrize("count, epochs", [(2, 6), (3, 4), (4, 3), (6, 3)])
    def test_fewest_epochs_recover(self, count, epochs):
        for batch, truth in few_epochs(count, epochs):
            result = absolute_2d(batch, StoppingCriteria(rel_cost_tol=1e-12))
            assert result.converged
            if count == 2:  # a pair is only determined up to its baseline gauge
                (a1, a2), (r1, r2) = result.estimates, truth.rotations
                assert geodesic_angle(a1.T @ a2, r1.T @ r2) < 1e-9
            else:
                for est, rot in zip(result.estimates, truth.rotations):
                    assert geodesic_angle(est, rot) < 1e-9

    @pytest.mark.parametrize("count", [3, 4])
    @pytest.mark.parametrize("epochs", [8, 20, 60])
    def test_sensor_that_sees_only_near_its_pole(self, count, epochs):
        # sensor 0 sees a target circling 10 km overhead on an 800 m
        # radius, every sighting at 82-89 degrees elevation, where its
        # azimuth swings fast with the line of sight; those azimuths alone
        # fix its yaw about its own z axis (a solve that left them out
        # raised on a singular damped system)
        angle = np.linspace(0.0, 2.0 * np.pi, epochs, endpoint=False)
        trajectory = np.column_stack([800.0 * np.cos(angle), 800.0 * np.sin(angle),
                                      np.full(epochs, -10000.0)])
        locations = [(0.0, 0.0, 0.0), (15000.0, 3000.0, -100.0),
                     (4000.0, -12000.0, -50.0), (-9000.0, 8000.0, -20.0)]
        biases = sample_biases(count, np.random.default_rng(epochs), low=0.0, high=0.5 * DEG)
        sensors = [SensorTruth(location=loc, kind="2d", bias=bias,
                               sigma_az=3e-3, sigma_el=3e-3)
                   for loc, bias in zip(locations, biases)]
        batch, _ = build_batch(trajectory, sensors, seed=count)
        assert (np.abs(batch.el[0]) >= np.radians(80.0)).all()
        result = absolute_2d(batch)
        assert result.converged
        assert all(is_rotation_matrix(est) for est in result.estimates)

    def test_stops_at_its_fixed_point(self):
        # the default tolerance must leave the estimate where a much
        # tighter one would, not part-way along a slow approach
        trajectory = generate_trajectory()
        rng = np.random.default_rng(4)
        worst = 0.0
        for seed in range(8):
            sensors = [SensorTruth(location=tuple(loc), kind="2d", bias=bias,
                                   sigma_az=3e-3, sigma_el=3e-3)
                       for loc, bias in zip(RING, sample_biases(4, rng))]
            batch, _ = build_batch(trajectory, sensors, seed=seed)
            loose = absolute_2d(batch)
            tight = absolute_2d(batch, StoppingCriteria(rel_cost_tol=1e-12))
            assert loose.converged and tight.converged
            worst = max(worst, max(geodesic_angle(a, b) for a, b in
                                   zip(loose.estimates, tight.estimates)))
        assert worst <= 1e-5

    def test_warm_start_avoids_local_minimum(self):
        # from identity rotations realization 4 of this study settles in
        # a false minimum with an 86 mrad error
        cfg = ExperimentConfig(algorithm="alg7", sensor_kind="2d",
                               sensor_count=3, seed=11, mc_runs=5,
                               sensor_locations_m=RING[:3])
        report = run_experiment(cfg)
        assert all(rec.ok for rec in report.runs)
        assert max(float(rec.geodesic_mrad.max()) for rec in report.runs) <= 5.0

    def test_reaches_the_lower_minimum(self):
        # a multimodal realization (seed 5, S=6, run 24): a warm start that
        # aligned the sensor pairs one at a time led the joint solve to
        # 0.0063964 rad^2; the one that aligns each sensor to all of its
        # partners at once reaches 0.0063857, on the same epochs
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=6, seed=5, mc_runs=25,
                               sensor_locations_m=RING_8[:6])
        batch, _ = list(realizations(cfg, cfg.mc_runs))[24]
        result = absolute_2d(batch, StoppingCriteria(rel_cost_tol=1e-12))
        assert result.converged and result.dropped_indices == 0
        assert result.cost_trace[-1] < 0.00639

    def test_one_minimum_on_the_same_epochs(self):
        # criterion-4 study (seed 0, S=3), realization 38 ends at 0.0023204
        # rad^2 on all 91 epochs, and at 0.0023017 without epoch 87, which
        # sensor 0 sees within 4 degrees of its pole: where the warm start's
        # fix drops that epoch the solve ends there too, at the same minimum
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=3, seed=0, mc_runs=39,
                               sensor_locations_m=RING[:3])
        batch, _ = list(realizations(cfg, cfg.mc_runs))[38]
        keep = np.arange(batch.n_epochs) != 87
        without = dataclasses.replace(batch, az=batch.az[:, keep], el=batch.el[:, keep],
                                      rng=batch.rng[:, keep])
        tight = StoppingCriteria(rel_cost_tol=1e-12)
        full, cut = absolute_2d(batch, tight), absolute_2d(without, tight)
        assert (full.dropped_indices, cut.dropped_indices) == (0, 0)
        assert 0.0023204 < full.cost_trace[-1] < 0.0023205
        assert 0.0023017 < cut.cost_trace[-1] < 0.0023018

    def test_large_biases_reach_the_right_minimum(self):
        # 20-40 degree biases on RING (S=4, seed 0), realization 40: a warm
        # start that aligned the sensor pairs one at a time led the joint
        # solve to a false minimum about 180 degrees off (cost 9.77 rad^2,
        # 3138 mrad), reported as converged
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=4, seed=0, mc_runs=41,
                               bias_low_deg=20.0, bias_high_deg=40.0,
                               sensor_locations_m=RING)
        batch, truth = list(realizations(cfg, cfg.mc_runs))[40]
        result = absolute_2d(batch)
        assert result.converged and result.cost_trace[-1] < 0.01
        for est, rot in zip(result.estimates, truth.rotations):
            assert geodesic_angle(est, rot) < 5e-3

    def test_pair_gauge_does_not_drift(self):
        # any common rotation about the baseline fits a pair equally well:
        # the relative rotation must match the truth, and the solver must
        # not move the common rotation further than the warm start did
        trajectory = generate_trajectory()
        locations = np.asarray(RING[:2])
        baseline = (locations[1] - locations[0]) \
            / np.linalg.norm(locations[1] - locations[0])

        def about_baseline(rotations, references):
            # mean small-angle rotation about the baseline from references
            angles = []
            for rot, ref in zip(rotations, references):
                d = rot @ ref.T
                sine = 0.5 * np.array([d[2, 1] - d[1, 2], d[0, 2] - d[2, 0],
                                       d[1, 0] - d[0, 1]])
                angles.append(baseline @ sine)
            return float(np.mean(angles))

        rng = np.random.default_rng(1)
        for seed in range(4):
            sensors = [SensorTruth(location=tuple(loc), kind="2d", bias=bias,
                                   sigma_az=1e-3, sigma_el=1e-3)
                       for loc, bias in zip(locations, sample_biases(2, rng))]
            batch, truth = build_batch(trajectory, sensors, seed=seed)
            warm, _, _ = calibration._warm_start(batch)
            result = absolute_2d(batch, StoppingCriteria(rel_cost_tol=0.0))
            assert result.gauge_ambiguous and result.converged
            a1, a2 = result.estimates
            r1, r2 = truth.rotations
            assert geodesic_angle(a1.T @ a2, r1.T @ r2) < 3e-3
            warm_move = abs(about_baseline(warm, [np.eye(3)] * 2))
            solver_move = abs(about_baseline(result.estimates, warm))
            # projected steps leave only second-order drift; without the
            # projection it reaches 1-6 mrad here
            assert solver_move <= min(warm_move, 2e-4)

    def test_normal_equations_match_central_differences(self):
        # every block of the joint solver's normal equations against a dense
        # central-difference Jacobian of the residuals, in the solver's
        # parameters: A_s exp(w_s) for each sensor, x_i + dx_i for each point
        rng = np.random.default_rng(8)
        n_sensors, n = 3, 6
        locations = np.asarray(RING[:n_sensors])
        points = make_targets(n, seed=3)
        rotations = np.array([euler_to_rotation(b)
                              for b in sample_biases(n_sensors, rng)])
        seen = cart_to_spherical((points[np.newaxis] - locations[:, np.newaxis])
                                 @ rotations)
        az = seen.az + 2e-3 * rng.normal(size=seen.az.shape)
        el = seen.el + 2e-3 * rng.normal(size=seen.el.shape)

        res, jac, jac_rot = bearing_residuals(points, locations, az, el, rotations)
        v, u, w, b_rot, b_pts = calibration._normal_equations(res, jac, jac_rot)

        def residuals(rot_steps, point_steps):
            trial = rotations @ rotation_from_rotvec(rot_steps)
            return bearing_residuals(points + point_steps, locations, az, el, trial)[0].ravel()

        n_rot = 3 * n_sensors
        dense = np.empty((2 * n_sensors * n, n_rot + 3 * n))
        for k in range(dense.shape[1]):
            step = np.zeros(dense.shape[1])
            step[k] = 1e-6 if k < n_rot else 1e-3
            hi = residuals(step[:n_rot].reshape(n_sensors, 3), step[n_rot:].reshape(n, 3))
            lo = residuals(-step[:n_rot].reshape(n_sensors, 3), -step[n_rot:].reshape(n, 3))
            dense[:, k] = (hi - lo) / (2 * step[k])
        j_rot = dense[:, :n_rot].reshape(-1, n_sensors, 3).transpose(1, 0, 2)
        j_pts = dense[:, n_rot:].reshape(-1, n, 3).transpose(1, 0, 2)
        r = res.ravel()

        def close(actual, expected):
            np.testing.assert_allclose(actual, expected, rtol=1e-6,
                                       atol=1e-6 * np.abs(expected).max())

        close(u, j_rot.transpose(0, 2, 1) @ j_rot)
        close(v, j_pts.transpose(0, 2, 1) @ j_pts)
        close(w, np.einsum("sra,irb->isab", j_rot, j_pts))
        close(b_rot, -(j_rot.transpose(0, 2, 1) @ r))
        close(b_pts, -(j_pts.transpose(0, 2, 1) @ r))
        # the rotation blocks are block-diagonal: a sensor's rotation moves
        # only its own residuals
        cross = np.einsum("sra,trb->stab", j_rot, j_rot)
        off = ~np.eye(n_sensors, dtype=bool)
        assert np.abs(cross[off]).max() <= 1e-9 * np.abs(u).max()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sensors=st.integers(2, 8),
           n=st.integers(3, 60), log_lam=st.floats(-12.0, 6.0), gauged=st.booleans())
    def test_damped_step_matches_a_dense_solve(self, seed, n_sensors, n, log_lam, gauged):
        # the Schur-complement step against np.linalg.solve on the full
        # (3S + 3n)-square damped system built from the same blocks,
        # bordered by the gauge row for a pair (always, as absolute_2d
        # does) or for a drawn larger network.  The dense system is solved
        # after Jacobi scaling, and both steps must agree to 100 kappa eps
        # relative, with kappa the condition number of the scaled system
        # (the largest seen was 4 kappa eps, up to kappa = 1e17 for a pair
        # at lambda = 1e-12).
        rng = np.random.default_rng(seed)
        locations = np.asarray(RING_8[:n_sensors])
        points = make_targets(n, seed=seed % 97)
        rotations = np.array([euler_to_rotation(b)
                              for b in sample_biases(n_sensors, rng)])
        seen = cart_to_spherical((points[np.newaxis] - locations[:, np.newaxis])
                                 @ rotations)
        az = seen.az + 2e-3 * rng.normal(size=seen.az.shape)
        el = seen.el + 2e-3 * rng.normal(size=seen.el.shape)
        res, jac, jac_rot = bearing_residuals(points, locations, az, el, rotations)
        v, u, w, b_rot, b_pts = calibration._normal_equations(res, jac, jac_rot)
        gauge = calibration._gauge_direction(rotations, locations) \
            if gauged or n_sensors == 2 else None
        lam = 10.0 ** log_lam
        d_rot, d_pts = calibration._damped_step(v, u, w, b_rot, b_pts, lam, gauge)

        k, size = 3 * n_sensors, 3 * n_sensors + 3 * n
        dense = np.zeros((size + 1, size + 1))
        for s in range(n_sensors):
            dense[3 * s:3 * s + 3, 3 * s:3 * s + 3] = u[s]
        for i in range(n):
            dense[k + 3 * i:k + 3 * i + 3, k + 3 * i:k + 3 * i + 3] = v[i]
        dense[:k, k:size] = w.transpose(1, 2, 0, 3).reshape(k, 3 * n)
        dense[k:size, :k] = dense[:k, k:size].T
        dense[np.diag_indices(size)] *= 1.0 + lam
        rhs = np.concatenate([b_rot.ravel(), b_pts.ravel(), [0.0]])
        scale = np.append(1.0 / np.sqrt(np.diag(dense)[:size]), 1.0)
        if gauge is None:
            dense, rhs, scale = dense[:size, :size], rhs[:size], scale[:size]
        else:
            dense[:k, size] = dense[size, :k] = gauge
        scaled = dense * scale * scale[:, np.newaxis]
        expected = (scale * np.linalg.solve(scaled, scale * rhs))[:size]
        bound = 100.0 * np.linalg.cond(scaled) * np.finfo(float).eps
        for step, want in [(d_rot.ravel(), expected[:k]), (d_pts.ravel(), expected[k:])]:
            assert np.linalg.norm(step - want) <= bound * np.linalg.norm(want)
