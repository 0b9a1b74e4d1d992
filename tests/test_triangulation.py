"""Tests for bearing-only position fixes."""

import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from sensorreg import triangulation
from sensorreg.errors import (DegenerateInputError, IllConditionedError,
                              NoConvergenceError, RegistrationError)
from sensorreg.experiments import ExperimentConfig, realizations
from sensorreg.geometry import (cart_to_spherical, direction_from_angles,
                                rotation_from_rotvec)
from sensorreg.triangulation import (
    CONDITION_LIMIT,
    STATUS_ILL_CONDITIONED,
    STATUS_OK,
    BearingSet,
    _ill_conditioned,
    bearing_residuals,
    intersect_rays,
    solve_positive_definite,
    triangulate,
    triangulate_batch,
)


def exact_bearings(locations, target):
    """Noise-free az/el from each sensor to one target."""
    locations = np.asarray(locations, dtype=float)
    s = cart_to_spherical(np.asarray(target, dtype=float) - locations)
    return s.az, s.el


class TestBearingSet:
    def test_valid_construction(self):
        bs = BearingSet(locations=[[0, 0, 0], [1000, 0, 0]],
                        az=[0.1, 0.2], el=[0.0, 0.0])
        assert bs.locations.shape == (2, 3)

    def test_single_sensor_rejected(self):
        with pytest.raises(ValueError):
            BearingSet(locations=[[0, 0, 0]], az=[0.1], el=[0.0])

    def test_duplicate_locations_rejected(self):
        with pytest.raises(ValueError):
            BearingSet(locations=[[0, 0, 0], [0, 0, 0]],
                       az=[0.1, 0.2], el=[0.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BearingSet(locations=[[0, 0, 0], [1, 0, 0]], az=[0.1], el=[0.0])


class TestResidualsAndJacobian:
    def test_zero_residual_at_truth(self):
        locs = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 800.0, -50.0]])
        target = np.array([400.0, 300.0, -200.0])
        az, el = exact_bearings(locs, target)
        res, _ = bearing_residuals(target[None, :], locs,
                                   az[:, None], el[:, None])
        np.testing.assert_allclose(res, 0.0, atol=1e-12)

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(21)
        locs = rng.uniform(-5000, 5000, size=(4, 3))
        points = rng.uniform(-3000, 3000, size=(5, 3)) + [0, 0, -2000]
        az = rng.uniform(-np.pi, np.pi, size=(4, 5))
        el = rng.uniform(-1.0, 1.0, size=(4, 5))
        _, jac = bearing_residuals(points, locs, az, el)
        h = 1e-3
        for axis in range(3):
            dp = np.zeros(3)
            dp[axis] = h
            rp, _ = bearing_residuals(points + dp, locs, az, el)
            rm, _ = bearing_residuals(points - dp, locs, az, el)
            fd = (rp - rm) / (2 * h)
            scale = np.maximum(np.abs(fd), 1e-6)
            np.testing.assert_array_less(np.abs(jac[:, :, axis] - fd) / scale, 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sensors=st.integers(2, 8),
           max_el_deg=st.sampled_from([30.0, 60.0, 85.0]))
    def test_rotation_path_matches_central_differences(self, seed, n_sensors,
                                                       max_el_deg):
        # target i sits at a random local bearing of sensor i mod S, with
        # |el| up to max_el_deg; targets some other sensor sees above 85
        # degrees are left out
        rng = np.random.default_rng(seed)
        locs = rng.uniform(-5000, 5000, size=(n_sensors, 3))
        rotations = Rotation.random(n_sensors, rng=rng).as_matrix()
        owner = np.arange(3 * n_sensors) % n_sensors
        el_deg = rng.uniform(-max_el_deg, max_el_deg, owner.size)
        el_deg[:n_sensors] = max_el_deg * np.sign(el_deg[:n_sensors])
        local = rng.uniform(1000, 8000, owner.size)[:, None] * direction_from_angles(
            rng.uniform(-np.pi, np.pi, owner.size), np.radians(el_deg))
        points = locs[owner] + np.einsum("nij,nj->ni", rotations[owner], local)
        seen = cart_to_spherical((points[None] - locs[:, None]) @ rotations)
        points = points[(np.abs(seen.el) <= np.radians(85.0) + 1e-9).all(axis=0)]
        assume(points.shape[0] > 0)
        seen = cart_to_spherical((points[None] - locs[:, None]) @ rotations)
        az = seen.az + 2e-3 * rng.normal(size=seen.az.shape)
        el = seen.el + 2e-3 * rng.normal(size=seen.el.shape)

        res, jac, jac_rot = bearing_residuals(points, locs, az, el, rotations)
        assert jac.shape == jac_rot.shape == res.shape + (3,)
        for axis in range(3):
            unit = np.eye(3)[axis]
            hi = bearing_residuals(points + 1e-3 * unit, locs, az, el, rotations)[0]
            lo = bearing_residuals(points - 1e-3 * unit, locs, az, el, rotations)[0]
            np.testing.assert_allclose(jac[:, :, axis], (hi - lo) / 2e-3,
                                       rtol=1e-6, atol=1e-11)
            # A_s <- A_s exp(w) for one sensor at a time moves only its rows
            for s in range(n_sensors):
                turn = np.stack([np.eye(3)] * n_sensors)
                turn[s] = rotation_from_rotvec(1e-6 * unit)
                hi = bearing_residuals(points, locs, az, el, rotations @ turn)[0]
                turn[s] = turn[s].T
                lo = bearing_residuals(points, locs, az, el, rotations @ turn)[0]
                expected = np.zeros_like(res)
                expected[:, 2 * s:2 * s + 2] = jac_rot[:, 2 * s:2 * s + 2, axis]
                np.testing.assert_allclose(expected, (hi - lo) / 2e-6,
                                           rtol=1e-6, atol=1e-8)

    def test_residuals_are_wrapped(self):
        locs = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        # measured az near +pi, predicted near -pi: residual must be small
        target = np.array([[-500.0, -1.0, 0.0]])
        az, el = exact_bearings(locs, target[0])
        res, _ = bearing_residuals(target, locs,
                                   az[:, None] + 2 * np.pi, el[:, None])
        assert np.max(np.abs(res)) < 1e-9


class TestTriangulate:
    def test_two_sensor_exact(self):
        locs = [[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]]
        target = np.array([500.0, 500.0, 100.0])
        az, el = exact_bearings(locs, target)
        fix = triangulate(BearingSet(locations=locs, az=az, el=el))
        np.testing.assert_allclose(fix.point, target, atol=1e-6)

    def test_three_sensor_overdetermined(self):
        locs = np.array([[0.0, 0.0, 0.0], [3000.0, 0.0, 0.0],
                         [0.0, 3000.0, -500.0]])
        target = np.array([1200.0, 1500.0, -2000.0])
        az, el = exact_bearings(locs, target)
        fix = triangulate(BearingSet(locations=locs, az=az, el=el))
        np.testing.assert_allclose(fix.point, target, atol=1e-6)

    def test_collinear_rays_ill_conditioned(self):
        # target on the sensor baseline: all rays point the same way
        locs = [[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]]
        target = np.array([5000.0, 0.0, 0.0])
        az, el = exact_bearings(locs, target)
        with pytest.raises(IllConditionedError):
            triangulate(BearingSet(locations=locs, az=az, el=el))

    @pytest.mark.parametrize("field", ["az", "el"])
    def test_non_finite_bearing_raises_registration_error(self, field):
        locs = [[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]]
        az, el = exact_bearings(locs, [500.0, 500.0, 100.0])
        bearings = {"az": az, "el": el}
        bearings[field][1] = np.nan
        with pytest.raises(RegistrationError):
            triangulate(BearingSet(locations=locs, **bearings))

    def test_no_convergence_raises(self, monkeypatch):
        # one Gauss-Newton step from the ray intersection cannot reach the
        # fixed point of noisy bearings
        monkeypatch.setattr(triangulation, "MAX_ITERATIONS", 1)
        locs = np.array([[0.0, 0.0, 0.0], [3000.0, 0.0, 0.0], [0.0, 3000.0, -500.0]])
        az, el = exact_bearings(locs, [1200.0, 1500.0, -2000.0])
        noise = 3e-3 * np.random.default_rng(26).normal(size=(2, 3))
        with pytest.raises(NoConvergenceError, match="no convergence in 1 iterations"):
            triangulate(BearingSet(locations=locs, az=az + noise[0], el=el + noise[1]))

    def test_no_damped_step_lowering_the_cost_is_a_fixed_point(self, monkeypatch):
        # every trial is 1 rad worse per residual than the start, so each is
        # rejected and lambda climbs from 1e-3 past LAMBDA_MAX at iteration 16
        residuals = triangulation.bearing_residuals
        calls = []

        def worse(*args):
            res, jac = residuals(*args)
            calls.append(args)
            return (res if len(calls) == 1 else res + 1.0), jac

        monkeypatch.setattr(triangulation, "bearing_residuals", worse)
        locs = np.array([[0.0, 0.0, 0.0], [3000.0, 0.0, 0.0], [0.0, 3000.0, -500.0]])
        az, el = exact_bearings(locs, [1200.0, 1500.0, -2000.0])
        noise = 3e-3 * np.random.default_rng(26).normal(size=(2, 3))
        bearings = BearingSet(locations=locs, az=az + noise[0], el=el + noise[1])
        rays = direction_from_angles(bearings.az, bearings.el)[:, np.newaxis]
        start = intersect_rays(locs, rays)[0]
        fix = triangulate_batch(locs, rays)
        assert fix.status[0] == STATUS_OK and fix.iterations[0] == 16
        np.testing.assert_array_equal(fix.points, start)
        calls.clear()
        fix = triangulate(bearings)
        assert fix.iterations == 16
        np.testing.assert_array_equal(fix.point, start[0])

    def test_random_geometries_recover(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n_sensors = int(rng.integers(2, 6))
            locs = rng.uniform(-8000, 8000, size=(n_sensors, 3)) * [1, 1, 0.05]
            target = rng.uniform(-5000, 5000, size=3) + [0, 0, -4000]
            az, el = exact_bearings(locs, target)
            fix = triangulate(BearingSet(locations=locs, az=az, el=el))
            np.testing.assert_allclose(fix.point, target, atol=1e-6)


class TestTriangulateBatch:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(23)
        locs = np.array([[0.0, 0.0, 0.0], [4000.0, 1000.0, -200.0],
                         [-2000.0, 3000.0, -400.0]])
        targets = rng.uniform(-3000, 3000, size=(20, 3)) + [1000, 1000, -3000]
        az = np.empty((3, 20))
        el = np.empty((3, 20))
        for i, t in enumerate(targets):
            az[:, i], el[:, i] = exact_bearings(locs, t)
        fix = triangulate_batch(locs, direction_from_angles(az, el))
        assert np.all(fix.status == STATUS_OK)
        np.testing.assert_allclose(fix.points, targets, atol=1e-6)

    def test_one_bad_target_does_not_abort(self):
        locs = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]])
        good = np.array([500.0, 800.0, -300.0])
        bad = np.array([6000.0, 0.0, 0.0])  # on the baseline
        az = np.empty((2, 2))
        el = np.empty((2, 2))
        az[:, 0], el[:, 0] = exact_bearings(locs, good)
        az[:, 1], el[:, 1] = exact_bearings(locs, bad)
        fix = triangulate_batch(locs, direction_from_angles(az, el))
        assert fix.status[0] == STATUS_OK
        assert fix.status[1] != STATUS_OK
        np.testing.assert_allclose(fix.points[0], good, atol=1e-6)

    def test_parallel_epoch_is_ill_conditioned_at_the_start(self):
        locs = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [0.0, 0.0, -10.0]])
        targets = np.array([[500.0, 800.0, -300.0],
                            [9000.0, 0.0, 0.0],
                            [-400.0, 600.0, -900.0]])
        az = np.empty((3, 3))
        el = np.empty((3, 3))
        for i, target in enumerate(targets):
            az[:, i], el[:, i] = exact_bearings(locs, target)
        az[:, 1] = el[:, 1] = 0.0  # all three rays of epoch 1 point along +x
        fix = triangulate_batch(locs, direction_from_angles(az, el))
        np.testing.assert_array_equal(
            fix.status, [STATUS_OK, STATUS_ILL_CONDITIONED, STATUS_OK])
        assert fix.iterations[1] == 1
        assert np.isnan(fix.points[1]).all()
        np.testing.assert_allclose(fix.points[[0, 2]], targets[[0, 2]], atol=1e-6)

    @pytest.mark.parametrize("seed", range(1000, 1010))
    def test_a_rise_by_rounding_ends_the_fix(self, seed):
        # realization 0 of a 451-epoch alg7 study on six ring sensors, its
        # rays turned by the true rotations: the slowest targets' last
        # accepted step lowers the cost by just over COST_DECREASE_TOL, and
        # every later trial rises by rounding (7e-20 to 7e-18 rad^2).  A
        # move below the tolerance either way ends the fix, so every
        # target is OK by iteration 4; with only a decrease ending it, the
        # slowest target of each took 6 to 16 iterations, lambda x10 each
        ring = [[14500.0, 1700.0, -300.0], [2500.0, 8600.0, -600.0],
                [2500.0, -5100.0, -150.0], [-1500.0, 1700.0, -450.0],
                [10500.0, 8600.0, -750.0], [10500.0, -5100.0, -900.0]]
        cfg = ExperimentConfig(algorithm="alg7", sensor_count=6, seed=seed, mc_runs=1,
                               duration_s=900.0, sample_period_s=2.0, sensor_locations_m=ring)
        batch, truth = next(iter(realizations(cfg, 1)))
        fix = triangulate_batch(batch.locations,
                                batch.directions() @ truth.rotations.transpose(0, 2, 1))
        assert fix.status.shape == (451,) and (fix.status == STATUS_OK).all()
        assert fix.iterations.max() <= 4

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4, 3), (2, 4, 1, 3), (2, 4, 2)])
    def test_bearing_shapes_must_match_locations(self, shape):
        locs = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=re.escape(
                f"(S, n, 3) to match locations (2, 3), got {shape}")):
            triangulate_batch(locs, np.ones(shape))

    def test_noisy_bearings_stay_close(self):
        rng = np.random.default_rng(24)
        locs = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0],
                         [2500.0, 4000.0, -300.0]])
        target = np.array([2000.0, 1500.0, -3000.0])
        az, el = exact_bearings(locs, target)
        az = az + 3e-3 * rng.normal(size=3)
        el = el + 3e-3 * rng.normal(size=3)
        fix = triangulate_batch(locs, direction_from_angles(az, el)[:, None])
        assert fix.status[0] == STATUS_OK
        # a few mRad of bearing noise moves a few-km fix tens of meters
        assert np.linalg.norm(fix.points[0] - target) < 100.0


def unit_rays(locations, targets):
    """(S, n, 3) unit directions from each location to each target."""
    offsets = np.asarray(targets)[np.newaxis] - np.asarray(locations)[:, np.newaxis]
    return offsets / np.linalg.norm(offsets, axis=-1, keepdims=True)


def random_network(seed, n_sensors, n_targets):
    """Sensors spread over a low slab, targets well below them."""
    rng = np.random.default_rng(seed)
    locs = rng.uniform(-8000, 8000, size=(n_sensors, 3)) * [1, 1, 0.05]
    targets = rng.uniform(-5000, 5000, size=(n_targets, 3)) + [0, 0, -5000]
    return rng, locs, targets


class TestIntersectRays:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sensors=st.integers(2, 8),
           n_targets=st.integers(1, 12))
    def test_noise_free_rays_meet_at_the_target(self, seed, n_sensors, n_targets):
        _, locs, targets = random_network(seed, n_sensors, n_targets)
        points, ok = intersect_rays(locs, unit_rays(locs, targets))
        assert ok.all()
        offsets = targets[np.newaxis] - locs[:, np.newaxis]
        scale = np.linalg.norm(offsets, axis=-1).min(axis=0)  # nearest sensor
        assert np.all(np.linalg.norm(points - targets, axis=1) <= 1e-6 * scale)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_targets=st.integers(1, 12),
           noise=st.sampled_from([0.0, 1e-3, 3e-2]))
    def test_two_rays_give_the_common_perpendicular_midpoint(self, seed, n_targets,
                                                             noise):
        rng, locs, targets = random_network(seed, 2, n_targets)
        s = cart_to_spherical(targets[np.newaxis] - locs[:, np.newaxis])
        az = s.az + noise * rng.normal(size=s.az.shape)
        el = s.el + noise * rng.normal(size=s.el.shape)
        dirs = direction_from_angles(az, el)
        sine = np.linalg.norm(np.cross(dirs[0], dirs[1]), axis=-1)
        keep = sine > 0.05  # away from near-parallel rays
        points, _ = intersect_rays(locs, dirs[:, keep])
        # the feet l_0 + t d_0 and l_1 + u d_1 of the common perpendicular
        d0, d1 = dirs[0, keep], dirs[1, keep]
        w = locs[0] - locs[1]
        b, d, e = np.sum(d0 * d1, axis=-1), d0 @ w, d1 @ w
        t = (b * e - d) / (1.0 - b * b)
        u = (e - b * d) / (1.0 - b * b)
        expected = 0.5 * (locs[0] + t[:, None] * d0 + locs[1] + u[:, None] * d1)
        scale = np.linalg.norm(expected - locs[0], axis=-1)
        assert np.all(np.linalg.norm(points - expected, axis=-1) <= 1e-9 * scale)

    def test_parallel_rays_are_not_ok(self):
        locs = np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0], [0.0, 0.0, 50.0]])
        dirs = np.broadcast_to([1.0, 0.0, 0.0], (3, 1, 3))
        _, ok = intersect_rays(locs, dirs)
        assert not ok[0]
        # a target on the baseline of two sensors: both rays point the same way
        locs = locs[:2] * [1, 10, 1]
        _, ok = intersect_rays(locs, unit_rays(locs, [[0.0, 9000.0, 0.0]]))
        assert not ok[0]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sensors=st.integers(2, 8),
           flipped=st.integers(0, 7))
    def test_point_behind_a_sensor_is_not_ok(self, seed, n_sensors, flipped):
        _, locs, targets = random_network(seed, n_sensors, 2)
        dirs = unit_rays(locs, targets)
        dirs[flipped % n_sensors, 1] *= -1.0  # its ray now points away
        points, ok = intersect_rays(locs, dirs)
        np.testing.assert_array_equal(ok, [True, False])
        # the lines still meet at the target; only the ray direction is wrong
        np.testing.assert_allclose(points[1], targets[1], atol=1e-6)

    def test_non_finite_ray_is_not_ok(self):
        _, locs, targets = random_network(5, 3, 4)
        dirs = unit_rays(locs, targets)
        clean, _ = intersect_rays(locs, dirs)
        dirs[1, 2] = [np.nan, 0.0, 1.0]
        points, ok = intersect_rays(locs, dirs)
        np.testing.assert_array_equal(ok, [True, True, False, True])
        np.testing.assert_array_equal(points[[0, 1, 3]], clean[[0, 1, 3]])


class TestConditionScreen:
    """The trace/determinant screen flags exactly the matrices that
    ``np.linalg.cond`` puts above ``CONDITION_LIMIT``."""

    @staticmethod
    def psd_stack(seed, specs):
        # Q diag(lambda) Q^T with random Q: lambda_max = 10^log_scale,
        # lambda_min = lambda_max / 10^log_cond (0 for rank-deficient specs),
        # lambda_mid log-uniform in between
        rng = np.random.default_rng(seed)
        stack = []
        for log_scale, log_cond, mid, rank in specs:
            top = 10.0 ** log_scale
            low = top / 10.0 ** log_cond
            lam = np.array([top, top * (low / top) ** mid, low])
            lam[rank:] = 0.0
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            stack.append((q * lam) @ q.T)
        return np.array(stack)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           specs=st.lists(st.tuples(
               st.floats(-8.0, 8.0),
               st.one_of(st.floats(0.0, 16.0), st.floats(11.0, 13.0)),
               st.floats(0.0, 1.0),
               st.sampled_from([3, 3, 3, 2, 1, 0])), min_size=1, max_size=12))
    def test_matches_cond_on_eigen_stacks(self, seed, specs):
        m = self.psd_stack(seed, specs)
        np.testing.assert_array_equal(_ill_conditioned(m),
                                      np.linalg.cond(m) > CONDITION_LIMIT)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 16),
           log_scale=st.floats(-8.0, 8.0), dependent=st.integers(0, 2),
           tilt=st.sampled_from([0.0, 1e-9, 1e-6, 1e-5, 1e-3]))
    def test_matches_cond_on_normal_matrices(self, seed, rows, log_scale,
                                             dependent, tilt):
        # J^T J as triangulate_batch forms it, with `dependent` columns of J
        # tilted only slightly off the span of the others
        rng = np.random.default_rng(seed)
        j = rng.normal(size=(8, rows, 3)) * 10.0 ** (log_scale / 2.0)
        for c in range(3 - dependent, 3):
            j[..., c] = j[..., 0] * rng.normal() + tilt * j[..., c]
        jtj = j.transpose(0, 2, 1) @ j
        np.testing.assert_array_equal(_ill_conditioned(jtj),
                                      np.linalg.cond(jtj) > CONDITION_LIMIT)


class TestSolvePositiveDefinite:
    """The closed-form LDL^T solve against ``np.linalg.solve``."""

    @staticmethod
    def spd_stack(seed, specs, rank=3):
        m = TestConditionScreen.psd_stack(seed, [spec + (rank,) for spec in specs])
        return 0.5 * (m + m.transpose(0, 2, 1))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           specs=st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(0.0, 12.0),
                                    st.floats(0.0, 1.0)), min_size=1, max_size=12),
           columns=st.sampled_from([0, 1, 5]))
    def test_matches_numpy_within_condition_times_epsilon(self, seed, specs,
                                                          columns):
        # cond from 1 to 1e12, the middle eigenvalue anywhere in between:
        # a cofactor (Cramer's rule) solve misses this bound by factors up
        # to 6e8 when two eigenvalues are small
        m = self.spd_stack(seed, specs)
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(len(specs), 3, max(columns, 1)))
        if columns == 0:
            x = solve_positive_definite(m, b[..., 0])[..., np.newaxis]
        else:
            x = solve_positive_definite(m, b)
        expected = np.linalg.solve(m, b)
        error = np.linalg.norm(x - expected, axis=1) \
            / np.linalg.norm(expected, axis=1)
        bound = 8.0 * np.linalg.cond(m)[:, np.newaxis] * np.finfo(float).eps
        assert np.all(error <= bound)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           keep=st.lists(st.booleans(), min_size=1, max_size=12).filter(any))
    def test_each_solution_depends_on_its_own_matrix_only(self, seed, keep):
        keep = np.array(keep)
        rng = np.random.default_rng(seed)
        specs = [(rng.uniform(-8, 8), rng.uniform(0, 12), rng.uniform())
                 for _ in keep]
        m = self.spd_stack(seed, specs)
        b = rng.normal(size=(keep.size, 3))
        x = solve_positive_definite(m, b)
        np.testing.assert_array_equal(solve_positive_definite(m[keep], b[keep]),
                                      x[keep])
        first = int(np.argmax(keep))
        np.testing.assert_array_equal(
            solve_positive_definite(m[first:first + 1], b[first:first + 1]),
            x[first:first + 1])

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           where=st.integers(0, 7),
           flaw=st.sampled_from(["zero", "row 0", "row 1", "row 2",
                                 np.nan, np.inf, -np.inf]),
           entry=st.sampled_from([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]))
    def test_singular_or_non_finite_matrix_raises(self, seed, n, where, flaw,
                                                  entry):
        rng = np.random.default_rng(seed)
        m = self.spd_stack(seed, [(rng.uniform(-4, 4), rng.uniform(0, 6), 0.5)] * n)
        bad = where % n
        if flaw == "zero":
            m[bad] = 0.0
        elif isinstance(flaw, str):
            row = int(flaw[-1])
            m[bad, row, :] = m[bad, :, row] = 0.0
        else:
            m[bad, entry[0], entry[1]] = m[bad, entry[1], entry[0]] = flaw
        with pytest.raises(DegenerateInputError, match=f"matrix {bad} of {n} "):
            solve_positive_definite(m, rng.normal(size=(n, 3)))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-8.0, 8.0),
           rank=st.sampled_from([1, 2]))
    def test_rank_deficient_matrix_never_gives_nan(self, seed, log_scale, rank):
        # singular only up to rounding: an error or a finite (huge) solution
        m = self.spd_stack(seed, [(log_scale, 0.0, 0.5)], rank)
        try:
            x = solve_positive_definite(m, np.ones((1, 3)))
        except DegenerateInputError:
            return
        assert np.isfinite(x).all()


@lru_cache(maxsize=None)
def mixed_batch(n_sensors):
    """Noisy bearings to 40 targets, one on the baseline of sensors 0 and 1
    and one almost straight below sensor 0 (|el| > 85 deg)."""
    rng = np.random.default_rng(25 + n_sensors)
    locs = np.array([[0.0, 0.0, 0.0], [5000.0, 0.0, 0.0],
                     [2500.0, 4000.0, -300.0], [-1500.0, 2500.0, -200.0]])[:n_sensors]
    targets = rng.uniform(-4000, 4000, size=(40, 3)) + [1500, 1500, -4000]
    targets[7] = [9000.0, 0.0, 0.0]
    targets[23] = [40.0, -30.0, -3000.0]
    az = np.empty((n_sensors, 40))
    el = np.empty((n_sensors, 40))
    for i, t in enumerate(targets):
        az[:, i], el[:, i] = exact_bearings(locs, t)
    assert np.degrees(abs(el[0, 23])) > 85.0
    # noise on every bearing but the baseline target's, whose rays stay parallel
    noisy = np.arange(40) != 7
    az[:, noisy] += 3e-3 * rng.normal(size=(n_sensors, 39))
    el[:, noisy] += 3e-3 * rng.normal(size=(n_sensors, 39))
    return locs, az, el, triangulate_batch(locs, direction_from_angles(az, el))


class TestPerTargetIndependence:
    """A target's fix does not depend on which other targets share the
    batch, down to the last bit."""

    def test_batch_mixes_outcomes(self):
        _, _, _, fix = mixed_batch(2)
        assert fix.status[7] == STATUS_ILL_CONDITIONED
        assert np.sum(fix.status == STATUS_OK) >= 35
        assert np.all(mixed_batch(4)[3].status == STATUS_OK)

    # one kept target is the case a stacked matmul computes with another
    # kernel: S = 3 keeping only target 3 moved its point by 2.3e-13 m
    @settings(max_examples=60, deadline=None)
    @given(n_sensors=st.sampled_from([2, 3, 4]),
           keep=st.lists(st.booleans(), min_size=40, max_size=40)
           .filter(any))
    @example(n_sensors=3, keep=[i == 3 for i in range(40)])
    def test_subset_fix_is_bit_identical(self, n_sensors, keep):
        locs, az, el, full = mixed_batch(n_sensors)
        keep = np.array(keep)
        sub = triangulate_batch(locs, direction_from_angles(az[:, keep], el[:, keep]))
        np.testing.assert_array_equal(sub.points, full.points[keep])
        np.testing.assert_array_equal(sub.status, full.status[keep])
        np.testing.assert_array_equal(sub.iterations, full.iterations[keep])

    @settings(max_examples=60, deadline=None)
    @given(n_sensors=st.sampled_from([2, 3, 4]), target=st.integers(0, 39),
           sensor=st.integers(0, 3), field=st.sampled_from(["az", "el"]),
           value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_bearing_spoils_only_its_target(self, n_sensors, target,
                                                       sensor, field, value):
        locs, az, el, full = mixed_batch(n_sensors)
        bearings = {"az": az.copy(), "el": el.copy()}
        bearings[field][sensor % n_sensors, target] = value
        with np.errstate(invalid="ignore"):  # numpy's warnings on cos(inf)
            rays = direction_from_angles(**bearings)
        fix = triangulate_batch(locs, rays)
        assert fix.status[target] != STATUS_OK
        rest = np.arange(40) != target
        np.testing.assert_array_equal(fix.points[rest], full.points[rest])
        np.testing.assert_array_equal(fix.status[rest], full.status[rest])
        np.testing.assert_array_equal(fix.iterations[rest], full.iterations[rest])
