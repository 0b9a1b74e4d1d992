"""Tests for coordinate conversions and rotation parametrizations."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from sensorreg.errors import GimbalLockError, ZeroVectorError
from sensorreg.geometry import (
    EulerAngles,
    cart_to_spherical,
    collinearity_ratio,
    direction_from_angles,
    euler_to_rotation,
    geodesic_angle,
    is_rotation_matrix,
    rotation_from_rotvec,
    rotation_to_euler,
    skew,
    wrap_angle,
)


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)
        assert wrap_angle(-3.0) == pytest.approx(-3.0)

    def test_wraps_to_half_open_interval(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        assert wrap_angle(-3 * np.pi / 2) == pytest.approx(np.pi / 2)

    def test_array_input(self):
        a = np.array([0.0, 2 * np.pi, -2 * np.pi, 7 * np.pi])
        np.testing.assert_allclose(wrap_angle(a), [0.0, 0.0, 0.0, np.pi],
                                   atol=1e-12)

    def test_many_turns(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(-np.pi, np.pi, 100)
        turns = rng.integers(-5, 6, 100)
        wrapped = wrap_angle(base + 2 * np.pi * turns)
        np.testing.assert_allclose(wrapped, base, atol=1e-9)

    @staticmethod
    def mod_form(angle):
        return np.pi - np.mod(np.pi - np.asarray(angle, dtype=float), 2.0 * np.pi)

    @staticmethod
    def bits_and_warnings(wrap, angle):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = wrap(angle)
        return out, np.asarray(out).view(np.uint64), \
            [(w.category, str(w.message)) for w in caught]

    # the mod form's edges: both signs of zero and pi with their neighbours,
    # whole turns, huge and subnormal angles, and the non-finite ones
    EDGES = [edge * sign for sign in (1.0, -1.0) for edge in
             (0.0, np.pi, np.nextafter(np.pi, 0.0), np.nextafter(np.pi, 4.0),
              2.0 * np.pi, np.nextafter(2.0 * np.pi, 0.0), 4.0 * np.pi, 6.0 * np.pi,
              np.nextafter(0.0, 1.0), 2.2250738585072014e-308, 1e300, np.inf)] + [np.nan]

    @settings(max_examples=300, deadline=None)
    @given(angles=st.lists(st.one_of(st.sampled_from(EDGES), st.floats()), max_size=12))
    def test_equals_the_mod_form_bit_for_bit(self, angles):
        # the same bits (signbit and NaN included), type and warnings, for
        # the array and for each angle alone
        for angle in [np.array(angles)] + angles:
            got, got_bits, got_warnings = self.bits_and_warnings(wrap_angle, angle)
            want, want_bits, want_warnings = self.bits_and_warnings(self.mod_form, angle)
            assert type(got) is type(want)
            np.testing.assert_array_equal(got_bits, want_bits)
            assert got_warnings == want_warnings

    def test_scalar_is_a_numpy_float(self):
        assert type(wrap_angle(0.5)) is np.float64
        assert type(wrap_angle(np.float64(7.0))) is np.float64

    def test_infinite_angle_warns(self):
        with pytest.warns(RuntimeWarning, match="invalid value encountered in remainder"):
            assert np.isnan(wrap_angle(np.inf))
        with pytest.warns(RuntimeWarning, match="invalid value encountered in remainder"):
            assert np.isnan(wrap_angle(np.array([0.5, -np.inf]))[1])


def to_cart(rng, az, el):
    """Cartesian positions of range/azimuth/elevation measurements."""
    return np.asarray(rng)[..., np.newaxis] * direction_from_angles(az, el)


class TestCartToSpherical:
    def test_unit_axes(self):
        s = cart_to_spherical([1.0, 0.0, 0.0])
        assert s.rng == pytest.approx(1.0)
        assert s.az == pytest.approx(0.0)
        assert s.el == pytest.approx(0.0)
        s = cart_to_spherical([0.0, 2.0, 0.0])
        assert s.az == pytest.approx(np.pi / 2)
        s = cart_to_spherical([0.0, 0.0, 3.0])
        assert s.el == pytest.approx(np.pi / 2)

    def test_negative_x_axis(self):
        # oracle: the planar angle of (-1, 0) is the complex argument
        s = cart_to_spherical([-1.0, 0.0, 0.0])
        assert s.az == pytest.approx(float(np.angle(-1 + 0j)))
        assert s.az == pytest.approx(np.pi)

    def test_four_quadrants(self):
        for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            s = cart_to_spherical([float(x), float(y), 0.0])
            assert s.az == pytest.approx(float(np.angle(x + 1j * y)))

    def test_array_shapes(self):
        p = np.arange(24, dtype=float).reshape(8, 3) + 1.0
        s = cart_to_spherical(p)
        assert s.rng.shape == (8,)
        assert s.az.shape == (8,)
        np.testing.assert_allclose(s.rng, np.linalg.norm(p, axis=1))

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            cart_to_spherical([0.0, 0.0, 0.0])
        with pytest.raises(ZeroVectorError):
            cart_to_spherical([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        p = rng.normal(scale=1000.0, size=(50, 3))
        back = to_cart(*cart_to_spherical(p))
        np.testing.assert_allclose(back, p, rtol=1e-12, atol=1e-9)


class TestSphericalToCart:
    def test_known_direction(self):
        # az = el = 45 deg: x = y = 1/2, z = sqrt(2)/2 at unit range
        p = to_cart([1.0], [np.pi / 4], [np.pi / 4])
        np.testing.assert_allclose(p, [[0.5, 0.5, np.sqrt(2) / 2]], atol=1e-15)

    def test_range_scales(self):
        p = to_cart([250.0], [0.0], [0.0])
        np.testing.assert_allclose(p, [[250.0, 0.0, 0.0]], atol=1e-12)

    def test_array_fields(self):
        p = to_cart(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(p, [[1, 0, 0], [2, 0, 0]], atol=1e-15)


class TestDirectionFromAngles:
    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        az = rng.uniform(-np.pi, np.pi, 100)
        el = rng.uniform(-np.pi / 2, np.pi / 2, 100)
        d = direction_from_angles(az, el)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)

    def test_consistent_with_cart_to_spherical(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(30, 3))
        s = cart_to_spherical(p)
        d = direction_from_angles(s.az, s.el)
        np.testing.assert_allclose(d, p / np.linalg.norm(p, axis=1)[:, None],
                                   atol=1e-12)


class TestEulerRotation:
    def test_identity(self):
        np.testing.assert_allclose(
            euler_to_rotation(EulerAngles(0.0, 0.0, 0.0)), np.eye(3), atol=1e-15)

    def test_pure_yaw_moves_x_toward_y(self):
        rot = euler_to_rotation(EulerAngles(np.pi / 2, 0.0, 0.0))
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_pure_pitch_moves_x_up(self):
        # positive pitch tips the nose up: +x gains a -z (up) component
        rot = euler_to_rotation(EulerAngles(0.0, np.pi / 6, 0.0))
        out = rot @ np.array([1.0, 0.0, 0.0])
        assert out[2] == pytest.approx(-np.sin(np.pi / 6))

    @pytest.mark.parametrize("angles", [
        (0.3, -0.5, 1.1),
        (-2.0, 0.2, 0.0),
        (3.0, 1.4, -3.0),
        (0.0, 0.0, -1.7),
    ])
    def test_matches_scipy_intrinsic_zyx(self, angles):
        mine = euler_to_rotation(EulerAngles(*angles))
        ref = Rotation.from_euler("ZYX", list(angles)).as_matrix()
        np.testing.assert_allclose(mine, ref, atol=1e-14)

    def test_always_proper_rotation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi, phi = rng.uniform(-np.pi, np.pi, 2)
            theta = rng.uniform(-np.pi / 2, np.pi / 2)
            assert is_rotation_matrix(euler_to_rotation(EulerAngles(psi, theta, phi)))

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            truth = EulerAngles(rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01),
                                rng.uniform(-np.pi, np.pi))
            rec = rotation_to_euler(euler_to_rotation(truth))
            np.testing.assert_allclose(rec, truth, atol=1e-9)

    def test_round_trip_from_matrix(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rot = Rotation.random(rng=rng).as_matrix()
            back = euler_to_rotation(rotation_to_euler(rot))
            np.testing.assert_allclose(back, rot, atol=1e-9)

    def test_gimbal_lock_raises(self):
        with pytest.raises(GimbalLockError):
            rotation_to_euler(euler_to_rotation(EulerAngles(0.4, np.pi / 2, 0.0)))
        with pytest.raises(GimbalLockError):
            rotation_to_euler(euler_to_rotation(EulerAngles(0.0, -np.pi / 2, 1.0)))


class TestRotvec:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(rotation_from_rotvec([0, 0, 0]), np.eye(3),
                                   atol=1e-15)

    def test_matches_scipy(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            v = rng.normal(size=3)
            np.testing.assert_allclose(rotation_from_rotvec(v),
                                       Rotation.from_rotvec(v).as_matrix(),
                                       atol=1e-12)

    def test_small_angle(self):
        v = np.array([1e-14, -2e-14, 5e-15])
        rot = rotation_from_rotvec(v)
        assert is_rotation_matrix(rot, tol=1e-12)
        np.testing.assert_allclose(rot - np.eye(3), skew(v), atol=1e-20)


    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        st.sampled_from([1e-16, 1e-13, 0.999e-12, 1e-12, 1e-9, 1e-3, 1.0, 3.0])),
        min_size=1, max_size=10))
    def test_stack_matches_per_vector(self, rows):
        vectors = [np.array(v) * scale for v, scale in rows]
        # the zero vector and one below the small-angle threshold every time
        vectors += [np.zeros(3), np.array([3e-13, -4e-13, 1e-13])]
        stack = np.array(vectors)
        one_by_one = np.array([rotation_from_rotvec(v) for v in vectors])
        np.testing.assert_allclose(rotation_from_rotvec(stack), one_by_one,
                                   rtol=0, atol=1e-15)
        nested = rotation_from_rotvec(stack.reshape(1, -1, 3))
        np.testing.assert_allclose(nested[0], one_by_one, rtol=0, atol=1e-15)


class TestSkew:
    def test_cross_product_equivalence(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, 3))
        np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-12)

    def test_antisymmetric(self):
        m = skew([1.0, 2.0, 3.0])
        np.testing.assert_allclose(m, -m.T, atol=0)

    def test_stack_gives_cross_products(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(2, 2, 5, 3))
        np.testing.assert_allclose((skew(a) @ b[..., np.newaxis])[..., 0],
                                   np.cross(a, b), atol=1e-12)


class TestIsRotationMatrix:
    def test_accepts_rotations(self):
        assert is_rotation_matrix(np.eye(3))
        assert is_rotation_matrix(euler_to_rotation(EulerAngles(1.0, 0.5, -2.0)))

    def test_rejects_reflection(self):
        assert not is_rotation_matrix(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_scaled(self):
        assert not is_rotation_matrix(2.0 * np.eye(3))

    def test_rejects_wrong_shape(self):
        assert not is_rotation_matrix(np.eye(4))


class TestGeodesicAngle:
    def test_zero_for_equal(self):
        rot = euler_to_rotation(EulerAngles(0.7, 0.2, -0.4))
        assert geodesic_angle(rot, rot) == pytest.approx(0.0, abs=1e-12)

    def test_matches_rotvec_magnitude(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(0.01, 3.0)
            rot = rotation_from_rotvec(v)
            assert geodesic_angle(np.eye(3), rot) == pytest.approx(
                np.linalg.norm(v), abs=1e-10)

    def test_symmetry(self):
        a = euler_to_rotation(EulerAngles(0.1, 0.2, 0.3))
        b = euler_to_rotation(EulerAngles(-1.0, 0.4, 2.0))
        assert geodesic_angle(a, b) == pytest.approx(geodesic_angle(b, a))

    def test_tiny_angles_resolved(self):
        # the arccos form flattens below ~3e-8; the atan2 form must not
        rot = rotation_from_rotvec([1e-10, 0.0, 0.0])
        assert geodesic_angle(np.eye(3), rot) == pytest.approx(1e-10, rel=1e-4)


SHAPES = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)


def random_angles(rng, shape):
    """A (*shape, 3) stack of Euler angles away from gimbal lock."""
    return np.stack([rng.uniform(-np.pi, np.pi, shape), rng.uniform(-1.5, 1.5, shape),
                     rng.uniform(-np.pi, np.pi, shape)], axis=-1)


class TestStacks:
    # euler_to_rotation, rotation_to_euler and geodesic_angle broadcast over
    # leading axes: every member of a stack is what its own call gives
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=SHAPES)
    def test_stack_matches_per_matrix_calls(self, seed, shape):
        rng = np.random.default_rng(seed)
        angles = random_angles(rng, shape)
        others = rotation_from_rotvec(rng.normal(size=shape + (3,)))
        rots = euler_to_rotation(angles)
        recovered = rotation_to_euler(rots)
        between = geodesic_angle(rots, others)
        assert rots.shape == shape + (3, 3) and between.shape == shape
        for index in np.ndindex(shape):
            np.testing.assert_allclose(rots[index], euler_to_rotation(EulerAngles(
                *angles[index])), rtol=0, atol=1e-15)
            np.testing.assert_allclose([field[index] for field in recovered],
                                       rotation_to_euler(rots[index]), rtol=0, atol=1e-15)
            assert abs(between[index] - geodesic_angle(rots[index], others[index])) <= 1e-15

    def test_single_inputs_keep_their_types(self):
        rot = euler_to_rotation(EulerAngles(0.3, -0.5, 1.1))
        assert type(rot) is np.ndarray and rot.shape == (3, 3)
        angles = rotation_to_euler(rot)
        assert type(angles) is EulerAngles
        assert [type(a) for a in angles] == [float] * 3
        assert type(geodesic_angle(rot, np.eye(3))) is float

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), data=st.data())
    def test_one_gimbal_locked_member_raises(self, seed, size, data):
        angles = random_angles(np.random.default_rng(seed), (size,))
        angles[data.draw(st.integers(0, size - 1)), 1] = data.draw(
            st.sampled_from([np.pi / 2, -np.pi / 2]))
        with pytest.raises(GimbalLockError):
            rotation_to_euler(euler_to_rotation(angles))


class TestCollinearityRatio:
    def test_line_is_zero(self):
        pts = np.outer(np.arange(5, dtype=float), [1.0, 2.0, 0.5])
        assert collinearity_ratio(pts) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_points_are_zero(self):
        assert collinearity_ratio(np.tile([2500.0, 8600.0, -600.0], (4, 1))) == 0.0

    def test_symmetric_spread_is_one(self):
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], dtype=float)
        assert collinearity_ratio(pts) == pytest.approx(1.0)

    def test_between_zero_and_one(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            r = collinearity_ratio(rng.normal(size=(6, 3)))
            assert 0.0 <= r <= 1.0 + 1e-12
