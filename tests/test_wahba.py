"""Tests for the optimal-rotation (orthogonal Procrustes) solver."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sensorreg import wahba
from sensorreg.errors import DegenerateInputError
from sensorreg.geometry import (EulerAngles, euler_to_rotation, is_rotation_matrix,
                                rotation_from_rotvec)
from sensorreg.wahba import solve_wahba, wahba_cost


def random_rotation(rng):
    psi, phi = rng.uniform(-np.pi, np.pi, 2)
    theta = rng.uniform(-np.pi / 2, np.pi / 2)
    return euler_to_rotation(EulerAngles(psi, theta, phi))


class TestExactRecovery:
    def test_identity_when_sets_equal(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(10, 3))
        np.testing.assert_allclose(solve_wahba(xs, xs), np.eye(3), atol=1e-12)

    def test_recovers_constructed_rotation(self):
        # ys built by applying a known rotation; solver must return it
        truth = euler_to_rotation(EulerAngles(np.radians(30.0),
                                              np.radians(-10.0),
                                              np.radians(5.0)))
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(3, 3))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        ys = xs @ truth.T
        np.testing.assert_allclose(solve_wahba(xs, ys), truth, atol=1e-10)

    def test_two_pairs_suffice(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            truth = random_rotation(rng)
            xs = rng.normal(size=(2, 3))
            # reject nearly collinear draws, they are the degenerate case
            cosang = abs(xs[0] @ xs[1]) / (np.linalg.norm(xs[0]) * np.linalg.norm(xs[1]))
            if cosang > 0.99:
                continue
            ys = xs @ truth.T
            np.testing.assert_allclose(solve_wahba(xs, ys), truth, atol=1e-10)

    def test_result_is_rotation_with_noise(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            truth = random_rotation(rng)
            xs = rng.normal(size=(8, 3))
            ys = xs @ truth.T + 0.05 * rng.normal(size=(8, 3))
            assert is_rotation_matrix(solve_wahba(xs, ys))


class TestOptimality:
    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(12, 3))
        ys = xs @ random_rotation(rng).T + 0.1 * rng.normal(size=(12, 3))
        best = solve_wahba(xs, ys)
        base = wahba_cost(best, xs, ys)
        for _ in range(100):
            v = rng.normal(size=3)
            v *= rng.uniform(1e-4, 0.3) / np.linalg.norm(v)
            from sensorreg.geometry import rotation_from_rotvec
            perturbed = rotation_from_rotvec(v) @ best
            assert wahba_cost(perturbed, xs, ys) >= base - 1e-9

    def test_equivariance(self):
        # rotating the target set rotates the answer the same way
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(6, 3))
        ys = xs @ random_rotation(rng).T + 0.02 * rng.normal(size=(6, 3))
        q = random_rotation(rng)
        lhs = solve_wahba(xs, ys @ q.T)
        rhs = q @ solve_wahba(xs, ys)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def two_determinant_rotation(xs, ys):
    """u diag(1, 1, det(u) det(vt)) vt, the textbook SVD solution."""
    u, _, vt = np.linalg.svd(ys.T @ xs)
    return u @ np.diag([1.0, 1.0, np.linalg.det(u) * np.linalg.det(vt)]) @ vt


class TestReflection:
    """When u vt is a reflection the solver flips the term of the smallest
    singular value; the result must still be a proper rotation."""

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_mirrored_targets(self, n):
        rng = np.random.default_rng(8 + n)
        reflections = 0
        for _ in range(50):
            xs = rng.normal(size=(n, 3))
            # the best orthogonal fit of mirrored targets is a reflection;
            # n = 2 leaves B at rank 2, so det(u vt) is LAPACK's choice
            ys = xs @ np.diag([1.0, 1.0, -1.0]) @ random_rotation(rng).T \
                + 0.01 * rng.normal(size=(n, 3))
            u, _, vt = np.linalg.svd(ys.T @ xs)
            reflections += np.linalg.det(u @ vt) < 0.0
            rot = solve_wahba(xs, ys)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(rot.T @ rot, np.eye(3), rtol=0, atol=1e-12)
            np.testing.assert_allclose(rot, two_determinant_rotation(xs, ys),
                                       rtol=0, atol=1e-12)
        assert reflections > 0


class TestDegenerateInput:
    def test_collinear_raises(self):
        xs = np.outer([1.0, 2.0, -0.5], [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateInputError):
            solve_wahba(xs, xs)

    def test_single_pair_raises(self):
        with pytest.raises(DegenerateInputError):
            solve_wahba([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])

    def test_all_zero_raises(self):
        xs = np.zeros((3, 3))
        with pytest.raises(DegenerateInputError):
            solve_wahba(xs, xs)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_wahba(np.ones((3, 3)), np.ones((4, 3)))


class TestCost:
    def test_zero_at_exact_alignment(self):
        rng = np.random.default_rng(7)
        truth = random_rotation(rng)
        xs = rng.normal(size=(5, 3))
        assert wahba_cost(truth, xs, xs @ truth.T) == pytest.approx(0.0, abs=1e-20)

    def test_hand_value(self):
        # R = I, x = e1, y = e2: ||e1 - e2||^2 = 2 for each of two pairs
        xs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        ys = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        assert wahba_cost(np.eye(3), xs, ys) == pytest.approx(4.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_input(self, which, value):
        bad = [np.eye(3), np.eye(3)]
        bad[which][2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError,
                               match="must be finite, got NaN or inf"):
                wahba_cost(np.eye(3), *bad)


SEEDS = st.integers(0, 2**32 - 1)
# how far rounding B's entries moves its rotation, in units of eps kappa
# (test_four_pair_form_of_a_pair_update): at most 62 over 100000 admitted
# random draws, a tenth of them tracks of 1-30 m offset by 1-20 km, and 22
# over 30000 hypothesis examples
ROUNDING_UNITS = 250.0


def rounded_profile(xs, ys):
    """B = sum_i y_i x_i^T rounded once from its exact value.  Veltkamp's
    split of each factor into two halves of 26 bits makes every partial
    product exact, and ``math.fsum`` rounds each entry's sum of them."""
    def halves(a):
        big = 134217729.0 * a  # (2^27 + 1) a
        high = big - (big - a)
        return high, a - high
    (y_high, y_low), (x_high, x_low) = halves(ys), halves(xs)
    terms = np.concatenate([y[:, :, np.newaxis] * x[:, np.newaxis]
                            for y in (y_high, y_low) for x in (x_high, x_low)])
    return np.array([[math.fsum(terms[:, a, b]) for b in range(3)] for a in range(3)])


def conditioned(xs, ys, floor):
    """Whether B = ys^T xs pins the rotation down well: the smallest sum
    of two singular values, which bounds its sensitivity, is above
    ``floor`` times the largest."""
    sv = np.linalg.svd(ys.T @ xs, compute_uv=False)
    return sv[1] + sv[2] > floor * sv[0]


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, n=st.integers(2, 9),
           kind=st.sampled_from(["generic", "coplanar", "mirrored"]))
    def test_proper_and_equal_to_reference(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 1e4)
        if kind == "coplanar":
            # targets in a plane through the origin leave B at rank 2
            xs[:, 2] = 0.0
        mirror = np.diag([1.0, 1.0, -1.0]) if kind == "mirrored" else np.eye(3)
        ys = xs @ mirror @ random_rotation(rng).T \
            + rng.uniform(0.0, 0.1) * np.abs(xs).max() * rng.normal(size=(n, 3))
        assume(conditioned(xs, ys, 1e-6))
        rot = solve_wahba(xs, ys)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), rtol=0, atol=1e-12)
        np.testing.assert_allclose(rot, two_determinant_rotation(xs, ys),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, n=st.integers(2, 200),
           track_m=st.floats(1.0, 2e4), offset_m=st.floats(0.0, 2e4))
    @example(seed=4563, n=178, track_m=10.0, offset_m=19531.0)
    def test_four_pair_form_of_a_pair_update(self, seed, n, track_m, offset_m):
        # aligning sensor a to sensor b: the n pairs (p_a^i, R_b p_b^i + d)
        # and the four pairs ([P_b^T P_a; c_a^T], [R_b^T; d^T]) share
        # their profile matrix R_b P_b^T P_a + d c_a^T.  Each form rounds
        # B its own way, so each is held to the rotation of B rounded once,
        # within ROUNDING_UNITS eps kappa, with kappa = ||Y|^T |X|| / (s2 + s3):
        # the sums' rounding is of order eps |Y|^T |X|, and the rotation
        # feels it over s2 + s3, the two smaller singular values of B.  A km
        # offset on a 10 m track (the example) puts both forms ~1e-12 off
        rng = np.random.default_rng(seed)
        p_a = rng.uniform(-track_m, track_m, size=(n, 3))
        p_b = p_a @ random_rotation(rng).T + rng.uniform(-offset_m, offset_m, 3) \
            + 0.01 * track_m * rng.normal(size=(n, 3))
        r_b = random_rotation(rng)
        d = rng.uniform(-offset_m, offset_m, 3)
        xs, ys = p_a, p_b @ r_b.T + d
        assume(conditioned(xs, ys, 1e-2))
        four_xs = np.vstack([p_b.T @ p_a, p_a.sum(axis=0)])
        four_ys = np.vstack([r_b.T, d])
        rounded = rounded_profile(xs, ys)
        sv = np.linalg.svd(rounded, compute_uv=False)
        kappa = np.linalg.norm(np.abs(ys).T @ np.abs(xs), 2) / (sv[1] + sv[2])
        reference = solve_wahba(np.eye(3), rounded.T)  # its profile matrix is B
        for rot in (solve_wahba(four_xs, four_ys), solve_wahba(xs, ys)):
            np.testing.assert_allclose(rot, reference, rtol=0,
                                       atol=ROUNDING_UNITS * np.finfo(float).eps * kappa)


def shape_error(xs, ys):
    """The input error the solver has always raised for these arrays, if
    any: a 0-d or 1-d input counts as one pair (np.atleast_2d)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape != ys.shape or xs.shape[1] != 3:
        return ValueError(f"paired (n, 3) arrays required, got {xs.shape} and {ys.shape}")
    if xs.shape[0] < 2:
        return DegenerateInputError("at least two vector pairs are required")
    return None


SHAPES = st.lists(st.integers(0, 4), max_size=2).map(tuple)


class TestInputErrors:
    @pytest.mark.parametrize("xs, ys, error, message", [
        (1.0, 1.0, ValueError, "got (1, 1) and (1, 1)"),
        ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], DegenerateInputError,
         "at least two vector pairs are required"),
        (np.ones((4, 2)), np.ones((4, 2)), ValueError, "got (4, 2) and (4, 2)"),
        (np.ones((3, 3)), np.ones((4, 3)), ValueError, "got (3, 3) and (4, 3)"),
        (np.ones((1, 3)), np.ones((1, 3)), DegenerateInputError,
         "at least two vector pairs are required"),
        (np.ones(3), np.ones((2, 3)), ValueError, "got (1, 3) and (2, 3)"),
    ])
    def test_message(self, xs, ys, error, message):
        with pytest.raises(error) as exc:
            solve_wahba(xs, ys)
        assert type(exc.value) is error and message in str(exc.value)

    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, x_shape=SHAPES, y_shape=SHAPES)
    def test_same_error_for_any_shape(self, seed, x_shape, y_shape):
        rng = np.random.default_rng(seed)
        xs, ys = rng.normal(size=x_shape), rng.normal(size=y_shape)
        expected = shape_error(xs, ys)
        assume(expected is not None)
        with pytest.raises(type(expected)) as exc:
            solve_wahba(xs, ys)
        assert type(exc.value) is type(expected) and str(exc.value) == str(expected)


def profile(xs, ys):
    """B = sum_i y_i x_i^T, formed as ``solve_wahba`` forms it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ys.T @ xs


def svd_path(xs, ys):
    """What the SVD path alone gives for these vector pairs: the rotation,
    or the exception it raises."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    try:
        return wahba._svd_rotation(xs, ys, profile(xs, ys))
    except DegenerateInputError as exc:
        return exc


def closed_form(xs, ys):
    """The QUEST kernel's answer, or None, on B formed as ``solve_wahba``
    forms it."""
    return wahba._quaternion_rotation(*profile(xs, ys).ravel().tolist())


def assert_matches_svd_path(xs, ys):
    """``solve_wahba`` gives the SVD path's exception, type and message, or
    a proper rotation within 1e-12 of it, and no warning; a call the
    closed form declines gives the SVD path's rotation bit for bit."""
    expected = svd_path(xs, ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as exc:
                solve_wahba(xs, ys)
            assert type(exc.value) is type(expected) and str(exc.value) == str(expected)
            return
        rot = solve_wahba(xs, ys)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rot.T @ rot, np.eye(3), rtol=0, atol=1e-12)
    np.testing.assert_allclose(rot, expected, rtol=0, atol=1e-12)
    if closed_form(xs, ys) is None:
        np.testing.assert_array_equal(rot, expected)


def rotation_by(angle, axis):
    return rotation_from_rotvec(angle * axis / np.linalg.norm(axis))


KINDS = ["moment", "mirrored", "coplanar", "near_half_turn", "collinear"]


def kernel_problem(seed, kind):
    """Vector pairs of one kind: a sweep's four-pair moment form, mirrored
    targets, coplanar targets, a rotation of 160 to 180 degrees, and
    collinear (rank-1) data."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    if kind == "moment":
        # aligning sensor a to sensor b: both track the same points, from
        # their own locations and rotated by biases of up to 5 degrees
        points = rng.uniform(-2e4, 2e4, size=(20 * n, 3))
        l_a, l_b = rng.uniform(-2e4, 2e4, size=(2, 3))
        a_a, a_b = (rotation_by(np.radians(rng.uniform(0.0, 5.0)), rng.normal(size=3))
                    for _ in range(2))
        p_a = (points - l_a) @ a_a + 10.0 * rng.normal(size=points.shape)
        p_b = (points - l_b) @ a_b + 10.0 * rng.normal(size=points.shape)
        return (np.vstack([p_b.T @ p_a, p_a.sum(axis=0)]),
                np.vstack([a_b.T, l_b - l_a]))
    xs = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 1e4)
    truth = random_rotation(rng)
    noise_free = False
    if kind == "mirrored":
        truth = truth @ np.diag([1.0, 1.0, -1.0])
    elif kind == "coplanar":
        xs[:, 2] = 0.0
    elif kind == "near_half_turn":
        # 1e-9 to 20 degrees short of a half turn, exact data half the time
        truth = rotation_by(np.radians(180.0 - 10.0 ** rng.uniform(-9.0, 1.3)),
                            rng.normal(size=3))
        noise_free = rng.integers(2) == 1
    elif kind == "collinear":
        xs = np.outer(rng.normal(size=n), rng.normal(size=3))
        noise_free = True
    noise = rng.uniform(0.0, 0.1) * np.abs(xs).max() * rng.normal(size=xs.shape)
    return xs, xs @ truth.T + (0.0 if noise_free else noise)


class TestClosedForm:
    """The QUEST kernel and its gate: every call matches the SVD path."""

    @settings(max_examples=500, deadline=None)
    @given(seed=SEEDS, kind=st.sampled_from(KINDS))
    def test_matches_svd_path(self, seed, kind):
        xs, ys = kernel_problem(seed, kind)
        if kind != "collinear":
            assume(conditioned(xs, ys, 1e-6))
        assert_matches_svd_path(xs, ys)

    def test_gate_clears_and_declines(self):
        # the property above sees both sides of the gate: the sweep's
        # moment form and small rotations clear it, half turns and
        # collinear data do not
        def cleared(kind, seeds):
            return [closed_form(*kernel_problem(seed, kind)) is not None for seed in seeds]

        assert all(cleared("moment", range(50)))
        assert not any(cleared("collinear", range(20)))
        xs = np.random.default_rng(3).normal(size=(6, 3))
        axis = np.array([1.0, 2.0, -0.5])
        for degrees, expected in ((5.0, True), (150.0, True), (175.0, False),
                                  (180.0, False)):
            ys = xs @ rotation_by(np.radians(degrees), axis).T
            assert (closed_form(xs, ys) is not None) is expected, degrees
            assert_matches_svd_path(xs, ys)

    @pytest.mark.parametrize("n", [4, 12])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, n, value):
        # every cell of either array, with few pairs and with many
        rng = np.random.default_rng(n)
        xs = rng.normal(size=(n, 3))
        ys = xs @ random_rotation(rng).T
        for which, i, j in itertools.product(range(2), range(n), range(3)):
            bad = [xs.copy(), ys.copy()]
            bad[which][i, j] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateInputError,
                                   match="must be finite, got NaN or inf"):
                    solve_wahba(*bad)

    @pytest.mark.parametrize("n", [4, 12])
    def test_profile_scale(self, n):
        # B from 1e-150 to 1e150, where tiny B is zero to the SVD path; and
        # the kernel alone from 1e-300 to 1e300, where it answers only in
        # its safe range and raises no float error (ZeroDivisionError,
        # OverflowError) anywhere
        rng = np.random.default_rng(20 + n)
        xs = rng.normal(size=(n, 3))
        ys = xs @ random_rotation(rng).T + 0.01 * rng.normal(size=(n, 3))
        for exponent in range(-150, 151, 10):
            scale = 10.0 ** (exponent / 2)
            assert_matches_svd_path(scale * xs, scale * ys)
        rot = solve_wahba(xs, ys)
        for exponent in range(-300, 301, 10):
            b = (ys.T @ xs * 10.0 ** exponent).ravel().tolist()
            scaled = wahba._quaternion_rotation(*b)
            assert scaled is None or np.abs(scaled - rot).max() < 1e-12

    def test_overflowing_profile(self):
        xs = np.array([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="overflows"):
                solve_wahba(xs, xs)
