"""Tests for the optimal-rotation (orthogonal Procrustes) solver."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sensorreg.errors import DegenerateInputError
from sensorreg.geometry import EulerAngles, euler_to_rotation, is_rotation_matrix
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


SEEDS = st.integers(0, 2**32 - 1)


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
    def test_four_pair_form_of_a_pair_update(self, seed, n, track_m, offset_m):
        # aligning sensor a to sensor b: the n pairs (p_a^i, R_b p_b^i + d)
        # and the four pairs ([P_b^T P_a; c_a^T], [R_b^T; d^T]) share
        # their profile matrix R_b P_b^T P_a + d c_a^T
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
        np.testing.assert_allclose(solve_wahba(four_xs, four_ys),
                                   solve_wahba(xs, ys), rtol=0, atol=1e-12)


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
