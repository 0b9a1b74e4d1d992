"""Optimal rotation between two vector sets (Wahba's problem).

Finds the proper rotation R minimizing sum_i ||R x_i - y_i||^2 from the
attitude profile matrix B = sum_i y_i x_i^T.  R is the rotation of the
unit quaternion that maximizes Davenport's gain q^T K(B) q, the
eigenvector of the largest eigenvalue of the 4x4 matrix K.  As in QUEST
(Shuster and Oh 1981; see also Markley and Mortari 2000), that eigenvalue
comes from Newton's method on K's characteristic quartic and the
quaternion from Shuster's closed form, on plain Python floats.  A problem
the closed form cannot answer to full accuracy (a small eigenvalue gap, a
rotation near 180 degrees, B zero, non-finite or out of range) goes to
the SVD of B instead, which also decides every exception.
"""

import math

import numpy as np

from .errors import DegenerateInputError

SINGULAR_RATIO_TOL = 1e-12
# numpy forms B faster above this many pairs, but warns on an inf before
# the input can be rejected, so its input is checked first
LOOP_PROFILE_MAX_PAIRS = 8
# The closed form answers only when f'(lam) >= 4 GAP_TOL lam^3 at the
# largest root lam of K's characteristic polynomial f.  K's eigenvalues
# are s1 + s2 + d s3, s1 - s2 - d s3, -s1 + s2 - d s3 and -s1 - s2 + d s3
# (s the singular values of B, d = sign det B), and f'(lam) is the product
# of lam's distances to the other three.  Those two other than the gap are
# at most 2 lam each when d = 1, and at most 2 lam and 4 lam when d = -1,
# so the gap is at least GAP_TOL lam / 2, which bounds the rounding error
# the quaternion picks up, and s2 is at least GAP_TOL s1 / 8, so the SVD
# path never calls such data collinear.
GAP_TOL = 0.1
# and only when q4^2 >= Q4_SQUARED_MIN, i.e. rotations up to about 168.5
# degrees: Shuster's (x, gamma) is the column f'(lam) q4 q of adj(lam I - K),
# so near 180 degrees (q4 -> 0) all of it is rounding error, its direction
# included; gamma = f'(lam) q4^2 tells how close
Q4_SQUARED_MIN = 0.01
# Newton stops after a step below NEWTON_REL_TOL lam: with the gap above,
# the error it leaves is of order that step squared over the gap, below
# rounding; cleared problems have needed at most 8 steps
NEWTON_MAX_STEPS = 16
NEWTON_REL_TOL = 1e-8
# the closed form's range of 2 ||B||_F^2: from where the SVD path's zero
# test (largest singular value below SINGULAR_RATIO_TOL) cannot hold, to
# where no power of B up to the sixth overflows a float
PROFILE_NORM_RANGE = (6.0 * SINGULAR_RATIO_TOL ** 2, 1e100)


def solve_wahba(xs, ys) -> np.ndarray:
    """Solve for the rotation best mapping ``xs`` onto ``ys``.

    Parameters
    ----------
    xs, ys : array_like, shape (n, 3)
        Paired vectors, n >= 2.  Need not be unit length; longer vectors
        simply carry more weight, exactly as in the least-squares cost.

    Returns
    -------
    ndarray, shape (3, 3)
        Proper rotation (determinant +1) minimizing sum_i ||R x_i - y_i||^2.

    Raises
    ------
    DegenerateInputError
        If fewer than two pairs are given, a vector holds NaN or inf, B
        overflows, or the two smallest singular values of B both vanish
        relative to the largest (collinear data: the rotation is not
        unique).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim < 2 or ys.ndim < 2:  # as a single pair, like np.atleast_2d
        xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
    if xs.shape != ys.shape or xs.shape[1] != 3:
        raise ValueError(f"paired (n, 3) arrays required, got {xs.shape} and {ys.shape}")
    if xs.shape[0] < 2:
        raise DegenerateInputError("at least two vector pairs are required")
    if xs.shape[0] > LOOP_PROFILE_MAX_PAIRS:
        _check_finite(xs, ys)
        profile = (ys.T @ xs).ravel().tolist()
    else:
        profile = _profile(xs.tolist(), ys.tolist())
    rot = _quaternion_rotation(*profile)
    return _svd_rotation(xs, ys) if rot is None else rot


def _check_finite(xs, ys):
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DegenerateInputError("vector pairs must be finite, got NaN or inf")


def _profile(xs, ys):
    """The entries of B = sum_i y_i x_i^T, row by row, from lists of
    rows; NaN or inf in a vector leaves B non-finite, with no warning."""
    b00 = b01 = b02 = b10 = b11 = b12 = b20 = b21 = b22 = 0.0
    for (x0, x1, x2), (y0, y1, y2) in zip(xs, ys):
        b00 += y0 * x0
        b01 += y0 * x1
        b02 += y0 * x2
        b10 += y1 * x0
        b11 += y1 * x1
        b12 += y1 * x2
        b20 += y2 * x0
        b21 += y2 * x1
        b22 += y2 * x2
    return b00, b01, b02, b10, b11, b12, b20, b21, b22


def _quaternion_rotation(b00, b01, b02, b10, b11, b12, b20, b21, b22):
    """The optimal rotation of the profile matrix with these entries, by
    QUEST, or None where the closed form is not known to match the SVD.

    K = [[S - sigma I, z], [z^T, sigma]] with S = B + B^T, sigma = tr B and
    z = (b12 - b21, b20 - b02, b01 - b10); its characteristic polynomial
    is f = lam^4 - p lam^2 - c lam + e, with p = a + b and
    e = a b + c sigma - d in Shuster's coefficients a, b, c, d.  Every
    test is written so that NaN fails it, and nothing divides by a value
    a test has not bounded away from zero.
    """
    sigma = b00 + b11 + b22
    s00 = 2.0 * b00
    s11 = 2.0 * b11
    s22 = 2.0 * b22
    s01 = b01 + b10
    s02 = b02 + b20
    s12 = b12 + b21
    z0 = b12 - b21
    z1 = b20 - b02
    z2 = b01 - b10
    adj00 = s11 * s22 - s12 * s12
    kappa = adj00 + s00 * s22 - s02 * s02 + s00 * s11 - s01 * s01  # tr adj S
    delta = s00 * adj00 + s01 * (s02 * s12 - s01 * s22) \
        + s02 * (s01 * s12 - s02 * s11)  # det S
    sz0 = s00 * z0 + s01 * z1 + s02 * z2
    sz1 = s01 * z0 + s11 * z1 + s12 * z2
    sz2 = s02 * z0 + s12 * z1 + s22 * z2
    ss = sigma * sigma
    a = ss - kappa
    b = ss + z0 * z0 + z1 * z1 + z2 * z2
    c = delta + z0 * sz0 + z1 * sz1 + z2 * sz2
    p = a + b  # 2 ||B||_F^2, the sum of K's squared eigenvalues over 2
    if not PROFILE_NORM_RANGE[0] <= p <= PROFILE_NORM_RANGE[1]:
        return None
    e = a * b + c * sigma - (sz0 * sz0 + sz1 * sz1 + sz2 * sz2)
    # start from the fourth root of the sum of fourth powers of K's
    # eigenvalues (at least p^2, so the root is real); above the largest
    # root f is increasing and convex, so Newton's iterates decrease to it
    # and each step is positive up to rounding
    lam = math.sqrt(math.sqrt(2.0 * p * p - 4.0 * e))
    for _ in range(NEWTON_MAX_STEPS):
        l2 = lam * lam
        slope = (4.0 * l2 - 2.0 * p) * lam - c
        if not slope > 0.0:
            return None
        step = ((l2 - p) * l2 - c * lam + e) / slope
        lam -= step
        if step <= NEWTON_REL_TOL * lam:
            break
    else:
        return None
    if not slope >= 4.0 * GAP_TOL * l2 * lam:  # f' before the last, tiny step
        return None
    # q ~ (x, gamma) with x = (alpha I + beta S + S^2) z, a column of adj(lam I - K)
    alpha = lam * lam - ss + kappa
    beta = lam - sigma
    gamma = (lam + sigma) * alpha - delta
    x0 = alpha * z0 + beta * sz0 + s00 * sz0 + s01 * sz1 + s02 * sz2
    x1 = alpha * z1 + beta * sz1 + s01 * sz0 + s11 * sz1 + s12 * sz2
    x2 = alpha * z2 + beta * sz2 + s02 * sz0 + s12 * sz1 + s22 * sz2
    if not gamma >= Q4_SQUARED_MIN * slope:
        return None
    gg = gamma * gamma
    xx = x0 * x0 + x1 * x1 + x2 * x2
    norm2 = gg + xx
    # R = ((q4^2 - |q|^2) I + 2 q q^T - 2 q4 [q]x) for the unit quaternion
    diag = (gg - xx) / norm2
    t = 2.0 / norm2
    tx0 = t * x0
    tx1 = t * x1
    tx2 = t * x2
    gx0 = gamma * tx0
    gx1 = gamma * tx1
    gx2 = gamma * tx2
    return np.array([[diag + x0 * tx0, x0 * tx1 + gx2, x0 * tx2 - gx1],
                     [x1 * tx0 - gx2, diag + x1 * tx1, x1 * tx2 + gx0],
                     [x2 * tx0 + gx1, x2 * tx1 - gx0, diag + x2 * tx2]], dtype=float)


def _svd_rotation(xs, ys):
    """u diag(1, 1, det(u vt)) vt from the SVD u diag(sv) vt of B."""
    _check_finite(xs, ys)
    with np.errstate(over="ignore", invalid="ignore"):
        b = ys.T @ xs
    if not np.isfinite(b).all():
        raise DegenerateInputError("vector pairs are too large: their profile "
                                   "matrix overflows")
    u, sv, vt = np.linalg.svd(b)
    # sv is sorted descending; two vanishing singular values mean the data
    # only pins down one axis, so any roll about it fits equally well
    if sv[0] < SINGULAR_RATIO_TOL or sv[1] < SINGULAR_RATIO_TOL * sv[0]:
        raise DegenerateInputError(
            "vector pairs are collinear, rotation is not uniquely determined")
    # on a reflection, flip the term of the smallest singular value
    rot = u @ vt
    if np.linalg.det(rot) < 0.0:
        rot -= 2.0 * np.outer(u[:, 2], vt[2])
    return rot


def wahba_cost(rot, xs, ys) -> float:
    """Evaluate sum_i ||R x_i - y_i||^2 for a candidate rotation; NaN or
    inf in a vector raises ``DegenerateInputError``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    _check_finite(xs, ys)
    resid = xs @ np.asarray(rot, dtype=float).T - ys
    return float(np.sum(np.sum(resid * resid, axis=1)))
