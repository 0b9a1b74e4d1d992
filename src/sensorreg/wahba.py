"""Optimal rotation between two vector sets (Wahba's problem).

Finds the proper rotation R minimizing sum_i w_i ||R x_i - y_i||^2 via
the SVD of the weighted attitude profile matrix B = sum_i w_i y_i x_i^T.
"""

import numpy as np

from .errors import DegenerateInputError

SINGULAR_RATIO_TOL = 1e-12


def solve_wahba(xs, ys, weights=None) -> np.ndarray:
    """Solve for the rotation best mapping ``xs`` onto ``ys``.

    Parameters
    ----------
    xs, ys : array_like, shape (n, 3)
        Paired vectors, n >= 2.  Need not be unit length; longer vectors
        simply carry more weight, exactly as in the least-squares cost.
    weights : array_like, shape (n,), optional
        Nonnegative per-pair weights.  Defaults to 1.

    Returns
    -------
    ndarray, shape (3, 3)
        Proper rotation (determinant +1) minimizing
        sum_i w_i ||R x_i - y_i||^2.

    Raises
    ------
    DegenerateInputError
        If fewer than two pairs are given, or the two smallest singular
        values of B both vanish relative to the largest (collinear data:
        the rotation is not unique).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim < 2 or ys.ndim < 2:  # as a single pair, like np.atleast_2d
        xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
    if xs.shape != ys.shape or xs.shape[1] != 3:
        raise ValueError(f"paired (n, 3) arrays required, got {xs.shape} and {ys.shape}")
    n = xs.shape[0]
    if n < 2:
        raise DegenerateInputError("at least two vector pairs are required")
    if weights is None:
        b = ys.T @ xs
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {weights.shape}")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        b = (weights[:, np.newaxis] * ys).T @ xs

    u, sv, vt = np.linalg.svd(b)
    # sv is sorted descending; two vanishing singular values mean the data
    # only pins down one axis, so any roll about it fits equally well
    if sv[0] < SINGULAR_RATIO_TOL or sv[1] < SINGULAR_RATIO_TOL * sv[0]:
        raise DegenerateInputError(
            "vector pairs are collinear, rotation is not uniquely determined")
    # u diag(1, 1, det(u vt)) vt: on a reflection, flip the term of the
    # smallest singular value
    rot = u @ vt
    r0, r1, r2 = rot.tolist()  # det(rot) = r0 . (r1 x r2), +-1 up to rounding
    if (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1]) + r0[1] * (r1[2] * r2[0] - r1[0] * r2[2])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])) < 0.0:
        rot -= 2.0 * np.outer(u[:, 2], vt[2])
    return rot


def wahba_cost(rot, xs, ys, weights=None) -> float:
    """Evaluate sum_i w_i ||R x_i - y_i||^2 for a candidate rotation."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    resid = xs @ np.asarray(rot, dtype=float).T - ys
    sq = np.sum(resid * resid, axis=1)
    if weights is not None:
        sq = sq * np.asarray(weights, dtype=float)
    return float(np.sum(sq))
