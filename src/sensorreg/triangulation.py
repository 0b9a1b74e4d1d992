"""Bearing-only target position fixes from two or more sensors.

Finds the point whose predicted azimuth/elevation at every sensor best
matches the measured rays (least squares over wrapped angle residuals),
via Gauss-Newton with Levenberg damping, started from ``intersect_rays``
on the same rays: the closed-form point nearest to all of them (Hartley
and Sturm 1997), which callers that only need a rough fix use alone.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, IllConditionedError, NoConvergenceError
from .geometry import cart_to_spherical, direction_from_angles, wrap_angle

MAX_ITERATIONS = 50
COST_DECREASE_TOL = 1e-12   # rad^2
CONDITION_LIMIT = 1e12
LAMBDA_INIT = 1e-3
LAMBDA_MIN = 1e-12
LAMBDA_MAX = 1e12
MIN_SENSOR_SEPARATION = 1e-6

STATUS_OK = 0
STATUS_NO_CONVERGENCE = 1
STATUS_ILL_CONDITIONED = 2


@dataclass(frozen=True)
class BearingSet:
    """Bearings to one target from S sensors at known locations.

    locations: (S, 3) meters, az/el: (S,) radians.
    """

    locations: np.ndarray
    az: np.ndarray
    el: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "locations", np.asarray(self.locations, dtype=float))
        object.__setattr__(self, "az", np.asarray(self.az, dtype=float))
        object.__setattr__(self, "el", np.asarray(self.el, dtype=float))
        s = self.locations.shape[0]
        if self.locations.ndim != 2 or self.locations.shape[1] != 3 or s < 2:
            raise ValueError("locations must be (S, 3) with S >= 2")
        if self.az.shape != (s,) or self.el.shape != (s,):
            raise ValueError("az and el must be (S,) to match locations")
        diff = self.locations[:, np.newaxis, :] - self.locations[np.newaxis, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        dist[np.diag_indices(s)] = np.inf
        if dist.min() < MIN_SENSOR_SEPARATION:
            raise ValueError("sensor locations must be pairwise distinct")


@dataclass(frozen=True)
class TriangulationFix:
    """Result of a bearing-only fix."""

    point: np.ndarray
    iterations: int


class BatchFix(NamedTuple):
    """Vectorized fixes for n targets (see ``triangulate_batch``): a status
    is STATUS_OK at a target's fixed point, STATUS_NO_CONVERGENCE only
    where ``MAX_ITERATIONS`` ran out before it."""

    points: np.ndarray      # (n, 3)
    iterations: np.ndarray  # (n,)
    status: np.ndarray      # (n,) STATUS_* codes


def bearing_residuals(points, locations, az, el, rotations=None):
    """Wrapped bearing residuals and their Jacobians.

    Parameters
    ----------
    points : (n, 3) candidate target positions.
    locations : (S, 3) sensor locations.
    az, el : (S, n) measured bearings.
    rotations : (S, 3, 3), optional
        Correcting rotation A_s of each sensor (local frame to common
        frame).  The bearings are then predicted in the sensor's own
        frame, from the local offset d = A_s^T (point - location_s).
        Default: identity.

    Returns
    -------
    res : (n, 2S) residuals, sensor-major (az_s, el_s) pairs, wrapped
        to (-pi, pi].
    jac : (n, 2S, 3) derivative of ``res`` with respect to the point.
    jac_rot : (n, 2S, 3), only when ``rotations`` is given
        Derivative of each residual with respect to its own sensor's
        rotation step w under A_s <- A_s exp(w).  With
        rho^2 = dx^2 + dy^2, the azimuth row is
        (-dx dz / rho^2, -dy dz / rho^2, 1) and the elevation row
        (dy / rho, -dx / rho, 0).
    """
    points = np.asarray(points, dtype=float)
    locations = np.asarray(locations, dtype=float)
    n = points.shape[0]
    s = locations.shape[0]

    delta = points[np.newaxis, :, :] - locations[:, np.newaxis, :]  # (S, n, 3)
    if rotations is not None:
        rotations = np.asarray(rotations, dtype=float)
        delta = delta @ rotations  # row form of A_s^T (point - location_s)
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    rho2 = np.maximum(dx * dx + dy * dy, 1e-30)
    rho = np.sqrt(rho2)
    r2 = rho2 + dz * dz

    res = np.empty((n, 2 * s))
    res[:, 0::2] = wrap_angle(az - np.arctan2(dy, dx)).T
    res[:, 1::2] = wrap_angle(el - np.arctan2(dz, rho)).T

    # residual = measured - predicted, so the Jacobians are -d(predicted)/d(.);
    # the local-frame point rows are az (ax, ay, 0) and el (ex, ey, ez)
    ax, ay = dy / rho2, -dx / rho2
    ex, ey, ez = dx * dz / (r2 * rho), dy * dz / (r2 * rho), -rho / r2
    if rotations is None:
        jac = np.empty((n, 2 * s, 3))
        jac[:, 0::2, 0] = ax.T
        jac[:, 0::2, 1] = ay.T
        jac[:, 0::2, 2] = 0.0
        jac[:, 1::2, 0] = ex.T
        jac[:, 1::2, 1] = ey.T
        jac[:, 1::2, 2] = ez.T
        return res, jac

    # rows[0, c, s, j, i]: point row j of sensor s and epoch i, component c;
    # rows[1]: its rotation row
    rows = np.empty((2, 3, s, 2, n))
    # chain rule to the common frame: row . A_s^T = sum_k row_k A_s[:, k]
    cols = rotations.transpose(2, 1, 0)[..., np.newaxis]  # cols[k][c, s] = A_s[c, k]
    rows[0, :, :, 0] = ax * cols[0] + ay * cols[1]
    rows[0, :, :, 1] = ex * cols[0] + ey * cols[1] + ez * cols[2]
    # a step w moves d by d x w, so a rotation row is the local point row x d
    rows[1, 0, :, 0] = ay * dz
    rows[1, 1, :, 0] = -ax * dz
    rows[1, 2, :, 0] = 1.0
    rows[1, 0, :, 1] = dy / rho
    rows[1, 1, :, 1] = -dx / rho
    rows[1, 2, :, 1] = 0.0
    jac, jac_rot = rows.transpose(0, 4, 2, 3, 1).reshape(2, n, 2 * s, 3)
    return res, jac, jac_rot


def intersect_rays(locations, directions):
    """Closed-form (midpoint) intersection of one ray per sensor, per epoch.

    Each epoch's point minimizes the summed squared distance to its S
    rays, i.e. solves sum_s (I - d_s d_s^T) x = sum_s (I - d_s d_s^T) l_s.

    Parameters
    ----------
    locations : (S, 3) sensor locations, S >= 2.
    directions : (S, n, 3) unit ray directions in the common frame.

    Returns
    -------
    points : (n, 3); NaN where the normal matrix is ill-conditioned.
    ok : (n,) True where the normal matrix passes the condition screen
        and the point lies ahead of every sensor (d_s . (x - l_s) > 0).
        Near-parallel and non-finite rays come back not ok.
    """
    locations = np.asarray(locations, dtype=float)
    directions = np.asarray(directions, dtype=float)
    n_sensors = locations.shape[0]
    along = np.sum(directions * locations[:, np.newaxis], axis=-1, keepdims=True)  # (S, n, 1)
    by_epoch = directions.transpose(1, 2, 0)                         # (n, 3, S)
    normal = n_sensors * np.eye(3) - by_epoch @ by_epoch.transpose(0, 2, 1)
    rhs = locations.sum(axis=0) - np.sum(directions * along, axis=0)  # (n, 3)
    solvable = ~_ill_conditioned(normal)
    points = np.full(rhs.shape, np.nan)
    points[solvable] = solve_positive_definite(normal[solvable], rhs[solvable])
    offsets = points - locations[:, np.newaxis, :]                   # (S, n, 3)
    ahead = (np.sum(directions * offsets, axis=-1) > 0.0).all(axis=0)
    return points, solvable & ahead


def solve_positive_definite(m, b) -> np.ndarray:
    """Solve m x = b for a stack of symmetric positive-definite 3x3 matrices.

    Parameters
    ----------
    m : (n, 3, 3); only the upper triangle of each matrix is read.
    b : (n, 3) or (n, 3, k) right-hand sides.

    A closed-form LDL^T factorization and substitution, element-wise
    over the stack: as accurate as Cholesky (the error is of order
    cond(m) times the machine epsilon), and no solution depends on the
    rest of the stack.

    Raises
    ------
    DegenerateInputError
        If a determinant is zero or not finite (a singular matrix, or a
        non-finite entry), naming the first such matrix.
    """
    (l1, l2, l3), (d1, d2, d3), det = _ldl(m)
    bad = ~np.isfinite(det) | (det == 0.0)
    if bad.any():
        first = int(np.argmax(bad))
        raise DegenerateInputError(f"3x3 matrix {first} of {det.size} is singular "
                                   f"or not finite (determinant {det[first]})")
    if b.ndim == 3:
        l1, l2, l3 = l1[:, np.newaxis], l2[:, np.newaxis], l3[:, np.newaxis]
        d1, d2, d3 = d1[:, np.newaxis], d2[:, np.newaxis], d3[:, np.newaxis]
    x = np.empty(b.shape)
    y1 = b[:, 1] - l1 * b[:, 0]
    x[:, 2] = (b[:, 2] - l2 * b[:, 0] - l3 * y1) / d3
    x[:, 1] = y1 / d2 - l3 * x[:, 2]
    x[:, 0] = b[:, 0] / d1 - l1 * x[:, 1] - l2 * x[:, 2]
    return x


def _ldl(m):
    """Closed-form m = L D L^T of a stack of symmetric 3x3 matrices, from
    their upper triangles: the below-diagonal entries of L (rows 1, 2, 2
    of columns 0, 0, 1), the pivots (the diagonal of D) and the
    determinants, each (n,).  A zero pivot makes the determinant zero
    or NaN, without a warning."""
    a, b, c = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
    d, e, f = m[:, 1, 1], m[:, 1, 2], m[:, 2, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l1, l2 = b / a, c / a
        d2 = d - l1 * b
        t = e - l2 * b
        l3 = t / d2
        d3 = f - l2 * c - l3 * t
        det = a * d2 * d3
    return (l1, l2, l3), (a, d2, d3), det


def _ill_conditioned(jtj) -> np.ndarray:
    """``np.linalg.cond(jtj) > CONDITION_LIMIT`` for a stack of symmetric
    positive semi-definite 3x3 matrices; a matrix with a non-finite entry
    counts as ill-conditioned.

    lambda_max <= trace and lambda_min >= det / trace^2, so cond <= trace^3 / det.
    Only the finite matrices that bound does not clear (det <= 0 and the
    zero matrix among them) pay for the SVD inside ``np.linalg.cond``.
    The determinant is the product of the LDL^T pivots; a zero leading
    pivot makes it NaN, which the bound does not clear either.
    """
    bad = ~np.isfinite(jtj).all(axis=(1, 2))
    finite = np.flatnonzero(~bad)
    m = jtj[finite]
    tr = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
    candidate = finite[~(tr ** 3 < CONDITION_LIMIT * _ldl(m)[2])]
    if candidate.size:
        bad[candidate] = np.linalg.cond(jtj[candidate]) > CONDITION_LIMIT
    return bad


def triangulate_batch(locations, directions) -> BatchFix:
    """Fix n targets at once from per-sensor rays.

    Parameters
    ----------
    locations : (S, 3) sensor locations, S >= 2.
    directions : (S, n, 3) unit ray directions in the common frame, as
        ``intersect_rays`` takes them.

    Each fix starts from ``intersect_rays`` on the same rays, and fits
    their azimuth/elevation.  A target runs while it is
    STATUS_NO_CONVERGENCE, and is STATUS_OK at its fixed point: once a
    trial step moves its cost by less than ``COST_DECREASE_TOL``, up or
    down (a rise that small is rounding), or once no damped step lowers
    it (lambda past ``LAMBDA_MAX``).
    Per-target failures are reported through ``status`` rather than
    raised, so one bad geometry does not abort the batch: rays with no
    intersection (near-parallel or not finite) are ill-conditioned at
    iteration 1, with a NaN point.
    """
    locations = np.asarray(locations, dtype=float)
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 3 or directions.shape[::2] != (locations.shape[0], 3):
        raise ValueError(f"directions must be (S, n, 3) to match locations "
                         f"{locations.shape}, got {directions.shape}")
    n = directions.shape[1]

    x = intersect_rays(locations, directions)[0]
    _, az, el = cart_to_spherical(directions)
    res, jac = bearing_residuals(x, locations, az, el)
    cost = np.sum(res * res, axis=1)
    lam = np.full(n, LAMBDA_INIT)
    status = np.full(n, STATUS_NO_CONVERGENCE, dtype=int)
    iterations = np.zeros(n, dtype=int)

    for it in range(1, MAX_ITERATIONS + 1):
        idx = np.flatnonzero(status == STATUS_NO_CONVERGENCE)
        if not idx.size:
            break
        j = jac[idx]
        jt = j.transpose(0, 2, 1)
        jtj = jt @ j
        rhs = -(jt @ res[idx, :, np.newaxis])[..., 0]
        iterations[idx] = it
        bad = _ill_conditioned(jtj)
        if bad.any():
            status[idx[bad]] = STATUS_ILL_CONDITIONED
            idx, jtj, rhs = idx[~bad], jtj[~bad], rhs[~bad]

        damped = jtj + lam[idx, np.newaxis, np.newaxis] * (jtj * np.eye(3))
        trial = x[idx] + solve_positive_definite(damped, rhs)
        res_t, jac_t = bearing_residuals(trial, locations, az[:, idx], el[:, idx])
        cost_t = np.sum(res_t * res_t, axis=1)

        better = cost_t <= cost[idx]
        acc, rej = idx[better], idx[~better]
        status[idx[np.abs(cost[idx] - cost_t) < COST_DECREASE_TOL]] = STATUS_OK
        x[acc], cost[acc] = trial[better], cost_t[better]
        res[acc], jac[acc] = res_t[better], jac_t[better]
        lam[acc] = np.maximum(lam[acc] / 10.0, LAMBDA_MIN)

        lam[rej] *= 10.0
        # no damped step lowers the cost: a fixed point, as in absolute_2d
        status[rej[lam[rej] > LAMBDA_MAX]] = STATUS_OK

    return BatchFix(points=x, iterations=iterations, status=status)


def triangulate(bearings: BearingSet) -> TriangulationFix:
    """Fix a single target from a BearingSet.

    Raises
    ------
    IllConditionedError
        If the normal-equation condition number exceeds 1e12
        (near-parallel rays) or a bearing is not finite.
    NoConvergenceError
        If the fit does not converge within ``MAX_ITERATIONS``.
    """
    rays = direction_from_angles(bearings.az, bearings.el)[:, np.newaxis]
    fix = triangulate_batch(bearings.locations, rays)
    code = int(fix.status[0])
    if code == STATUS_ILL_CONDITIONED:
        raise IllConditionedError("bearing rays are near-parallel or not finite")
    if code != STATUS_OK:
        raise NoConvergenceError(f"no convergence in {MAX_ITERATIONS} iterations")
    return TriangulationFix(point=fix.points[0], iterations=int(fix.iterations[0]))
