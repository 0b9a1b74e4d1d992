"""Rotation-bias estimation for networks of 2D/3D sensors.

Every sensor observes the same targets in its own, slightly rotated,
local frame.  These routines estimate one correcting rotation per sensor
so that corrected local tracks, shifted to sensor locations, agree in a
common frame.  3D (range + bearing) sensors are handled directly via
alternating optimal-rotation updates.  Bearing-only (2D) networks are
solved jointly for the rotations and the target positions by damped
Gauss-Newton (bundle adjustment), started from two closed-form
intersect-and-align sweeps and one triangulation.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, MissingRangeError, ZeroVectorError
from .geometry import (cart_to_spherical, collinearity_ratio,
                       direction_from_angles, rotation_from_rotvec)
from .triangulation import (LAMBDA_INIT, LAMBDA_MAX, LAMBDA_MIN, STATUS_OK,
                            bearing_residuals, intersect_rays,
                            solve_positive_definite,
                            triangulate_batch)
from .wahba import solve_wahba

COLLINEAR_WARN_RATIO = 0.01
# intersect-and-align sweeps that bring the bearing-only joint solver
# into the basin of the right minimum before it starts
WARM_START_SWEEPS = 2
# sightings this close to a sensor's pole (|el| above it) keep their
# azimuth out of the first phase of the joint solve; warm-start rotation
# errors stay well below the 10 degrees this leaves
NEAR_POLE_EL = np.radians(80.0)
# that first phase only has to reach the right basin, so it stops on
# this tolerance whatever the caller asks of the final solve
GATED_REL_COST_TOL = 1e-3


@dataclass(frozen=True)
class SensorMeasurements:
    """Measurements of n targets by one sensor (angles in radians).

    ``rng`` is None for a bearing-only sensor, otherwise meters.
    """

    az: np.ndarray
    el: np.ndarray
    rng: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "az", np.asarray(self.az, dtype=float))
        object.__setattr__(self, "el", np.asarray(self.el, dtype=float))
        if self.az.ndim != 1 or self.el.shape != self.az.shape:
            raise ValueError("az and el must be equal-length 1-D arrays")
        if self.rng is not None:
            object.__setattr__(self, "rng", np.asarray(self.rng, dtype=float))
            if self.rng.shape != self.az.shape:
                raise ValueError("rng must match az/el length")
        _check_values("az", self.az)
        _check_values("el", self.el)
        if self.rng is not None:
            _check_values("rng", self.rng, positive=True)

    @property
    def n(self) -> int:
        return self.az.shape[0]

    @property
    def is_3d(self) -> bool:
        return self.rng is not None

    def local_positions(self) -> np.ndarray:
        """Cartesian positions in the sensor's own frame, (n, 3)."""
        if self.rng is None:
            raise MissingRangeError("bearing-only sensor has no Cartesian positions")
        return self.rng[:, np.newaxis] * direction_from_angles(self.az, self.el)

    def directions(self) -> np.ndarray:
        """Unit line-of-sight vectors in the sensor's own frame, (n, 3)."""
        return direction_from_angles(self.az, self.el)


def _check_values(name, values, positive=False):
    bad = ~np.isfinite(values)
    if positive:
        bad |= values <= 0.0
    if bad.any():
        epoch = int(np.argmax(bad))
        rule = "finite and positive" if positive else "finite"
        raise DegenerateInputError(
            f"{name} must be {rule}, got {values[epoch]} at epoch {epoch}")


@dataclass(frozen=True)
class MeasurementBatch:
    """Aligned measurements of the same n targets from S sensors.

    Index i refers to the same target/epoch for every sensor.
    ``locations`` are the true sensor positions in the common frame,
    shape (S, 3).
    """

    sensors: tuple
    locations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "locations", np.asarray(self.locations, dtype=float))
        s = len(self.sensors)
        if s < 2:
            raise ValueError("a batch needs at least two sensors")
        if self.locations.shape != (s, 3):
            raise ValueError(f"locations must be ({s}, 3)")
        finite = np.isfinite(self.locations).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DegenerateInputError(f"location of sensor {bad} must be finite, "
                                       f"got {self.locations[bad].tolist()}")
        n = self.sensors[0].n
        if n < 2:
            raise ValueError("a batch needs at least two shared targets")
        if any(m.n != n for m in self.sensors):
            raise ValueError("every sensor must report the same number of targets")

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    @property
    def n_epochs(self) -> int:
        return self.sensors[0].n

    @property
    def all_3d(self) -> bool:
        return all(m.is_3d for m in self.sensors)

    def local_positions(self) -> list:
        """Per-sensor (n, 3) Cartesian positions; requires 3D sensors."""
        return [m.local_positions() for m in self.sensors]


@dataclass(frozen=True)
class StoppingCriteria:
    """Stop when the cost changes by less than ``rel_cost_tol``
    (relative) between iterations, or after ``max_iterations``
    iterations.  A tolerance of zero disables the cost rule, so the
    iteration runs the full budget, except that the bearing-only solver
    also stops once no damped step lowers its cost (its fixed point)."""

    rel_cost_tol: float = 1e-3
    max_iterations: int = 100

    def __post_init__(self):
        if self.rel_cost_tol < 0.0:
            raise ValueError("rel_cost_tol must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class CalibrationResult:
    """Estimated correcting rotations and fit diagnostics.

    estimates[s] maps sensor s's local coordinates into the common
    frame (apply then add the sensor location).  ``cost_trace`` holds
    the cost per iteration; for the absolute algorithms its first entry
    is the cost before the first iteration.  Its unit depends on the
    algorithm family:

    ==================  ==================================================
    alg1, alg3, alg4    m^2, total pairwise track disagreement
    alg2                squared unit-vector distance
    alg6, alg7          rad^2, sum of squared az/el residuals; the first
                        entry is the cost at the warm start (after its
                        one Gauss-Newton triangulation)
    ==================  ==================================================

    ``gauge_ambiguous`` flags two-sensor absolute solutions, where any
    common rotation about the baseline fits equally well.
    ``dropped_indices`` counts the epochs left out of the bearing-only
    joint solve because the warm start's final Gauss-Newton
    triangulation failed for them.
    """

    estimates: list
    cost_trace: list
    iterations: int
    converged: bool
    gauge_ambiguous: bool = False
    dropped_indices: int = 0


def pairwise_cost(rotations, batch: MeasurementBatch = None, *,
                  local_positions=None, locations=None) -> float:
    """Total squared disagreement between corrected sensor tracks.

    sum over sensor pairs (s < t) and targets i of
    ||R_s p_s^i + l_s - (R_t p_t^i + l_t)||^2.

    Positions come from ``batch`` (3D sensors) or, for bearing-only
    data, from ``local_positions``/``locations`` directly.
    """
    if batch is not None:
        local_positions = batch.local_positions()
        locations = batch.locations
    return _cost(rotations, local_positions, np.asarray(locations, dtype=float))


def _cost(rotations, positions, locations) -> float:
    common = [positions[s] @ np.asarray(rotations[s], dtype=float).T + locations[s]
              for s in range(len(positions))]
    total = 0.0
    for t in range(len(common)):
        for s in range(t + 1, len(common)):
            diff = common[t] - common[s]
            total += float(np.sum(diff * diff))
    return total


def _pair_schedule(n_sensors: int) -> list:
    return [(t, s) for t in range(n_sensors - 1) for s in range(t + 1, n_sensors)]


def _als_sweep(rotations, positions, locations, pairs):
    # Gauss-Seidel: each update uses the freshest estimate of its partner,
    # and each is an exact minimizer with the partner held fixed.
    for t, s in pairs:
        target = positions[s] @ rotations[s].T + (locations[s] - locations[t])
        rotations[t] = solve_wahba(positions[t], target)
        target = positions[t] @ rotations[t].T + (locations[t] - locations[s])
        rotations[s] = solve_wahba(positions[s], target)


def _stopped(prev: float, cur: float, tol: float) -> bool:
    if prev <= 0.0:
        return True
    return abs(prev - cur) < tol * prev


def relative_3d(batch: MeasurementBatch) -> np.ndarray:
    """Rotation of 3D sensor 0 relative to 3D sensor 1, one shot.

    Treats sensor 1 as the reference: returns the rotation R such that
    R p_0^i + l_0 best matches p_1^i + l_1.
    """
    _check_sensor_count(batch, 2)
    p0, p1 = batch.local_positions()
    shifted = p1 + (batch.locations[1] - batch.locations[0])
    return solve_wahba(p0, shifted)


def relative_hetero(batch: MeasurementBatch) -> np.ndarray:
    """Rotation of bearing-only sensor 0 relative to 3D sensor 1.

    Matches sensor 0's unit line-of-sight directions against directions
    to sensor 1's positions seen from sensor 0's location.

    Raises
    ------
    ZeroVectorError
        If a target coincides with sensor 0's location.
    """
    _check_sensor_count(batch, 2)
    if not batch.sensors[1].is_3d:
        raise MissingRangeError("reference sensor must supply ranges")
    q0 = batch.sensors[0].directions()
    shifted = batch.sensors[1].local_positions() \
        + (batch.locations[1] - batch.locations[0])
    norms = np.linalg.norm(shifted, axis=1)
    if np.any(norms < 1e-12):
        raise ZeroVectorError("a target coincides with sensor 0's location")
    return solve_wahba(q0, shifted / norms[:, np.newaxis])


def absolute_3d_pair(batch: MeasurementBatch,
                     stopping: StoppingCriteria = StoppingCriteria()) -> CalibrationResult:
    """Estimate both rotations of a 3D sensor pair by alternation.

    Each iteration rotates one sensor's track onto the other's current
    corrected track and vice versa; both updates are exact minimizers,
    so the cost trace never increases.  The solution is only determined
    up to a common rotation about the sensor baseline
    (``gauge_ambiguous``): corrected tracks agree, but individual
    rotations need not match any externally known truth.
    """
    _check_sensor_count(batch, 2)
    return _absolute_cartesian(batch, stopping, gauge_ambiguous=True)


def absolute_3d(batch: MeasurementBatch,
                stopping: StoppingCriteria = StoppingCriteria()) -> CalibrationResult:
    """Estimate all rotations of S >= 3 non-collinear 3D sensors.

    Sweeps every sensor pair in a fixed order, aligning each sensor of
    the pair to the other in turn.  With three or more non-collinear
    sensors the baseline ambiguity of the two-sensor case is broken.
    """
    _check_sensor_count(batch, 3, at_least=True)
    _warn_if_collinear(batch.locations)
    return _absolute_cartesian(batch, stopping, gauge_ambiguous=False)


def _absolute_cartesian(batch, stopping, gauge_ambiguous) -> CalibrationResult:
    positions = batch.local_positions()
    locations = batch.locations
    pairs = _pair_schedule(batch.n_sensors)
    rotations = [np.eye(3) for _ in range(batch.n_sensors)]
    trace = [_cost(rotations, positions, locations)]
    converged = False
    iterations = 0
    for iterations in range(1, stopping.max_iterations + 1):
        _als_sweep(rotations, positions, locations, pairs)
        cur = _cost(rotations, positions, locations)
        trace.append(cur)
        if _stopped(trace[-2], cur, stopping.rel_cost_tol):
            converged = True
            break
    return CalibrationResult(estimates=rotations, cost_trace=trace,
                             iterations=iterations, converged=converged,
                             gauge_ambiguous=gauge_ambiguous)


def absolute_2d_pair(batch: MeasurementBatch,
                     stopping: StoppingCriteria = StoppingCriteria()) -> CalibrationResult:
    """Estimate both rotations of a bearing-only sensor pair.

    Ranges are not measured, so the target positions are estimated
    jointly with the rotations, from the same warm start: two closed-form
    intersect-and-align sweeps, then one Gauss-Newton triangulation (see
    ``absolute_2d``).  Shares the two-sensor baseline ambiguity of the
    3D pair case: the solver never steps along the common rotation about
    the baseline, so that part of the answer stays where the warm start
    left it.
    """
    _check_sensor_count(batch, 2)
    return _absolute_bearing(batch, stopping, gauge_ambiguous=True)


def absolute_2d(batch: MeasurementBatch,
                stopping: StoppingCriteria = StoppingCriteria()) -> CalibrationResult:
    """Estimate all rotations of S >= 3 bearing-only sensors.

    Minimizes the wrapped az/el residuals of every sensor's bearings
    against A_s^T (x_i - l_s) over all rotations A_s and target
    positions x_i at once, by Levenberg-Marquardt with a Schur
    complement over the 3x3 point blocks (bundle adjustment).  From
    identity rotations that solver can settle in a local minimum, so it
    starts from two intersect-and-align sweeps: intersect every epoch's
    bias-compensated rays in closed form (``intersect_rays``), then
    align each sensor pair's tracks.  One Gauss-Newton triangulation
    (``triangulate_batch``) of the result gives the starting target
    positions; epochs whose fix fails there are left out.  Azimuths
    of sightings within 10 degrees of a sensor's pole join the solve
    only once it has converged without them, so the cost trace may rise
    during that first phase.
    """
    _check_sensor_count(batch, 3, at_least=True)
    _warn_if_collinear(batch.locations)
    return _absolute_bearing(batch, stopping, gauge_ambiguous=False)


def _absolute_bearing(batch, stopping, gauge_ambiguous) -> CalibrationResult:
    locations = batch.locations
    rotations, points, ok = _warm_start(batch)
    az = np.stack([m.az[ok] for m in batch.sensors])
    el = np.stack([m.el[ok] for m in batch.sensors])
    baseline = None
    if gauge_ambiguous:
        baseline = (locations[1] - locations[0]) \
            / np.linalg.norm(locations[1] - locations[0])
    # Near the pole of a sensor's frame the azimuth swings fast with the
    # line of sight, so a rotation error larger than a sighting's angle
    # from the pole can trap the solver in a false minimum.  Solve
    # without those azimuths first, then with every residual.
    weights = np.ones((points.shape[0], 2 * batch.n_sensors))
    weights[:, 0::2] = (np.abs(el) < NEAR_POLE_EL).T
    gated = not weights.all()

    res, jac, jac_rot = bearing_residuals(points, locations, az, el, rotations)
    trace = [float(np.sum(res * res))]
    objective = float(np.sum((res * weights) ** 2))
    lam = LAMBDA_INIT
    converged = False
    iterations = 0
    for iterations in range(1, stopping.max_iterations + 1):
        normal = _normal_equations(res, jac, jac_rot, weights)
        gauge = None if baseline is None else _gauge_complement(rotations, baseline)
        while lam <= LAMBDA_MAX:
            d_rot, d_pts = _damped_step(*normal, lam, gauge)
            trial_rot = rotations @ rotation_from_rotvec(d_rot)
            trial_pts = points + d_pts
            trial = bearing_residuals(trial_pts, locations, az, el, trial_rot)
            trial_objective = float(np.sum((trial[0] * weights) ** 2))
            if trial_objective < objective:
                rotations, points = trial_rot, trial_pts
                res, jac, jac_rot = trial
                lam = max(lam / 10.0, LAMBDA_MIN)
                trace.append(float(np.sum(res * res)))
                tol = GATED_REL_COST_TOL if gated else stopping.rel_cost_tol
                phase_done = _stopped(objective, trial_objective, tol)
                objective = trial_objective
                break
            lam *= 10.0
        else:
            phase_done = True  # no damped step lowers the cost: a fixed point
        if phase_done:
            if not gated:
                converged = True
                break
            gated = False
            weights[:] = 1.0
            objective = trace[-1]
            lam = LAMBDA_INIT
    return CalibrationResult(estimates=list(rotations), cost_trace=trace,
                             iterations=iterations, converged=converged,
                             gauge_ambiguous=gauge_ambiguous,
                             dropped_indices=int(ok.size - ok.sum()))


def _warm_start(batch):
    """Intersect-and-align sweeps, then one triangulation from the result.

    Each sweep intersects every epoch's bias-compensated rays in closed
    form (``intersect_rays``) and aligns each sensor pair's tracks.  The
    final Gauss-Newton fix (``triangulate_batch``) is where the joint
    solve starts.  Returns the (S, 3, 3) rotations, the fixed points of
    the epochs that triangulated and the mask of those epochs.
    """
    n_sensors = batch.n_sensors
    locations = batch.locations
    pairs = _pair_schedule(n_sensors)
    raw_dirs = np.stack([m.directions() for m in batch.sensors])
    rotations = np.stack([np.eye(3)] * n_sensors)
    for _ in range(WARM_START_SWEEPS):
        comp_dirs = raw_dirs @ rotations.transpose(0, 2, 1)
        points, ok = intersect_rays(locations, comp_dirs)
        _check_usable(ok)
        ranges = np.linalg.norm(points[ok] - locations[:, np.newaxis, :], axis=-1)
        positions = [ranges[s][:, np.newaxis] * comp_dirs[s, ok]
                     for s in range(n_sensors)]
        increments = [np.eye(3) for _ in range(n_sensors)]
        _als_sweep(increments, positions, locations, pairs)
        rotations = np.stack(increments) @ rotations
    bearings = cart_to_spherical(raw_dirs @ rotations.transpose(0, 2, 1))
    fix = triangulate_batch(locations, bearings.az, bearings.el)
    ok = fix.status == STATUS_OK
    _check_usable(ok)
    return rotations, fix.points[ok], ok


def _check_usable(ok):
    if ok.sum() < 2:
        raise DegenerateInputError("fewer than two targets could be triangulated")


def _normal_equations(res, jac, jac_rot, weights):
    """Gauss-Newton blocks of the joint bearing-only problem.

    Takes the residuals (n, 2S) and their point and rotation Jacobians
    (n, 2S, 3) from ``bearing_residuals``, and the (n, 2S) weight of
    each residual.  The rotation rows are the closed-form ones of
    ``bearing_residuals``, in each sensor's own frame: with
    d = A_s^T (x_i - l_s) and rho^2 = dx^2 + dy^2, azimuth
    (-dx dz / rho^2, -dy dz / rho^2, 1) and elevation
    (dy / rho, -dx / rho, 0).  Every row is weighted like its residual.
    Returns the point blocks V (n, 3, 3), the rotation blocks
    U (S, 3, 3), the rotation-point blocks W (n, S, 3, 3) and the
    descent right-hand sides for the rotations (S, 3) and the points
    (n, 3).
    """
    n, n_rows = res.shape
    n_sensors = n_rows // 2
    res = res * weights
    jac = jac * weights[..., np.newaxis]
    jac_rot = jac_rot * weights[..., np.newaxis]
    jac_t = jac.transpose(0, 2, 1)
    v = jac_t @ jac
    b_pts = -(jac_t @ res[..., np.newaxis])[..., 0]
    by_sensor = jac_rot.reshape(n, n_sensors, 2, 3).transpose(1, 0, 2, 3) \
        .reshape(n_sensors, 2 * n, 3)
    u = by_sensor.transpose(0, 2, 1) @ by_sensor
    b_rot = -(res.T[:, np.newaxis, :] @ jac_rot.transpose(1, 0, 2)) \
        .reshape(n_sensors, 2, 3).sum(axis=1)
    w = jac_rot.reshape(n, n_sensors, 2, 3).transpose(0, 1, 3, 2) \
        @ jac.reshape(n, n_sensors, 2, 3)
    return v, u, w, b_rot, b_pts


def _damped_step(v, u, w, b_rot, b_pts, lam, gauge):
    """Solve the Marquardt-damped normal equations via the Schur
    complement over the point blocks; ``gauge`` (rows spanning the
    allowed rotation steps) confines the rotation step when given."""
    n, n_sensors = v.shape[0], u.shape[0]
    eye = np.eye(3)
    damped_v = v + lam * v * eye
    w_mat = w.transpose(1, 2, 0, 3).reshape(3 * n_sensors, 3 * n)
    # V_i is symmetric, so solving V_i Z_i = W_i^T gives Z_i^T = W_i V_i^-1;
    # y holds the W_si V_i^-1 in w_mat's (3S, 3n) layout, so that one GEMM
    # forms sum_i W_si V_i^-1 W_ti^T
    y = solve_positive_definite(damped_v, w.transpose(0, 3, 1, 2).reshape(n, 3, -1)) \
        .transpose(2, 0, 1).reshape(3 * n_sensors, 3 * n)
    reduced = -(y @ w_mat.T)
    blocks = reduced.reshape(n_sensors, 3, n_sensors, 3)
    diag = np.arange(n_sensors)
    blocks[diag, :, diag, :] += u + lam * u * eye
    rhs = b_rot.ravel() - y @ b_pts.ravel()
    if gauge is None:
        d_rot = np.linalg.solve(reduced, rhs)
    else:
        d_rot = gauge.T @ np.linalg.solve(gauge @ reduced @ gauge.T, gauge @ rhs)
    back = b_pts - (w_mat.T @ d_rot).reshape(n, 3)
    d_pts = solve_positive_definite(damped_v, back)
    return d_rot.reshape(n_sensors, 3), d_pts


def _gauge_complement(rotations, baseline):
    """Orthonormal rows spanning the rotation steps that leave the
    common rotation about the baseline unchanged.

    R_b(t) A_s = A_s exp(t A_s^T b), so that rotation is the step
    direction (A_s^T b) over all sensors; the rows span its complement.
    """
    direction = (rotations.transpose(0, 2, 1) @ baseline).reshape(1, -1)
    return np.linalg.svd(direction)[2][1:]


def _check_sensor_count(batch, count, at_least=False):
    if at_least:
        if batch.n_sensors < count:
            raise ValueError(f"at least {count} sensors required, got {batch.n_sensors}")
    elif batch.n_sensors != count:
        raise ValueError(f"exactly {count} sensors required, got {batch.n_sensors}")


def _warn_if_collinear(locations):
    ratio = collinearity_ratio(locations)
    if ratio < COLLINEAR_WARN_RATIO:
        warnings.warn(
            f"sensor locations are nearly collinear (spread ratio {ratio:.2e}); "
            "rotation biases may not be fully observable", stacklevel=3)
