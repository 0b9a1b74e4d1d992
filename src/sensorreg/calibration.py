"""Rotation-bias estimation for networks of 2D/3D sensors.

Every sensor observes the same targets in its own, slightly rotated,
local frame.  These routines estimate one correcting rotation per sensor
so that corrected local tracks, shifted to sensor locations, agree in a
common frame.  One solver per measurement model returns a
``CalibrationResult``: ``relative_3d`` and ``relative_hetero`` fit sensor
0 of a pair to reference sensor 1 in one shot; ``absolute_3d``
(alternating optimal-rotation updates) and ``absolute_2d`` (damped
Gauss-Newton over rotations and target positions, i.e. bundle
adjustment, from closed-form intersect-and-align sweeps) take two or
more sensors and flag a pair's baseline gauge themselves.
"""

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, MissingRangeError, ZeroVectorError
from .geometry import collinearity_ratio, direction_from_angles, rotation_from_rotvec
from .triangulation import (LAMBDA_INIT, LAMBDA_MAX, LAMBDA_MIN, STATUS_OK,
                            bearing_residuals, intersect_rays,
                            solve_positive_definite,
                            triangulate_batch)
from .wahba import solve_wahba, wahba_cost

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

    def local_positions(self) -> list:
        """Per-sensor (n, 3) Cartesian positions; requires 3D sensors."""
        return [m.local_positions() for m in self.sensors]


@dataclass(frozen=True)
class StoppingCriteria:
    """Stop when the cost changes by less than ``rel_cost_tol``
    (relative) between iterations, or after ``max_iterations``
    iterations.  A tolerance of zero disables the cost rule, so the
    iteration runs the full budget, except that ``absolute_2d`` also
    stops once no damped step lowers its cost (its fixed point).  The
    tolerance must be finite and the budget a positive integer."""

    rel_cost_tol: float = 1e-3
    max_iterations: int = 100

    def __post_init__(self):
        if not 0.0 <= self.rel_cost_tol < math.inf:
            raise ValueError("rel_cost_tol must be finite and non-negative, "
                             f"got {self.rel_cost_tol!r}")
        if isinstance(self.max_iterations, bool) \
                or not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class CalibrationResult:
    """Estimated correcting rotations and fit diagnostics.

    estimates[s] maps sensor s's local coordinates into the common
    frame (apply then add the sensor location).  ``cost_trace`` holds
    the cost per iteration; for ``absolute_3d`` and ``absolute_2d`` its
    first entry is the cost before the first iteration, and the one-shot
    relative fits report one iteration and one cost.  Its unit depends
    on the algorithm family:

    ==================  ==================================================
    alg1, alg3, alg4    m^2, total pairwise track disagreement
    alg2                squared unit-vector distance
    alg6, alg7          rad^2, sum of squared az/el residuals; the first
                        entry is the cost at the warm start (after its
                        one Gauss-Newton triangulation)
    ==================  ==================================================

    ``gauge_ambiguous`` flags two-sensor absolute solutions, where any
    common rotation about the baseline fits equally well.
    ``dropped_indices`` counts the epochs left out of ``absolute_2d``'s
    joint solve because the warm start's final Gauss-Newton
    triangulation failed for them.
    """

    estimates: list
    cost_trace: list
    iterations: int
    converged: bool
    gauge_ambiguous: bool = False
    dropped_indices: int = 0


def pairwise_cost(rotations, batch: MeasurementBatch) -> float:
    """Total squared disagreement between corrected sensor tracks.

    sum over sensor pairs (s < t) and targets i of
    ||R_s p_s^i + l_s - (R_t p_t^i + l_t)||^2, with the local positions
    p_s^i of the batch's 3D sensors.
    """
    return _cost(rotations, np.stack(batch.local_positions()), batch.locations,
                 np.triu_indices(batch.n_sensors, 1))


def _cost(rotations, positions, locations, pair_index) -> float:
    """``pairwise_cost`` of the (S, n, 3) ``positions``, over the pairs
    whose two index arrays are ``pair_index``."""
    common = positions @ np.transpose(rotations, (0, 2, 1))
    common += locations[:, np.newaxis]
    diff = common[pair_index[0]]
    diff -= common[pair_index[1]]
    return float(np.sum(diff * diff))


def _pair_moments(positions, locations):
    """Wahba inputs of every ordered pair update, two (S, S, 4, 3) arrays.
    Aligning sensor a to b has the profile matrix sum_i (R_b p_b^i + l_b - l_a)
    p_a^iT = R_b P_b^T P_a + (l_b - l_a) c_a^T, with c_a = sum_i p_a^i: that of
    the four pairs xs[a, b] = [P_b^T P_a; c_a^T], ys[a, b] = [R_b^T; (l_b - l_a)^T].
    ``_als_sweep`` writes R_b^T into ys[a, b, :3] before each solve."""
    padded = np.concatenate([positions, np.ones(positions.shape[:2] + (1,))], axis=2)
    xs = padded.transpose(0, 2, 1)[np.newaxis] @ positions[:, np.newaxis]
    ys = np.empty_like(xs)
    ys[:, :, 3] = locations[np.newaxis] - locations[:, np.newaxis]
    return xs, ys


def _als_sweep(rotations, xs, ys):
    # Gauss-Seidel: each update uses the freshest estimate of its partner,
    # and each is an exact minimizer with the partner held fixed.
    for t, s in itertools.combinations(range(len(rotations)), 2):
        ys[t, s, :3] = rotations[s].T
        rotations[t] = solve_wahba(xs[t, s], ys[t, s])
        ys[s, t, :3] = rotations[t].T
        rotations[s] = solve_wahba(xs[s, t], ys[s, t])


def _stopped(prev: float, cur: float, tol: float) -> bool:
    if prev <= 0.0:
        return True
    return abs(prev - cur) < tol * prev


def relative_3d(batch: MeasurementBatch) -> CalibrationResult:
    """Rotation of 3D sensor 0 relative to 3D sensor 1, one shot (alg1).

    Treats sensor 1 as the reference: ``estimates`` is [R, I], where R
    makes R p_0^i + l_0 best match p_1^i + l_1, and the one cost is
    ``pairwise_cost`` at that answer.
    """
    if batch.n_sensors != 2:
        raise ValueError(f"exactly 2 sensors required, got {batch.n_sensors}")
    positions = batch.local_positions()
    shifted = positions[1] + (batch.locations[1] - batch.locations[0])
    rotation = solve_wahba(positions[0], shifted)
    cost = pairwise_cost([rotation, np.eye(3)], batch)
    return CalibrationResult(estimates=[rotation, np.eye(3)], cost_trace=[cost],
                             iterations=1, converged=True)


def relative_hetero(batch: MeasurementBatch) -> CalibrationResult:
    """Rotation of bearing-only sensor 0 relative to 3D sensor 1 (alg2).

    Matches sensor 0's unit line-of-sight directions against directions
    to sensor 1's positions seen from sensor 0's location; ``estimates``
    is [R, I] and the one cost their squared distance after rotation.

    Raises
    ------
    ZeroVectorError
        If a target coincides with sensor 0's location.
    """
    if batch.n_sensors != 2:
        raise ValueError(f"exactly 2 sensors required, got {batch.n_sensors}")
    if not batch.sensors[1].is_3d:
        raise MissingRangeError("reference sensor must supply ranges")
    shifted = batch.sensors[1].local_positions() \
        + (batch.locations[1] - batch.locations[0])
    norms = np.linalg.norm(shifted, axis=1)
    if np.any(norms < 1e-12):
        raise ZeroVectorError("a target coincides with sensor 0's location")
    directions, unit = batch.sensors[0].directions(), shifted / norms[:, np.newaxis]
    rotation = solve_wahba(directions, unit)
    return CalibrationResult(estimates=[rotation, np.eye(3)],
                             cost_trace=[wahba_cost(rotation, directions, unit)],
                             iterations=1, converged=True)


def absolute_3d(batch: MeasurementBatch,
                stopping: StoppingCriteria = StoppingCriteria()) -> CalibrationResult:
    """Estimate all rotations of two or more 3D sensors (alg3, alg4).

    Sweeps every sensor pair in a fixed order, aligning each sensor of
    the pair to the other in turn; every update is an exact minimizer,
    so the cost trace never increases.  Two sensors are only determined
    up to a common rotation about their baseline (``gauge_ambiguous``):
    corrected tracks agree, but individual rotations need not match any
    externally known truth.  Three or more non-collinear sensors break
    that ambiguity.
    """
    gauge_ambiguous = _gauge_ambiguous(batch)
    positions = np.stack(batch.local_positions())
    locations = batch.locations
    pair_index = np.triu_indices(batch.n_sensors, 1)
    xs, ys = _pair_moments(positions, locations)
    rotations = np.stack([np.eye(3)] * batch.n_sensors)
    trace = [_cost(rotations, positions, locations, pair_index)]
    converged = False
    iterations = 0
    for iterations in range(1, stopping.max_iterations + 1):
        _als_sweep(rotations, xs, ys)
        cur = _cost(rotations, positions, locations, pair_index)
        trace.append(cur)
        if _stopped(trace[-2], cur, stopping.rel_cost_tol):
            converged = True
            break
    return CalibrationResult(estimates=list(rotations), cost_trace=trace,
                             iterations=iterations, converged=converged,
                             gauge_ambiguous=gauge_ambiguous)


def absolute_2d(batch: MeasurementBatch,
                stopping: StoppingCriteria = StoppingCriteria()) -> CalibrationResult:
    """Estimate all rotations of two or more bearing-only sensors (alg6, alg7).

    Minimizes the wrapped az/el residuals of every sensor's bearings
    against A_s^T (x_i - l_s) over all rotations A_s and target
    positions x_i at once, by Levenberg-Marquardt with a Schur
    complement over the 3x3 point blocks (bundle adjustment).  From
    identity rotations that solver can settle in a local minimum, so it
    starts from two intersect-and-align sweeps: intersect every epoch's
    bias-compensated rays in closed form (``intersect_rays``), then
    align each sensor pair's tracks.  One Gauss-Newton triangulation
    (``triangulate_batch``) of the compensated rays gives the starting
    target positions; epochs whose fix fails there are left out.  Azimuths
    of sightings within 10 degrees of a sensor's pole join the solve
    only once it has converged without them, so the cost trace may rise
    during that first phase.  It never steps along a pair's common
    rotation about the baseline, which stays where the warm start left it.
    """
    gauge_ambiguous = _gauge_ambiguous(batch)
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
    form (``intersect_rays``) and aligns each sensor pair's tracks: the
    sensor-frame positions those ranges give along the raw rays.  The
    final Gauss-Newton fix (``triangulate_batch``) of the compensated
    rays is where the joint solve starts.  Returns the (S, 3, 3)
    rotations, the fixed points of the epochs that triangulated and the
    mask of those epochs.
    """
    locations = batch.locations
    raw_dirs = np.stack([m.directions() for m in batch.sensors])
    rotations = np.stack([np.eye(3)] * batch.n_sensors)
    for _ in range(WARM_START_SWEEPS):
        points, ok = intersect_rays(locations, raw_dirs @ rotations.transpose(0, 2, 1))
        _check_usable(ok)
        ranges = np.linalg.norm(points[ok] - locations[:, np.newaxis, :], axis=-1)
        positions = ranges[..., np.newaxis] * raw_dirs[:, ok]
        _als_sweep(rotations, *_pair_moments(positions, locations))
    fix = triangulate_batch(locations, raw_dirs @ rotations.transpose(0, 2, 1))
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


def _gauge_ambiguous(batch) -> bool:
    """Whether the batch is a sensor pair, whose rotations are only
    determined up to a common rotation about its baseline.  Three or
    more sensors whose locations are nearly collinear get a warning,
    raised at the solver's caller."""
    if batch.n_sensors == 2:
        return True
    ratio = collinearity_ratio(batch.locations)
    if ratio < COLLINEAR_WARN_RATIO:
        warnings.warn(
            f"sensor locations are nearly collinear (spread ratio {ratio:.2e}); "
            "rotation biases may not be fully observable", stacklevel=3)
    return False


@dataclass(frozen=True)
class Algorithm:
    """One paper algorithm: ``solve(batch, stopping)`` and the batches it
    accepts.  ``sensor_kind`` is "3d", "2d" or "hetero" (sensor 0
    bearing-only, sensor 1 with ranges); a ``pair`` algorithm takes
    exactly two sensors, the others three or more.  That flag alone
    tells alg3 from alg4 and alg6 from alg7: each pair shares its
    solver.  A ``relative`` one trusts sensor 1 as an unbiased reference
    and estimates sensor 0."""

    solve: object
    sensor_kind: str
    pair: bool
    relative: bool = False

    def accepts_count(self, count: int) -> bool:
        return count == 2 if self.pair else count >= 3

    def sensor_kinds(self, count: int) -> list:
        """The kind, "3d" or "2d", of each of ``count`` sensors."""
        return ["2d", "3d"] if self.sensor_kind == "hetero" else [self.sensor_kind] * count

    def accepts(self, batch: MeasurementBatch) -> bool:
        count = batch.n_sensors
        return self.accepts_count(count) and self.sensor_kinds(count) == [
            "3d" if m.is_3d else "2d" for m in batch.sensors]


# Every solver looks its entry point up on this module when it is called,
# so a wrapped or patched module attribute is the one that runs.
ALGORITHMS = {
    "alg1": Algorithm(lambda b, st: relative_3d(b), "3d", pair=True, relative=True),
    "alg2": Algorithm(lambda b, st: relative_hetero(b), "hetero", pair=True,
                      relative=True),
    "alg3": Algorithm(lambda b, st: absolute_3d(b, st), "3d", pair=True),
    "alg4": Algorithm(lambda b, st: absolute_3d(b, st), "3d", pair=False),
    "alg6": Algorithm(lambda b, st: absolute_2d(b, st), "2d", pair=True),
    "alg7": Algorithm(lambda b, st: absolute_2d(b, st), "2d", pair=False),
}
