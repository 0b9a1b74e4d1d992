"""Rotation-bias estimation for networks of 2D/3D sensors.

Every sensor observes the same targets in its own, slightly rotated,
local frame.  These routines estimate one correcting rotation per sensor
so that corrected local tracks, shifted to sensor locations, agree in a
common frame.  One solver per measurement model returns a
``CalibrationResult``: ``relative_3d`` and ``relative_hetero`` fit sensor
0 of a pair to reference sensor 1 in one shot; ``absolute_3d``
(Gauss-Newton steps on all rotations) and ``absolute_2d`` (Gauss-Newton
over rotations and target positions, i.e. bundle adjustment) take two
or more sensors, start from sweeps that align one sensor at a time to
all of its partners (for ``absolute_2d``, to the tracks of closed-form
ray intersections, unless its closed-form epipolar start is taken),
damp their steps in one Levenberg-Marquardt loop and flag a pair's
baseline gauge themselves.
"""

import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, MissingRangeError, ZeroVectorError
from .geometry import collinearity_ratio, direction_from_angles, rotation_from_rotvec
from .triangulation import (LAMBDA_INIT, LAMBDA_MAX, LAMBDA_MIN, MIN_SENSOR_SEPARATION,
                            STATUS_OK, bearing_residuals, intersect_rays,
                            solve_positive_definite, triangulate_batch)
from .wahba import solve_wahba, wahba_cost

COLLINEAR_WARN_RATIO = 0.01
# per-sensor alignment sweeps that bring both absolute solvers into the
# basin of the right minimum before their Gauss-Newton steps start
WARM_START_SWEEPS = 2
# the epipolar start of absolute_2d fits each sensor pair by the
# eight-point method, so it needs eight epochs; it picks among each pair's
# four factorizations, and scores its rays' misfit, on at most
# EPIPOLAR_SAMPLE evenly spaced epochs
EPIPOLAR_MIN_EPOCHS = 8
EPIPOLAR_SAMPLE = 32
# the start is kept exactly where its rays miss their intersections by a
# mean 1 - cos^2 below this (sin^2 of about 71 mrad)
EPIPOLAR_MAX_MISFIT = 5e-3


@dataclass(frozen=True)
class SensorMeasurements:
    """Measurements of n targets by one sensor (angles in radians).

    ``rng`` is None for a bearing-only sensor, otherwise meters; the
    rays and positions they give come from ``MeasurementBatch``.
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
    shape (S, 3).  ``directions()``, ``local_positions()`` and ``kinds``
    are the one place where measurements become geometry.
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
        for s, m in enumerate(self.sensors):
            if m.n != n:
                raise ValueError(f"sensor {s} has {m.n} targets but sensor 0 has {n}: "
                                 "every sensor must report the same number of targets")

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    @property
    def n_epochs(self) -> int:
        return self.sensors[0].n

    @property
    def kinds(self) -> list:
        """Each sensor's kind: "3d" with ranges, else "2d" (bearing-only)."""
        return ["3d" if m.is_3d else "2d" for m in self.sensors]

    def directions(self, sensors=None) -> np.ndarray:
        """The unit lines of sight of the listed ``sensors`` (indices; every
        sensor by default), each in its own frame: (len(sensors), n, 3)."""
        chosen = self._chosen(sensors)
        return direction_from_angles(np.stack([m.az for m in chosen]),
                                     np.stack([m.el for m in chosen]))

    def local_positions(self, sensors=None) -> np.ndarray:
        """The Cartesian positions of the listed ``sensors`` (every sensor
        by default), each in its own frame: their ranges along
        ``directions()``; raises ``MissingRangeError`` if any of them is
        bearing-only."""
        chosen = self._chosen(sensors)
        if not all(m.is_3d for m in chosen):
            raise MissingRangeError("bearing-only sensor has no Cartesian positions")
        return np.stack([m.rng for m in chosen])[..., np.newaxis] * self.directions(sensors)

    def _chosen(self, sensors):
        return self.sensors if sensors is None else [self.sensors[s] for s in sensors]


@dataclass(frozen=True)
class StoppingCriteria:
    """Both absolute solvers' damped loop converges once an accepted
    Gauss-Newton step lowers the cost by less than ``rel_cost_tol`` of
    its value, or once no damped step lowers it (the fixed point, the
    only rule at a tolerance of zero); else it stops unconverged after
    ``max_iterations`` iterations, each one Gauss-Newton system built.
    The tolerance must be a finite, non-negative real number and the
    budget an integer of at least 1 (neither a bool)."""

    rel_cost_tol: float = 1e-3
    max_iterations: int = 100

    def __post_init__(self):
        tol, budget = self.rel_cost_tol, self.max_iterations
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValueError(f"rel_cost_tol must be a number, got {tol!r}")
        if not 0.0 <= tol <= sys.float_info.max:
            raise ValueError(f"rel_cost_tol must be finite and non-negative, got {tol!r}")
        if isinstance(budget, bool) or not isinstance(budget, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got {budget!r}")
        if budget < 1:
            raise ValueError(f"max_iterations must be at least 1, got {budget!r}")


@dataclass
class CalibrationResult:
    """Estimated correcting rotations and fit diagnostics.

    estimates[s] maps sensor s's local coordinates into the common
    frame (apply then add the sensor location).  For ``absolute_3d``
    and ``absolute_2d``, ``cost_trace`` holds the cost at the start and
    then after each accepted Gauss-Newton step, so it never increases,
    and ``iterations`` counts the Gauss-Newton systems built; the
    one-shot relative fits report one iteration and one cost.  The cost's unit depends on the
    algorithm family:

    ==================  ==================================================
    alg1                m^2, total pairwise track disagreement
    alg3, alg4          m^2, the same cost, starting after the sweeps
    alg2                squared unit-vector distance
    alg6, alg7          rad^2, sum of squared az/el residuals; the first
                        entry is the cost at the warm start's rotations
                        (epipolar or swept) and the target positions of
                        its one Gauss-Newton triangulation
    ==================  ==================================================

    ``gauge_ambiguous`` flags two-sensor absolute solutions, where any
    common rotation about the baseline fits equally well; the solvers
    keep it where their start put it (for a bearing-only pair's epipolar
    start, the smallest rotation that lays sensor 0's baseline on the
    common one), so only A_1^T A_0 is determined.
    ``dropped_indices`` counts the epochs left out of ``absolute_2d``'s
    joint solve because that triangulation, of the rays turned by the
    warm start's rotations, failed for them: their rays are
    near-parallel or not finite, or the fix used up its 50 iterations.
    The epochs left must still determine the solve, or ``absolute_2d``
    raises instead.
    """

    estimates: list
    cost_trace: list
    iterations: int
    converged: bool
    gauge_ambiguous: bool = False
    dropped_indices: int = 0


def pairwise_cost(rotations, positions, locations) -> float:
    """Total squared disagreement between corrected sensor tracks.

    sum over sensor pairs (s < t) and targets i of ||c_s^i - c_t^i||^2,
    with c_s^i = R_s p_s^i + l_s for the (S, n, 3) local ``positions``
    p_s^i (a batch's ``local_positions()``) and the (S, 3) ``locations``.
    It is summed as S sum_s,i ||c_s^i - c^i||^2 about the mean c^i of
    target i's S tracks, the form of generalized Procrustes analysis
    (Gower 1975), so no pair is ever gathered.
    """
    common = positions @ np.transpose(rotations, (0, 2, 1))
    common += locations[:, np.newaxis]
    common -= common.mean(axis=0)
    return len(common) * float(np.vdot(common, common))  # vdot flattens: no squared copy


def _pair_moments(positions, locations):
    """Wahba inputs of every ordered sensor pair, two (S, S, 4, 3) arrays.
    Aligning sensor a to b has the profile matrix sum_i (R_b p_b^i + l_b - l_a)
    p_a^iT = R_b P_b^T P_a + (l_b - l_a) c_a^T, with c_a = sum_i p_a^i: that of
    the four pairs xs[a, b] = [P_b^T P_a; c_a^T], ys[a, b] = [R_b^T; (l_b - l_a)^T].
    ``_procrustes_sweep`` writes R_b^T into ys[a, b, :3] before each solve."""
    padded = np.concatenate([positions, np.ones(positions.shape[:2] + (1,))], axis=2)
    xs = padded.transpose(0, 2, 1)[np.newaxis] @ positions[:, np.newaxis]
    ys = np.empty_like(xs)
    ys[:, :, 3] = locations[np.newaxis] - locations[:, np.newaxis]
    return xs, ys


def _procrustes_sweep(rotations, xs, ys):
    # Gauss-Seidel over sensors, as in generalized Procrustes analysis
    # (Gower 1975): each update aligns one sensor to all of its partners
    # at once, the exact minimizer of the whole pair cost with the others
    # held fixed (Ten Berge 1977); for a pair it is the paper's pair update.
    for t in range(len(rotations)):
        others = np.arange(len(rotations)) != t
        ys[t, :, :3] = rotations.transpose(0, 2, 1)
        rotations[t] = solve_wahba(xs[t, others].reshape(-1, 3), ys[t, others].reshape(-1, 3))


def _levenberg_marquardt(state, linearize, objective, trace, tol, max_iterations):
    """The damped loop of both absolute solvers (Levenberg-Marquardt as in
    Madsen, Nielsen and Tingleff 2004, section 3.2).  ``trace`` holds the
    ``objective`` at the start ``state``.  ``linearize(state)`` builds one
    Gauss-Newton system (an iteration) and returns the map from the
    damping lambda to a trial state, kept only if it lowers the
    objective, whose value then goes on ``trace``.  It starts
    unconverged, never on a start's verdict: it converges on an accepted
    step that lowers the objective by less than ``tol`` of its value, or
    once no lambda up to its maximum lowers it (a fixed point).  Stops
    there or after ``max_iterations``.  Returns the state, iterations and
    converged."""
    value = trace[-1]
    lam = LAMBDA_INIT
    iterations, converged = 0, False
    while not converged and iterations < max_iterations:
        iterations += 1
        trial_at = linearize(state)
        while lam <= LAMBDA_MAX:
            trial = trial_at(lam)
            trial_value = objective(trial)
            if trial_value < value:
                converged = value - trial_value < tol * value
                state, value = trial, trial_value
                trace.append(value)
                lam = max(lam / 10.0, LAMBDA_MIN)
                break
            lam *= 10.0
        else:
            converged = True  # no damped step lowers the objective: a fixed point
    return state, iterations, converged


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
    rotations = np.stack([solve_wahba(positions[0], shifted), np.eye(3)])
    return CalibrationResult(estimates=list(rotations),
                             cost_trace=[pairwise_cost(rotations, positions, batch.locations)],
                             iterations=1, converged=True)


def relative_hetero(batch: MeasurementBatch) -> CalibrationResult:
    """Rotation of bearing-only sensor 0 relative to 3D sensor 1 (alg2).

    Matches sensor 0's unit line-of-sight directions (the batch's
    ``directions()``) against directions to sensor 1's positions (its
    ``local_positions()``) seen from sensor 0's location; ``estimates`` is
    [R, I] and the one cost their squared distance after rotation.

    Raises
    ------
    ZeroVectorError
        If a target coincides with sensor 0's location.
    """
    if batch.n_sensors != 2:
        raise ValueError(f"exactly 2 sensors required, got {batch.n_sensors}")
    if batch.kinds[1] != "3d":
        raise MissingRangeError("reference sensor must supply ranges")
    rays = batch.directions([0])[0]
    shifted = batch.local_positions([1])[0] + (batch.locations[1] - batch.locations[0])
    norms = np.linalg.norm(shifted, axis=1)
    if np.any(norms < 1e-12):
        raise ZeroVectorError("a target coincides with sensor 0's location")
    unit = shifted / norms[:, np.newaxis]
    rotation = solve_wahba(rays, unit)
    return CalibrationResult(estimates=[rotation, np.eye(3)],
                             cost_trace=[wahba_cost(rotation, rays, unit)],
                             iterations=1, converged=True)


def absolute_3d(batch: MeasurementBatch,
                stopping: StoppingCriteria = StoppingCriteria()) -> CalibrationResult:
    """Estimate all rotations of two or more 3D sensors (alg3, alg4).

    Starts from identity with ``WARM_START_SWEEPS`` sweeps that align
    each sensor in turn to all of its partners (``_procrustes_sweep``),
    as ``absolute_2d``'s warm start does; for a pair each is the paper's
    pair update.  The sweeps approach the least-squares point slowly.
    Gauss-Newton steps on all rotations at once, from the same pair
    moments (``_pair_normal_equations``), take it there, damped in the
    loop that ``absolute_2d`` uses too (``_levenberg_marquardt``): a
    step is kept only if it lowers ``pairwise_cost``, so the cost trace
    never increases, for any number of sensors, and the solve stops at
    its fixed point once no damped step lowers the cost.
    Two sensors are only determined up to a common rotation about their
    baseline (``gauge_ambiguous``): the steps never move along it, and
    corrected tracks agree, but individual rotations need not match any
    externally known truth; a pair at one location raises
    ``DegenerateInputError``.  Three or more non-collinear sensors break
    that ambiguity.
    """
    gauge_ambiguous = _gauge_ambiguous(batch)
    positions = batch.local_positions()
    locations = batch.locations
    xs, ys = _pair_moments(positions, locations)
    rotations = np.stack([np.eye(3)] * batch.n_sensors)
    for _ in range(WARM_START_SWEEPS):
        _procrustes_sweep(rotations, xs, ys)
    trace = [pairwise_cost(rotations, positions, locations)]

    def linearize(rotations):
        gauge = _gauge_direction(rotations, locations) if gauge_ambiguous else None
        hessian, rhs = _pair_normal_equations(rotations, xs, ys)
        return lambda lam: rotations @ rotation_from_rotvec(_confined_solve(
            hessian + lam * np.diag(np.diag(hessian)), rhs, gauge).reshape(-1, 3))

    rotations, iterations, converged = _levenberg_marquardt(
        rotations, linearize, lambda rot: pairwise_cost(rot, positions, locations),
        trace, stopping.rel_cost_tol, stopping.max_iterations)
    return CalibrationResult(estimates=list(rotations), cost_trace=trace,
                             iterations=iterations, converged=converged,
                             gauge_ambiguous=gauge_ambiguous)


def _pair_normal_equations(rotations, xs, ys):
    """Gauss-Newton normal equations of ``pairwise_cost`` in the rotation
    steps d_s of R_s exp([d_s]x), from ``_pair_moments`` alone: J^T J
    (3S, 3S) and the descent right-hand side -J^T r (3S,).  The residual
    R_s p_s^i + l_s - R_t p_t^i - l_t has the Jacobians -R_s [p_s^i]x and
    R_t [p_t^i]x, so with Q = R_s^T R_t and M = xs[s, t, :3] =
    sum_i p_t^i p_s^iT block (s, t) is sum_i [p_s^i]x Q [p_t^i]x =
    Q M Q - tr(Q M) Q, and block (s, s) is -(S - 1) times the same at
    Q = I.  Sensor s's part of J^T r is vee(B_s^T R_s - R_s^T B_s), where
    B_s = sum_t ys[s, t]^T xs[s, t] is its Wahba profile matrix against
    every partner at the current rotations.  Writes R_t^T into
    ys[:, t, :3]."""
    n_sensors = len(rotations)
    ys[:, :, :3] = rotations.transpose(0, 2, 1)
    turned = (xs.transpose(0, 1, 3, 2) @ ys).sum(axis=1) @ rotations
    rhs = np.stack([turned[:, 1, 2] - turned[:, 2, 1], turned[:, 2, 0] - turned[:, 0, 2],
                    turned[:, 0, 1] - turned[:, 1, 0]], axis=-1).ravel()
    relative = rotations.transpose(0, 2, 1)[:, np.newaxis] @ rotations
    moved = relative @ xs[:, :, :3]
    blocks = moved @ relative \
        - np.trace(moved, axis1=2, axis2=3)[..., np.newaxis, np.newaxis] * relative
    blocks.reshape(-1, 3, 3)[::n_sensors + 1] *= 1 - n_sensors  # the (s, s) blocks
    return blocks.transpose(0, 2, 1, 3).reshape(3 * n_sensors, -1), rhs


def _confined_solve(matrix, rhs, gauge):
    """Solve ``matrix`` x = ``rhs``, held to g^T x = 0 for a ``gauge``
    direction g by the bordered system [[matrix, g], [g^T, 0]] [x; mu] =
    [rhs; 0] (Nocedal and Wright 2006, section 16.1)."""
    if gauge is None:
        return np.linalg.solve(matrix, rhs)
    n = rhs.size
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = matrix
    bordered[n, :n] = bordered[:n, n] = gauge
    return np.linalg.solve(bordered, np.append(rhs, 0.0))[:n]


def absolute_2d(batch: MeasurementBatch,
                stopping: StoppingCriteria = StoppingCriteria()) -> CalibrationResult:
    """Estimate all rotations of two or more bearing-only sensors (alg6, alg7).

    Minimizes the wrapped az/el residuals of every sensor's bearings
    against A_s^T (x_i - l_s) over all rotations A_s and target
    positions x_i at once, by one run of the Levenberg-Marquardt loop of
    ``absolute_3d``, with a Schur complement over the 3x3 point blocks
    (bundle adjustment), so the cost trace never increases.  From
    identity rotations that solver can settle in a local minimum, so it
    starts from ``_warm_start``: with at least ``EPIPOLAR_MIN_EPOCHS``
    epochs, the closed-form epipolar start (``_epipolar_start``), which
    no bias size or world rotation moves; where the rays cannot fix that
    start (short tracks), two intersect-and-align sweeps from identity:
    intersect every epoch's bias-compensated rays in closed form
    (``intersect_rays``), then align each sensor in turn to all of its
    partners' tracks at once (``_procrustes_sweep``).  One Gauss-Newton
    triangulation (``triangulate_batch``) of the compensated rays gives
    the starting target positions; epochs whose fix fails there are left
    out.  It never steps along a pair's common rotation about the
    baseline, which stays where the warm start left it.  It raises
    ``DegenerateInputError`` for a pair at one location, or if too few
    epochs are usable to determine the solve: six for a pair, four for
    three sensors, else three.
    """
    gauge_ambiguous = _gauge_ambiguous(batch)
    locations = batch.locations
    rotations, points, ok = _warm_start(batch)
    az = np.stack([m.az[ok] for m in batch.sensors])
    el = np.stack([m.el[ok] for m in batch.sensors])

    def linearize(state):
        rotations, points, res, jac, jac_rot = state
        normal = _normal_equations(res, jac, jac_rot)
        gauge = _gauge_direction(rotations, locations) if gauge_ambiguous else None

        def trial(lam):
            d_rot, d_pts = _damped_step(*normal, lam, gauge)
            rot, pts = rotations @ rotation_from_rotvec(d_rot), points + d_pts
            return (rot, pts) + bearing_residuals(pts, locations, az, el, rot)
        return trial

    def cost(state):
        return float(np.sum(state[2] * state[2]))

    state = (rotations, points) + bearing_residuals(points, locations, az, el, rotations)
    trace = [cost(state)]
    state, iterations, converged = _levenberg_marquardt(
        state, linearize, cost, trace, stopping.rel_cost_tol, stopping.max_iterations)
    return CalibrationResult(estimates=list(state[0]), cost_trace=trace,
                             iterations=iterations, converged=converged,
                             gauge_ambiguous=gauge_ambiguous,
                             dropped_indices=int(ok.size - ok.sum()))


def _warm_start(batch):
    """The start of ``absolute_2d``: rotations, then one triangulation.

    The rotations come from the closed-form epipolar start
    (``_epipolar_start``), for a pair too, where the rays fix it.
    Otherwise ``WARM_START_SWEEPS`` intersect-and-align sweeps start
    from identity: each intersects every epoch's bias-compensated rays in
    closed form (``intersect_rays``) and aligns the tracks, the
    sensor-frame positions those ranges give along the raw rays (the
    batch's ``directions()``), one sensor at a time
    (``_procrustes_sweep``).  The final Gauss-Newton fix
    (``triangulate_batch``) of the compensated rays is where the joint
    solve starts.  Returns the (S, 3, 3) rotations, the fixed points of
    the epochs that triangulated and the mask of those epochs.
    """
    locations = batch.locations
    raw_dirs = batch.directions()
    rotations = _epipolar_start(raw_dirs, locations)
    if rotations is None:
        rotations = np.stack([np.eye(3)] * batch.n_sensors)
        for _ in range(WARM_START_SWEEPS):
            points, ok = intersect_rays(locations, raw_dirs @ rotations.transpose(0, 2, 1))
            _check_usable(ok, batch.n_sensors)
            ranges = np.linalg.norm(points[ok] - locations[:, np.newaxis, :], axis=-1)
            positions = ranges[..., np.newaxis] * raw_dirs[:, ok]
            _procrustes_sweep(rotations, *_pair_moments(positions, locations))
    fix = triangulate_batch(locations, raw_dirs @ rotations.transpose(0, 2, 1))
    ok = fix.status == STATUS_OK
    _check_usable(ok, batch.n_sensors)
    return rotations, fix.points[ok], ok


def _epipolar_start(raw_dirs, locations):
    """Every sensor's rotation in closed form, from the epipolar geometry
    of its rays (S, n, 3) with its known baselines, whatever the biases
    and the world frame; None for fewer than ``EPIPOLAR_MIN_EPOCHS``
    epochs, three or more collinear sensors, or where the sample's rays
    turned by it do not meet within ``EPIPOLAR_MAX_MISFIT``
    (``_ray_misfits``), as on short tracks, whose eight-point fits are
    degenerate.

    Sensors s and t see target i in one plane with their baseline, so
    d_s^T E d_t = 0 for their raw rays, with E = [c]x R, the unit
    baseline c = A_s^T (l_t - l_s) / |l_t - l_s| in s's frame and
    R = A_s^T A_t (Longuet-Higgins 1981).  Each pair's E is the smallest
    eigenvector of the 9x9 Gram matrix of its rows vec(d_s d_t^T), the
    eight-point method (Hartley 1997).  Of the four (R, +-c) it factors
    into, the one that puts both ray depths ahead on most sample epochs
    is taken (cheirality; Hartley and Zisserman 2004, section 9.6); it
    gives t's baseline -R^T c too.  One ``solve_wahba`` per sensor then
    maps its S - 1 local baselines onto the common-frame ones.  A pair
    has one baseline: A_0 is the smallest rotation that maps sensor 0's
    local baseline onto the common one b / |b|, and A_1 = A_0 R, which
    leaves the pair's gauge about b where that rotation puts it.
    """
    n_sensors, n_epochs = raw_dirs.shape[:2]
    if n_epochs < EPIPOLAR_MIN_EPOCHS:
        return None
    sample = raw_dirs[:, np.linspace(0, n_epochs - 1,
                                     min(n_epochs, EPIPOLAR_SAMPLE)).astype(int)]
    # the pairs s < t in np.triu_indices' order, without its call overhead
    first, second = np.nonzero(np.arange(n_sensors)[:, np.newaxis] < np.arange(n_sensors))
    # the Gram entry of rows (a, b) and (c, d) is sum_i P_s[a, c] P_t[b, d]
    # for the moments P = d d^T of each epoch's rays, so every pair's Gram
    # comes from the 6x6 products of two sensors' distinct moment entries
    # (S^2 small products: one (6S x n)(n x 6S) product runs on OpenBLAS
    # worker threads, which spin on after it)
    moments = (raw_dirs[..., [0, 0, 0, 1, 1, 2]] * raw_dirs[..., [0, 1, 2, 1, 2, 2]]) \
        .transpose(0, 2, 1)
    entry = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])  # the moment entry that holds P[a, c]
    blocks = (moments[:, np.newaxis] @ moments.transpose(0, 2, 1))[first, second]  # (P, 6, 6)
    gram = blocks[:, entry[:, np.newaxis, :, np.newaxis], entry[np.newaxis, :, np.newaxis, :]]
    _, vectors = np.linalg.eigh(gram.reshape(len(first), 9, 9))
    u, _, vt = np.linalg.svd(vectors[:, :, 0].reshape(-1, 3, 3))
    u *= np.linalg.det(u)[:, np.newaxis, np.newaxis]  # E's sign is free
    vt *= np.linalg.det(vt)[:, np.newaxis, np.newaxis]
    turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    relative = np.stack([u @ turn @ vt, u @ turn.T @ vt], axis=1)  # (P, 2, 3, 3)
    baseline = u[:, np.newaxis, :, 2:]                             # (P, 1, 3, 1)
    # the depths r_s, r_t of r_s d_s - r_t R d_t = c have the signs of
    # p + m q and q + m p, with p = d_s.c, q = -(R d_t).c, m = d_s.(R d_t)
    d_s = sample[first][:, np.newaxis]
    d_t = sample[second][:, np.newaxis] @ relative.transpose(0, 1, 3, 2)
    m = np.sum(d_s * d_t, axis=-1)
    p, q = (d_s @ baseline)[..., 0], -(d_t @ baseline)[..., 0]
    depth_s, depth_t = p + m * q, q + m * p
    votes = np.stack([((depth_s > 0) & (depth_t > 0)).sum(axis=-1),
                      ((depth_s < 0) & (depth_t < 0)).sum(axis=-1)], axis=-1)
    best = votes.reshape(len(first), 4).argmax(axis=1)  # 2 x R's index + c's sign
    seen = np.empty((n_sensors, n_sensors, 3))  # seen[s, t]: t's direction in s's frame
    seen[first, second] = u[:, :, 2] * np.where(best % 2, -1.0, 1.0)[:, np.newaxis]
    seen[second, first] = -(seen[first, second, np.newaxis]
                            @ relative[np.arange(len(first)), best // 2])[:, 0]
    others = ~np.eye(n_sensors, dtype=bool)
    seen = seen[others].reshape(n_sensors, -1, 3)
    common = (locations[np.newaxis] - locations[:, np.newaxis])[others].reshape(n_sensors, -1, 3)
    common /= np.maximum(np.linalg.norm(common, axis=-1, keepdims=True), MIN_SENSOR_SEPARATION)
    if n_sensors == 2:
        # sine is 0 only for (anti)parallel baselines: then no turn, which
        # the misfit check refuses where it is wrong
        axis = np.cross(seen[0, 0], common[0, 0])
        sine = np.linalg.norm(axis)
        angle = np.arctan2(sine, seen[0, 0] @ common[0, 0])
        base = rotation_from_rotvec(axis * (angle / max(sine, np.finfo(float).tiny)))
        rotations = np.stack([base, base @ relative[0, best[0] // 2]])
    else:
        try:
            rotations = np.stack([solve_wahba(seen[s], common[s]) for s in range(n_sensors)])
        except DegenerateInputError:  # collinear sensors: no two baselines cross
            return None
    return rotations if _ray_misfits(rotations, sample, locations) < EPIPOLAR_MAX_MISFIT else None


def _ray_misfits(rotations, sample, locations):
    """How badly the ``sample`` rays (S, m, 3) meet when turned by the
    (S, 3, 3) ``rotations``: the mean 1 - cos^2 between each ray and the
    offset from its sensor to its epoch's ``intersect_rays`` point, where
    an epoch that is not ok counts 1."""
    dirs = sample @ rotations.transpose(0, 2, 1)
    points, ok = intersect_rays(locations, dirs)
    offsets = points[ok] - locations[:, np.newaxis]
    cos = np.sum(dirs[:, ok] * offsets, axis=-1) / np.linalg.norm(offsets, axis=-1)
    misfit = np.ones(dirs.shape[:2])
    misfit[:, ok] = 1.0 - cos * cos
    return misfit.mean()


def _check_usable(ok, n_sensors):
    """Refuse too few usable epochs for the joint solve.  n epochs of S
    sensors give 2Sn az/el residuals for 3S rotation and 3n position
    unknowns, less g = 1 for a pair's baseline gauge (else 0).  With no
    residual to spare (2Sn = 3S + 3n - g) a wrong answer can fit
    exactly, and two epochs tie the targets down only through the angle
    each sensor sees between them, so it needs 2Sn > 3S + 3n - g and
    n >= 3: six epochs for a pair, four for three sensors, else three."""
    count = int(ok.sum())
    needed = max(3, (3 * n_sensors - (n_sensors == 2)) // (2 * n_sensors - 3) + 1)
    if count < needed:
        raise DegenerateInputError(f"{n_sensors} bearing-only sensors need at least "
                                   f"{needed} usable epochs, got {count}")


def _normal_equations(res, jac, jac_rot):
    """Gauss-Newton blocks of the joint bearing-only problem.

    Takes the residuals (n, 2S) and their point and rotation Jacobians
    (n, 2S, 3) from ``bearing_residuals``.  The rotation rows are the
    closed-form ones of ``bearing_residuals``, in each sensor's own
    frame: with d = A_s^T (x_i - l_s) and rho^2 = dx^2 + dy^2, azimuth
    (-dx dz / rho^2, -dy dz / rho^2, 1) and elevation
    (dy / rho, -dx / rho, 0).  Returns the point blocks V (n, 3, 3),
    the rotation blocks U (S, 3, 3), the rotation-point blocks
    W (n, S, 3, 3) and the descent right-hand sides for the rotations
    (S, 3) and the points (n, 3).

    The Jacobians' epoch axis is the contiguous one, so every block is
    a contraction along it: V, W and the point right-hand side come
    back as views of (3, 3, n), (S, 3, 3, n) and (3, n) memory, the
    order ``_damped_step`` solves in.
    """
    n, n_rows = res.shape
    n_sensors = n_rows // 2
    res = res.T                                            # (2S, n)
    jac = jac.transpose(2, 1, 0)                           # (3, 2S, n)
    jac_rot = jac_rot.transpose(2, 1, 0)
    v = np.einsum("arn,brn->abn", jac, jac)
    b_pts = -np.einsum("arn,rn->an", jac, res)
    by_sensor = jac_rot.reshape(3, n_sensors, 2 * n).transpose(1, 0, 2)  # (S, 3, 2n)
    u = by_sensor @ by_sensor.transpose(0, 2, 1)
    b_rot = -np.einsum("sam,sm->sa", by_sensor, res.reshape(n_sensors, 2 * n))
    w = np.einsum("asjn,bsjn->sabn", jac_rot.reshape(3, n_sensors, 2, n),
                  jac.reshape(3, n_sensors, 2, n))
    return v.transpose(2, 0, 1), u, w.transpose(3, 0, 1, 2), b_rot, b_pts.T


def _damped_step(v, u, w, b_rot, b_pts, lam, gauge):
    """Solve the Marquardt-damped normal equations via the Schur
    complement over the point blocks; the rotation step is held off the
    ``gauge`` direction when one is given (``_confined_solve``).

    Takes ``_normal_equations``' blocks and works in their memory order:
    V as (3, 3, n), W as (S, 3, 3, n) and the point right-hand side as
    (3, n), each with the epoch axis contiguous.
    """
    n, n_sensors = v.shape[0], u.shape[0]
    eye = np.eye(3)
    v = v.transpose(1, 2, 0)
    damped_v = v + lam * v * eye[..., np.newaxis]
    w_mat = w.transpose(1, 2, 3, 0).reshape(3 * n_sensors, 3 * n)  # rows (s, a), columns (b, i)
    # V_i is symmetric, so solving V_i Z_i = W_i^T gives Z_i^T = W_i V_i^-1;
    # one solve of [W_i^T, b_i] factors each V_i once, and its solution keeps
    # the right-hand side's memory order, so y holds the W_si V_i^-1 in
    # w_mat's layout and one GEMM forms sum_i W_si V_i^-1 W_ti^T
    rhs = np.concatenate([w_mat.reshape(3 * n_sensors, 3, n), b_pts.T[np.newaxis]])
    solved = solve_positive_definite(damped_v, rhs.transpose(1, 0, 2)).transpose(1, 0, 2)
    y = solved[:-1].reshape(3 * n_sensors, 3 * n)
    reduced = -(y @ w_mat.T)
    blocks = reduced.reshape(n_sensors, 3, n_sensors, 3)
    diag = np.arange(n_sensors)
    blocks[diag, :, diag, :] += u + lam * u * eye
    d_rot = _confined_solve(reduced, b_rot.ravel() - y @ b_pts.T.ravel(), gauge)
    # V_i^-1 (b_i - W_i^T d) = V_i^-1 b_i - Z_i d
    d_pts = solved[-1] - (d_rot @ y).reshape(3, n)
    return d_rot.reshape(n_sensors, 3), d_pts.T


def _gauge_direction(rotations, locations):
    """The rotation step that turns a sensor pair about its baseline.

    With b the baseline from sensor 0 to sensor 1,
    R_b(t) A_s = A_s exp(t A_s^T b / |b|), so that common rotation is the
    step direction (A_s^T b) over all sensors, up to its length.
    """
    return (rotations.transpose(0, 2, 1) @ (locations[1] - locations[0])).ravel()


def _gauge_ambiguous(batch) -> bool:
    """Whether the batch is a sensor pair, whose rotations are only
    determined up to a common rotation about its baseline; a pair at one
    location has no baseline and is refused.  Three or more sensors
    whose locations are nearly collinear get a warning, raised at the
    solver's caller."""
    if batch.n_sensors == 2:
        if np.linalg.norm(batch.locations[1] - batch.locations[0]) < MIN_SENSOR_SEPARATION:
            raise DegenerateInputError(f"sensors 0 and 1 share the location "
                                       f"{batch.locations[0].tolist()}: a pair needs a baseline")
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

    @property
    def takes(self) -> str:
        """The sensors it accepts, in words, for messages."""
        return (f"2 sensors of kinds {self.sensor_kinds(2)}" if self.pair
                else f"3 or more {self.sensor_kind} sensors")

    def sensor_kinds(self, count: int) -> list:
        """The kind, "3d" or "2d", of each of ``count`` sensors."""
        return ["2d", "3d"] if self.sensor_kind == "hetero" else [self.sensor_kind] * count

    def accepts(self, batch: MeasurementBatch) -> bool:
        return (self.accepts_count(batch.n_sensors)
                and self.sensor_kinds(batch.n_sensors) == batch.kinds)


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
