"""Acceptance tests: end-to-end numerical guarantees of the toolkit.

Each test checks one shipping criterion and prints a single summary
line with the measured margin (visible with pytest -s or -rA).
"""

import numpy as np
import pytest

from sensorreg.calibration import (
    StoppingCriteria,
    absolute_2d,
    absolute_3d,
    pairwise_cost,
)
from sensorreg.errors import RegistrationError
from sensorreg.experiments import (
    ExperimentConfig,
    emit_reports,
    run_experiment,
    sweep,
)
from sensorreg.geometry import (
    EulerAngles,
    cart_to_spherical,
    euler_to_rotation,
    geodesic_angle,
)
from sensorreg.scenario import (
    SensorTruth,
    build_batch,
    generate_trajectory,
)
from sensorreg.triangulation import BearingSet, bearing_residuals, triangulate
from sensorreg.wahba import solve_wahba, wahba_cost

DEG = np.pi / 180.0

# a deliberately well-spread fixed constellation: every prefix of 3+
# sensors keeps a horizontal spread ratio above 0.75, so network
# geometry quality is held constant while the sensor count grows
RING = [[14500.0, 1700.0, -300.0], [2500.0, 8600.0, -600.0],
        [2500.0, -5100.0, -150.0], [-1500.0, 1700.0, -450.0],
        [10500.0, 8600.0, -750.0], [10500.0, -5100.0, -900.0],
        [6500.0, 9700.0, -500.0], [6500.0, -6300.0, -250.0]]

BIASES_10DEG = [[10.0, -10.0, 10.0], [-10.0, 10.0, 10.0], [10.0, 10.0, -10.0]]


def _line(ok: bool, criterion: int, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def trajectory():
    return generate_trajectory()


@pytest.fixture(scope="module")
def network_reports():
    """50-run studies for both sensor kinds and S = 3..8 on RING."""
    reports = {}
    for kind, alg in (("3d", "alg4"), ("2d", "alg7")):
        for count in range(3, 9):
            cfg = ExperimentConfig(algorithm=alg, sensor_kind=kind,
                                   sensor_count=count, seed=0, mc_runs=50,
                                   sensor_locations_m=RING[:count])
            reports[(kind, count)] = run_experiment(cfg)
    return reports


def test_criterion_1_pair_cost_never_increases(trajectory):
    """The start's per-sensor updates are exact minimizers and a
    Gauss-Newton step is kept only if it lowers the cost, so the pairwise
    cost must never rise from identity through the start and the steps,
    on every noisy instance."""
    rng = np.random.default_rng(42)
    worst = -np.inf
    steps = 0
    for _ in range(200):
        while True:
            locs = rng.uniform(-1, 1, size=(2, 3)) \
                * [10000.0, 10000.0, 500.0] - [0.0, 0.0, 500.0]
            if np.linalg.norm(locs[0] - locs[1]) > 100.0:
                break
        sigma = rng.uniform(0.5e-3, 5e-3)
        sensors = [SensorTruth(location=tuple(locs[s]),
                               bias=EulerAngles(*(rng.uniform(-20, 20, 3) * DEG)),
                               sigma_range=10.0, sigma_az=sigma, sigma_el=sigma)
                   for s in range(2)]
        batch, _ = build_batch(trajectory, sensors, seed=int(rng.integers(2**31)))
        # the trace begins at the start, so the cost at identity goes in
        # front of it: the sweeps must lower the cost too
        identity = np.stack([np.eye(3)] * 2)
        trace = np.asarray([pairwise_cost(identity, batch.local_positions(), batch.locations)]
                           + absolute_3d(batch).cost_trace)
        diffs = np.diff(trace)
        steps += diffs.size
        worst = max(worst, float(diffs.max()))
    ok = worst <= 0.0
    _line(ok, 1, f"max cost step {worst:.3e} over {steps} trace steps "
                 f"in 200 noisy pair instances (bound 0)")
    assert ok


def test_criterion_2_noiseless_exact_recovery(trajectory):
    """With exact measurements the network solvers recover the true
    rotations to numerical precision."""
    biases3d = [EulerAngles(*(np.asarray(b) * DEG)) for b in BIASES_10DEG]
    sensors = [SensorTruth(location=tuple(RING[s]), bias=biases3d[s])
               for s in range(3)]
    batch, truth = build_batch(trajectory, sensors, seed=0)
    res = absolute_3d(batch, StoppingCriteria(rel_cost_tol=0.0,
                                              max_iterations=60))
    err3d = max(geodesic_angle(res.estimates[s], truth.rotations[s])
                for s in range(3))

    biases2d = [EulerAngles(*(np.asarray(b) * DEG))
                for b in [[4.0, -3.0, 2.0], [-2.0, 4.0, -3.0], [3.0, 2.0, 4.0]]]
    sensors = [SensorTruth(location=tuple(RING[s]), kind="2d", bias=biases2d[s])
               for s in range(3)]
    batch, truth = build_batch(trajectory, sensors, seed=0)
    res = absolute_2d(batch, StoppingCriteria(rel_cost_tol=0.0,
                                              max_iterations=500))
    err2d = max(geodesic_angle(res.estimates[s], truth.rotations[s])
                for s in range(3))

    ok = err3d <= 1e-8 and err2d <= 1e-6
    _line(ok, 2, f"noiseless recovery {err3d:.2e} rad with ranges "
                 f"(bound 1e-8), {err2d:.2e} rad bearing-only (bound 1e-6)")
    assert ok


def test_criterion_3_single_run_accuracy():
    """One simulated 3-sensor run at nominal noise recovers every Euler
    angle to within 0.1 degrees."""
    cfg = ExperimentConfig(algorithm="alg4", sensor_count=3, seed=0,
                           mc_runs=1, fixed_biases_deg=BIASES_10DEG)
    report = run_experiment(cfg)
    worst_deg = float(np.abs(report.runs[0].angle_errors_mrad).max()
                      / 1000.0 / DEG)
    ok = worst_deg <= 0.1
    _line(ok, 3, f"largest single-run angle error {worst_deg:.4f} deg "
                 f"(bound 0.1)")
    assert ok


def test_criterion_4_network_rms_bounds(network_reports):
    """Across 3 to 8 sensors at nominal noise, 50-run per-angle RMS
    errors stay within 2.5 mRad (with ranges) and 3.5 mRad (bearings)."""
    worst3d = max(float(network_reports[("3d", c)].rms_mrad.max())
                  for c in range(3, 9))
    worst2d = max(float(network_reports[("2d", c)].rms_mrad.max())
                  for c in range(3, 9))
    ok = worst3d <= 2.5 and worst2d <= 3.5
    _line(ok, 4, f"per-angle RMS max {worst3d:.3f} mRad with ranges "
                 f"(bound 2.5), {worst2d:.3f} mRad bearing-only (bound 3.5), "
                 f"S=3..8, 50 runs each")
    assert ok


def test_criterion_5_iteration_budget(network_reports):
    """At the default stopping rule, 4-sensor runs converge within 15
    iterations (with ranges) and 40 (bearings) at least 90% of the time."""
    frac = {}
    for kind, bound in (("3d", 15), ("2d", 40)):
        runs = network_reports[(kind, 4)].runs
        good = sum(1 for rec in runs
                   if rec.ok and rec.converged and rec.iterations <= bound)
        frac[kind] = good / len(runs)
    ok = frac["3d"] >= 0.9 and frac["2d"] >= 0.9
    _line(ok, 5, f"converged within budget: {frac['3d']:.0%} with ranges "
                 f"(<=15 iters), {frac['2d']:.0%} bearing-only (<=40 iters), "
                 f"bound 90%")
    assert ok


def test_criterion_6_error_scaling():
    """Errors grow monotonically with bearing noise (roughly linearly),
    and ten-epoch bearing-only runs stay within per-angle bounds."""
    cfg = ExperimentConfig(algorithm="alg4", sensor_count=4, seed=0,
                           mc_runs=50, sensor_locations_m=RING[:4])
    results = sweep(cfg, "noise_std", [1.0, 2.0, 3.0, 4.0, 5.0])
    pooled = np.array([float(np.sqrt(np.mean(rep.rms_mrad ** 2)))
                       for _, rep in results])
    ratio = pooled[-1] / pooled[0]
    monotone = bool(np.all(np.diff(pooled) > 0.0))

    thin_cfg = ExperimentConfig(algorithm="alg7", sensor_kind="2d",
                                sensor_count=4, seed=0, mc_runs=50,
                                sample_count=10, sensor_locations_m=RING[:4])
    thin = run_experiment(thin_cfg).rms_mrad
    thin_ok = thin[0] <= 4.0 and thin[1] <= 4.0 and thin[2] <= 8.0

    ok = monotone and 2.5 <= ratio <= 10.0 and thin_ok
    _line(ok, 6, f"noise sweep RMS {pooled[0]:.3f}->{pooled[-1]:.3f} mRad "
                 f"monotone={monotone}, ratio {ratio:.2f} in [2.5, 10]; "
                 f"10-epoch bearing-only RMS ({thin[0]:.2f}, {thin[1]:.2f}, "
                 f"{thin[2]:.2f}) bounds (4, 4, 8)")
    assert ok


def _rz_stack(angles):
    c, s = np.cos(angles), np.sin(angles)
    out = np.zeros(angles.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


def _ry_stack(angles):
    c, s = np.cos(angles), np.sin(angles)
    out = np.zeros(angles.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 2] = s
    out[..., 2, 0] = -s
    out[..., 2, 2] = c
    out[..., 1, 1] = 1.0
    return out


def _grid_best_cost(xs, ys, step=np.deg2rad(0.5)):
    """Best achievable cost over a dense Euler-angle grid.

    Yaw and pitch are enumerated on the grid; for each pair the cost is
    linear in (cos roll, sin roll), so the best grid roll is found in
    closed form instead of brute force.
    """
    b = ys.T @ xs
    const = float(np.sum(xs * xs) + np.sum(ys * ys))
    psis = -np.pi + np.arange(720) * step
    thetas = -np.pi / 2 + np.arange(361) * step
    m = np.einsum("pji,jk->pik", _rz_stack(psis), b)
    n = np.einsum("tji,pjk->ptik", _ry_stack(thetas), m)
    a0 = n[..., 0, 0]
    a1 = n[..., 1, 1] + n[..., 2, 2]
    a2 = n[..., 2, 1] - n[..., 1, 2]
    alpha = np.arctan2(a2, a1)
    nearest = -np.pi + np.round((alpha + np.pi) / step) * step
    best_trace = float((a0 + np.hypot(a1, a2) * np.cos(alpha - nearest)).max())
    return const - 2.0 * best_trace


def test_criterion_7_rotation_fit_beats_euler_grid():
    """The closed-form rotation fit is at least as good as exhaustive
    0.5-degree Euler-angle search, and exact on clean correspondences."""
    rng = np.random.default_rng(7)
    worst_margin = np.inf
    for _ in range(20):
        xs = rng.normal(size=(3, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        true = euler_to_rotation(
            EulerAngles(*(rng.uniform(-np.pi, np.pi, 3) * [1.0, 0.45, 1.0])))
        ys = xs @ true.T + 0.05 * rng.normal(size=(3, 3))
        solver_cost = wahba_cost(solve_wahba(xs, ys), xs, ys)
        worst_margin = min(worst_margin, _grid_best_cost(xs, ys) - solver_cost)

    rng = np.random.default_rng(8)
    worst_exact = 0.0
    for _ in range(20):
        xs = rng.normal(size=(3, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        true = euler_to_rotation(
            EulerAngles(*(rng.uniform(-np.pi, np.pi, 3) * [1.0, 0.45, 1.0])))
        worst_exact = max(worst_exact,
                          geodesic_angle(solve_wahba(xs, xs @ true.T), true))

    ok = worst_margin >= -1e-9 and worst_exact <= 1e-10
    _line(ok, 7, f"solver cost below best grid point by >= {worst_margin:.2e} "
                 f"on 20 noisy instances; exact recovery {worst_exact:.2e} rad "
                 f"(bound 1e-10)")
    assert ok


def test_criterion_8_triangulation_accuracy():
    """Noiseless bearings from random geometries triangulate to the true
    point, and the analytic Jacobian matches central differences."""
    rng = np.random.default_rng(123)
    worst_pos = 0.0
    solved = 0
    while solved < 100:
        n_sensors = int(rng.integers(2, 6))
        locs = rng.uniform(-1, 1, size=(n_sensors, 3)) \
            * [10000.0, 10000.0, 500.0] - [0.0, 0.0, 500.0]
        target = rng.uniform([-15000.0, -15000.0, -11000.0],
                             [15000.0, 15000.0, -1000.0])
        dirs = target - locs
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dots = np.clip(dirs @ dirs.T, -1.0, 1.0)
        if np.arccos(dots[np.triu_indices(n_sensors, 1)]).max() < 0.05:
            continue  # all rays nearly parallel, not a usable draw
        sph = cart_to_spherical(target[np.newaxis] - locs)
        fix = triangulate(BearingSet(locations=locs, az=sph.az, el=sph.el))
        worst_pos = max(worst_pos, float(np.linalg.norm(fix.point - target)))
        solved += 1

    worst_jac = 0.0
    h = 1e-3
    for _ in range(20):
        locs = rng.uniform(-1, 1, size=(3, 3)) * [10000.0, 10000.0, 500.0]
        point = rng.uniform([-15000.0, -15000.0, -11000.0],
                            [15000.0, 15000.0, -1000.0])[np.newaxis]
        az = rng.uniform(-np.pi, np.pi, size=(3, 1))
        el = rng.uniform(-1.2, 1.2, size=(3, 1))
        _, jac = bearing_residuals(point, locs, az, el)
        fd = np.empty_like(jac)
        for k in range(3):
            shift = np.zeros(3)
            shift[k] = h
            hi, _ = bearing_residuals(point + shift, locs, az, el)
            lo, _ = bearing_residuals(point - shift, locs, az, el)
            fd[..., k] = (hi - lo) / (2.0 * h)
        scale = np.maximum(np.abs(fd), 1e-6)
        worst_jac = max(worst_jac, float(np.max(np.abs(jac - fd) / scale)))

    ok = worst_pos <= 1e-6 and worst_jac <= 1e-6
    _line(ok, 8, f"worst position error {worst_pos:.2e} m over 100 exact "
                 f"geometries (bound 1e-6); worst Jacobian mismatch "
                 f"{worst_jac:.2e} relative (bound 1e-6)")
    assert ok


def test_criterion_9_reruns_are_byte_identical(tmp_path):
    """The same config and seed reproduce every report file exactly."""
    outputs = []
    for name in ("first", "second"):
        cfg = ExperimentConfig(algorithm="alg4", sensor_count=3, seed=0,
                               mc_runs=5, sensor_locations_m=RING[:3])
        paths = emit_reports(run_experiment(cfg), tmp_path / name)
        outputs.append({key: path.read_bytes()
                        for key, path in paths.items()})
    same = {key: outputs[0][key] == outputs[1][key] for key in outputs[0]}
    ok = all(same.values())
    _line(ok, 9, "runs.csv, cost_trace.csv and summary.json byte-identical "
                 "across same-seed re-runs" if ok else f"mismatch in {same}")
    assert ok
