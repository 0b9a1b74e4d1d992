#!/usr/bin/env python3
"""Jointly estimate mounting misalignments for a ranging sensor network.

Places three or more range/azimuth/elevation sensors around a simulated
racetrack flight, gives each an unknown mounting bias, and recovers all
biases at once: two sweeps re-align each sensor to all of its partners
with an exact rotation fit, then Gauss-Newton steps on all rotations together take
the track mismatch cost to its least-squares point, keeping a step only
if it lowers the cost. No sensor is assumed correct; with at least three
non-collinear sensors the solution is fully determined.
"""

import argparse
import math

import numpy as np

from sensorreg.calibration import StoppingCriteria, absolute_3d
from sensorreg.geometry import geodesic_angle, rotation_to_euler
from sensorreg.scenario import (SensorTruth, build_batch, generate_trajectory,
                                sample_biases, sample_sensor_locations)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sensors", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noiseless", action="store_true",
                        help="disable measurement noise")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    locations = sample_sensor_locations(args.sensors, args.seed, center=(6000.0, 1000.0))
    biases = sample_biases(args.sensors, rng)
    sigma = {} if args.noiseless else dict(sigma_range=10.0, sigma_az=3e-3, sigma_el=3e-3)
    sensors = [SensorTruth(tuple(loc), bias=b, **sigma)
               for loc, b in zip(locations, biases)]

    batch, truth = build_batch(generate_trajectory(), sensors, seed=args.seed + 1)
    result = absolute_3d(batch, StoppingCriteria(rel_cost_tol=1e-6, max_iterations=200))

    trace = result.cost_trace
    print(f"{args.sensors} sensors, {batch.n_epochs} epochs, "
          f"{'noiseless' if args.noiseless else 'noisy'} measurements")
    print(f"converged: {result.converged} after {result.iterations} Gauss-Newton "
          "iterations from two sweeps")
    print(f"cost: {trace[0]:.4e} after the sweeps, {trace[-1]:.4e} final\n")

    print(f"{'sensor':>6} {'yaw est/true':>18} {'pitch est/true':>18} "
          f"{'roll est/true':>18} {'error mrad':>11}")
    for s, (est, true_rot) in enumerate(zip(result.estimates, truth.rotations)):
        e = rotation_to_euler(est)
        t = rotation_to_euler(true_rot)
        err = geodesic_angle(est, true_rot) * 1e3
        cols = [f"{math.degrees(a):7.3f}/{math.degrees(b):7.3f}"
                for a, b in ((e.psi, t.psi), (e.theta, t.theta), (e.phi, t.phi))]
        print(f"{s:>6} {cols[0]:>18} {cols[1]:>18} {cols[2]:>18} {err:>11.4f}")


if __name__ == "__main__":
    main()
