#!/usr/bin/env python3
"""Jointly calibrate a network of bearing-only sensors.

Same joint estimation idea as the ranging-network case, but none of
the sensors measures range, so target positions are unknown too. The
rotations and the target positions are solved for together by damped
Gauss-Newton. It starts from two sweeps that intersect the rays in
closed form and align the sensor pairs, then one Gauss-Newton
triangulation; epochs whose triangulation fails are left out and
counted.
"""

import argparse
import math

import numpy as np

from sensorreg.calibration import StoppingCriteria, absolute_2d
from sensorreg.geometry import geodesic_angle, rotation_to_euler
from sensorreg.scenario import (SensorTruth, build_batch, generate_trajectory,
                                sample_biases, sample_sensor_locations)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sensors", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise-mrad", type=float, default=1.0)
    parser.add_argument("--max-iterations", type=int, default=200)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    locations = sample_sensor_locations(args.sensors, args.seed, center=(6000.0, 1000.0))
    biases = sample_biases(args.sensors, rng)
    sigma = args.noise_mrad * 1e-3
    sensors = [SensorTruth(tuple(loc), kind="2d", bias=b,
                           sigma_az=sigma, sigma_el=sigma)
               for loc, b in zip(locations, biases)]

    batch, truth = build_batch(generate_trajectory(), sensors, seed=args.seed + 1)
    stopping = StoppingCriteria(rel_cost_tol=1e-6,
                                max_iterations=args.max_iterations)
    result = absolute_2d(batch, stopping)

    print(f"{args.sensors} bearing-only sensors, {batch.n_epochs} epochs, "
          f"{args.noise_mrad:.1f} mrad noise")
    print(f"converged: {result.converged} after {result.iterations} iterations, "
          f"{result.dropped_indices} epoch drops")
    print(f"bearing residual cost (rad^2): {result.cost_trace[0]:.4e} at warm start, "
          f"{result.cost_trace[-1]:.4e} final\n")

    print(f"{'sensor':>6} {'yaw err':>9} {'pitch err':>10} {'roll err':>9} "
          f"{'total mrad':>11}")
    for s, (est, true_rot) in enumerate(zip(result.estimates, truth.rotations)):
        e = rotation_to_euler(est)
        t = rotation_to_euler(true_rot)
        err = geodesic_angle(est, true_rot) * 1e3
        print(f"{s:>6} {math.degrees(e.psi - t.psi):>9.4f} "
              f"{math.degrees(e.theta - t.theta):>10.4f} "
              f"{math.degrees(e.phi - t.phi):>9.4f} {err:>11.4f}")
    print("\nper-angle errors are in degrees; total is the geodesic distance")


if __name__ == "__main__":
    main()
