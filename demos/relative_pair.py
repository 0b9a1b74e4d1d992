#!/usr/bin/env python3
"""Calibrate one biased sensor against a trusted reference.

Two sensors track the same climbing racetrack flight. Sensor 1 is the
reference and is taken as correctly aligned; sensor 0 carries an
unknown mounting misalignment. Matching the two tracks recovers sensor
0's rotation in a single least-squares shot, with ranging data or with
bearings only.
"""

import argparse
import math

import numpy as np

from sensorreg.calibration import relative_3d, relative_hetero
from sensorreg.geometry import EulerAngles, geodesic_angle, rotation_to_euler
from sensorreg.scenario import SensorTruth, build_batch, generate_trajectory

BIAS = EulerAngles(math.radians(2.0), math.radians(-1.5), math.radians(1.0))
REF_LOCATION = (12000.0, -2000.0, -50.0)
BIASED_LOCATION = (-3000.0, 5000.0, -20.0)


def report(label, estimate, truth):
    est = rotation_to_euler(estimate)
    err = geodesic_angle(estimate, truth) * 1e3
    print(f"{label}")
    print(f"  yaw {math.degrees(est.psi):8.4f}  pitch {math.degrees(est.theta):8.4f}"
          f"  roll {math.degrees(est.phi):8.4f} deg   ({err:.4f} mrad off truth)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    duration = 900.0
    points = generate_trajectory(duration)
    print(f"flight: {len(points)} samples over {duration:.0f} s")
    print(f"true bias of sensor 0: yaw {math.degrees(BIAS.psi):.1f}"
          f"  pitch {math.degrees(BIAS.theta):.1f}"
          f"  roll {math.degrees(BIAS.phi):.1f} deg\n")

    def sensors(kind, noisy):
        sig = dict(sigma_range=10.0, sigma_az=2e-3, sigma_el=2e-3) if noisy else {}
        return [
            SensorTruth(BIASED_LOCATION, kind=kind, bias=BIAS, **sig),
            SensorTruth(REF_LOCATION, **sig),
        ]

    truth_rot = None
    for noisy in (False, True):
        tag = "noisy (10 m, 2 mrad)" if noisy else "noiseless"

        batch, truth = build_batch(points, sensors("3d", noisy), seed=args.seed)
        truth_rot = truth.rotations[0]
        report(f"ranging sensor, {tag}:", relative_3d(batch).estimates[0],
               truth_rot)

        batch, _ = build_batch(points, sensors("2d", noisy), seed=args.seed)
        report(f"bearing-only sensor, {tag}:",
               relative_hetero(batch).estimates[0], truth_rot)
        print()


if __name__ == "__main__":
    main()
