#!/usr/bin/env python3
"""Monte-Carlo accuracy study of the network calibration algorithms.

Repeats a full simulate/calibrate cycle many times with freshly drawn
sensor biases and measurement noise, aggregates per-angle RMS errors,
then sweeps the bearing noise level to show how accuracy scales.
Reports land in an output directory as CSV and JSON.
"""

import argparse
import pathlib

from sensorreg.experiments import (ExperimentConfig, emit_reports,
                                   emit_sweep_reports, run_experiment, sweep)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algorithm", default="alg4", choices=("alg4", "alg7"))
    parser.add_argument("--sensors", type=int, default=4)
    parser.add_argument("--mc-runs", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="mc_study")
    args = parser.parse_args()

    cfg = ExperimentConfig(
        algorithm=args.algorithm,
        sensor_count=args.sensors,
        mc_runs=args.mc_runs,
        seed=args.seed,
    )

    print(f"{cfg.mc_runs} runs of {cfg.algorithm} with {cfg.sensor_count} sensors")
    report = run_experiment(cfg)
    psi, theta, phi = report.rms_mrad
    print(f"success rate: {report.success_rate:.0%}")
    print(f"RMS error: yaw {psi:.3f}  pitch {theta:.3f}  roll {phi:.3f} mrad "
          f"(geodesic {report.rms_geodesic_mrad:.3f})")
    iters = [r.iterations for r in report.runs if r.ok]
    print(f"iterations per run: {min(iters)} to {max(iters)}")

    out = pathlib.Path(args.out_dir)
    paths = emit_reports(report, out)
    print("\nwrote " + ", ".join(str(p) for p in paths.values()))

    # scale the bearing noise, reusing the same seeds at every level so
    # the curve is not confounded by different noise draws
    values = [1.0, 2.0, 4.0]
    print(f"\nsweep over bearing noise (mrad): {values}")
    results = sweep(cfg, "noise_std", values)
    for value, rep in results:
        psi, theta, phi = rep.rms_mrad
        print(f"  {value:4.1f} mrad -> RMS yaw {psi:.3f}  pitch {theta:.3f}  "
              f"roll {phi:.3f} mrad")
    paths = emit_sweep_reports(results, "noise_std", out)
    print("wrote " + ", ".join(str(p) for p in paths.values()))


if __name__ == "__main__":
    main()
