"""Command-line front end: simulate, calibrate, experiment, sweep."""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .calibration import ALGORITHMS, StoppingCriteria
from .errors import GimbalLockError, RegistrationError
from .experiments import (SWEEP_AXES, ExperimentConfig, emit_reports,
                          emit_sweep_reports, read_batch, read_json,
                          realizations, run_experiment, sweep, write_batch,
                          write_json)
from .geometry import rotation_to_euler


def _load_config(args) -> ExperimentConfig:
    values = {}
    if args.config:
        values = read_json(args.config)
        ExperimentConfig.from_dict(values)  # a bad file value fails even under a flag
    # flags beat file values
    flags = {"seed": args.seed, "algorithm": args.algorithm,
             "sensor_count": args.sensors, "mc_runs": args.mc_runs,
             "out_dir": args.out_dir}
    values.update((key, value) for key, value in flags.items() if value is not None)
    return ExperimentConfig.from_dict(values)


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--algorithm", choices=sorted(ALGORITHMS), default=None)
    parser.add_argument("--sensors", type=int, default=None,
                        help="number of sensors")
    parser.add_argument("--mc-runs", type=int, default=None)
    parser.add_argument("--out-dir", default=None)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    batch, truth = next(realizations(cfg, 1))
    out = Path(cfg.out_dir or "simulated")
    write_batch(batch, out / "batch.csv", out / "sensors.json")
    write_json(out / "truth.json", {
        "sensors": [{
            "id": s,
            "bias_deg": [math.degrees(a) for a in truth.biases[s]],
            "rotation": truth.rotations[s].tolist(),
        } for s in range(batch.n_sensors)],
        "target_positions_m": truth.target_positions.tolist(),
    })
    print(f"wrote {out / 'batch.csv'}, {out / 'sensors.json'}, {out / 'truth.json'}")
    return 0


def _select_algorithm(batch, requested) -> str:
    """The ``requested`` selector, if its algorithm accepts the batch;
    with none requested, the first selector whose algorithm does,
    absolute algorithms before relative ones."""
    names = [requested] if requested else sorted(
        ALGORITHMS, key=lambda name: ALGORITHMS[name].relative)
    for name in names:
        if ALGORITHMS[name].accepts(batch):
            return name
    found = f"this batch has {batch.n_sensors} sensors of kinds {batch.kinds}"
    if not requested:
        raise RegistrationError(f"no algorithm takes this mix of sensor kinds: {found}")
    raise RegistrationError(f"{requested} takes {ALGORITHMS[requested].takes}, "
                            f"but {found}")


def cmd_calibrate(args) -> int:
    batch = read_batch(args.batch, args.sensors_file)
    algorithm = _select_algorithm(batch, args.algorithm)
    result = ALGORITHMS[algorithm].solve(batch, StoppingCriteria())

    sensors = []
    for sid, rot in zip(batch.ids, result.estimates):
        entry = {"id": sid, "rotation": np.asarray(rot).tolist()}
        try:
            angles = rotation_to_euler(rot)
            entry["yaw_deg"] = math.degrees(angles.psi)
            entry["pitch_deg"] = math.degrees(angles.theta)
            entry["roll_deg"] = math.degrees(angles.phi)
        except GimbalLockError:
            pass
        sensors.append(entry)
    write_json(args.out, {
        "algorithm": algorithm,
        "converged": result.converged,
        "iterations": result.iterations,
        "gauge_ambiguous": result.gauge_ambiguous,
        "dropped_indices": result.dropped_indices,
        "cost_trace": [float(c) for c in result.cost_trace],
        "sensors": sensors,
    })
    print(f"wrote {Path(args.out)} ({algorithm}, converged={result.converged}, "
          f"{result.iterations} iterations)")
    return 0


def cmd_experiment(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    out = cfg.out_dir or "results"
    paths = emit_reports(report, out)
    rms = ", ".join(f"{k}={v:.3f}" for k, v in
                    zip(("psi", "theta", "phi"), report.rms_mrad))
    print(f"{cfg.algorithm}: {cfg.mc_runs} runs, success rate "
          f"{report.success_rate:.0%}, RMS mRad: {rms}")
    for p in paths.values():
        print(f"wrote {p}")
    return 0


def _axis_values(text) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    results = sweep(cfg, args.axis, args.values)
    out = cfg.out_dir or "results"
    paths = emit_sweep_reports(results, args.axis, out)
    for value, report in results:
        rms = ", ".join(f"{v:.3f}" for v in report.rms_mrad)
        print(f"{args.axis}={value:g}: RMS mRad ({rms})")
    for p in paths.values():
        print(f"wrote {p}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sensorreg",
        description="Angular misalignment registration for sensor networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a measurement batch")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="estimate rotations from a batch file")
    p_cal.add_argument("--batch", required=True, help="batch CSV file")
    p_cal.add_argument("--sensors-file", required=True,
                       help="sidecar JSON with sensor locations")
    p_cal.add_argument("--algorithm", choices=sorted(ALGORITHMS), default=None,
                       help="default: inferred from sensor kinds and count")
    p_cal.add_argument("--out", default="result.json")
    p_cal.set_defaults(func=cmd_calibrate)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo study")
    _add_common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_swp = sub.add_parser("sweep", help="run experiments along one axis")
    _add_common(p_swp)
    p_swp.add_argument("--axis", required=True,
                       choices=SWEEP_AXES)
    p_swp.add_argument("--values", required=True, type=_axis_values,
                       help="comma-separated axis values, e.g. 1,2,3,4,5")
    p_swp.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RegistrationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
