"""The benchmark's workloads and the import of the program under test.

Every workload turns the benchmark seed into its inputs (study configs
or simulated batch files); the program sees only those inputs.  An
operation is one call into the public API: ``run_experiment`` for a
Monte-Carlo study, ``cli.main(["calibrate", ...])`` for a file.
"""

import contextlib
import dataclasses
import importlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the criterion-4 constellation of tests/test_acceptance.py: every prefix
# of 3+ sensors is well spread, so the geometry stays good as S grows
RING = [[14500.0, 1700.0, -300.0], [2500.0, 8600.0, -600.0],
        [2500.0, -5100.0, -150.0], [-1500.0, 1700.0, -450.0],
        [10500.0, 8600.0, -750.0], [10500.0, -5100.0, -900.0],
        [6500.0, 9700.0, -500.0], [6500.0, -6300.0, -250.0]]

MODULES = ("calibration", "cli", "errors", "experiments", "geometry")


def load_sensorreg():
    """Import sensorreg afresh from this checkout's ``src``.

    Earlier imports are dropped first, so each call pays the full import
    cost.  Refuses a sensorreg found anywhere else.
    """
    for name in [m for m in sys.modules
                 if m == "sensorreg" or m.startswith("sensorreg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("sensorreg")
    if Path(package.__file__).resolve().parent != SRC / "sensorreg":
        raise ImportError(f"sensorreg was imported from {package.__file__}, "
                          f"not from {SRC}")
    return {name: importlib.import_module(f"sensorreg.{name}")
            for name in MODULES}


def input_seeds(seed, count):
    """Distinct, well-mixed per-input seeds derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclasses.dataclass
class Outcome:
    """What one operation produced, as the runner scores it."""

    ops: int              # realizations or calls attempted
    failed: int
    fingerprint: object   # equal for equal inputs (reruns are identical)
    geodesic_mrad: list   # per-estimate errors of successful ops
    problems: list        # correctness-check failures


class MonteCarlo:
    """Seeded 50-run ``run_experiment`` studies on the RING constellation.

    One op is one realization; one call is one study.  The per-angle RMS
    of every study must meet the criterion-4 bound.
    """

    MC_RUNS = 50
    WARM_UP_RUNS = 6

    def __init__(self, algorithm, sensor_kind, sensor_count, rms_bound_mrad,
                 n_inputs, accuracy_inputs, trace_inputs):
        self.algorithm = algorithm
        self.sensor_kind = sensor_kind
        self.sensor_count = sensor_count
        self.rms_bound_mrad = rms_bound_mrad
        self.n_inputs = n_inputs
        self.accuracy_inputs = accuracy_inputs
        self.trace_inputs = trace_inputs
        self.min_calls = 0
        bearing = sensor_kind == "2d"
        self.required = ["experiments.run_experiment",
                         "experiments.build_batch",
                         "calibration.absolute_2d" if bearing
                         else "calibration.absolute_3d",
                         "calibration.solve_wahba"]
        self.forbidden = ["cli.main", "cli.read_batch"]
        (self.required if bearing else self.forbidden).append(
            "calibration.triangulate_batch")

    def setup(self, mods, seed, workdir):
        experiments = mods["experiments"]
        self.configs = [
            experiments.ExperimentConfig(
                algorithm=self.algorithm, sensor_kind=self.sensor_kind,
                sensor_count=self.sensor_count, seed=s, mc_runs=self.MC_RUNS,
                sensor_locations_m=RING[:self.sensor_count])
            for s in input_seeds(seed, self.n_inputs)]
        # spawned realization streams depend only on their index, so the
        # warm-up must reproduce the first realizations of study 0 exactly
        warm = experiments.run_experiment(dataclasses.replace(
            self.configs[0], mc_runs=self.WARM_UP_RUNS))
        return _realization_errors(warm.runs)

    def call(self, mods, index):
        try:
            return mods["experiments"].run_experiment(self.configs[index])
        except mods["errors"].RegistrationError as exc:
            return exc

    def evaluate(self, mods, index, report, warm_up):
        if isinstance(report, Exception):
            return Outcome(self.MC_RUNS, self.MC_RUNS, repr(report), [],
                           [f"study {index}: {report}"])
        ok = [rec for rec in report.runs
              if rec.ok and np.all(np.isfinite(rec.angle_errors_mrad))
              and np.all(np.isfinite(rec.geodesic_mrad))]
        problems = []
        worst = float(np.max(report.rms_mrad))
        if not worst <= self.rms_bound_mrad:
            problems.append(f"study {index}: per-angle RMS {worst:.3f} mrad "
                            f"exceeds {self.rms_bound_mrad} mrad")
        if index == 0 and _realization_errors(
                report.runs[:self.WARM_UP_RUNS]) != warm_up:
            problems.append("study 0 does not reproduce its warm-up "
                            "realizations")
        geodesic = [float(g) for rec in ok for g in rec.geodesic_mrad]
        fingerprint = (report.rms_geodesic_mrad, tuple(report.rms_mrad))
        return Outcome(len(report.runs), len(report.runs) - len(ok),
                       fingerprint, geodesic, problems)


def _realization_errors(runs):
    return [(rec.failure, None if rec.geodesic_mrad is None
             else rec.geodesic_mrad.tolist()) for rec in runs]


class CalibrateFiles:
    """``sensorreg calibrate`` on simulated bearing-only batch files.

    Set-up writes the files with ``sensorreg simulate``; one op is one
    in-process ``cli.main(["calibrate", ...])`` call.  Estimates must be
    proper rotations within ``GEODESIC_BOUND_MRAD`` of ``truth.json``.
    """

    SENSORS = 6
    DURATION_S = 900.0
    SAMPLE_PERIOD_S = 2.0
    # over 512 such files (seeds 1000-1007) the per-sensor error had a
    # median of 0.93 mrad and a maximum of 2.60 mrad; the bound leaves
    # room for a solver that converges elsewhere but catches a wrong or
    # stalled estimate
    GEODESIC_BOUND_MRAD = 10.0

    def __init__(self, n_inputs, trace_inputs, min_calls):
        self.n_inputs = n_inputs
        self.accuracy_inputs = n_inputs
        self.trace_inputs = trace_inputs
        self.min_calls = min_calls
        self.required = ["cli.main", "cli.read_batch",
                         "calibration.absolute_2d", "calibration.solve_wahba",
                         "calibration.triangulate_batch"]
        self.forbidden = ["experiments.run_experiment",
                          "experiments.build_batch"]

    def setup(self, mods, seed, workdir):
        cli = mods["cli"]
        self.dirs = []
        self.truth = []
        for index, file_seed in enumerate(input_seeds(seed, self.n_inputs)):
            out = workdir / f"file{index:03d}"
            config = out.with_suffix(".json")
            config.write_text(json.dumps({
                "algorithm": "alg7", "sensor_kind": "2d",
                "sensor_count": self.SENSORS,
                "sensor_locations_m": RING[:self.SENSORS],
                "duration_s": self.DURATION_S,
                "sample_period_s": self.SAMPLE_PERIOD_S, "seed": file_seed}))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["simulate", "--config", str(config),
                                 "--out-dir", str(out)])
            if code != 0:
                raise RuntimeError(f"sensorreg simulate failed for {out}")
            truth = json.loads((out / "truth.json").read_text())
            self.truth.append([np.asarray(s["rotation"])
                               for s in truth["sensors"]])
            self.dirs.append(out)
        self.call(mods, 0)
        return (self.dirs[0] / "result.json").read_bytes()

    def call(self, mods, index):
        out = self.dirs[index]
        with contextlib.redirect_stdout(io.StringIO()):
            return mods["cli"].main([
                "calibrate", "--batch", str(out / "batch.csv"),
                "--sensors-file", str(out / "sensors.json"),
                "--out", str(out / "result.json")])

    def evaluate(self, mods, index, code, warm_up):
        if code != 0:
            return Outcome(1, 1, code, [], [f"file {index}: exit code {code}"])
        raw = (self.dirs[index] / "result.json").read_bytes()
        result = json.loads(raw)
        geometry = mods["geometry"]
        problems = []
        geodesic = []
        for sensor, truth in zip(result["sensors"], self.truth[index]):
            rot = np.asarray(sensor["rotation"], dtype=float)
            if not (np.all(np.isfinite(rot)) and geometry.is_rotation_matrix(rot)):
                return Outcome(1, 1, raw, [], [
                    f"file {index} sensor {sensor['id']}: not a rotation"])
            geodesic.append(1000.0 * geometry.geodesic_angle(rot, truth))
        if len(geodesic) != self.SENSORS:
            return Outcome(1, 1, raw, [], [
                f"file {index}: {len(geodesic)} estimates for "
                f"{self.SENSORS} sensors"])
        if max(geodesic) > self.GEODESIC_BOUND_MRAD:
            problems.append(f"file {index}: geodesic error {max(geodesic):.2f}"
                            f" mrad exceeds {self.GEODESIC_BOUND_MRAD} mrad")
        if index == 0 and raw != warm_up:
            problems.append("file 0 result differs from its warm-up result")
        return Outcome(1, 0, raw, geodesic, problems)


WORKLOADS = {
    "mc-bearing-s8": lambda: MonteCarlo(
        "alg7", "2d", 8, rms_bound_mrad=3.5,
        n_inputs=16, accuracy_inputs=3, trace_inputs=2),
    "mc-range-s4": lambda: MonteCarlo(
        "alg4", "3d", 4, rms_bound_mrad=2.5,
        n_inputs=64, accuracy_inputs=32, trace_inputs=16),
    "calibrate-bearing-file": lambda: CalibrateFiles(
        n_inputs=100, trace_inputs=24, min_calls=100),
}


def rms(values):
    return math.sqrt(sum(v * v for v in values) / len(values))
