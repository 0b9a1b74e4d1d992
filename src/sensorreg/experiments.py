"""Monte-Carlo experiment harness: configs, runs, sweeps, reports.

An experiment draws random per-sensor biases and measurement noise for
each realization, runs the selected calibration algorithm on simulated
batches, and aggregates per-angle RMS errors.  Everything is seeded:
the same config and seed reproduce the same outputs byte for byte.
"""

import csv
import dataclasses
import io
import json
import math
import numbers
import operator
import sys
import warnings
from dataclasses import dataclass
from itertools import chain, repeat, zip_longest
from pathlib import Path

import numpy as np

from .calibration import ALGORITHMS, MeasurementBatch, StoppingCriteria
from .errors import (ConfigError, DegenerateInputError, ExperimentError,
                     RegistrationError)
from .geometry import (EulerAngles, geodesic_angle, rotation_to_euler,
                       wrap_angle)
from .scenario import (SensorTruth, build_batch, epoch_count,
                       generate_trajectory, sample_biases,
                       sample_sensor_locations)

RAD_TO_MRAD = 1000.0

# each sweep axis: the type of its values and the config keys a value sets
SWEEP_AXES = {
    "sensor_count": (int, ("sensor_count",)),
    "noise_std": (float, ("sigma_az_mrad", "sigma_el_mrad")),
    "sample_count": (int, ("sample_count",)),
}

# the batch CSV header; ``read_batch`` finds the columns by these names
BATCH_COLUMNS = ("sensor_id", "epoch_index", "rng_m", "az_rad", "el_rad")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one Monte-Carlo study.

    Key names carry explicit units.  ``sensor_kind`` is "3d", "2d", or
    "hetero" (sensor 0 bearing-only, sensor 1 with ranges); left None,
    it is the kind the algorithm needs.  Leave
    ``sensor_locations_m`` None to draw a seeded random constellation in
    a ``placement_box_km`` box around the trajectory; leave
    ``fixed_biases_deg`` None to redraw biases per realization from
    +/-[bias_low_deg, bias_high_deg] with random signs.
    ``sample_count`` thins the default trajectory to that many epochs.
    """

    algorithm: str = "alg4"
    seed: int = 0
    mc_runs: int = 50
    sensor_count: int = 4
    sensor_kind: str | None = None
    sigma_range_m: float = 10.0
    sigma_az_mrad: float = 3.0
    sigma_el_mrad: float = 3.0
    bias_low_deg: float = 1.0
    bias_high_deg: float = 4.0
    fixed_biases_deg: list | None = None
    sensor_locations_m: list | None = None
    placement_box_km: tuple = (20.0, 20.0, 1.0)
    duration_s: float = 900.0
    sample_period_s: float = 10.0
    sample_count: int | None = None
    rel_cost_tol: float = 1e-3
    max_iterations: int = 100
    out_dir: str | None = None

    def __post_init__(self):
        self.validate()
        if self.sensor_kind is None:
            self.sensor_kind = ALGORITHMS[self.algorithm].sensor_kind
        self.placement_box_km = tuple(float(v) for v in self.placement_box_km)
        if self.fixed_biases_deg is not None:
            self.fixed_biases_deg = [[float(v) for v in row]
                                     for row in self.fixed_biases_deg]
        if self.sensor_locations_m is not None:
            self.sensor_locations_m = [[float(v) for v in row]
                                       for row in self.sensor_locations_m]

    def validate(self):
        # types first, so that the rules below compare finite numbers
        for keys, ok, kind in (
                (("seed", "mc_runs", "sensor_count", "sample_count"),
                 _is_integer, "an integer"),
                (("sigma_range_m", "sigma_az_mrad", "sigma_el_mrad", "bias_low_deg",
                  "bias_high_deg", "duration_s", "sample_period_s"),
                 _is_real, "a finite number"),
                (("algorithm", "sensor_kind", "out_dir"), lambda v: isinstance(v, str),
                 "a string")):
            for key in keys:
                value = getattr(self, key)
                if not ok(value) and not (key in ("sample_count", "sensor_kind", "out_dir")
                                          and value is None):
                    raise ConfigError(f"{key} must be {kind}, got {value!r}")
        try:
            self.stopping()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not _is_sequence(self.placement_box_km, 3, _is_real):
            raise ConfigError(f"placement_box_km must be 3 finite numbers [x, y, z] km, "
                              f"got {self.placement_box_km!r}")
        if min(self.placement_box_km) < 0:
            raise ConfigError(f"placement_box_km extents must be nonnegative, "
                              f"got {list(self.placement_box_km)}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; "
                              f"choose one of {sorted(ALGORITHMS)}")
        algorithm = ALGORITHMS[self.algorithm]
        if self.sensor_kind not in (None, algorithm.sensor_kind):
            raise ConfigError(f"{self.algorithm} needs sensor_kind="
                              f"{algorithm.sensor_kind!r}, got {self.sensor_kind!r}")
        if not algorithm.accepts_count(self.sensor_count):
            raise ConfigError(f"{self.algorithm} takes {algorithm.takes}, "
                              f"got {self.sensor_count}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.mc_runs < 1:
            raise ConfigError("mc_runs must be at least 1")
        if min(self.sigma_range_m, self.sigma_az_mrad, self.sigma_el_mrad) < 0:
            raise ConfigError("noise sigmas must be nonnegative")
        if not 0 <= self.bias_low_deg <= self.bias_high_deg:
            raise ConfigError("bias bounds must satisfy 0 <= low <= high")
        for key, row in (("fixed_biases_deg", "[yaw, pitch, roll] degrees"),
                         ("sensor_locations_m", "[x, y, z] meters")):
            rows = getattr(self, key)
            if rows is not None and not _is_sequence(
                    rows, self.sensor_count, lambda r: _is_sequence(r, 3, _is_real)):
                raise ConfigError(f"{key} must be sensor_count rows of {row}")
        try:
            epochs = epoch_count(self.duration_s, self.sample_period_s)
        except ValueError as exc:
            key = "duration_s" if self.sample_period_s > 0 else "sample_period_s"
            raise ConfigError(f"{key}: {exc}") from None
        if self.sample_count is not None and not 2 <= self.sample_count <= epochs:
            raise ConfigError(f"sample_count must be 2 to the trajectory's {epochs} "
                              f"epochs, got {self.sample_count}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["placement_box_km"] = list(self.placement_box_km)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(d).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def sensor_kinds(self) -> list:
        return ALGORITHMS[self.algorithm].sensor_kinds(self.sensor_count)

    def stopping(self) -> StoppingCriteria:
        return StoppingCriteria(rel_cost_tol=self.rel_cost_tol,
                                max_iterations=self.max_iterations)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number that converts to a finite float."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def _is_sequence(values, length, item_ok) -> bool:
    """Whether ``values`` is a sequence of ``length`` items that pass
    ``item_ok``."""
    try:
        return len(values) == length and all(map(item_ok, values))
    except TypeError:  # not a sequence
        return False


@dataclass
class RunRecord:
    """Outcome of one Monte-Carlo realization."""

    run: int
    converged: bool
    iterations: int
    final_cost: float
    cost_trace: list
    angle_errors_mrad: np.ndarray | None   # (S, 3) wrapped est - truth
    geodesic_mrad: np.ndarray | None       # (S,)
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class ErrorReport:
    """Aggregated experiment outcome; one RunRecord per realization."""

    config: ExperimentConfig
    runs: list
    rms_mrad: np.ndarray             # (3,) across runs and sensors
    per_sensor_rms_mrad: np.ndarray  # (S, 3)
    rms_geodesic_mrad: float
    success_rate: float


def realizations(cfg: ExperimentConfig, count: int):
    """Yield the first ``count`` (MeasurementBatch, ScenarioTruth) pairs
    of the study ``cfg`` describes.

    Realization r depends only on the config and r: the config's seed
    spawns one stream that places the sensors, then one per realization
    for its biases and its noise.  The config is validated first.
    """
    cfg.validate()
    points = generate_trajectory(cfg.duration_s, cfg.sample_period_s)
    if cfg.sample_count is not None:
        points = points[_thin_indices(points.shape[0], cfg.sample_count)]

    master = np.random.SeedSequence(cfg.seed)
    placement_child, *run_children = master.spawn(1 + count)
    if cfg.sensor_locations_m is not None:
        locations = np.asarray(cfg.sensor_locations_m, dtype=float)
    else:
        box = tuple(1000.0 * v for v in cfg.placement_box_km)
        locations = sample_sensor_locations(
            cfg.sensor_count, placement_child,
            center=points[:, :2].mean(axis=0), box=box)

    kinds = cfg.sensor_kinds()
    for child in run_children:
        bias_ss, noise_ss = child.spawn(2)
        biases = _draw_biases(cfg, np.random.default_rng(bias_ss))
        sensors = [
            SensorTruth(location=tuple(locations[s]), kind=kinds[s],
                        bias=biases[s],
                        sigma_range=cfg.sigma_range_m,
                        sigma_az=cfg.sigma_az_mrad / RAD_TO_MRAD,
                        sigma_el=cfg.sigma_el_mrad / RAD_TO_MRAD)
            for s in range(cfg.sensor_count)
        ]
        yield build_batch(points, sensors, noise_ss)


def run_experiment(cfg: ExperimentConfig) -> ErrorReport:
    """Run the full seeded Monte-Carlo study described by ``cfg``.

    Realizations are scored against the simulated truth: per-sensor
    differences between the Euler angles of the estimate and of the true
    rotation (wrapped), plus the geodesic rotation angle.
    Failed realizations are recorded and skipped in the aggregates; the
    experiment itself fails if fewer than 80% succeed, naming the first
    failed run and why it failed.
    """
    cfg.validate()
    stopping = cfg.stopping()
    runs = [_score_run(r, cfg, batch, truth, stopping)
            for r, (batch, truth) in enumerate(realizations(cfg, cfg.mc_runs))]

    ok = [rec for rec in runs if rec.ok]
    success_rate = len(ok) / cfg.mc_runs
    if success_rate < 0.8:
        failed = next(rec for rec in runs if not rec.ok)
        raise ExperimentError(f"only {len(ok)}/{cfg.mc_runs} realizations succeeded; "
                              f"run {failed.run} failed with {failed.failure}")

    angle_err = np.stack([rec.angle_errors_mrad for rec in ok])  # (R, S, 3)
    geo_err = np.stack([rec.geodesic_mrad for rec in ok])        # (R, S)
    return ErrorReport(
        config=cfg,
        runs=runs,
        rms_mrad=np.sqrt(np.mean(angle_err ** 2, axis=(0, 1))),
        per_sensor_rms_mrad=np.sqrt(np.mean(angle_err ** 2, axis=0)),
        rms_geodesic_mrad=float(np.sqrt(np.mean(geo_err ** 2))),
        success_rate=success_rate)


def _score_run(r, cfg, batch, truth, stopping) -> RunRecord:
    try:
        result = ALGORITHMS[cfg.algorithm].solve(batch, stopping)
        estimates = np.asarray(result.estimates)
        # the true rotation's own angles, not truth.biases: a drawn pitch
        # beyond +/-90 deg is outside rotation_to_euler's convention
        angles = np.stack(rotation_to_euler(np.stack([estimates, truth.rotations])), axis=-1)
        errors = wrap_angle(angles[0] - angles[1]) * RAD_TO_MRAD
        geodesic = geodesic_angle(estimates, truth.rotations) * RAD_TO_MRAD
        return RunRecord(run=r, converged=result.converged, iterations=result.iterations,
                         final_cost=result.cost_trace[-1],
                         cost_trace=list(result.cost_trace),
                         angle_errors_mrad=errors, geodesic_mrad=geodesic)
    except RegistrationError as exc:
        return RunRecord(run=r, converged=False, iterations=0,
                         final_cost=math.nan, cost_trace=[],
                         angle_errors_mrad=None, geodesic_mrad=None,
                         failure=f"{type(exc).__name__}: {exc}")


def _draw_biases(cfg, rng) -> list:
    if cfg.fixed_biases_deg is not None:
        return [EulerAngles(*(math.radians(v) for v in row))
                for row in cfg.fixed_biases_deg]
    biases = sample_biases(cfg.sensor_count, rng,
                           low=math.radians(cfg.bias_low_deg),
                           high=math.radians(cfg.bias_high_deg))
    if ALGORITHMS[cfg.algorithm].relative:
        # the reference sensor is assumed unbiased by these algorithms
        biases[1] = EulerAngles(0.0, 0.0, 0.0)
    return biases


def _thin_indices(n, m) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, n - 1, m)).astype(int))


def sweep(cfg: ExperimentConfig, axis: str, values) -> list:
    """Run one experiment per axis value; returns [(value, ErrorReport)].

    Every point reuses the same base seed, so differences between points
    come from the swept parameter alone; with random placement the
    constellations for different sensor counts are nested subsets.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {list(SWEEP_AXES)}")
    kind, keys = SWEEP_AXES[axis]
    points = []
    for value in values:
        if kind is int and not float(value).is_integer():
            raise ConfigError(f"sweep axis {axis} takes whole numbers, got {value!r}")
        points.append((value, dataclasses.replace(cfg, **dict.fromkeys(keys, kind(value)))))
    return [(value, run_experiment(point)) for value, point in points]


# ---------------------------------------------------------------------------
# report emission

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return repr(float(value))


def _write_csv(path, header, blocks) -> None:
    """Write a CSV file of ``header``, then of the rows of each of
    ``blocks`` in one write per block, creating its directory if need
    be; a row is a sequence of str cells.

    Cells are joined by "," and lines end in "\\r\\n", csv.writer's
    terminator.  That gives csv.writer's bytes only because no cell
    needs quoting: every cell is a column name, a number, True/False or
    empty, and no row is one empty cell (csv.writer writes that as "").
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for rows in chain([[header]], blocks):
            fh.write("\r\n".join([*map(",".join, rows), ""]))


def write_json(path, payload) -> None:
    """Write ``payload`` as ASCII JSON indented by 2 with a final
    newline, creating the file's directory if need be."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_json(path):
    """The JSON value in ``path``, read as UTF-8 with any BOM ignored;
    text that is not UTF-8 or not JSON raises ValueError naming the file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8-sig"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def emit_reports(report: ErrorReport, out_dir) -> dict:
    """Write runs.csv, summary.json and cost_trace.csv under ``out_dir``.

    runs.csv has one row per (realization, sensor); failed realizations
    keep their rows with empty error cells.  cost_trace.csv has one
    column per realization, padded with empty cells once a run has
    stopped.  Returns the written paths.
    """
    out = Path(out_dir)
    cfg = report.config

    runs_path = out / "runs.csv"
    rows = []
    for rec in report.runs:
        for s in range(cfg.sensor_count):
            errors = ([*rec.angle_errors_mrad[s], rec.geodesic_mrad[s]] if rec.ok
                      else [None] * 4)
            rows.append([str(rec.run), str(s), *map(_fmt, errors), str(rec.iterations),
                         _fmt(rec.final_cost), str(rec.converged)])
    _write_csv(runs_path, ["run", "sensor", "err_psi_mrad", "err_theta_mrad",
                           "err_phi_mrad", "geodesic_mrad", "iterations",
                           "final_cost", "converged"], [rows])

    trace_path = out / "cost_trace.csv"
    traces = [list(map(_fmt, rec.cost_trace)) for rec in report.runs]
    _write_csv(trace_path, [f"run_{rec.run}" for rec in report.runs],
               [zip_longest(*traces, fillvalue="")])

    summary_path = out / "summary.json"
    write_json(summary_path, {
        "config": cfg.to_dict(),
        "success_rate": report.success_rate,
        "rms_mrad": {
            "psi": report.rms_mrad[0],
            "theta": report.rms_mrad[1],
            "phi": report.rms_mrad[2],
        },
        "rms_geodesic_mrad": report.rms_geodesic_mrad,
        "per_sensor_rms_mrad": report.per_sensor_rms_mrad.tolist(),
        "iterations": [rec.iterations for rec in report.runs],
        "converged": [rec.converged for rec in report.runs],
        "failures": {str(rec.run): rec.failure
                     for rec in report.runs if not rec.ok},
    })

    return {"runs_csv": runs_path, "cost_trace_csv": trace_path,
            "summary_json": summary_path}


def emit_sweep_reports(results, axis: str, out_dir) -> dict:
    """Write sweep.csv (one row per axis value) and sweep_summary.json."""
    out = Path(out_dir)

    sweep_path = out / "sweep.csv"
    rows = []
    for value, report in results:
        iters = [rec.iterations for rec in report.runs if rec.ok]
        rows.append([str(value), *map(_fmt, [
            *report.rms_mrad, report.rms_geodesic_mrad, report.success_rate,
            float(np.mean(iters))])])
    _write_csv(sweep_path, [axis, "rms_psi_mrad", "rms_theta_mrad", "rms_phi_mrad",
                            "rms_geodesic_mrad", "success_rate", "mean_iterations"], [rows])

    summary_path = out / "sweep_summary.json"
    write_json(summary_path, {
        "axis": axis,
        "values": [value for value, _ in results],
        "seed_policy": "every sweep point reuses the base config seed; random "
                       "sensor constellations are nested subsets across counts",
        "base_config": results[0][1].config.to_dict() if results else None,
        "points": [{
            "value": value,
            "rms_mrad": report.rms_mrad.tolist(),
            "rms_geodesic_mrad": report.rms_geodesic_mrad,
            "success_rate": report.success_rate,
        } for value, report in results],
    })
    return {"sweep_csv": sweep_path, "sweep_summary_json": summary_path}


# ---------------------------------------------------------------------------
# batch file round trip (the on-disk ingestion format)

def write_batch(batch: MeasurementBatch, csv_path, sidecar_path) -> None:
    """Write a batch as the documented CSV + sensor sidecar JSON pair.

    CSV columns: sensor_id, epoch_index, rng_m (empty for bearing-only
    sensors), az_rad, el_rad.
    """
    # every value is finite but a bearing-only sensor's NaN ranges
    # (MeasurementBatch checks), so repr suffices; one write per sensor
    # bounds the text held in memory
    n = batch.n_epochs
    _write_csv(csv_path, BATCH_COLUMNS, (
        zip(repeat(str(sid)), map(str, range(n)),
            repeat("", n) if kind == "2d" else map(repr, rng.tolist()),
            map(repr, az.tolist()), map(repr, el.tolist()))
        for sid, kind, az, el, rng in zip(batch.ids, batch.kinds, batch.az, batch.el, batch.rng)))
    write_json(sidecar_path, {"sensors": [{
        "id": sid,
        "location_m": [float(v) for v in location],
        "kind": kind,
    } for sid, location, kind in zip(batch.ids, batch.locations, batch.kinds)]})


def read_batch(csv_path, sidecar_path) -> MeasurementBatch:
    """Read a batch written by ``write_batch`` (or recorded real data).

    Both files are read as UTF-8 whatever the locale, with a leading BOM
    ignored.  Columns are found by header name.  A malformed file raises
    ``ValueError`` naming the file, the line and, for a bad cell, the
    column; a malformed sidecar names the file and the sensor, and a
    batch with too few sensors or epochs, or with uneven epoch counts,
    names the file, and a value the batch refuses (``rng_m`` cells that
    all read nan too) the file and the sensor.  Plain files are parsed in one vectorized pass;
    anything else goes row by row, with the same result.  The batch
    holds the sensors in ascending ``sensor_id`` order, as its ``ids``.
    """
    locations, kinds = _read_sidecar(sidecar_path)
    try:
        text = Path(csv_path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # number the lines as csv does: each ends in \n, \r or \r\n
        head = exc.object[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(f"{csv_path} line {line}: not UTF-8 text") from None
    columns = _parse_plain(text)
    if columns is None:
        columns = _parse_rows(csv_path, text)
    sid, epoch, rng, has_rng, az, el = columns

    ordered = np.unique(sid).tolist()
    if set(ordered) != set(locations):
        raise ValueError(f"sensor ids {ordered} in {csv_path} do not match "
                         f"the ids {sorted(locations)} in {sidecar_path}")
    table = []
    for s in ordered:
        rows = np.flatnonzero(sid == s)
        rows = rows[np.argsort(epoch[rows], kind="stable")]
        if not np.array_equal(epoch[rows], np.arange(len(rows))):
            raise ValueError(f"{csv_path}: sensor {s}: epoch indices must be "
                             f"0..n-1")
        if table and len(rows) != len(table[0]):
            raise ValueError(f"{csv_path}: sensor {s} has {len(rows)} epochs but sensor "
                             f"{ordered[0]} has {len(table[0])}: every sensor must "
                             f"report the same number of targets")
        present = has_rng[rows]
        if present.any() and not present.all():
            raise ValueError(f"{csv_path}: sensor {s}: rng_m must be all "
                             f"present or all empty")
        if kinds[s] is not None and (kinds[s] == "3d") != present.all():
            raise ValueError(f"{sidecar_path}: sensor {s} has kind {kinds[s]!r} but "
                             f"its rng_m cells {'hold ranges' if present.all() else 'are empty'}")
        # empty cells read as NaN, so cells that all read nan would pass
        # for a bearing-only sensor
        if present.all() and np.isnan(rng[rows]).all():
            raise DegenerateInputError(f"{csv_path}: sensor {s}: rng must be finite "
                                       f"and positive, got nan at epoch 0")
        table.append(rows)
    rows = np.array(table, dtype=np.intp, ndmin=2)
    try:
        return MeasurementBatch(
            az=az[rows], el=el[rows], rng=rng[rows],
            locations=np.array([locations[s] for s in ordered], dtype=float), ids=ordered)
    except (ValueError, DegenerateInputError) as exc:  # too few sensors or epochs, bad values
        raise type(exc)(f"{csv_path}: {exc}") from exc


# Bytes that csv and numpy's loadtxt split, and that int()/float() and
# loadtxt's number parsers read, the same way: printable ASCII without
# the quote, plus tab and line ends.  Non-ASCII text must never reach
# loadtxt, whose integer parser can crash on it.
_PLAIN_BYTES = bytes(range(32, 127)).replace(b'"', b"") + b"\t\r\n"
# a line shorter than this holds no cell that csv's field size limit or
# Python's int digit limit (640 digits at the least) could reject
_PLAIN_LINE_LIMIT = 640
# width of the text fields (rng_m and unused columns); a cell that fills
# it may have been cut short, so the file goes row by row
_TEXT_WIDTH = 32


def _parse_plain(text):
    """The columns ``_parse_rows`` returns for ``text``, parsed by one
    ``np.loadtxt`` call, or None when it is not plain enough for that
    call to be sure of the same result (malformed text always gives None)."""
    if text.encode().translate(None, _PLAIN_BYTES) or (
            "\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    lines = text.split("\n")
    if max(map(len, lines)) >= min(_PLAIN_LINE_LIMIT, csv.field_size_limit()):
        return None
    header = [cell.strip() for cell in lines[0].split(",")]
    if not set(BATCH_COLUMNS) <= set(header):
        return None
    numeric = {"sensor_id": np.int64, "epoch_index": np.int64,
               "az_rad": np.float64, "el_rad": np.float64}
    try:
        # one field per column, named by the header: np.dtype raises on
        # a repeated name
        dtype = np.dtype([(name, numeric.get(name, f"U{_TEXT_WIDTH}"))
                          for name in header])
        # as errors: an integer read through a float (a deprecation in
        # older numpy), a file without rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines[1:], dtype=dtype, delimiter=",",
                               comments=None, ndmin=1)
        rng_text = table["rng_m"]
        if np.char.str_len(rng_text).max() >= _TEXT_WIDTH:
            return None
        has_rng = rng_text != ""
        rng = np.full(len(table), np.nan)
        rng[has_rng] = rng_text[has_rng].astype(float)
    except (ValueError, Warning):
        return None
    return (table["sensor_id"], table["epoch_index"], rng, has_rng,
            table["az_rad"], table["el_rad"])


def _parse_rows(csv_path, text) -> tuple:
    """Sensor id, epoch index, range (NaN where empty), has-range mask,
    azimuth and elevation of every data row of ``text``, in file order.

    Raises ``ValueError`` naming the file, the line and the column of
    the first malformed row.
    """
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [cell.strip() for cell in next(reader, [])]
        missing = [c for c in BATCH_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{csv_path} line 1: header lacks column "
                             f"{', '.join(missing)}")
        cells = operator.itemgetter(*(header.index(c) for c in BATCH_COLUMNS))
        end = reader.line_num
        for row in reader:
            # a quoted cell may span lines: name the line the row starts on
            line, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{csv_path} line {line}: "
                                 f"{len(row)} cells, the header has {len(header)}")
            sid, epoch, rng_cell, az, el = cells(row)
            try:
                rows.append((int(sid), int(epoch),
                             float(rng_cell) if rng_cell.strip() else None,
                             float(az), float(el)))
            except ValueError:
                raise ValueError(f"{csv_path} line {line}, "
                                 f"{_bad_cell(cells(row))}") from None
    except csv.Error as exc:
        raise ValueError(f"{csv_path} line {reader.line_num}: {exc}") from exc
    sid, epoch, rng, az, el = zip(*rows) if rows else ((),) * 5
    return (_int_array(sid), _int_array(epoch),
            np.array([math.nan if r is None else r for r in rng], dtype=float),
            np.array([r is not None for r in rng], dtype=bool),
            np.array(az, dtype=float), np.array(el, dtype=float))


def _int_array(values) -> np.ndarray:
    """int64, or Python ints when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _read_sidecar(path) -> tuple:
    """Location and kind (None when not given) by sensor id of a sidecar."""
    sidecar = read_json(path)
    try:
        entries = [(s["id"], np.array(s["location_m"], dtype=float),
                    s.get("kind")) for s in sidecar["sensors"]]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: expected {{\"sensors\": [{{\"id\": "
                         f"..., \"location_m\": [x, y, z]}}, ...]}}") from exc
    locations, kinds = {}, {}
    for entry, (sid, location, kind) in enumerate(entries):
        # a JSON integer, or a string of decimal digits ("0")
        if isinstance(sid, str) and sid.isascii() and sid.isdigit():
            sid = int(sid)
        elif not isinstance(sid, int) or isinstance(sid, bool):
            raise ValueError(f"{path}: expected an integer id in sensor "
                             f"entry {entry}, got {sid!r}")
        if sid in locations:
            raise ValueError(f"{path}: sensor id {sid} appears more than once")
        if location.shape != (3,):
            raise ValueError(f"{path}: sensor {sid}: location_m must be "
                             f"[x, y, z], got {location.tolist()}")
        if not np.isfinite(location).all():
            raise ValueError(f"{path}: location_m of sensor {sid} must be "
                             f"finite, got {location.tolist()}")
        if kind not in (None, "2d", "3d"):
            raise ValueError(f"{path}: sensor {sid}: kind must be \"2d\" or "
                             f"\"3d\", got {kind!r}")
        locations[sid], kinds[sid] = location, kind
    return locations, kinds


def _bad_cell(cells) -> str:
    """Name the first of a row's ``BATCH_COLUMNS`` cells that does not parse."""
    for name, cell in zip(BATCH_COLUMNS, cells):
        parse = int if name in ("sensor_id", "epoch_index") else float
        if name == "rng_m" and not cell.strip():
            continue
        try:
            parse(cell)
        except ValueError:
            return f"column {name}: {cell!r} is not a number"
