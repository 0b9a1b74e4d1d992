"""Synthetic flight scenario and sensor measurement generation.

A single target flies a climbing racetrack: constant-speed straight
legs alternating with constant-rate coordinated turns, at a steady
climb.  Sensors at fixed locations observe it through their own biased
local frames with additive Gaussian measurement noise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calibration import MeasurementBatch, SensorMeasurements
from .geometry import (EulerAngles, cart_to_spherical, collinearity_ratio,
                       euler_to_rotation, wrap_angle)

MIN_SPREAD_RATIO = 0.01
PLACEMENT_POOL = 10


@dataclass(frozen=True)
class Leg:
    """One trajectory segment: fly straight or turn at a constant rate."""

    kind: str                # "straight" | "turn"
    duration: float          # seconds
    turn_rate: float = 0.0   # rad/s, only used for "turn"

    def __post_init__(self):
        if self.kind not in ("straight", "turn"):
            raise ValueError(f"unknown leg kind {self.kind!r}")
        if self.duration <= 0.0:
            raise ValueError("leg duration must be positive")


# 120 s out, 180-degree turn in 60 s, 120 s back, turn again: a racetrack
DEFAULT_LEGS = (
    Leg("straight", 120.0),
    Leg("turn", 60.0, math.pi / 60.0),
    Leg("straight", 120.0),
    Leg("turn", 60.0, math.pi / 60.0),
)


@dataclass(frozen=True)
class TrajectorySpec:
    """Climbing racetrack parameters.

    Coordinates are NED, so a positive ``vertical_speed`` climbs by
    decreasing z.  ``legs`` repeat cyclically until ``duration`` is
    filled; sampling is uniform at ``sample_period``.
    """

    vertical_speed: float = 10.0
    horizontal_speed: float = 100.0
    duration: float = 900.0
    sample_period: float = 10.0
    legs: tuple = DEFAULT_LEGS
    start: tuple = (0.0, 0.0, -1000.0)
    initial_heading: float = 0.0

    def __post_init__(self):
        if self.horizontal_speed <= 0.0 or self.sample_period <= 0.0:
            raise ValueError("horizontal_speed and sample_period must be positive")
        ratio = self.duration / self.sample_period
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("duration must be an integer number of sample periods")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.sample_period)) + 1


def generate_trajectory(spec: TrajectorySpec) -> np.ndarray:
    """Sample the trajectory, returning (n, 3) positions in meters.

    Horizontal motion integrates each leg exactly (line segments and
    circular arcs), so ground speed is ``horizontal_speed`` at every
    instant; vertical motion is a constant climb.
    """
    n = spec.n_samples
    v = spec.horizontal_speed
    out = np.empty((n, 3))
    out[0, :2] = spec.start[:2]

    x, y = float(spec.start[0]), float(spec.start[1])
    heading = float(spec.initial_heading)
    leg_idx = 0
    leg_left = spec.legs[0].duration
    for k in range(1, n):
        remaining = spec.sample_period
        while remaining > 1e-9:
            dt = min(remaining, leg_left)
            leg = spec.legs[leg_idx]
            if leg.kind == "turn" and abs(leg.turn_rate) > 1e-12:
                radius = v / leg.turn_rate
                new_heading = heading + leg.turn_rate * dt
                x += radius * (math.sin(new_heading) - math.sin(heading))
                y -= radius * (math.cos(new_heading) - math.cos(heading))
                heading = new_heading
            else:
                x += v * dt * math.cos(heading)
                y += v * dt * math.sin(heading)
            remaining -= dt
            leg_left -= dt
            if leg_left <= 1e-9:
                leg_idx = (leg_idx + 1) % len(spec.legs)
                leg_left = spec.legs[leg_idx].duration
        out[k, 0] = x
        out[k, 1] = y

    times = np.arange(n) * spec.sample_period
    out[:, 2] = spec.start[2] - spec.vertical_speed * times
    return out


@dataclass(frozen=True)
class SensorTruth:
    """Ground-truth description of one sensor for simulation.

    ``bias`` gives the correcting rotation's Euler angles: the rotation
    euler_to_rotation(bias) maps the sensor's local coordinates back to
    the common frame, and its transpose is what distorts truth into the
    sensor's measurements.  Noise sigmas are meters and radians; a "2d"
    sensor reports bearings only.
    """

    location: tuple
    kind: str = "3d"
    bias: EulerAngles = EulerAngles(0.0, 0.0, 0.0)
    sigma_range: float = 0.0
    sigma_az: float = 0.0
    sigma_el: float = 0.0

    def __post_init__(self):
        if self.kind not in ("2d", "3d"):
            raise ValueError(f"unknown sensor kind {self.kind!r}")
        if min(self.sigma_range, self.sigma_az, self.sigma_el) < 0.0:
            raise ValueError("noise sigmas must be nonnegative")

    @property
    def location_array(self) -> np.ndarray:
        return np.asarray(self.location, dtype=float)

    @property
    def correcting_rotation(self) -> np.ndarray:
        """Local-to-common rotation (what calibration should recover)."""
        return euler_to_rotation(self.bias)


@dataclass(frozen=True)
class ScenarioTruth:
    """What the simulator knows and calibration must not see."""

    target_positions: np.ndarray
    rotations: list
    biases: list


def build_batch(trajectory, sensors, seed) -> tuple:
    """Simulate a full measurement batch.

    Parameters
    ----------
    trajectory : TrajectorySpec or (n, 3) array
        Target positions, generated first when a TrajectorySpec is given.
    sensors : sequence of SensorTruth
    seed : int or numpy SeedSequence
        Each sensor draws its noise from an independent child stream,
        so batches are reproducible regardless of sensor order or kind.

    Returns
    -------
    (MeasurementBatch, ScenarioTruth)
    """
    if isinstance(trajectory, TrajectorySpec):
        points = generate_trajectory(trajectory)
    else:
        points = np.asarray(trajectory, dtype=float)
    n = points.shape[0]
    seed = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = seed.spawn(len(sensors))

    measurements = []
    for sensor, child in zip(sensors, children):
        rel = points - sensor.location_array
        if np.any(np.linalg.norm(rel, axis=1) < 1.0):
            raise ValueError("trajectory passes through a sensor location")
        local = rel @ sensor.correcting_rotation
        sph = cart_to_spherical(local)
        noise = np.random.default_rng(child).normal(size=(n, 3))
        az = wrap_angle(sph.az + sensor.sigma_az * noise[:, 1])
        el = sph.el + sensor.sigma_el * noise[:, 2]
        if sensor.kind == "3d":
            rng_m = sph.rng + sensor.sigma_range * noise[:, 0]
            measurements.append(SensorMeasurements(az=az, el=el, rng=rng_m))
        else:
            measurements.append(SensorMeasurements(az=az, el=el))

    batch = MeasurementBatch(
        sensors=tuple(measurements),
        locations=np.stack([s.location_array for s in sensors]))
    truth = ScenarioTruth(target_positions=points,
                          rotations=[s.correcting_rotation for s in sensors],
                          biases=[s.bias for s in sensors])
    return batch, truth


def sample_sensor_locations(count, seed, center=(0.0, 0.0),
                            box=(20000.0, 20000.0, 1000.0)) -> np.ndarray:
    """Draw a well-spread random sensor constellation.

    Locations are uniform in a box of the given (x, y, z) extents in
    meters, centered horizontally on ``center`` with altitudes in
    [0, z-extent] (z in [-extent, 0] in NED).  A fixed-size pool is
    drawn and every prefix of 3+ sensors is required to be clearly
    non-collinear, so constellations for different counts from the same
    seed are nested subsets.
    """
    pool_size = max(PLACEMENT_POOL, count)
    rng = np.random.default_rng(seed)
    half = np.asarray(box, dtype=float) / 2.0
    for _ in range(200):
        pool = rng.uniform(-1.0, 1.0, size=(pool_size, 3)) * half
        pool[:, 0] += center[0]
        pool[:, 1] += center[1]
        pool[:, 2] -= half[2]   # altitudes in [0, box_z], i.e. z in [-box_z, 0]
        if all(collinearity_ratio(pool[:k]) > MIN_SPREAD_RATIO
               for k in range(3, pool_size + 1)):
            return pool[:count]
    raise RuntimeError("failed to draw a non-collinear sensor constellation")


def sample_biases(count, rng, low=math.radians(1.0), high=math.radians(4.0)) -> list:
    """Draw per-sensor Euler-angle biases.

    Each angle's magnitude is uniform in [low, high] radians with an
    independent random sign.
    """
    mags = rng.uniform(low, high, size=(count, 3))
    signs = rng.integers(0, 2, size=(count, 3)) * 2 - 1
    return [EulerAngles(*row) for row in (signs * mags)]
