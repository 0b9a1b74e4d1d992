"""Synthetic flight scenario and sensor measurement generation.

A single target flies one fixed climbing racetrack of straight legs and
constant-rate turns; only its duration and sample period can be chosen.
Sensors at fixed locations observe it through their own biased local
frames with additive Gaussian measurement noise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calibration import MeasurementBatch
from .errors import DegenerateInputError
from .geometry import (EulerAngles, cart_to_spherical, collinearity_ratio,
                       euler_to_rotation, wrap_angle)

MIN_SPREAD_RATIO = 0.01
PLACEMENT_POOL = 10

# the racetrack as (duration s, turn rate rad/s) legs, flown in a loop from
# START along +x: 120 s out, a 180-degree turn in 60 s, 120 s back, the
# same turn again; coordinates are NED, so the climb decreases z
LEGS = ((120.0, 0.0), (60.0, math.pi / 60.0), (120.0, 0.0), (60.0, math.pi / 60.0))
SPEED = 100.0       # m/s, horizontal
CLIMB_RATE = 10.0   # m/s
START = (0.0, 0.0, -1000.0)
# far beyond any study (the default flight spans 90 periods), but it stops
# a typo such as a 1e300 s duration before numpy fails to allocate it
MAX_PERIODS = 10**6


def epoch_count(duration, sample_period) -> int:
    """Samples of ``generate_trajectory``: one at time 0 and one after each of
    the 1 to ``MAX_PERIODS`` whole sample periods that ``duration`` must span."""
    if not sample_period > 0.0:
        raise ValueError(f"sample period must be positive, got {sample_period}")
    ratio = duration / sample_period
    if not 1.0 <= ratio <= MAX_PERIODS:
        raise ValueError(f"duration must be 1 to {MAX_PERIODS} sample periods, got {ratio:g}")
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError(f"duration must be a whole number of sample periods, got {ratio:g}")
    return int(round(ratio)) + 1


def _chord(heading, rate, dt):
    """The (..., 2) horizontal move of ``dt`` s at ``SPEED`` from ``heading``
    at turn ``rate``: a chord SPEED dt sinc(rate dt / 2) long along heading
    + rate dt / 2, which for a rate of 0 is the straight segment itself."""
    half = 0.5 * rate * dt
    length = SPEED * dt * np.sinc(half / np.pi)
    return length[..., np.newaxis] * np.stack([np.cos(heading + half), np.sin(heading + half)], -1)


def generate_trajectory(duration=900.0, sample_period=10.0) -> np.ndarray:
    """Sample the racetrack uniformly, returning (n, 3) positions in meters.

    Each sample is placed in closed form from its time: its lap, its leg
    and its time into that leg give a point on a line segment or a
    circular arc, so ground speed is ``SPEED`` at every instant and a
    finer sampling passes exactly through the points of a coarser one.
    Vertical motion is a constant climb.  ``epoch_count`` gives n.
    """
    n = epoch_count(duration, sample_period)
    durations, rates = np.array(LEGS).T
    ends = np.cumsum(durations)
    headings = np.cumsum(rates * durations) - rates * durations
    chords = _chord(headings, rates, durations)
    corners = np.cumsum(chords, axis=0) - chords  # each leg's start, from START
    # a lap turns through whole turns, so laps differ only by its displacement
    lap_shift = chords.sum(axis=0)
    times = np.arange(n) * sample_period
    lap, into = np.divmod(times, ends[-1])
    leg = np.searchsorted(ends, into, side="right")
    xy = (START[:2] + lap[:, np.newaxis] * lap_shift + corners[leg]
          + _chord(headings[leg], rates[leg], into - (ends - durations)[leg]))
    return np.column_stack([xy, START[2] - CLIMB_RATE * times])


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
        if not all(sigma >= 0.0 for sigma in (self.sigma_range, self.sigma_az, self.sigma_el)):
            raise ValueError("noise sigmas must be nonnegative")


@dataclass(frozen=True)
class ScenarioTruth:
    """What the simulator knows and calibration must not see."""

    target_positions: np.ndarray
    rotations: np.ndarray  # (S, 3, 3), the sensors' correcting rotations
    biases: list


def build_batch(trajectory, sensors, seed) -> tuple:
    """Simulate a full measurement batch.

    Parameters
    ----------
    trajectory : (n, 3) array
        Target positions, such as ``generate_trajectory()``.
    sensors : sequence of SensorTruth
    seed : int or numpy SeedSequence
        Each sensor draws its noise from an independent child stream,
        so batches are reproducible regardless of sensor order or kind.

    Returns
    -------
    (MeasurementBatch, ScenarioTruth)
    """
    points = np.asarray(trajectory, dtype=float)
    n = points.shape[0]
    seed = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    noise = np.stack([np.random.default_rng(child).normal(size=(n, 3))
                      for child in seed.spawn(len(sensors))])
    sigmas = np.array([[s.sigma_range, s.sigma_az, s.sigma_el] for s in sensors])
    rotations = euler_to_rotation([s.bias for s in sensors])
    locations = np.array([s.location for s in sensors], dtype=float)

    rel = points - locations[:, np.newaxis]
    near = np.linalg.norm(rel, axis=-1) < 1.0
    if near.any():
        epoch, sensor = np.argwhere(near.T)[0]
        raise ValueError(f"trajectory passes through a sensor location: sensor {sensor} "
                         f"is within 1 m of the target at epoch {epoch}")
    sph = cart_to_spherical(rel @ rotations)
    rng_m = sph.rng + sigmas[:, 0:1] * noise[..., 0]
    az = wrap_angle(sph.az + sigmas[:, 1:2] * noise[..., 1])
    el = sph.el + sigmas[:, 2:3] * noise[..., 2]
    bearing_only = np.array([[s.kind == "2d"] for s in sensors])
    batch = MeasurementBatch(az=az, el=el, rng=np.where(bearing_only, np.nan, rng_m),
                             locations=locations)
    truth = ScenarioTruth(target_positions=points, rotations=rotations,
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
    seed are nested subsets.  Raises ``DegenerateInputError`` if no
    draw of 200 gives such a pool.
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
    raise DegenerateInputError(f"cannot draw {count} non-collinear sensor locations "
                               f"in a box of {list(box)} m")


def sample_biases(count, rng, low=math.radians(1.0), high=math.radians(4.0)) -> list:
    """Draw per-sensor Euler-angle biases.

    Each angle's magnitude is uniform in [low, high] radians with an
    independent random sign.
    """
    mags = rng.uniform(low, high, size=(count, 3))
    signs = rng.integers(0, 2, size=(count, 3)) * 2 - 1
    return [EulerAngles(*row) for row in (signs * mags)]
