"""Angular misalignment registration for multi-sensor tracking networks.

Estimates one fixed correcting rotation per sensor from shared target
observations: two sweeps of optimal-rotation (Wahba) updates, one
sensor at a time, then Gauss-Newton steps on all rotations, for
sensors with range measurements, and a joint Gauss-Newton solve over
rotations and target positions for bearing-only sensors, a pair as well
as a network, started from each sensor pair's epipolar geometry where
the rays fix it.  Includes a flight-scenario simulator and a seeded
Monte-Carlo experiment harness.
"""

# the names the README, the demos and the command line import
from .calibration import (ALGORITHMS, MeasurementBatch, SensorMeasurements,
                          StoppingCriteria, absolute_2d, absolute_3d,
                          relative_3d, relative_hetero)
from .errors import GimbalLockError, RegistrationError
from .experiments import (SWEEP_AXES, ExperimentConfig, emit_reports,
                          emit_sweep_reports, read_batch, realizations,
                          run_experiment, sweep, write_batch)
from .geometry import (EulerAngles, cart_to_spherical, euler_to_rotation,
                       geodesic_angle, rotation_to_euler)
from .scenario import (SensorTruth, build_batch, generate_trajectory,
                       sample_biases, sample_sensor_locations)
from .triangulation import BearingSet, triangulate
from .wahba import solve_wahba, wahba_cost

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "BearingSet", "EulerAngles", "ExperimentConfig",
    "GimbalLockError", "MeasurementBatch", "RegistrationError", "SWEEP_AXES",
    "SensorMeasurements", "SensorTruth", "StoppingCriteria", "absolute_2d",
    "absolute_3d", "build_batch", "cart_to_spherical", "emit_reports",
    "emit_sweep_reports", "euler_to_rotation", "generate_trajectory",
    "geodesic_angle", "read_batch", "realizations", "relative_3d",
    "relative_hetero", "rotation_to_euler", "run_experiment", "sample_biases",
    "sample_sensor_locations", "solve_wahba", "sweep", "triangulate",
    "wahba_cost", "write_batch",
]
