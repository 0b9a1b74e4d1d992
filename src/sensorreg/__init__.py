"""Angular misalignment registration for multi-sensor tracking networks.

Estimates one fixed correcting rotation per sensor from shared target
observations: alternating optimal-rotation (Wahba) updates for sensors
with range measurements, and a joint Gauss-Newton solve over rotations
and target positions for bearing-only sensors.  Includes a
flight-scenario simulator and a seeded Monte-Carlo experiment harness.
"""

from .calibration import (CalibrationResult, MeasurementBatch,
                          SensorMeasurements, StoppingCriteria, absolute_2d,
                          absolute_2d_pair, absolute_3d, absolute_3d_pair,
                          pairwise_cost, relative_3d, relative_hetero)
from .errors import (ConfigError, DegenerateInputError, ExperimentError,
                     GimbalLockError, IllConditionedError, MissingRangeError,
                     NoConvergenceError, RegistrationError, TriangulationError,
                     ZeroVectorError)
from .experiments import (ErrorReport, ExperimentConfig, RunRecord,
                          emit_reports, emit_sweep_reports, read_batch,
                          run_experiment, sweep, write_batch)
from .geometry import (EulerAngles, Spherical, cart_to_spherical,
                       collinearity_ratio, direction_from_angles,
                       euler_to_rotation, geodesic_angle, is_rotation_matrix,
                       rotation_from_rotvec, rotation_to_euler,
                       spherical_to_cart, wrap_angle)
from .scenario import (Leg, ScenarioTruth, SensorTruth, TrajectorySpec,
                       build_batch, generate_trajectory, observe,
                       sample_biases, sample_sensor_locations)
from .triangulation import (BearingSet, TriangulationFix, bearing_residuals,
                            triangulate, triangulate_batch)
from .wahba import solve_wahba, wahba_cost

__version__ = "0.1.0"

__all__ = [
    "BearingSet", "CalibrationResult", "ConfigError", "DegenerateInputError",
    "ErrorReport", "EulerAngles", "ExperimentConfig", "ExperimentError",
    "GimbalLockError", "IllConditionedError", "Leg", "MeasurementBatch",
    "MissingRangeError", "NoConvergenceError", "RegistrationError",
    "RunRecord", "ScenarioTruth", "SensorMeasurements", "SensorTruth",
    "Spherical", "StoppingCriteria", "TrajectorySpec", "TriangulationError",
    "TriangulationFix", "ZeroVectorError", "absolute_2d", "absolute_2d_pair",
    "absolute_3d", "absolute_3d_pair", "bearing_residuals", "build_batch",
    "cart_to_spherical", "collinearity_ratio", "direction_from_angles",
    "emit_reports", "emit_sweep_reports", "euler_to_rotation",
    "generate_trajectory", "geodesic_angle", "is_rotation_matrix", "observe",
    "pairwise_cost", "read_batch", "relative_3d", "relative_hetero",
    "rotation_from_rotvec", "rotation_to_euler", "run_experiment",
    "sample_biases", "sample_sensor_locations", "solve_wahba",
    "spherical_to_cart", "sweep", "triangulate", "triangulate_batch",
    "wahba_cost", "wrap_angle", "write_batch",
]
