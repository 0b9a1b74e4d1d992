"""Cartesian/spherical conversions and rotation parametrizations.

All Cartesian coordinates are expressed in a local-level NED-style frame:
x north, y east, z down, right-handed.  Azimuth is measured in the x-y
plane from +x toward +y, elevation from the x-y plane toward +z.  Euler
angles follow the intrinsic Z-Y-X (yaw, pitch, roll) convention.
"""

from typing import NamedTuple

import numpy as np

from .errors import GimbalLockError, ZeroVectorError

ZERO_NORM_TOL = 1e-12
GIMBAL_TOL = 1e-9
ROTATION_TOL = 1e-9


class Spherical(NamedTuple):
    """Spherical coordinates (range in meters, angles in radians).

    Fields hold arrays when produced from stacked Cartesian input.
    """

    rng: object
    az: object
    el: object


class EulerAngles(NamedTuple):
    """Intrinsic Z-Y-X Euler angles in radians: yaw, pitch, roll (arrays for a stack)."""

    psi: float
    theta: float
    phi: float


def wrap_angle(angle):
    """Wrap an angle (or array of angles) to (-pi, pi].

    The value is pi - mod(pi - angle, 2 pi) to the bit; the mod is the
    identity on [0, 2 pi), so only the entries outside it (and NaN) pay
    for one.
    """
    turned = np.pi - np.asarray(angle, dtype=float)
    if turned.size and not (np.minimum.reduce(turned, axis=None) >= 0.0
                            and np.maximum.reduce(turned, axis=None) < 2.0 * np.pi):
        turned = np.array(turned)  # writable, for a scalar too
        np.mod(turned, 2.0 * np.pi, out=turned,
               where=~((turned >= 0.0) & (turned < 2.0 * np.pi)))
    return np.pi - turned


def cart_to_spherical(p) -> Spherical:
    """Convert Cartesian positions to range/azimuth/elevation.

    Parameters
    ----------
    p : array_like, shape (3,) or (..., 3)
        Position in meters.

    Returns
    -------
    Spherical
        Range in meters, azimuth in (-pi, pi] (four-quadrant), elevation
        in [-pi/2, pi/2].  Scalar fields for a single vector, arrays for
        stacked input.

    Raises
    ------
    ZeroVectorError
        If any input vector has norm below 1e-12 (angles undefined).
    """
    p = np.asarray(p, dtype=float)
    rng = np.linalg.norm(p, axis=-1)
    if np.any(rng < ZERO_NORM_TOL):
        raise ZeroVectorError("cannot take angles of a zero-length vector")
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    az = np.arctan2(y, x)
    el = np.arctan2(z, np.hypot(x, y))
    if p.ndim == 1:
        return Spherical(float(rng), float(az), float(el))
    return Spherical(rng, az, el)


def direction_from_angles(az, el) -> np.ndarray:
    """Unit direction vector(s) for azimuth/elevation angles.

    Broadcasts over array input; the last axis of the result has size 3.
    """
    az = np.asarray(az, dtype=float)
    el = np.asarray(el, dtype=float)
    ce = np.cos(el)
    return np.stack([ce * np.cos(az), ce * np.sin(az), np.sin(el)], axis=-1)


def euler_to_rotation(angles) -> np.ndarray:
    """Rotation matrix for intrinsic Z-Y-X Euler angles.

    R = Rz(psi) @ Ry(theta) @ Rx(phi), proper orthogonal.  Broadcasts:
    a (..., 3) stack of angle triples gives (..., 3, 3) matrices.
    """
    angles = np.asarray(angles, dtype=float)
    # .T takes the angle axis first, and the second .T puts the entries last
    (cz, cy, cx), (sz, sy, sx) = np.cos(angles).T, np.sin(angles).T
    return np.array([cz * cy, cz * sy * sx - sz * cx, cz * sy * cx + sz * sx,
                     sz * cy, sz * sy * sx + cz * cx, sz * sy * cx - cz * sx,
                     -sy, cy * sx, cy * cx]).T.reshape(angles.shape[:-1] + (3, 3))


def rotation_to_euler(rot) -> EulerAngles:
    """Recover intrinsic Z-Y-X Euler angles from a rotation matrix.

    Returns yaw and roll in (-pi, pi], pitch in [-pi/2, pi/2]: floats for
    one (3, 3) matrix, arrays for a (..., 3, 3) stack.

    Raises
    ------
    GimbalLockError
        If any pitch is within ~1e-9 of +/-90 deg, where yaw and roll are
        not separately observable.
    """
    rot = np.asarray(rot, dtype=float)
    if np.any(np.abs(rot[..., 2, 0]) >= 1.0 - GIMBAL_TOL):
        raise GimbalLockError("pitch at +/-90 deg, yaw/roll not unique")
    theta = np.arcsin(-rot[..., 2, 0])
    psi = wrap_angle(np.arctan2(rot[..., 1, 0], rot[..., 0, 0]))
    phi = wrap_angle(np.arctan2(rot[..., 2, 1], rot[..., 2, 2]))
    if rot.ndim == 2:
        return EulerAngles(float(psi), float(theta), float(phi))
    return EulerAngles(psi, theta, phi)


def rotation_from_rotvec(rotvec) -> np.ndarray:
    """Rotation matrix for a rotation vector (axis * angle, radians).

    Broadcasts: a (..., 3) stack of vectors gives (..., 3, 3) matrices.
    """
    rotvec = np.asarray(rotvec, dtype=float)
    k = skew(rotvec)
    # below 1e-12 only the first-order term is left in double precision,
    # and the coefficients taken at 1e-12 are exactly 1 and 0
    angle = np.sqrt(np.sum(rotvec * rotvec, axis=-1))[..., np.newaxis, np.newaxis]
    angle = np.maximum(angle, 1e-12)
    rot = (np.sin(angle) / angle) * k + ((1.0 - np.cos(angle)) / (angle * angle)) * (k @ k)
    rot.reshape(rot.shape[:-2] + (9,))[..., ::4] += 1.0  # + I
    return rot


def skew(v) -> np.ndarray:
    """Skew-symmetric cross-product matrix of a 3-vector.

    Broadcasts: a (..., 3) stack of vectors gives (..., 3, 3) matrices.
    """
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def is_rotation_matrix(rot, tol: float = ROTATION_TOL) -> bool:
    """True if ``rot`` is orthogonal with determinant +1 within ``tol``."""
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        return False
    ortho = np.max(np.abs(rot.T @ rot - np.eye(3)))
    return bool(ortho <= tol and abs(np.linalg.det(rot) - 1.0) <= tol)


def geodesic_angle(rot_a, rot_b):
    """Angle in radians of the rotation taking ``rot_a`` to ``rot_b``.

    Computed as atan2 of the rotation's sine (from the antisymmetric
    part) and cosine (from the trace), which stays accurate for angles
    near zero where the plain arccos form loses ~8 digits.  Broadcasts
    over (..., 3, 3) stacks: a float for two matrices, else an array.
    """
    rot_a = np.asarray(rot_a, dtype=float)
    rot_b = np.asarray(rot_b, dtype=float)
    d = np.swapaxes(rot_a, -1, -2) @ rot_b
    anti = d - np.swapaxes(d, -1, -2)  # 2 sin(angle) [axis]x: entries squared sum to 8 sin^2
    cosine = (np.trace(d, axis1=-2, axis2=-1) - 1.0) / 2.0
    angle = np.arctan2(np.sqrt(np.sum(anti * anti, axis=(-2, -1)) / 8.0), cosine)
    return float(angle) if angle.ndim == 0 else angle


def collinearity_ratio(points) -> float:
    """Spread of a point set transverse to its dominant axis.

    Returns sigma_2 / sigma_1 of the centered coordinates (second and
    largest singular values).  Near zero means the points are close to
    a straight line.
    """
    points = np.asarray(points, dtype=float)
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] < ZERO_NORM_TOL:
        return 0.0
    return float(sv[1] / sv[0])
