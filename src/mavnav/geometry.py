"""Rigid-body geometry shared by every other module.

Conventions (used everywhere, never redefined):
    - Quaternions are Hamilton, scalar-first [w, x, y, z], body-to-world:
      ``v_world = q.rotate(v_body)``.
    - Every public operation renormalizes and returns the canonical
      representative with w >= 0, so long integration chains cannot drift
      off the unit sphere and the double cover never leaks sign bugs.
    - Poses carry a timestamp in seconds; composition keeps the stamp of
      the right-hand (later-applied-first) operand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_EPS = 1e-12


@dataclass(frozen=True)
class Quat:
    """Unit quaternion, Hamilton convention, scalar first, canonical w >= 0."""

    w: float = 1.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        if not (
            math.isfinite(self.w) and math.isfinite(self.x)
            and math.isfinite(self.y) and math.isfinite(self.z)
        ):
            raise ValueError("quaternion components must be finite")

    @staticmethod
    def identity() -> "Quat":
        return Quat(1.0, 0.0, 0.0, 0.0)

    def normalized(self) -> "Quat":
        """Unit-norm, canonical-sign representative of this rotation
        (see `quat_normalize`)."""
        return Quat(*quat_normalize(self.w, self.x, self.y, self.z))

    def __mul__(self, other: "Quat") -> "Quat":
        """Hamilton product, renormalized."""
        return Quat(*quat_mul((self.w, self.x, self.y, self.z),
                              (other.w, other.x, other.y, other.z))).normalized()

    def conjugate(self) -> "Quat":
        return Quat(self.w, -self.x, -self.y, -self.z).normalized()

    def rotate(self, v) -> np.ndarray:
        """Rotate a 3-vector from body to world frame."""
        return np.array(quat_rotate((self.w, self.x, self.y, self.z),
                                    np.asarray(v, dtype=float).tolist()))

    def to_matrix(self) -> np.ndarray:
        return rotation_matrix(self.w, self.x, self.y, self.z)

    @staticmethod
    def from_matrix(m) -> "Quat":
        """Quaternion of a 3x3 rotation matrix (Shepperd 1978).

        Solves for the largest of |w|, |x|, |y|, |z| first (four times its
        square is 1 + trace or 1 + 2 m_ii - trace, and at least 1), then
        divides the off-diagonal sums by it, so half turns keep their axis.
        """
        m = np.asarray(m, dtype=float)
        trace = m[0, 0] + m[1, 1] + m[2, 2]
        pivot = int(np.argmax([trace, m[0, 0], m[1, 1], m[2, 2]]))
        if pivot == 0:
            s = 2.0 * math.sqrt(1.0 + trace)  # 4w
            q = Quat(0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
                     (m[1, 0] - m[0, 1]) / s)
        elif pivot == 1:
            s = 2.0 * math.sqrt(1.0 + 2.0 * m[0, 0] - trace)  # 4x
            q = Quat((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
                     (m[0, 2] + m[2, 0]) / s)
        elif pivot == 2:
            s = 2.0 * math.sqrt(1.0 + 2.0 * m[1, 1] - trace)  # 4y
            q = Quat((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
                     (m[1, 2] + m[2, 1]) / s)
        else:
            s = 2.0 * math.sqrt(1.0 + 2.0 * m[2, 2] - trace)  # 4z
            q = Quat((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                     (m[1, 2] + m[2, 1]) / s, 0.25 * s)
        return q.normalized()

    @staticmethod
    def from_rotvec(rv) -> "Quat":
        return Quat(*quat_from_rotvec(np.asarray(rv, dtype=float).tolist()))

    def as_rotvec(self) -> np.ndarray:
        """Rotation vector of the canonical representative, angle in [0, pi]."""
        q = self.normalized()
        vn = math.sqrt(q.x**2 + q.y**2 + q.z**2)
        if vn < _EPS:
            return np.array([2.0 * q.x, 2.0 * q.y, 2.0 * q.z])
        angle = 2.0 * math.atan2(vn, q.w)
        return np.array([q.x, q.y, q.z]) * (angle / vn)

    def angle_to(self, other: "Quat") -> float:
        """Geodesic angle in [0, pi] between two rotations."""
        rel = self.conjugate() * other
        return float(np.linalg.norm(rel.as_rotvec()))


@dataclass(frozen=True)
class Pose:
    """Rigid transform (position + orientation) with a timestamp."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: Quat = field(default_factory=Quat.identity)
    stamp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if not all(map(math.isfinite, (*self.position.ravel().tolist(), self.stamp))):
            raise ValueError("pose fields must be finite")

    @staticmethod
    def identity(stamp: float = 0.0) -> "Pose":
        return Pose(np.zeros(3), Quat.identity(), stamp)


@dataclass(frozen=True)
class Twist:
    """Linear [m/s] and body-frame angular [rad/s] velocity."""

    linear: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float))
        object.__setattr__(self, "angular", np.asarray(self.angular, dtype=float))
        values = self.linear.ravel().tolist() + self.angular.ravel().tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError("twist components must be finite")


def compose(a: Pose, b: Pose) -> Pose:
    """Rigid transform applying b first, then a. Stamp taken from b."""
    return Pose(
        a.position + a.orientation.rotate(b.position),
        (a.orientation * b.orientation).normalized(),
        b.stamp,
    )


def inverse(a: Pose) -> Pose:
    """Transform such that compose(a, inverse(a)) is the identity."""
    q_inv = a.orientation.conjugate()
    return Pose(-q_inv.rotate(a.position), q_inv, a.stamp)


def relative(a: Pose, b: Pose) -> Pose:
    """Pose of b expressed in the frame of a: inverse(a) o b."""
    return compose(inverse(a), b)


def row_dot(a, b) -> np.ndarray:
    """Row-wise dot product over the last axis, broadcasting the rest.

    Each row goes through the kernel of a 1-D `a @ b`, so the sums round
    as that does, and `np.sqrt(row_dot(v, v))` as `np.linalg.norm(v)`
    does for one vector. BLAS's ddot may fuse multiply-adds: with
    OpenBLAS on x86-64, a hand-written `a0*b0 + a1*b1 + a2*b2` rounds
    differently in about a third of random cases.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def point_rows(points, what: str) -> np.ndarray:
    """`points` as a finite (n, 3) float array; `[]` is the empty one.

    Any other shape, or a non-finite value, raises ValueError naming `what`.
    """
    arr = np.asarray(points, dtype=float)
    rows = arr.reshape(0, 3) if arr.shape == (0,) else arr
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"{what} must be an (n, 3) array, got shape {arr.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{what} must be finite")
    return rows


# -- plain-float kernels -------------------------------------------------
#
# Quaternions are (w, x, y, z) and 3-vectors (x, y, z) sequences of
# Python floats. These kernels round exactly as the numpy expressions of
# the same operation: `cross3` as `np.cross` on one pair, and every norm
# goes through a 1-D dot (see `row_dot`) as `np.linalg.norm` does, never
# through `x*x + y*y + z*z`. The `Quat` methods, the simulator's rigid-body
# step, the filter's prediction (`estimation._predict`) and the controller's
# step (`control.Controller.step`) share them.


def cross3(a, b) -> tuple:
    """Cross product of two 3-sequences."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def quat_normalize(w: float, x: float, y: float, z: float) -> tuple:
    """Unit-norm, canonical-sign representative of a quaternion.

    On w == 0 exactly, the sign is fixed so the largest-magnitude
    vector component is positive (ties broken in x, y, z order),
    which keeps antipodal handling deterministic. A norm below _EPS
    gives the identity. The squares are `**2` (libm's pow), which
    rounds differently from `x * x` for about one value in 1200.
    """
    n = math.sqrt(w**2 + x**2 + y**2 + z**2)
    if n < _EPS:
        return (1.0, 0.0, 0.0, 0.0)
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0:
        return (-w, -x, -y, -z)
    if w == 0.0:
        comps = (x, y, z)
        lead = max(range(3), key=lambda i: (abs(comps[i]), -i))
        if comps[lead] < 0.0:
            return (w, -x, -y, -z)
    return (w, x, y, z)


def quat_mul(a, b) -> tuple:
    """Hamilton product a * b, not renormalized."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_rotate(q, v) -> tuple:
    """v rotated by the unit quaternion q: v + 2w (u x v) + u x 2(u x v)."""
    w, x, y, z = q
    u = (x, y, z)
    c0, c1, c2 = cross3(u, v)
    t = (2.0 * c0, 2.0 * c1, 2.0 * c2)
    d0, d1, d2 = cross3(u, t)
    v0, v1, v2 = v
    return (v0 + w * t[0] + d0, v1 + w * t[1] + d1, v2 + w * t[2] + d2)


def rotation_matrix(w: float, x: float, y: float, z: float) -> np.ndarray:
    """Rotation matrix of (w, x, y, z) as given, built from one flat tuple:
    C-ordered as a nested-list array is, so `.T @ u` takes the same gemv."""
    return np.array((1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
                     2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
                     2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y))
                    ).reshape(3, 3)


def _norm(v) -> float:
    a = np.array(v)
    return math.sqrt(a.dot(a))  # as np.linalg.norm; `a @ a` rounds alike but is slower


def quat_from_axis_angle(axis, angle: float) -> tuple:
    """Unit quaternion of a turn by `angle` about `axis` (any length);
    the identity for an axis shorter than _EPS."""
    n = _norm(axis)
    if n < _EPS:
        return (1.0, 0.0, 0.0, 0.0)
    a0, a1, a2 = axis
    half = 0.5 * angle
    s = math.sin(half) / n
    return quat_normalize(math.cos(half), a0 * s, a1 * s, a2 * s)


def quat_from_rotvec(rv) -> tuple:
    """Unit quaternion of the rotation vector rv.

    Below an angle of _EPS the first-order quaternion keeps tiny
    increments exact to O(angle^2).
    """
    r0, r1, r2 = rv
    angle = _norm(rv)
    if angle < _EPS:
        return quat_normalize(1.0, 0.5 * r0, 0.5 * r1, 0.5 * r2)
    return quat_from_axis_angle((r0 / angle, r1 / angle, r2 / angle), angle)
