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

import csv
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
        """Unit-norm, canonical-sign representative of this rotation.

        On w == 0 exactly, the sign is fixed so the largest-magnitude
        vector component is positive (ties broken in x, y, z order),
        which keeps antipodal handling deterministic.
        """
        n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if n < _EPS:
            return Quat.identity()
        w, x, y, z = self.w / n, self.x / n, self.y / n, self.z / n
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        elif w == 0.0:
            comps = (x, y, z)
            lead = max(range(3), key=lambda i: (abs(comps[i]), -i))
            if comps[lead] < 0.0:
                x, y, z = -x, -y, -z
        return Quat(w, x, y, z)

    def __mul__(self, other: "Quat") -> "Quat":
        """Hamilton product, renormalized."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quat(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ).normalized()

    def conjugate(self) -> "Quat":
        return Quat(self.w, -self.x, -self.y, -self.z).normalized()

    def rotate(self, v) -> np.ndarray:
        """Rotate a 3-vector from body to world frame."""
        v = np.asarray(v, dtype=float)
        qv = np.array([self.x, self.y, self.z])
        t = 2.0 * np.cross(qv, v)
        return v + self.w * t + np.cross(qv, t)

    def to_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

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
    def from_axis_angle(axis, angle: float) -> "Quat":
        axis = np.asarray(axis, dtype=float)
        n = float(np.linalg.norm(axis))
        if n < _EPS:
            return Quat.identity()
        half = 0.5 * angle
        s = math.sin(half) / n
        return Quat(math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s).normalized()

    @staticmethod
    def from_rotvec(rv) -> "Quat":
        rv = np.asarray(rv, dtype=float)
        angle = float(np.linalg.norm(rv))
        if angle < _EPS:
            # first-order quaternion keeps tiny increments exact to O(angle^2)
            return Quat(1.0, 0.5 * rv[0], 0.5 * rv[1], 0.5 * rv[2]).normalized()
        return Quat.from_axis_angle(rv / angle, angle)

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

    @staticmethod
    def from_yaw(yaw: float) -> "Quat":
        return Quat.from_axis_angle([0.0, 0.0, 1.0], yaw)

    def yaw(self) -> float:
        r = self.to_matrix()
        return math.atan2(r[1, 0], r[0, 0])


@dataclass(frozen=True)
class Pose:
    """Rigid transform (position + orientation) with a timestamp."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: Quat = field(default_factory=Quat.identity)
    stamp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if not np.all(np.isfinite(self.position)) or not math.isfinite(self.stamp):
            raise ValueError("pose fields must be finite")

    @staticmethod
    def identity(stamp: float = 0.0) -> "Pose":
        return Pose(np.zeros(3), Quat.identity(), stamp)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous transform."""
        m = np.eye(4)
        m[:3, :3] = self.orientation.to_matrix()
        m[:3, 3] = self.position
        return m


@dataclass(frozen=True)
class Twist:
    """Linear [m/s] and body-frame angular [rad/s] velocity."""

    linear: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float))
        object.__setattr__(self, "angular", np.asarray(self.angular, dtype=float))
        if not (np.all(np.isfinite(self.linear)) and np.all(np.isfinite(self.angular))):
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


def partial_rotation(q_from: Quat, q_to: Quat, weight: float) -> Quat:
    """Rotate `q_from` a fraction `weight` of the way toward `q_to`.

    Travels along the shorter geodesic; weight 0 returns q_from,
    weight 1 returns q_to (up to the canonical sign).
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must be in [0, 1], got {weight}")
    rel = (q_from.conjugate() * q_to).normalized()
    rv = rel.as_rotvec()
    return (q_from * Quat.from_rotvec(weight * rv)).normalized()


def row_dot(a, b) -> np.ndarray:
    """Row-wise dot product over the last axis, broadcasting the rest.

    Each row goes through the kernel of a 1-D `a @ b`, so the sums round
    as that does, and `np.sqrt(row_dot(v, v))` as `np.linalg.norm(v)`
    does for one vector. BLAS's ddot may fuse multiply-adds: with
    OpenBLAS on x86-64, a hand-written `a0*b0 + a1*b1 + a2*b2` rounds
    differently in about a third of random cases.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


TRAJECTORY_HEADER = ["t", "x", "y", "z", "qw", "qx", "qy", "qz"]


def write_trajectory_csv(path, poses) -> None:
    """Trajectory record: fixed decimal notation, 12 places (>= 9 significant)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRAJECTORY_HEADER)
        for p in poses:
            q = p.orientation
            row = [p.stamp, *p.position, q.w, q.x, q.y, q.z]
            writer.writerow([f"{v:.12f}" for v in row])


def read_trajectory_csv(path) -> list[Pose]:
    poses = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"unexpected trajectory header: {header}")
        for row in reader:
            t, x, y, z, qw, qx, qy, qz = map(float, row)
            poses.append(Pose(np.array([x, y, z]), Quat(qw, qx, qy, qz).normalized(), t))
    return poses
