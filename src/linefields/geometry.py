"""Core 2D geometric primitives shared by the whole pipeline.

Conventions: image coordinates have their origin at the top-left corner,
x grows rightward, y grows downward, units are pixels. Angles are radians.
A segment's orientation is only meaningful modulo pi unless an oriented
angle is explicitly requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "TWO_PI",
    "Point2",
    "LineSegment",
    "Homography",
    "CameraIntrinsics",
    "wrap_angle",
    "circular_distance",
    "point_segment_distance",
    "orthogonal_distance",
    "d_vp",
    "apply_homography",
    "clip_segment_to_rect",
    "segments_to_array",
]

TWO_PI = 2.0 * math.pi

# Below this, cross products / determinants are treated as degenerate.
_DEGENERATE_EPS = 1e-12


class Point2(NamedTuple):
    """Image point in pixels."""

    x: float
    y: float


def wrap_angle(a: float, period: float = math.pi) -> float:
    """Reduce an angle into [0, period)."""
    r = math.fmod(a, period)
    if r < 0.0:
        r += period
    if r >= period:  # fmod of a tiny negative can land exactly on period
        r -= period
    return r


def circular_distance(a: float, b: float, period: float = math.pi) -> float:
    """Distance between two angles on a circle of the given period.

    The result lies in [0, period / 2].
    """
    d = wrap_angle(a - b, period)
    return min(d, period - d)


@dataclass(frozen=True)
class LineSegment:
    """Pair of distinct endpoints with finite coordinates."""

    p1: Point2
    p2: Point2

    def __post_init__(self) -> None:
        p1 = Point2(float(self.p1[0]), float(self.p1[1]))
        p2 = Point2(float(self.p2[0]), float(self.p2[1]))
        if not all(map(math.isfinite, (*p1, *p2))):
            raise ValueError("segment endpoints must be finite")
        if p1.x == p2.x and p1.y == p2.y:
            raise ValueError("segment endpoints must be distinct")
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @property
    def length(self) -> float:
        return math.hypot(self.p2.x - self.p1.x, self.p2.y - self.p1.y)

    @property
    def angle(self) -> float:
        """Orientation in [0, pi)."""
        return wrap_angle(math.atan2(self.p2.y - self.p1.y, self.p2.x - self.p1.x))

    @property
    def oriented_angle(self) -> float:
        """Direction p1 -> p2 in (-pi, pi]."""
        return math.atan2(self.p2.y - self.p1.y, self.p2.x - self.p1.x)

    @property
    def midpoint(self) -> Point2:
        return Point2(0.5 * (self.p1.x + self.p2.x), 0.5 * (self.p1.y + self.p2.y))

    def homogeneous_line(self) -> np.ndarray:
        """Coefficients (a, b, c) of the supporting line, with hypot(a, b) = 1."""
        a = self.p1.y - self.p2.y
        b = self.p2.x - self.p1.x
        c = self.p1.x * self.p2.y - self.p2.x * self.p1.y
        n = math.hypot(a, b)
        return np.array([a / n, b / n, c / n])

    def reversed(self) -> "LineSegment":
        return LineSegment(self.p2, self.p1)

    def as_array(self) -> np.ndarray:
        """Endpoints as a (2, 2) array [[x1, y1], [x2, y2]]."""
        return np.array([[self.p1.x, self.p1.y], [self.p2.x, self.p2.y]])


@dataclass(frozen=True)
class Homography:
    """Invertible plane projective transform, stored row-major.

    The matrix is normalized so m[2, 2] == 1 whenever that entry is not
    vanishingly small.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("homography matrix must be 3x3")
        if not np.all(np.isfinite(m)):
            raise ValueError("homography matrix must be finite")
        if abs(m[2, 2]) > _DEGENERATE_EPS:
            m = m / m[2, 2]
        if abs(np.linalg.det(m)) <= _DEGENERATE_EPS:
            raise ValueError("homography matrix is singular")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    @classmethod
    def translation(cls, tx: float, ty: float) -> "Homography":
        return cls(np.array([[1.0, 0.0, tx], [0.0, 1.0, ty], [0.0, 0.0, 1.0]]))

    @classmethod
    def rotation(cls, theta: float) -> "Homography":
        c, s = math.cos(theta), math.sin(theta)
        return cls(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))

    @classmethod
    def scaling(cls, sx: float, sy: float | None = None) -> "Homography":
        sy = sx if sy is None else sy
        return cls(np.diag([sx, sy, 1.0]))

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.m))

    def __matmul__(self, other: "Homography") -> "Homography":
        if not isinstance(other, Homography):
            return NotImplemented
        return Homography(self.m @ other.m)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics (square pixels not assumed)."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise ValueError("intrinsics must be finite")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def inverse_matrix(self) -> np.ndarray:
        return np.array(
            [
                [1.0 / self.fx, 0.0, -self.cx / self.fx],
                [0.0, 1.0 / self.fy, -self.cy / self.fy],
                [0.0, 0.0, 1.0],
            ]
        )


def apply_homography(h: Homography, obj):
    """Map a Point2 or LineSegment through a homography.

    Raises:
        ValueError: if the image of a point lies on the plane at infinity.
    """
    if isinstance(obj, LineSegment):
        return LineSegment(apply_homography(h, obj.p1), apply_homography(h, obj.p2))
    x, y = float(obj[0]), float(obj[1])
    m = h.m
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if abs(w) <= _DEGENERATE_EPS:
        raise ValueError("point maps to infinity under this homography")
    u = (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / w
    v = (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / w
    return Point2(u, v)


def point_segment_distance(p: Point2 | Sequence[float], seg: LineSegment) -> float:
    """Euclidean distance from a point to the closest point of a segment.

    A segment so short that its squared length underflows to 0 is measured
    from p1.
    """
    px, py = float(p[0]), float(p[1])
    x1, y1 = seg.p1
    dx = seg.p2.x - x1
    dy = seg.p2.y - y1
    den = dx * dx + dy * dy
    t = ((px - x1) * dx + (py - y1) * dy) / den if den > 0.0 else 0.0
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    cx = x1 + t * dx
    cy = y1 + t * dy
    return math.sqrt((px - cx) * (px - cx) + (py - cy) * (py - cy))


def orthogonal_distance(l1: LineSegment, l2: LineSegment) -> float:
    """Symmetric mean distance of each endpoint to the other supporting line."""
    lines = l1.homogeneous_line(), l2.homogeneous_line()
    return float(_orthogonal_many(l1.as_array(), l2.as_array(), *lines))


def _orthogonal_many(
    a_pts: np.ndarray, b_pts: np.ndarray, a_lines: np.ndarray, b_lines: np.ndarray
) -> np.ndarray:
    """Vectorized orthogonal_distance over broadcasting segment stacks.

    ``a_pts``/``b_pts`` are (..., 2, 2) endpoint arrays and ``a_lines``/
    ``b_lines`` their (..., 3) supporting lines with hypot(a, b) = 1.
    Row-paired (n, ...) inputs give one value per pair; (n, 1, ...) against
    (1, m, ...) gives the (n, m) matrix.
    """

    def to_lines(pts: np.ndarray, lines: np.ndarray) -> np.ndarray:
        a, b, c = (lines[..., None, k] for k in range(3))
        return np.abs(pts[..., 0] * a + pts[..., 1] * b + c).sum(axis=-1)

    return 0.25 * (to_lines(a_pts, b_lines) + to_lines(b_pts, a_lines))


def d_vp(seg: LineSegment, v) -> float:
    """Mean distance of a segment's endpoints to the line joining its
    midpoint with a vanishing point.

    ``v`` is a homogeneous 3-vector (or anything exposing one via a ``v``
    attribute). Returns +inf when that joining line is undefined, e.g. the
    vanishing point coincides with the midpoint.
    """
    vec = np.asarray(getattr(v, "v", v), dtype=float)
    if vec.shape != (3,):
        raise ValueError("vanishing point must be a homogeneous 3-vector")
    e = seg.as_array()
    return float(_d_vp_many(np.array([seg.midpoint]), e[:1], e[1:], vec)[0])


def _d_vp_many(
    mids: np.ndarray, e1: np.ndarray, e2: np.ndarray, v: np.ndarray, signed: bool = False
) -> np.ndarray:
    """Vectorized d_vp of many segments against homogeneous 3-vectors.

    Rows of mids/e1/e2 are midpoints and endpoints. ``v`` is one (3,)
    vector, or any (..., 3) stack that broadcasts against the rows: (n, 3)
    pairs row k with segment k, (k, 1, 3) gives a (k, n) matrix.
    Degenerate joining lines yield +inf.

    ``signed`` returns half the signed-distance difference of the two
    endpoints instead, equal to d_vp in magnitude (the joining line passes
    through their midpoint, so they straddle it) and smooth where a segment
    crosses the line. Derivative-based refinement needs that smoothness;
    the absolute form has a kink at zero that wrecks finite-difference
    Jacobians.
    """
    la = mids[:, 1] * v[..., 2] - v[..., 1]
    lb = v[..., 0] - mids[:, 0] * v[..., 2]
    lc = mids[:, 0] * v[..., 1] - mids[:, 1] * v[..., 0]
    norm = np.hypot(la, lb)
    d1 = la * e1[:, 0] + lb * e1[:, 1] + lc
    d2 = la * e2[:, 0] + lb * e2[:, 1] + lc
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 * ((d1 - d2) if signed else (np.abs(d1) + np.abs(d2))) / norm
    return np.where(norm < _DEGENERATE_EPS, np.inf, d)


def clip_segment_to_rect(
    seg: LineSegment, xmin: float, ymin: float, xmax: float, ymax: float
) -> LineSegment | None:
    """Liang-Barsky clip of a segment against an axis-aligned rectangle.

    Returns None when nothing (or a single point) remains inside.
    """
    x1, y1 = seg.p1
    dx = seg.p2.x - x1
    dy = seg.p2.y - y1
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x1 - xmin),
        (dx, xmax - x1),
        (-dy, y1 - ymin),
        (dy, ymax - y1),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return None
            if r < t1:
                t1 = r
    if t1 <= t0:
        return None
    a = Point2(x1 + t0 * dx, y1 + t0 * dy)
    b = Point2(x1 + t1 * dx, y1 + t1 * dy)
    if a.x == b.x and a.y == b.y:
        return None
    return LineSegment(a, b)


def segments_to_array(lines: Sequence[LineSegment]) -> np.ndarray:
    """Stack segments into an (n, 2, 2) endpoint array."""
    if len(lines) == 0:
        return np.zeros((0, 2, 2))
    return np.stack([seg.as_array() for seg in lines])
