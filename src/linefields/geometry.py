"""Core 2D geometric primitives shared by the whole pipeline.

Conventions: image coordinates have their origin at the top-left corner,
x grows rightward, y grows downward, units are pixels. Angles are radians.
A segment's orientation is only meaningful modulo pi unless an oriented
angle is explicitly requested.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Point2",
    "LineSegment",
    "Homography",
    "CameraIntrinsics",
    "wrap_angle",
    "circular_distance",
    "orthogonal_distance",
    "d_vp",
    "apply_homography",
]

TWO_PI = 2.0 * math.pi

# Below this, cross products / determinants are treated as degenerate.
_DEGENERATE_EPS = 1e-12


class Point2(NamedTuple):
    """Image point in pixels."""

    x: float
    y: float


def _require_int(name: str, value: object, minimum: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) of at
    least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


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


def _circular(d: np.ndarray, period: float) -> np.ndarray:
    """Distance on a circle of the given period of each angle difference
    ``d``, elementwise; the result lies in [0, period / 2]."""
    d = np.mod(d, period)
    return np.minimum(d, period - d)


def _signed_circular(d: np.ndarray, period: float) -> np.ndarray:
    """Each angle difference ``d`` wrapped into (-period / 2, period / 2]."""
    d = np.mod(d, period)
    return np.where(d > 0.5 * period, d - period, d)


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
        return float(_lengths(_rows([self]))[0])

    @property
    def angle(self) -> float:
        """Orientation in [0, pi)."""
        return float(_angles(_rows([self]))[0])

    @property
    def oriented_angle(self) -> float:
        """Direction p1 -> p2 in (-pi, pi]."""
        return float(_oriented_angles(_rows([self]))[0])

    @property
    def midpoint(self) -> Point2:
        return Point2(0.5 * (self.p1.x + self.p2.x), 0.5 * (self.p1.y + self.p2.y))

    def homogeneous_line(self) -> np.ndarray:
        """Coefficients (a, b, c) of the supporting line, with hypot(a, b) = 1."""
        return _homogeneous_lines(_rows([self]))[0]

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
        stored, ok = _stored_homographies(m[None])
        if not ok[0]:
            raise ValueError("homography matrix is singular")
        m = stored[0]
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


def _stored_homographies(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Homography's stored form of each matrix of the (k, 3, 3) stack ``m``,
    and the mask of the matrices it accepts. A matrix is divided by
    m[2, 2] when |m[2, 2]| > 1e-12 and accepted when it is finite and its
    determinant is not <= 1e-12 in magnitude after that division (a NaN
    determinant passes). Matrices that are not finite come back as the
    identity."""
    ok = np.all(np.isfinite(m), axis=(1, 2))
    m = np.where(ok[:, None, None], m, np.eye(3))
    m22 = m[:, 2:, 2:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = np.where(np.abs(m22) > _DEGENERATE_EPS, m / m22, m)
        ok &= ~(np.abs(np.linalg.det(m)) <= _DEGENERATE_EPS)  # a huge matrix's det is inf
    return m, ok


def apply_homography(h: Homography, obj):
    """Map a Point2 or LineSegment through a homography. One point of
    _map_points; _warp_segments maps many segments.

    Raises:
        ValueError: if the image of a point lies on the plane at infinity.
    """
    if isinstance(obj, LineSegment):
        return LineSegment(apply_homography(h, obj.p1), apply_homography(h, obj.p2))
    u, v, w = _map_points(h.m, float(obj[0]), float(obj[1]))
    if abs(w) <= _DEGENERATE_EPS:
        raise ValueError("point maps to infinity under this homography")
    return Point2(u, v)


def _map_points(m: np.ndarray, x, y):
    """Images (u, v) and weights w of points (x, y) under the 3x3 matrix
    ``m``, elementwise over scalars or arrays. u and v are meaningless
    where |w| <= 1e-12, which apply_homography rejects."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
        u = (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / w
        v = (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / w
    return u, v, w


def _warp_segments(m: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """apply_homography of the (n, 4) endpoint rows ``ends`` under the 3x3
    matrix ``m``, or under each matrix of a (k, 3, 3) stack: the mapped
    (n, 4) or (k, n, 4) rows, and the (n,) or (k, n) mask of rows for which
    apply_homography and LineSegment would not raise (both |w| > 1e-12,
    images finite and distinct)."""
    entries = np.moveaxis(m, (-2, -1), (0, 1))[..., None, None]  # entries[i, j] broadcasts
    u, v, w = _map_points(entries, ends[:, 0::2], ends[:, 1::2])
    rows = np.stack([u, v], axis=-1).reshape(*m.shape[:-2], -1, 4)
    # Written out over the last axis: np.all over 2 or 4 entries is many
    # times slower.
    far, finite = np.abs(w) > _DEGENERATE_EPS, np.isfinite(rows)
    ok = far[..., 0] & far[..., 1] & finite[..., 0] & finite[..., 1] & finite[..., 2] & finite[..., 3]
    return rows, ok & ((rows[..., 0] != rows[..., 2]) | (rows[..., 1] != rows[..., 3]))


def _segment_terms(ends: np.ndarray) -> np.ndarray:
    """Rows x1, y1, dx, dy, den of the (n, 4) endpoint rows ``ends``, as
    _point_segment_many takes them. A segment whose squared length den
    underflows to 0 gets dx = dy = 0 and den = 1: it is measured from p1.
    Overflow gives inf without a warning."""
    x1, y1 = ends[:, 0], ends[:, 1]
    with np.errstate(over="ignore"):
        dx = ends[:, 2] - x1
        dy = ends[:, 3] - y1
        den = dx * dx + dy * dy
    flat = den == 0.0
    return np.stack(
        [x1, y1, np.where(flat, 0.0, dx), np.where(flat, 0.0, dy), np.where(flat, 1.0, den)]
    )


def _point_segment_many(px, py, x1, y1, dx, dy, den) -> np.ndarray:
    """Distances from points to segments, elementwise over broadcasting
    arrays (at least one of them not 0-d) of point coordinates and the
    _segment_terms rows. Computed in place: the closest point is p1 + t d,
    t the projection clipped to [0, 1]. Overflow gives inf or NaN without
    a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = (px - x1) * dx + (py - y1) * dy
        t /= den
        np.clip(t, 0.0, 1.0, out=t)
        cx = t * dx
        cx += x1
        np.subtract(px, cx, out=cx)
        cx *= cx
        t *= dy
        t += y1
        np.subtract(py, t, out=t)
        t *= t
        cx += t
        return np.sqrt(cx, out=cx)


def orthogonal_distance(l1: LineSegment, l2: LineSegment) -> float:
    """Symmetric mean distance of each endpoint to the other supporting line."""
    rows = _rows([l1, l2])
    return float(_orthogonal_many(rows[0], rows[1], *_homogeneous_lines(rows)))


def _orthogonal_many(
    a_rows: np.ndarray, b_rows: np.ndarray, a_lines: np.ndarray, b_lines: np.ndarray
) -> np.ndarray:
    """Vectorized orthogonal_distance over broadcasting segment stacks.

    ``a_rows``/``b_rows`` are (..., 4) endpoint rows and ``a_lines``/
    ``b_lines`` their (..., 3) supporting lines with hypot(a, b) = 1.
    Row-paired (n, ...) inputs give one value per pair; (n, 1, ...) against
    (m, ...) gives the (n, m) matrix.
    """

    def to_lines(rows: np.ndarray, lines: np.ndarray) -> np.ndarray:
        a, b, c = (lines[..., None, k] for k in range(3))
        d = np.abs(rows[..., 0::2] * a + rows[..., 1::2] * b + c)  # both endpoints
        return d[..., 0] + d[..., 1]  # the bits of sum(axis=-1), many times faster

    return 0.25 * (to_lines(a_rows, b_lines) + to_lines(b_rows, a_lines))


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
    e = _rows([seg])
    return float(_d_vp_many(np.array([seg.midpoint]), e[:, :2], e[:, 2:], vec)[0])


def _d_vp_many(
    mids: np.ndarray, e1: np.ndarray, e2: np.ndarray, v: np.ndarray, signed: bool = False
) -> np.ndarray:
    """Vectorized d_vp of many segments against homogeneous 3-vectors.

    Rows of mids/e1/e2 are midpoints and endpoints. ``v`` is one (3,)
    vector, or any (..., 3) stack that broadcasts against the rows: (n, 3)
    pairs row k with segment k, (k, 1, 3) gives a (k, n) matrix.
    Degenerate joining lines yield +inf, and so do distances the
    arithmetic cannot represent (a midpoint or product that overflows).

    ``signed`` returns half the signed-distance difference of the two
    endpoints instead, equal to d_vp in magnitude (the joining line passes
    through their midpoint, so they straddle it) and smooth where a segment
    crosses the line. Derivative-based refinement needs that smoothness;
    the absolute form has a kink at zero.
    """
    return _d_vp_columns(
        mids[:, 0], mids[:, 1], e1[:, 0], e1[:, 1], e2[:, 0], e2[:, 1], v, signed
    )


def _d_vp_columns(mx, my, x1, y1, x2, y2, v: np.ndarray, signed: bool = False) -> np.ndarray:
    """_d_vp_many on coordinate columns: each segment's midpoint (mx, my)
    and endpoints (x1, y1), (x2, y2), against the (..., 3) ``v``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        la = my * v[..., 2] - v[..., 1]
        lb = v[..., 0] - mx * v[..., 2]
        lc = mx * v[..., 1] - my * v[..., 0]
        norm = np.hypot(la, lb)
        d1 = la * x1 + lb * y1 + lc
        d2 = la * x2 + lb * y2 + lc
        d = 0.5 * ((d1 - d2) if signed else (np.abs(d1) + np.abs(d2))) / norm
    return np.where((norm >= _DEGENERATE_EPS) & np.isfinite(d), d, np.inf)


def _clip_segments(
    ends: np.ndarray, xmin: float, ymin: float, xmax: float, ymax: float
) -> tuple[np.ndarray, np.ndarray]:
    """Liang-Barsky clip of the (n, 4) endpoint rows ``ends``: the clipped
    rows, and the mask of rows that keep more than a single point. Every
    row goes through the four edge tests in turn. t0 only rises and t1
    only falls, so a row whose entry lies past its exit at some edge ends
    with t1 < t0 and fails the final test."""
    x1, y1 = ends[:, 0], ends[:, 1]
    t0, t1 = np.zeros(len(ends)), np.ones(len(ends))
    kept = np.ones(len(ends), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx, dy = ends[:, 2] - x1, ends[:, 3] - y1
        for p, q in ((-dx, x1 - xmin), (dx, xmax - x1), (-dy, y1 - ymin), (dy, ymax - y1)):
            r = q / p
            kept &= ~((p == 0.0) & (q < 0.0))
            t0 = np.where((p < 0.0) & (r > t0), r, t0)
            t1 = np.where((p > 0.0) & (r < t1), r, t1)
        kept &= ~(t1 <= t0)
        rows = np.stack([x1 + t0 * dx, y1 + t0 * dy, x1 + t1 * dx, y1 + t1 * dy], axis=1)
    return rows, kept & ((rows[:, 0] != rows[:, 2]) | (rows[:, 1] != rows[:, 3]))


def _rows(lines: Sequence[LineSegment]) -> np.ndarray:
    """The (n, 4) endpoint rows x1, y1, x2, y2 of a line set; _segments inverts it."""
    return np.array([(*seg.p1, *seg.p2) for seg in lines], dtype=float).reshape(-1, 4)


def _segments(rows: np.ndarray) -> list[LineSegment]:
    """LineSegments of the (n, 4) endpoint rows x1, y1, x2, y2."""
    return [LineSegment(Point2(x1, y1), Point2(x2, y2)) for x1, y1, x2, y2 in rows.tolist()]


def _lengths(rows: np.ndarray) -> np.ndarray:
    """Length of each (n, 4) endpoint row. The row kernels take math.hypot
    and math.atan2 per row: np.hypot and np.arctan2 differ in the last bit."""
    return np.array([math.hypot(x2 - x1, y2 - y1) for x1, y1, x2, y2 in rows.tolist()])


def _oriented_angles(rows: np.ndarray) -> np.ndarray:
    """Direction p1 -> p2 of each row, in (-pi, pi]."""
    return np.array([math.atan2(y2 - y1, x2 - x1) for x1, y1, x2, y2 in rows.tolist()])


def _angles(rows: np.ndarray) -> np.ndarray:
    """Orientation of each row, in [0, pi)."""
    return np.array([wrap_angle(a) for a in _oriented_angles(rows).tolist()])


def _homogeneous_lines(rows: np.ndarray) -> np.ndarray:
    """(n, 3) supporting lines (a, b, c) of the rows, with hypot(a, b) = 1."""
    lines = []
    for x1, y1, x2, y2 in rows.tolist():
        a, b = y1 - y2, x2 - x1
        n = math.hypot(a, b)
        lines.append((a / n, b / n, (x1 * y2 - x2 * y1) / n))
    return np.array(lines).reshape(-1, 3)


def _line_arrays(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Midpoints, first and second endpoints as (n, 2) arrays, and lengths of rows."""
    return 0.5 * (rows[:, :2] + rows[:, 2:]), rows[:, :2], rows[:, 2:], _lengths(rows)
