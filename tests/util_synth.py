"""Synthetic scene builders shared across test modules.

Everything here is deterministic given the caller's Generator. Scenes are
built so their ground truth is known exactly: separated random segments
for detection tests, near-parallel pencils for refinement tests, and
concurrent pencils for vanishing point tests.
"""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np

from linefields import FieldPair, LineSegment, render_fields
from linefields.geometry import _point_segment_many, _rows, _segment_terms


def point_segment_distance(p, seg: LineSegment) -> float:
    """Distance from point ``p`` to the closest point of ``seg``: one point
    of _point_segment_many, the kernel render_fields draws with."""
    px, py = np.array([float(p[0])]), np.array([float(p[1])])
    return float(_point_segment_many(px, py, *_segment_terms(_rows([seg])))[0])


def segment_distance(a: LineSegment, b: LineSegment) -> float:
    """Exact minimum distance between two closed segments."""

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    p1, p2 = (a.p1.x, a.p1.y), (a.p2.x, a.p2.y)
    q1, q2 = (b.p1.x, b.p1.y), (b.p2.x, b.p2.y)
    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(
        point_segment_distance(a.p1, b),
        point_segment_distance(a.p2, b),
        point_segment_distance(b.p1, a),
        point_segment_distance(b.p2, a),
    )


def brute_force_fields(
    segments: list[LineSegment], width: int, height: int
) -> tuple[np.ndarray, np.ndarray]:
    """Independent field oracle: full distance tensor plus argmin.

    Computes every segment's distance map at pixel centers, then reduces
    with min/argmin. argmin keeps the first (lowest-index) minimum, which
    is the tie rule the renderer must follow.
    """
    px = np.arange(width, dtype=np.float64) + 0.5
    py = np.arange(height, dtype=np.float64) + 0.5
    gx, gy = np.meshgrid(px, py)
    dists = np.empty((len(segments), height, width))
    angles = np.empty(len(segments))
    for i, seg in enumerate(segments):
        x1, y1 = seg.p1
        dx, dy = seg.p2.x - x1, seg.p2.y - y1
        t = np.clip(((gx - x1) * dx + (gy - y1) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        cx, cy = x1 + t * dx, y1 + t * dy
        dists[i] = np.sqrt((gx - cx) ** 2 + (gy - cy) ** 2)
        angles[i] = seg.angle
    return np.min(dists, axis=0), angles[np.argmin(dists, axis=0)]


def random_segments(
    rng: np.random.Generator,
    size: int = 256,
    k_range: tuple[int, int] = (3, 20),
    min_length: float = 30.0,
    max_length: float = 90.0,
    min_separation: float = 20.0,
    margin: float = 12.0,
) -> list[LineSegment]:
    """Well-separated random segments inside [margin, size-margin]."""
    k = int(rng.integers(k_range[0], k_range[1] + 1))
    segments: list[LineSegment] = []
    tries = 0
    while len(segments) < k and tries < 4000:
        tries += 1
        p = rng.uniform(margin, size - margin, 2)
        ang = rng.uniform(0.0, math.pi)
        length = rng.uniform(min_length, max_length)
        q = p + np.array([math.cos(ang), math.sin(ang)]) * length
        if not (margin <= q[0] <= size - margin and margin <= q[1] <= size - margin):
            continue
        cand = LineSegment(tuple(p), tuple(q))
        if all(segment_distance(cand, s) > min_separation for s in segments):
            segments.append(cand)
    assert len(segments) >= k_range[0], "separation rejection starved the scene"
    return segments


def dense_field_pair() -> tuple[list[LineSegment], FieldPair]:
    """40 random segments, 24 to 60 px long and 4 px apart, and their
    fields on a 256 x 256 frame: the many long lines of a benchmark view."""
    rng = np.random.default_rng(0)
    segs = random_segments(
        rng, size=256, k_range=(40, 40), min_length=24, max_length=60, min_separation=4
    )
    return segs, render_fields(segs, 256, 256)


def two_view_segments() -> list[LineSegment]:
    """170 random segments, 20 to 120 px long, that may cross each other
    and leave a 384 x 384 frame: as many as one two_view benchmark view."""
    rng = np.random.default_rng(170)
    segs = []
    for _ in range(170):
        p = rng.uniform(0.0, 384.0, 2)
        ang = rng.uniform(0.0, math.pi)
        q = p + rng.uniform(20.0, 120.0) * np.array([math.cos(ang), math.sin(ang)])
        segs.append(LineSegment(tuple(p), tuple(q)))
    return segs


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes that tracemalloc saw
    allocated during the call."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pencil_segments(
    rng: np.random.Generator,
    vp_xy: tuple[float, float] = (1800.0, 128.0),
    size: int = 256,
    n: int = 20,
    half_range: tuple[float, float] = (8.0, 12.0),
) -> list[LineSegment]:
    """Short segments aimed at a common (far) point, fanned vertically."""
    segments = []
    ys = np.linspace(20, size - 20, n) + rng.uniform(-2.0, 2.0, n)
    for y in ys:
        mx = rng.uniform(60.0, size - 60.0)
        d = np.array([vp_xy[0] - mx, vp_xy[1] - y])
        d /= np.hypot(*d)
        half = rng.uniform(*half_range)
        segments.append(
            LineSegment(tuple([mx, y] - d * half), tuple([mx, y] + d * half))
        )
    return segments


def perturb_segment(
    seg: LineSegment,
    rng: np.random.Generator,
    max_lateral: float = 1.5,
    max_rotation_deg: float = 3.0,
) -> LineSegment:
    """Rotate about the midpoint and shift along the normal, length kept."""
    theta = seg.oriented_angle + rng.uniform(
        -math.radians(max_rotation_deg), math.radians(max_rotation_deg)
    )
    offset = rng.uniform(-max_lateral, max_lateral)
    nx, ny = -math.sin(seg.oriented_angle), math.cos(seg.oriented_angle)
    mx = seg.midpoint.x + nx * offset
    my = seg.midpoint.y + ny * offset
    half = seg.length / 2.0
    ux, uy = math.cos(theta), math.sin(theta)
    return LineSegment(
        (mx - ux * half, my - uy * half), (mx + ux * half, my + uy * half)
    )


def concurrent_lines(
    rng: np.random.Generator,
    vp: np.ndarray,
    n: int,
    size: int = 256,
    half_range: tuple[float, float] = (20.0, 45.0),
    noise: float = 0.0,
) -> list[LineSegment]:
    """Lines exactly through a homogeneous point (before optional noise)."""
    out = []
    while len(out) < n:
        m = rng.uniform(20.0, size - 20.0, 2)
        if abs(vp[2]) > 1e-9:
            d = vp[:2] / vp[2] - m
        else:
            d = vp[:2].copy()
        norm = float(np.hypot(*d))
        if norm < 1e-9:
            continue
        d /= norm
        half = rng.uniform(*half_range)
        p, q = m - d * half, m + d * half
        if noise > 0.0:
            p = p + rng.normal(0.0, noise, 2)
            q = q + rng.normal(0.0, noise, 2)
        out.append(LineSegment(tuple(p), tuple(q)))
    return out


def stripe_scene(
    width: int = 100, height: int = 100
) -> tuple[list[LineSegment], np.ndarray]:
    """A 3 px bright stripe: its two edge segments and a companion image.

    The image has a tent profile (peak on the stripe, linear falloff both
    sides) so the gradient direction is defined on both flanks instead of
    vanishing in flat background, mirroring a real photograph's shading.
    """
    edges = [
        LineSegment((30.0, 5.0), (30.0, height - 5.0)),
        LineSegment((33.0, 5.0), (33.0, height - 5.0)),
    ]
    cols = np.arange(width, dtype=np.float64)
    dist = np.maximum(0.0, np.maximum(30.0 - cols, cols - 32.0))
    image = np.tile(np.maximum(40.0, 200.0 - 60.0 * dist), (height, 1))
    return edges, image


def square_image(size: int = 128, lo: float = 30.0, hi: float = 220.0) -> np.ndarray:
    """Bright axis-aligned square on a dark background."""
    img = np.full((size, size), lo)
    q = size // 4
    img[q : size - q, q : size - q] = hi
    return img
