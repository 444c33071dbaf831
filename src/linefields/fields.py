"""Per-pixel line attraction fields and the operations defined on them.

A field pair holds, for every pixel, the distance to the closest point on
any segment (DF) and the orientation modulo pi of that closest segment
(AF). Values live at pixel centers: the array entry (iy, ix) describes the
image point (ix + 0.5, iy + 0.5).

render_fields is exact without drawing every segment over every pixel.
It culls twice with one bound: per 32 px tile against all segments, then
per 8 px block against its tile's survivors, skipping each segment whose
distance from the cell center exceeds the smallest one by more than the
cell's pixel-center diameter (plus a rounding margin). By the triangle
inequality such a segment is farther from every pixel of the cell than
the candidate closest to the center, so it can neither win nor tie. The
surviving (block, segment) pairs are drawn in fixed-size chunks, a few
array passes each, and reduced to the lowest-index minimum, so the fields
equal the full-grid loop's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .geometry import LineSegment, _angles, _circular, _point_segment_many, _rows, _segment_terms

__all__ = [
    "ScalarField",
    "FieldPair",
    "render_fields",
    "df_normalize",
    "surrogate_gradient",
    "orient_angles",
    "bilinear_sample",
]

_TILE = 32  # side of the pixel tiles render_fields first culls segments for
_BLOCK = 8  # side of the blocks it culls each tile's survivors for, then draws
_RENDER_ELEMENTS = 1 << 14  # pixel distances render_fields measures at once


@dataclass(frozen=True)
class ScalarField:
    """Dense (height, width) float64 grid with all values finite."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("field data must be a non-empty 2-D array")
        if not np.all(np.isfinite(data)):
            raise ValueError("field data must be finite")
        data = np.ascontiguousarray(data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FieldPair:
    """Distance field and angle field of one scene, plus the band radius r."""

    df: ScalarField
    af: ScalarField
    r: float

    def __post_init__(self) -> None:
        if self.df.data.shape != self.af.data.shape:
            raise ValueError("distance and angle fields must share a shape")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError("band radius r must be positive and finite")
        object.__setattr__(self, "r", float(self.r))

    @property
    def height(self) -> int:
        return self.df.height

    @property
    def width(self) -> int:
        return self.df.width


def render_fields(
    lines: Sequence[LineSegment], width: int, height: int, r: float = 5.0
) -> FieldPair:
    """Rasterize exact attraction fields for a set of segments.

    Every pixel gets the distance from its center to the closest segment
    point, and the orientation (mod pi) of the segment realizing it. Exact
    distance ties go to the segment with the lowest index. A segment so
    short that its squared length underflows to 0 is measured from p1.

    Segments are culled twice with one bound. For a cell of pixels with
    center c and pixel-center half-diagonal R, |d(p, S) - d(c, S)| <= R
    for every pixel p of the cell, so a segment with d(c, S_k) >
    d(c, S_j) + 2R is farther from every pixel than S_j, and can neither
    win nor tie one. The cells are first _TILE x _TILE tiles, each against
    all segments, then the _BLOCK x _BLOCK blocks of each tile, each
    against its tile's survivors (partial cells at the right and bottom
    edges have a smaller R). S_j is the candidate closest to c, so it is
    itself a candidate and the winner of every pixel survives both
    levels. The margin added to the limit is orders above the rounding of
    the computed distances, and a NaN center distance keeps the segment.
    The surviving (block, segment) pairs are measured with the per-pixel
    arithmetic of the full-grid loop and reduced to the lowest-index
    minimum, which is what a strict ``<`` in segment order keeps, so the
    fields are bit for bit those of drawing every segment over every
    pixel.

    Products of coordinates beyond about 1e154 overflow without a warning.
    Nothing is culled once a coordinate reaches 1e150, so every distance
    is measured there.

    Raises:
        ValueError: on an empty segment list or non-positive dimensions,
            and when a pixel's distance to some segment overflows to NaN
            or some pixel keeps no finite distance. Every true distance is
            finite, so only overflow does either.
    """
    if len(lines) == 0:
        raise ValueError("cannot render fields without segments")
    width = int(width)
    height = int(height)
    if width < 1 or height < 1:
        raise ValueError("field dimensions must be positive")
    ends = _rows(lines)
    angles = _angles(ends)
    seg = _segment_terms(ends)
    scale = float(np.max(np.abs(ends)))
    # Below 1e150 no product overflows, so every distance is finite and
    # within a few ulps of scale + width + height of the true one. Above,
    # nothing is culled.
    margin = 1e-9 * (1.0 + scale + width + height) if scale < 1e150 else np.inf
    pairs = max(1, _RENDER_ELEMENTS // (_BLOCK * _BLOCK))
    best_df = np.full((height, width), np.inf)
    best_af = np.zeros((height, width))
    # Blocks numbered row-major over the frame. A chunk holds every pair of
    # its blocks but maybe the first and last; a block split between two
    # chunks merges under `<`. The last tile row draws what is left.
    block = k = np.empty(0, dtype=np.intp)
    for top in range(0, height, _TILE):
        row_block, row_k = _survivors(top, min(top + _TILE, height), width, seg, margin)
        block = np.concatenate([block, row_block + top // _BLOCK * -(-width // _BLOCK)])
        k = np.concatenate([k, row_k])
        while len(k) >= pairs or (top + _TILE >= height and len(k)):
            _draw(best_df, best_af, block[:pairs], k[:pairs], seg, angles)
            block, k = block[pairs:], k[pairs:]
    if not np.all(np.isfinite(best_df)):
        raise ValueError("segment coordinates are too large to render")
    return FieldPair(ScalarField(best_df), ScalarField(best_af), float(r))


def _survivors(
    top: int, bottom: int, width: int, seg: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (block, segment) pairs of the tile row spanning pixel rows
    [top, bottom) that pass both culls, sorted by block, then segment.
    Blocks are numbered row-major from 0 within the row."""
    # Level one: (tiles, segments) center distances.
    tile_x, tile_w = _cells(width, _TILE)
    d = _point_segment_many(tile_x[:, None], 0.5 * (top + bottom), *seg)
    radius = 0.5 * np.hypot(tile_w - 1, bottom - top - 1)
    near = ~(d > (d.min(axis=1) + 2.0 * radius + margin)[:, None])
    # Level two: each block against its tile's survivors.
    block_x, block_w = _cells(width, _BLOCK)
    block_y, block_h = _cells(bottom - top, _BLOCK)
    col, k = np.nonzero(near[np.arange(len(block_x)) * _BLOCK // _TILE])
    rows = len(block_y)
    row = np.repeat(np.arange(rows), len(k))
    col, k = np.tile(col, rows), np.tile(k, rows)
    block = row * len(block_x) + col
    d = _point_segment_many(block_x[col], top + block_y[row], *seg[:, k])
    # Each block keeps its tile's closest segment, so the runs of `block`
    # are all the blocks, in order.
    first = np.flatnonzero(np.diff(block, prepend=-1))
    radius = 0.5 * np.hypot(block_w - 1, block_h[:, None] - 1).ravel()
    limit = np.minimum.reduceat(d, first) + 2.0 * radius + margin
    near = ~(d > limit[block])
    return block[near], k[near]


def _draw(
    best_df: np.ndarray,
    best_af: np.ndarray,
    block: np.ndarray,
    k: np.ndarray,
    seg: np.ndarray,
    angles: np.ndarray,
) -> None:
    """Measure segments ``k`` over the pixels of blocks ``block`` and keep
    each pixel's lowest-index minimum where it is ``<`` the stored DF.

    The pairs are sorted by block, then segment; blocks are numbered
    row-major over the frame. Block pixels past the frame repeat its last
    row or column.
    """
    height, width = best_df.shape
    first = np.flatnonzero(np.diff(block, prepend=-1))
    count = np.diff(first, append=len(block))
    rank = np.arange(len(block)) - np.repeat(first, count)
    # Reorder the pairs by rank, then blocks with the most pairs first,
    # then block: the pairs of each rank belong to a prefix of the blocks,
    # in one order.
    order = np.lexsort((block, -np.repeat(count, count), rank))
    rank_size = np.bincount(rank).tolist()
    block, k = block[order], k[order]
    rows, cols = np.divmod(block, -(-width // _BLOCK))
    step = np.arange(_BLOCK)
    ys = np.minimum(rows[:, None] * _BLOCK + step, height - 1)
    xs = np.minimum(cols[:, None] * _BLOCK + step, width - 1)
    d = _point_segment_many(
        xs[:, None, :] + 0.5, ys[:, :, None] + 0.5, *seg[:, k, None, None]
    ).reshape(len(k), -1)
    if np.isnan(d).any():
        raise ValueError("segment coordinates are too large to render")
    # Rank by rank, which is segment order within each block, under `<`;
    # with no NaN the minimum is the value that `<` keeps.
    runs = rank_size[0]
    best = d[:runs]
    win = np.repeat(k[:runs, None], d.shape[1], axis=1)
    lo = runs
    for size in rank_size[1:]:
        part = d[lo : lo + size]
        closer = part < best[:size]
        np.copyto(win[:size], k[lo : lo + size, None], where=closer)
        np.minimum(best[:size], part, out=best[:size])
        lo += size
    pix = (ys[:runs, :, None] * width + xs[:runs, None, :]).reshape(runs, -1)
    flat_df = best_df.reshape(-1)
    closer = best < flat_df[pix]
    pix = pix[closer]
    flat_df[pix] = best[closer]
    best_af.reshape(-1)[pix] = angles[win[closer]]


def _cells(length: int, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Centers and sizes of the cells of ``side`` pixels (the last one
    partial) that tile ``length`` pixels from 0."""
    lo = np.arange(0, length, side)
    hi = np.minimum(lo + side, length)
    return 0.5 * (lo + hi), hi - lo


def df_normalize(value, r: float, direction: Literal["forward", "inverse"] = "forward"):
    """Map raw distances to the compressed representation and back.

    forward: x -> -log(x / r), defined for 0 < x <= r.
    inverse: y -> r * exp(-y), defined for y >= 0.

    Accepts scalars or arrays and returns the matching kind. NaN, which
    lies in neither domain, raises ValueError.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError("band radius r must be positive and finite")
    arr = np.asarray(value, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("normalization needs values that are not NaN")
    if direction == "forward":
        if np.any(arr <= 0.0) or np.any(arr > r):
            raise ValueError("forward normalization needs values in (0, r]")
        out = -np.log(arr / r)
    elif direction == "inverse":
        if np.any(arr < 0.0):
            raise ValueError("inverse normalization needs non-negative values")
        out = r * np.exp(-arr)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if np.isscalar(value) or np.ndim(value) == 0:
        return float(out)
    return out


def surrogate_gradient(fp: FieldPair) -> tuple[ScalarField, ScalarField]:
    """Convert a field pair into detector inputs.

    Returns the magnitude M = max(0, r - DF) and the angle theta = AF - pi/2
    reduced into (-pi/2, pi/2], i.e. the normal direction of the local line.
    """
    mag = np.maximum(0.0, fp.r - fp.df.data)
    af = fp.af.data
    # AF mod pi changes no value in [0, pi), the range read_field_file
    # accepts, so it is taken only at the entries outside.
    if af.min() < 0.0 or af.max() >= math.pi:
        outside = (af < 0.0) | (af >= math.pi)
        af = af.copy()
        af[outside] = np.mod(af[outside], math.pi)
    theta = af - 0.5 * math.pi
    # theta <= -pi/2 only where AF rounds to 0 against pi/2.
    np.add(theta, math.pi, out=theta, where=theta <= -0.5 * math.pi)
    return ScalarField(mag), ScalarField(theta)


def orient_angles(theta: ScalarField, image_grad_angle: ScalarField) -> ScalarField:
    """Disambiguate mod-pi normal angles with image gradient directions.

    Per pixel the output is theta when theta is circularly (period 2*pi)
    closer to the reference than theta - pi, and theta - pi otherwise,
    wrapped into [-pi, pi).
    """
    if theta.data.shape != image_grad_angle.data.shape:
        raise ValueError("angle fields must share a shape")
    t = theta.data
    ref = image_grad_angle.data
    keep = _circular(t - ref, 2.0 * math.pi) < _circular(t - math.pi - ref, 2.0 * math.pi)
    out = np.where(keep, t, t - math.pi)
    out = np.mod(out + math.pi, 2.0 * math.pi) - math.pi
    # Just below -pi, out + pi is a negative tiny whose mod rounds up to
    # 2*pi; the wrap of the +pi that gives is -pi.
    out[out == math.pi] = -math.pi
    return ScalarField(out)


def _bilinear_corners(
    shape: tuple[int, int], xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Flat indices of the four grid corners around each (xs, ys), stacked
    as (y0 x0, y0 x1, y1 x0, y1 x1) on a new first axis, and the two-sided
    weights (1 - wx, wx, 1 - wy, wy) that _blend takes. x0 is at most
    max(w - 2, 0), so x1 = min(x0 + 1, w - 1) is x0 + min(1, w - 1) (and
    likewise in y): the corners are y0 x0 plus four fixed offsets."""
    h, w = shape
    x0 = np.minimum(np.maximum(np.floor(xs).astype(int), 0), max(w - 2, 0))
    y0 = np.minimum(np.maximum(np.floor(ys).astype(int), 0), max(h - 2, 0))
    dx, dy = min(1, w - 1), w * min(1, h - 1)
    corners = np.add.outer(np.array([0, dx, dy, dx + dy]), y0 * w + x0)
    wx = xs - x0
    wy = ys - y0
    return corners, (1.0 - wx, wx, 1.0 - wy, wy)


def _blend(values: np.ndarray, weights: tuple[np.ndarray, ...]) -> np.ndarray:
    """Bilinear blend of corner values (stacked as _bilinear_corners orders
    them on the first axis; any further leading axes of a value, such as one
    per table, broadcast against the weights). Two-sided weights are exact at
    wx/wy of 0 and 1, which clipped border coordinates hit, so sampling on
    the grid reproduces stored values."""
    v00, v01, v10, v11 = values
    ax, wx, ay, wy = weights
    return ay * (ax * v00 + wx * v01) + wy * (ax * v10 + wx * v11)


def _half_angle(sin2: np.ndarray, cos2: np.ndarray) -> np.ndarray:
    """Angle in [0, pi) of a blend on the doubled circle: angles mod pi
    interpolate there so that values just below pi and just above 0 blend
    as neighbors."""
    ang = 0.5 * np.arctan2(sin2, cos2)
    return np.where(ang < 0.0, ang + math.pi, ang)


def _bilinear_many(
    data: np.ndarray, xs: np.ndarray, ys: np.ndarray, circular: bool
) -> np.ndarray:
    """Vectorized bilinear lookup at grid coordinates (no bounds checks)."""
    corners, weights = _bilinear_corners(data.shape, xs, ys)
    values = data.ravel().take(corners)
    if not circular:
        return _blend(values, weights)
    twice = 2.0 * values
    return _half_angle(_blend(np.sin(twice), weights), _blend(np.cos(twice), weights))


def bilinear_sample(
    field: ScalarField,
    p: Sequence[float],
    mode: Literal["linear", "circular_pi"] = "linear",
) -> float:
    """Interpolate a field at a grid coordinate.

    ``p`` = (x, y) indexes the grid directly: (0, 0) is the first stored
    sample and (width - 1, height - 1) the last, so an image point (u, v)
    is sampled at (u - 0.5, v - 0.5). circular_pi blends angles on the
    doubled circle and returns a value in [0, pi).

    Raises:
        ValueError: if p falls outside the grid.
    """
    x, y = float(p[0]), float(p[1])
    h, w = field.data.shape
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h - 1):
        raise ValueError(
            f"sample point ({x}, {y}) outside grid [0, {w - 1}] x [0, {h - 1}]"
        )
    if mode not in ("linear", "circular_pi"):
        raise ValueError(f"unknown interpolation mode {mode!r}")
    out = _bilinear_many(
        field.data, np.array([x]), np.array([y]), circular=(mode == "circular_pi")
    )
    return float(out[0])
