"""Pseudo ground truth fields by detection under multiple warps.

A base image is warped by random homographies, segments are detected in
every warp, warped back into the base frame, rendered into field pairs,
and aggregated per pixel with medians. Structures that persist across most
warps keep a small aggregated distance; spurious single-warp detections
are voted away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import DetectorParams, detect
from .fields import FieldPair, ScalarField, _bilinear_many, render_fields
from .geometry import (
    Homography,
    LineSegment,
    _clip_segments,
    _lengths,
    _require_finite,
    _require_int,
    _rows,
    _segments,
    _warp_segments,
)

__all__ = [
    "HomographySamplerParams",
    "sample_homography",
    "warp_image",
    "warp_lines",
    "aggregate_median",
    "generate_pseudo_gt",
]

# Segments shorter than this after clipping to the base frame are dropped.
MIN_WARPED_LENGTH = 5.0

_AGG_ELEMENTS = 1 << 16  # stacked angle samples the circular median scores at once


@dataclass(frozen=True)
class HomographySamplerParams:
    """Ranges of the random warp generator."""

    max_rotation: float = math.radians(30.0)  # absolute rotation bound
    scale_range: tuple[float, float] = (0.7, 1.4)
    max_translation_frac: float = 0.1  # fraction of each image dimension
    max_perspective: float = 0.1  # bound before the 2/dimension scaling

    def __post_init__(self) -> None:
        _require_finite(self)
        lo, hi = self.scale_range
        if not (0.0 < lo <= hi):
            raise ValueError("scale_range must be positive and ordered")
        if not (0.0 <= self.max_translation_frac < 0.5):
            raise ValueError("max_translation_frac must lie in [0, 0.5)")
        if not (0.0 <= self.max_perspective < 0.5):
            raise ValueError("max_perspective must lie in [0, 0.5)")
        if self.max_rotation < 0.0:
            raise ValueError("max_rotation must be non-negative")


def sample_homography(
    params: HomographySamplerParams,
    width: int,
    height: int,
    rng: np.random.Generator,
) -> Homography:
    """Draw a random warp composed about the image center.

    The factors (translation, rotation, isotropic scale, perspective) are
    each invertible, so the composition always is. Deterministic given the
    generator state.
    """
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be positive")
    cx = 0.5 * width
    cy = 0.5 * height
    rot = rng.uniform(-params.max_rotation, params.max_rotation)
    scale = rng.uniform(params.scale_range[0], params.scale_range[1])
    tx = rng.uniform(-1.0, 1.0) * params.max_translation_frac * width
    ty = rng.uniform(-1.0, 1.0) * params.max_translation_frac * height
    px = rng.uniform(-1.0, 1.0) * params.max_perspective * 2.0 / width
    py = rng.uniform(-1.0, 1.0) * params.max_perspective * 2.0 / height

    persp = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [px, py, 1.0]])
    center = Homography.translation(cx, cy)
    uncenter = Homography.translation(-cx, -cy)
    core = (
        Homography.translation(tx, ty)
        @ Homography.rotation(rot)
        @ Homography.scaling(scale)
        @ Homography(persp)
    )
    return center @ core @ uncenter


def warp_image(image: np.ndarray, h: Homography) -> np.ndarray:
    """Warp an image so that output point p shows the input at h^-1(p).

    Bilinear interpolation with border replication. The identity warp
    reproduces the input exactly.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError("image must be a non-empty 2-D array")
    hh, ww = img.shape
    inv = h.inverse().m
    xs = np.arange(ww, dtype=float) + 0.5
    ys = (np.arange(hh, dtype=float) + 0.5)[:, None]
    wz = inv[2, 0] * xs + inv[2, 1] * ys + inv[2, 2]
    wz = np.where(np.abs(wz) < 1e-12, 1e-12, wz)
    sx = (inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]) / wz - 0.5
    sy = (inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]) / wz - 0.5
    sx = np.clip(sx, 0.0, ww - 1.0)
    sy = np.clip(sy, 0.0, hh - 1.0)
    vals = _bilinear_many(img, sx.ravel(), sy.ravel(), circular=False)
    return vals.reshape(hh, ww)


def warp_lines(
    lines: Sequence[LineSegment],
    h: Homography,
    width: int,
    height: int,
    min_length: float = MIN_WARPED_LENGTH,
) -> list[LineSegment]:
    """Map segments through a homography and clip them to the frame.

    Segments that leave the [0, width] x [0, height] rectangle are clipped;
    anything shorter than ``min_length`` afterwards (or mapping to
    infinity) is dropped.
    """
    rows, ok = _warp_segments(h.m, _rows(lines))
    rows, kept = _clip_segments(rows[ok], 0.0, 0.0, float(width), float(height))
    rows = rows[kept]
    return _segments(rows[~(_lengths(rows) < min_length)])


def aggregate_median(pairs: Sequence[FieldPair]) -> FieldPair:
    """Per-pixel median aggregation of field pairs.

    The distance fields aggregate with the lower-middle median (for an even
    count, the smaller of the two central order statistics). The angle
    fields aggregate with the circular median modulo pi: the sample value
    whose summed circular distances to all samples is minimal, ties going
    to the smallest value.

    The angle samples of a pixel are sorted, and candidate i sums its
    distances d(i, j) in ascending j, so the rounding (and therefore tie
    resolution) cannot depend on input order. |a - b| is bitwise |b - a|,
    so each of the n (n - 1) / 2 pair distances is computed once and added
    to both of its candidates, each in its own j order; the self term is
    an exact +0.0 and is not added. Pixel rows are processed in chunks of
    at most _AGG_ELEMENTS stacked samples, which bounds the temporaries.
    """
    if len(pairs) == 0:
        raise ValueError("cannot aggregate an empty list of field pairs")
    shape = pairs[0].df.data.shape
    r = pairs[0].r
    for fp in pairs:
        if fp.df.data.shape != shape:
            raise ValueError("field pairs must share a shape")
        if fp.r != r:
            raise ValueError("field pairs must share the band radius r")

    df_stack = np.stack([fp.df.data for fp in pairs])
    n = df_stack.shape[0]
    df_stack.sort(axis=0)
    df_med = df_stack[(n - 1) // 2].copy()  # a view would keep the stack alive
    del df_stack

    af_stack = np.stack([fp.af.data for fp in pairs])
    af_stack.sort(axis=0)
    af_med = np.empty(shape)
    rows = max(_AGG_ELEMENTS // (n * shape[1]), 1)
    for r0 in range(0, shape[0], rows):
        vals = af_stack[:, r0 : r0 + rows]
        cost = np.zeros_like(vals)
        for j in range(n - 1):
            diff = np.abs(vals[j + 1 :] - vals[j]) % math.pi
            dist = np.minimum(diff, math.pi - diff)  # d(i, j) for i > j
            cost[j + 1 :] += dist
            for d in dist:
                cost[j] += d
        best = cost.min(axis=0)
        af_med[r0 : r0 + rows] = np.where(cost == best, vals, np.inf).min(axis=0)

    return FieldPair(ScalarField(df_med), ScalarField(af_med), r)


def generate_pseudo_gt(
    image: np.ndarray,
    n_homographies: int,
    detector_params: DetectorParams | None = None,
    sampler_params: HomographySamplerParams | None = None,
    *,
    r: float = 5.0,
    seed: int = 0,
) -> FieldPair:
    """Aggregate detections over random warps into one field pair.

    The first warp is always the identity; the remaining n - 1 are drawn
    from the sampler. Warps in which detection finds nothing are skipped.

    Raises:
        ValueError: when more than half of the warps yield no segments.
    """
    _require_int("seed", seed, minimum=0)
    if n_homographies < 1:
        raise ValueError("need at least one homography")
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.shape[0] < 2 or img.shape[1] < 2:
        raise ValueError("image must be a 2-D array of at least 2x2 pixels")
    detector_params = detector_params or DetectorParams()
    sampler_params = sampler_params or HomographySamplerParams()
    hh, ww = img.shape
    rng = np.random.default_rng(seed)

    homographies = [Homography.identity()]
    for _ in range(n_homographies - 1):
        homographies.append(sample_homography(sampler_params, ww, hh, rng))

    rendered: list[FieldPair] = []
    empty = 0
    for h in homographies:
        warped = warp_image(img, h)
        detections = detect(warped, detector_params)
        back = warp_lines(detections, h.inverse(), ww, hh)
        if len(back) == 0:
            empty += 1
            continue
        rendered.append(render_fields(back, ww, hh, r))
    if empty > n_homographies // 2:
        raise ValueError(
            f"insufficient signal: {empty} of {n_homographies} warps had no detections"
        )
    return aggregate_median(rendered)
