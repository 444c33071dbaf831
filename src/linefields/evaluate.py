"""Detection and vanishing point quality metrics.

Line metrics compare two detections of the same scene related by a known
homography: one-to-one greedy matching, repeatability, localization error,
and homography re-estimation from line correspondences. Vanishing point
metrics score predicted points against ground truth clusters or known 3-D
directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import (
    CameraIntrinsics,
    Homography,
    LineSegment,
    _DEGENERATE_EPS,
    _d_vp_many,
    _orthogonal_many,
    apply_homography,
    segments_to_array,
)
from .vp import VanishingPoint, _line_arrays

__all__ = [
    "LineMatch",
    "EvalParams",
    "match_one_to_one",
    "repeatability",
    "localization_error",
    "homography_from_lines",
    "estimate_homography",
    "corner_error",
    "vp_consistency",
    "vp_error_auc",
]


@dataclass(frozen=True)
class LineMatch:
    """One matched pair and its matching distance."""

    index_a: int
    index_b: int
    distance: float


@dataclass(frozen=True)
class EvalParams:
    """Metric thresholds and estimator configuration."""

    rep_threshold: float = 3.0  # a match below this counts as repeated
    le_top_k: int = 50  # localization error averages the best k matches
    distance_kind: Literal["structural", "orthogonal"] = "structural"
    hest_iters: int = 1_000_000  # RANSAC iteration cap
    hest_inlier_threshold: float = 3.0  # orthogonal distance gate, pixels
    seed: int = 0  # reseeded per estimator call

    def __post_init__(self) -> None:
        if self.rep_threshold <= 0.0 or self.hest_inlier_threshold <= 0.0:
            raise ValueError("distance thresholds must be positive")
        if self.le_top_k < 1 or self.hest_iters < 1:
            raise ValueError("le_top_k and hest_iters must be positive")
        if self.distance_kind not in ("structural", "orthogonal"):
            raise ValueError("distance_kind must be structural or orthogonal")


def _structural_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(a[:, None, :, None, :] - b[None, :, None, :, :], axis=-1)
    same = 0.5 * (d[:, :, 0, 0] + d[:, :, 1, 1])
    swapped = 0.5 * (d[:, :, 0, 1] + d[:, :, 1, 0])
    return np.minimum(same, swapped)


def _homogeneous_lines(segs: Sequence[LineSegment]) -> np.ndarray:
    return np.stack([seg.homogeneous_line() for seg in segs])


def match_one_to_one(
    lines_a: Sequence[LineSegment],
    lines_b: Sequence[LineSegment],
    h_gt: Homography,
    params: EvalParams | None = None,
) -> list[LineMatch]:
    """Greedy one-to-one matching of two detections of the same scene.

    ``h_gt`` maps frame a to frame b; the b lines are warped back into
    frame a before distances are computed. Pairs are claimed in order of
    ascending distance (exact ties resolved by index order), so exactly
    min(len_a, len_b) matches return, each index used once.
    """
    params = params or EvalParams()
    if len(lines_a) == 0 or len(lines_b) == 0:
        return []
    h_inv = h_gt.inverse()
    warped_b = [apply_homography(h_inv, seg) for seg in lines_b]
    a_pts = segments_to_array(lines_a)
    b_pts = segments_to_array(warped_b)
    if params.distance_kind == "structural":
        dist = _structural_matrix(a_pts, b_pts)
    else:
        a_lines, b_lines = _homogeneous_lines(lines_a), _homogeneous_lines(warped_b)
        dist = _orthogonal_many(a_pts[:, None], b_pts, a_lines[:, None], b_lines)
    order = np.argsort(dist, axis=None, kind="stable")
    used_a = np.zeros(len(lines_a), dtype=bool)
    used_b = np.zeros(len(warped_b), dtype=bool)
    matches: list[LineMatch] = []
    limit = min(len(lines_a), len(warped_b))
    for flat in order:
        i, j = divmod(int(flat), len(warped_b))
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = True
        used_b[j] = True
        matches.append(LineMatch(i, j, float(dist[i, j])))
        if len(matches) == limit:
            break
    return matches


def repeatability(
    matches: Sequence[LineMatch],
    counts: tuple[int, int],
    params: EvalParams | None = None,
) -> float:
    """Fraction of the smaller detection set re-found within the threshold."""
    params = params or EvalParams()
    n_a, n_b = counts
    if n_a < 1 or n_b < 1:
        raise ValueError("both detection counts must be positive")
    good = sum(1 for m in matches if m.distance < params.rep_threshold)
    return good / min(n_a, n_b)


def localization_error(
    matches: Sequence[LineMatch], params: EvalParams | None = None
) -> float:
    """Mean distance of the best (lowest-distance) matches, up to le_top_k."""
    params = params or EvalParams()
    if len(matches) == 0:
        raise ValueError("localization error needs at least one match")
    dists = sorted(m.distance for m in matches)
    top = dists[: params.le_top_k]
    return float(sum(top) / len(top))


def _normalization(pts: np.ndarray) -> np.ndarray:
    """Hartley similarity: centroid to origin, mean norm sqrt(2)."""
    centroid = pts.mean(axis=0)
    spread = float(np.mean(np.linalg.norm(pts - centroid, axis=1)))
    scale = math.sqrt(2.0) / max(spread, 1e-12)
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def _line_vecs(pts: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unit line vectors through the point pairs (rows 2k, 2k + 1) of pts,
    mapped by the similarity t. Its last row (0, 0, 1) keeps w exactly 1."""
    ph = np.hstack([pts, np.ones((len(pts), 1))]) @ t.T
    v = np.cross(ph[0::2], ph[1::2])
    # vecdot runs the dot kernel np.linalg.norm uses on one vector.
    n = np.sqrt(np.vecdot(v, v))
    if np.any(n < 1e-12):
        raise ValueError("coincident endpoints after normalization")
    return v / n[:, None]


def homography_from_lines(
    pairs: Sequence[tuple[LineSegment, LineSegment]]
) -> Homography:
    """Direct linear transform from line correspondences.

    Given pairs (l_a, l_b) whose supporting lines correspond under the
    sought point map H: a -> b, solves the dual DLT (line vectors transform
    by the inverse transpose) on Hartley-normalized coordinates. Minimal
    with 4 pairs, least-squares beyond.

    Raises:
        ValueError: with fewer than 4 pairs or a degenerate configuration
            (e.g. all lines concurrent or a pencil of parallels).
    """
    if len(pairs) < 4:
        raise ValueError("homography estimation needs at least 4 line pairs")
    a_pts = segments_to_array([p[0] for p in pairs]).reshape(-1, 2)
    b_pts = segments_to_array([p[1] for p in pairs]).reshape(-1, 2)
    t_a = _normalization(a_pts)
    t_b = _normalization(b_pts)

    la = _line_vecs(a_pts, t_a)
    lb = _line_vecs(b_pts, t_b)
    if np.linalg.matrix_rank(la, tol=1e-9) < 3 or np.linalg.matrix_rank(lb, tol=1e-9) < 3:
        raise ValueError("degenerate configuration: lines span fewer than 3 dimensions")

    # Two DLT rows per pair x <-> x': (0, -x'_2 x, x'_1 x), (x'_2 x, 0, -x'_0 x).
    amat = np.zeros((2 * len(la), 9))
    amat[0::2, 3:6] = -lb[:, 2:] * la
    amat[0::2, 6:] = lb[:, 1:2] * la
    amat[1::2, :3] = lb[:, 2:] * la
    amat[1::2, 6:] = -lb[:, :1] * la
    _, s, vt = np.linalg.svd(amat)
    if s[-2] < 1e-9 * max(s[0], 1e-300):
        raise ValueError("degenerate configuration: multiple homographies fit")
    g = vt[-1].reshape(3, 3)
    if abs(np.linalg.det(g)) < 1e-12:
        raise ValueError("degenerate configuration: singular line map")
    h_norm = np.linalg.inv(g).T
    return Homography(np.linalg.inv(t_b) @ h_norm @ t_a)


def _lines_span_plane(segs: Sequence[LineSegment]) -> bool:
    """False when the supporting lines all meet in one point (or are all
    parallel), so that no 4 of them determine a homography.

    Judged on the whole set's Hartley-normalized unit line vectors at
    1e-12. A subset of the rows has no larger singular values, and 1e-12
    leaves three orders of magnitude under the 1e-9 rank gate of
    homography_from_lines for a sample's own normalization, so no sample
    of a set rejected here passes that gate. Lines that shrink below
    1e-12 under the normalization are left out.
    """
    pts = segments_to_array(segs).reshape(-1, 2)
    ph = np.hstack([pts, np.ones((len(pts), 1))]) @ _normalization(pts).T
    vecs = np.cross(ph[0::2], ph[1::2])
    norms = np.linalg.norm(vecs, axis=1)
    keep = norms >= 1e-12
    return np.linalg.matrix_rank(vecs[keep] / norms[keep, None], tol=1e-12) == 3


def _inlier_mask(
    h: Homography,
    a_pts: np.ndarray,
    b_pts: np.ndarray,
    b_lines: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Pairs whose a-segment, warped by ``h``, lies within ``threshold``
    orthogonal distance of its b-segment.

    Every a-endpoint is warped in one pass with apply_homography's
    arithmetic. A pair is an outlier where apply_homography or LineSegment
    would raise: an endpoint maps to infinity (|w| <= 1e-12), or the warped
    endpoints coincide or are not finite, which gives a NaN or infinite
    distance.
    """
    m = h.m
    x, y = a_pts[..., 0], a_pts[..., 1]
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / w
        v = (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / w
        # LineSegment.homogeneous_line of the warped segments
        la, lb = v[:, 0] - v[:, 1], u[:, 1] - u[:, 0]
        lc = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        norm = np.hypot(la, lb)
        a_lines = np.stack([la / norm, lb / norm, lc / norm], axis=1)
        dist = _orthogonal_many(np.stack([u, v], axis=-1), b_pts, a_lines, b_lines)
    return np.all(np.abs(w) > _DEGENERATE_EPS, axis=1) & (dist < threshold)


def estimate_homography(
    pairs: Sequence[tuple[LineSegment, LineSegment]],
    params: EvalParams | None = None,
) -> tuple[Homography, np.ndarray]:
    """Robust homography from candidate line pairs.

    Locally optimized RANSAC: minimal 4-pair models, inliers gated by the
    orthogonal distance between the warped a-line and the b-line, repeated
    least-squares refits on the inlier set while it grows. A set whose a-
    or b-lines all meet in one point fails at once. The internal
    generator is reseeded from params.seed on every call, so the result
    does not depend on input ordering beyond index identity.

    Returns (homography, boolean inlier mask).

    Raises:
        ValueError: with fewer than 4 pairs or when no model reaches 4
            inliers.
    """
    params = params or EvalParams()
    n = len(pairs)
    if n < 4:
        raise ValueError("homography estimation needs at least 4 candidate pairs")
    lines_a = [p[0] for p in pairs]
    lines_b = [p[1] for p in pairs]
    if not (_lines_span_plane(lines_a) and _lines_span_plane(lines_b)):
        raise ValueError("no homography model found consensus")
    rng = np.random.default_rng(params.seed)
    a_pts, b_pts = segments_to_array(lines_a), segments_to_array(lines_b)
    b_lines = _homogeneous_lines(lines_b)

    def inlier_mask(h: Homography) -> np.ndarray:
        return _inlier_mask(h, a_pts, b_pts, b_lines, params.hest_inlier_threshold)

    best_h: Homography | None = None
    best_mask: np.ndarray | None = None
    best_count = 0
    max_iters = params.hest_iters
    it = 0
    while it < max_iters:
        it += 1
        sample = rng.choice(n, size=4, replace=False)
        try:
            h = homography_from_lines([pairs[int(i)] for i in sample])
        except ValueError:
            continue
        mask = inlier_mask(h)
        count = int(mask.sum())
        if count > best_count:
            best_h, best_mask, best_count = h, mask, count
            if count == n:
                break
            # Standard adaptive bound at 99% confidence.
            w = count / n
            denom = math.log1p(-min(w**4, 1.0 - 1e-12))
            needed = int(math.ceil(math.log(0.01) / denom)) if denom < 0.0 else max_iters
            max_iters = min(max_iters, max(needed, it))
    if best_h is None or best_count < 4:
        raise ValueError("no homography model found consensus")

    for _ in range(10):
        try:
            refit = homography_from_lines(
                [pairs[i] for i in np.flatnonzero(best_mask)]
            )
        except ValueError:
            break
        mask = inlier_mask(refit)
        count = int(mask.sum())
        if count > best_count:
            best_h, best_mask, best_count = refit, mask, count
        else:
            if count == best_count:
                best_h, best_mask = refit, mask
            break
    return best_h, best_mask


def corner_error(
    h_est: Homography, h_gt: Homography, width: int, height: int
) -> float:
    """Mean displacement of the four image corners between two warps."""
    corners = [(0.0, 0.0), (float(width), 0.0), (float(width), float(height)), (0.0, float(height))]
    total = 0.0
    for c in corners:
        pe = apply_homography(h_est, c)
        pg = apply_homography(h_gt, c)
        total += math.hypot(pe.x - pg.x, pe.y - pg.y)
    return total / 4.0


def _cluster_dvp(cluster: Sequence[LineSegment], v: VanishingPoint) -> np.ndarray:
    mids, e1, e2, _ = _line_arrays(cluster)
    return _d_vp_many(mids, e1, e2, v.v)


def vp_consistency(
    gt_clusters: Sequence[Sequence[LineSegment]],
    predicted: Sequence[VanishingPoint],
    thresholds: Sequence[float],
) -> list[float]:
    """Fraction of ground truth lines consistent with their assigned VP.

    Clusters claim predicted points greedily by the median d_vp over the
    cluster's lines, each point used at most once. For every threshold the
    returned fraction counts lines (over all clusters) whose d_vp to the
    claimed point stays below it; lines of unmatched clusters count as
    inconsistent.
    """
    clusters = [list(c) for c in gt_clusters if len(c) > 0]
    total_lines = sum(len(c) for c in clusters)
    if total_lines == 0:
        raise ValueError("vp consistency needs at least one ground truth line")
    ths = [float(t) for t in thresholds]
    if len(ths) == 0:
        raise ValueError("at least one threshold is required")
    if len(predicted) == 0:
        return [0.0 for _ in ths]

    med = np.array(
        [
            [float(np.median(_cluster_dvp(c, v))) for v in predicted]
            for c in clusters
        ]
    )
    claimed: dict[int, int] = {}
    free_c = set(range(len(clusters)))
    free_v = set(range(len(predicted)))
    while free_c and free_v:
        best = None
        for ci in sorted(free_c):
            for vi in sorted(free_v):
                if best is None or med[ci, vi] < med[best[0], best[1]]:
                    best = (ci, vi)
        if best is None or not math.isfinite(med[best[0], best[1]]):
            break
        claimed[best[0]] = best[1]
        free_c.discard(best[0])
        free_v.discard(best[1])

    out = []
    for t in ths:
        good = 0
        for ci, cluster in enumerate(clusters):
            if ci not in claimed:
                continue
            d = _cluster_dvp(cluster, predicted[claimed[ci]])
            good += int((d < t).sum())
        out.append(good / total_lines)
    return out


def vp_error_auc(
    gt_vps: Sequence[VanishingPoint],
    predicted: Sequence[VanishingPoint],
    intrinsics: CameraIntrinsics,
    max_angle_deg: float = 10.0,
) -> tuple[float, float]:
    """Angular vanishing point error and the area under its recall curve.

    Points are back-projected to 3-D directions with the inverse
    intrinsics; errors are angles between directions (sign-free). Ground
    truth and predictions are paired by minimum-cost one-to-one assignment.
    Returns (median error in degrees over assigned pairs, recall area over
    [0, max_angle_deg] normalized to [0, 1]). With no predictions the
    median is +inf and the area 0.
    """
    if len(gt_vps) == 0:
        raise ValueError("vp error needs at least one ground truth point")
    if max_angle_deg <= 0.0:
        raise ValueError("max_angle_deg must be positive")
    if len(predicted) == 0:
        return math.inf, 0.0
    kinv = intrinsics.inverse_matrix()

    def directions(vps: Sequence[VanishingPoint]) -> np.ndarray:
        d = np.stack([kinv @ v.v for v in vps])
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    dg = directions(gt_vps)
    dp = directions(predicted)
    cosangle = np.clip(np.abs(dg @ dp.T), 0.0, 1.0)
    err_deg = np.degrees(np.arccos(cosangle))
    rows, cols = linear_sum_assignment(err_deg)
    assigned = err_deg[rows, cols]
    median = float(np.median(assigned))
    auc = float(
        np.sum(np.maximum(0.0, max_angle_deg - assigned))
        / (max_angle_deg * len(gt_vps))
    )
    return median, auc
