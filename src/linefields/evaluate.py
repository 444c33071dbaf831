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

from .geometry import (
    CameraIntrinsics,
    Homography,
    LineSegment,
    _d_vp_many,
    _homogeneous_lines,
    _line_arrays,
    _orthogonal_many,
    _require_finite,
    _require_int,
    _rows,
    _stored_homographies,
    _warp_segments,
    apply_homography,
)
from .vp import VanishingPoint, _draws

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
        _require_finite(self)
        if self.rep_threshold <= 0.0 or self.hest_inlier_threshold <= 0.0:
            raise ValueError("distance thresholds must be positive")
        if self.le_top_k < 1 or self.hest_iters < 1:
            raise ValueError("le_top_k and hest_iters must be positive")
        if self.distance_kind not in ("structural", "orthogonal"):
            raise ValueError("distance_kind must be structural or orthogonal")


def _structural_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(na, nb) structural distances between the endpoint rows a and b. A
    distance too large to represent is +inf and never matches."""
    def endpoint_distance(p: int, q: int) -> np.ndarray:
        dx = a[:, None, 2 * p] - b[None, :, 2 * q]
        dy = a[:, None, 2 * p + 1] - b[None, :, 2 * q + 1]
        with np.errstate(over="ignore"):
            return np.sqrt(dx * dx + dy * dy)

    same = 0.5 * (endpoint_distance(0, 0) + endpoint_distance(1, 1))
    swapped = 0.5 * (endpoint_distance(0, 1) + endpoint_distance(1, 0))
    return np.minimum(same, swapped)


def _greedy_pairs(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs a greedy one-to-one scan of
    ``dist`` claims, in the order it claims them.

    The scan visits entries in stable ascending order (NaN last) and claims
    each whose row and column are both free. It runs in rounds on the rank
    matrix instead: a round claims every free pair that is the first
    minimum of both its row and its column among the free entries, which
    the scan claims too, since nothing before it in the order touches its
    row or column. Each round claims at least the free minimum. Once a
    round claims fewer than an eighth of the free rows (a chain of
    preferences would take one round per pair), the scan itself finishes
    on the free entries: the pairs it claims there are the ones it claims
    on the whole matrix, since no pair claimed so far shares a row or
    column with them.
    """
    na, nb = dist.shape
    rank = np.empty(na * nb, dtype=np.intp)
    rank[np.argsort(dist, axis=None, kind="stable")] = np.arange(na * nb)
    rank = rank.reshape(na, nb)
    rows, cols = np.arange(na), np.arange(nb)
    claimed = [np.empty((3, 0), dtype=np.intp)]  # rank, row, column
    while len(rows) and len(cols):
        best = rank.argmin(axis=1)
        mutual = np.flatnonzero(rank.argmin(axis=0)[best] == np.arange(len(rows)))
        taken = best[mutual]
        claimed.append(np.stack([rank[mutual, taken], rows[mutual], cols[taken]]))
        few = 8 * len(mutual) < len(rows)
        rows, cols = np.delete(rows, mutual), np.delete(cols, taken)
        rank = np.delete(np.delete(rank, mutual, axis=0), taken, axis=1)
        if few:
            break
    if len(rows) and len(cols):
        free_rows = [True] * len(rows)
        free_cols = [True] * len(cols)
        found = []
        for flat in np.argsort(rank, axis=None).tolist():  # ranks are distinct
            i, j = divmod(flat, len(cols))
            if free_rows[i] and free_cols[j]:
                free_rows[i] = free_cols[j] = False
                found.append((i, j))
                if len(found) == min(rank.shape):
                    break
        i, j = np.array(found).T
        claimed.append(np.stack([rank[i, j], rows[i], cols[j]]))
    ranks, i, j = np.concatenate(claimed, axis=1)
    order = np.argsort(ranks)
    return i[order], j[order]


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
    b_rows, ok = _warp_segments(h_inv.m, _rows(lines_b))
    if not ok.all():
        apply_homography(h_inv, lines_b[int(np.argmin(ok))])  # raises the first failure
    a_rows = _rows(lines_a)
    if params.distance_kind == "structural":
        dist = _structural_matrix(a_rows, b_rows)
    else:
        a_lines, b_lines = _homogeneous_lines(a_rows), _homogeneous_lines(b_rows)
        dist = _orthogonal_many(a_rows[:, None], b_rows, a_lines[:, None], b_lines)
    rows, cols = _greedy_pairs(dist)
    return [
        LineMatch(i, j, d)
        for i, j, d in zip(rows.tolist(), cols.tolist(), dist[rows, cols].tolist())
    ]


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
    """Mean distance of the best (lowest-distance) matches, up to le_top_k.
    A distance that is not finite is no localization and is left out."""
    params = params or EvalParams()
    if len(matches) == 0:
        raise ValueError("localization error needs at least one match")
    dists = sorted(m.distance for m in matches if math.isfinite(m.distance))
    if not dists:
        raise ValueError("localization error needs a match at a finite distance")
    top = dists[: params.le_top_k]
    return float(sum(top) / len(top))


# Degeneracy errors of the DLT, in the order its gates run.
_DLT_ERRORS = (
    "coincident endpoints after normalization",
    "degenerate configuration: lines span fewer than 3 dimensions",
    "degenerate configuration: multiple homographies fit",
    "degenerate configuration: singular line map",
)
_HEST_ELEMENTS = 1 << 16  # model-pair entries estimate_homography tests per array call


def _normalization(pts: np.ndarray) -> np.ndarray:
    """Hartley similarities of the (k, p, 2) point stacks: centroid to
    origin, mean norm sqrt(2)."""
    centroid = pts.mean(axis=1)
    with np.errstate(over="ignore"):  # far points: spread inf, scale 0
        spread = np.mean(np.linalg.norm(pts - centroid[:, None], axis=2), axis=1)
    scale = math.sqrt(2.0) / np.maximum(spread, 1e-12)
    t = np.zeros((len(pts), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = scale
    t[:, :2, 2] = -scale[:, None] * centroid
    t[:, 2, 2] = 1.0
    return t


def _line_vecs(pts: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit line vectors through the point pairs (rows 2i, 2i + 1) of the
    (k, p, 2) stacks pts, mapped by the similarities t, and the norms they
    were divided by. A similarity's last row (0, 0, 1) keeps w exactly 1."""
    ph = np.concatenate([pts, np.ones((*pts.shape[:2], 1))], axis=2) @ t.transpose(0, 2, 1)
    v = np.cross(ph[:, 0::2], ph[:, 1::2])
    # vecdot runs the dot kernel np.linalg.norm uses on one vector.
    n = np.sqrt(np.vecdot(v, v))
    return v / n[..., None], n


def _dlt(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct linear transforms of k samples at once.

    ``a`` and ``b`` are (k, m, 4) endpoint rows of m >= 4 line pairs
    each. Returns the (k, 3, 3) point maps a -> b as homography_from_lines
    hands them to Homography, and for each sample the index into
    _DLT_ERRORS of the first gate it fails, or -1. The map of a failed
    sample is NaN. Every stacked LAPACK and BLAS call runs the routine of a
    one-sample call on each matrix, so a sample's bits do not depend on the
    others.
    """
    k, m = a.shape[:2]
    a_pts, b_pts = a.reshape(k, 2 * m, 2), b.reshape(k, 2 * m, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # failed samples stay silent
        t_a, t_b = _normalization(a_pts), _normalization(b_pts)
        (la, na), (lb, nb) = _line_vecs(a_pts, t_a), _line_vecs(b_pts, t_b)
    error = np.full(k, -1)
    live = np.arange(k)

    def gate(bad: np.ndarray, code: int) -> np.ndarray:
        error[live[bad]] = code
        return ~bad

    keep = gate(np.any((na < 1e-12) | (nb < 1e-12), axis=1), 0)
    live, la, lb = live[keep], la[keep], lb[keep]
    # A line vector that is not finite (coordinates near the float limit)
    # has no rank either. The SVD of such a sample raised LinAlgError.
    spans = np.all(np.isfinite(la), axis=(1, 2)) & np.all(np.isfinite(lb), axis=(1, 2))
    for lines in (la, lb):
        s = np.linalg.svd(lines[spans], compute_uv=False)
        spans[spans] = np.count_nonzero(s > 1e-9, axis=1) == 3
    keep = gate(~spans, 1)
    live, la, lb = live[keep], la[keep], lb[keep]

    # Two DLT rows per pair x <-> x': (0, -x'_2 x, x'_1 x), (x'_2 x, 0, -x'_0 x).
    amat = np.zeros((len(live), 2 * m, 9))
    amat[:, 0::2, 3:6] = -lb[..., 2:] * la
    amat[:, 0::2, 6:] = lb[..., 1:2] * la
    amat[:, 1::2, :3] = lb[..., 2:] * la
    amat[:, 1::2, 6:] = -lb[..., :1] * la
    _, s, vt = np.linalg.svd(amat)
    keep = gate(s[:, -2] < 1e-9 * np.maximum(s[:, 0], 1e-300), 2)
    live, g = live[keep], vt[keep, -1].reshape(-1, 3, 3)
    keep = gate(np.abs(np.linalg.det(g)) < 1e-12, 3)
    live, g = live[keep], g[keep]
    maps = np.full((k, 3, 3), np.nan)
    h_norm = np.linalg.inv(g).transpose(0, 2, 1)
    maps[live] = np.linalg.inv(t_b[live]) @ h_norm @ t_a[live]
    return maps, error


def homography_from_lines(
    pairs: Sequence[tuple[LineSegment, LineSegment]]
) -> Homography:
    """Direct linear transform from line correspondences.

    Given pairs (l_a, l_b) whose supporting lines correspond under the
    sought point map H: a -> b, solves the dual DLT (line vectors transform
    by the inverse transpose) on Hartley-normalized coordinates. Minimal
    with 4 pairs, least-squares beyond. One sample of _dlt.

    Raises:
        ValueError: with fewer than 4 pairs or a degenerate configuration
            (e.g. all lines concurrent or a pencil of parallels).
    """
    if len(pairs) < 4:
        raise ValueError("homography estimation needs at least 4 line pairs")
    maps, error = _dlt(_rows([p[0] for p in pairs])[None], _rows([p[1] for p in pairs])[None])
    if error[0] >= 0:
        raise ValueError(_DLT_ERRORS[error[0]])
    return Homography(maps[0])


def _lines_span_plane(rows: np.ndarray) -> bool:
    """False when the supporting lines all meet in one point (or are all
    parallel), so that no 4 of them determine a homography.

    Judged on the whole set's Hartley-normalized unit line vectors at
    1e-12. A subset of the rows has no larger singular values, and 1e-12
    leaves three orders of magnitude under the 1e-9 rank gate of
    homography_from_lines for a sample's own normalization, so no sample
    of a set rejected here passes that gate. Lines that shrink below
    1e-12 under the normalization are left out.
    """
    pts = rows.reshape(1, -1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero norm is left out below
        vecs, norms = _line_vecs(pts, _normalization(pts))
    return np.linalg.matrix_rank(vecs[0][norms[0] >= 1e-12], tol=1e-12) == 3


def _inlier_masks(
    ms: np.ndarray,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
    b_lines: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """(k, n) mask of the pairs whose a-segment, warped by each matrix of
    the (k, 3, 3) stack ``ms``, lies within ``threshold`` orthogonal
    distance of its b-segment. Every a-segment is warped under every matrix
    in one _warp_segments pass; a pair it rejects is an outlier.
    """
    rows, ok = _warp_segments(ms, a_rows)
    u, v = rows[..., 0::2], rows[..., 1::2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The warped segments' supporting lines as _homogeneous_lines gives
        # them, but normalized by np.hypot, which can differ from math.hypot
        # in the last bit.
        la, lb = v[..., 0] - v[..., 1], u[..., 1] - u[..., 0]
        lc = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        norm = np.hypot(la, lb)
        a_lines = np.stack([la / norm, lb / norm, lc / norm], axis=-1)
        dist = _orthogonal_many(rows, b_rows, a_lines, b_lines)
    return ok & (dist < threshold)


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

    Minimal samples are drawn by vp._draws in blocks that grow from one
    sample up to _HEST_ELEMENTS model-pair entries; a block is fitted by
    one _dlt call, its fitted samples are tested by one _inlier_masks call
    and the adaptive stop is replayed in draw order. A sample reads only
    its own words and nothing reads the generator after the stop, so the
    result is that of one sample per iteration.

    Returns (homography, boolean inlier mask).

    Raises:
        ValueError: with fewer than 4 pairs or when no model reaches 4
            inliers.
    """
    params = params or EvalParams()
    n = len(pairs)
    if n < 4:
        raise ValueError("homography estimation needs at least 4 candidate pairs")
    a_rows, b_rows = _rows([p[0] for p in pairs]), _rows([p[1] for p in pairs])
    if not (_lines_span_plane(a_rows) and _lines_span_plane(b_rows)):
        raise ValueError("no homography model found consensus")
    rng = np.random.default_rng(params.seed)
    inlier_args = (a_rows, b_rows, _homogeneous_lines(b_rows), params.hest_inlier_threshold)
    best_h: Homography | None = None
    best_mask: np.ndarray | None = None
    best_count = 0
    max_iters = params.hest_iters
    it, size, cap = 0, 1, max(1, _HEST_ELEMENTS // n)
    while it < max_iters:
        k = min(size, max_iters - it)
        size = min(2 * size, cap)
        samples = _draws(rng, n, 4, k)
        maps, _ = _dlt(a_rows[samples], b_rows[samples])  # a failed sample's map is NaN
        models, fitted = _stored_homographies(maps)
        fitted = np.flatnonzero(fitted)
        if len(fitted):  # only the samples the DLT fitted are tested
            masks = _inlier_masks(models[fitted], *inlier_args)
            counts = masks.sum(axis=1)
        for i, j in enumerate(fitted.tolist()):
            if it + j >= max_iters:
                break
            count = int(counts[i])
            if count > best_count:
                best_h, best_mask, best_count = Homography(maps[j]), masks[i].copy(), count
                if count == n:
                    break
                # Standard adaptive bound at 99% confidence.
                w = count / n
                denom = math.log1p(-min(w**4, 1.0 - 1e-12))
                needed = int(math.ceil(math.log(0.01) / denom)) if denom < 0.0 else max_iters
                max_iters = min(max_iters, max(needed, it + j + 1))
        if best_count == n:
            break
        it += k
    if best_h is None or best_count < 4:
        raise ValueError("no homography model found consensus")

    for _ in range(10):
        try:
            refit = homography_from_lines(
                [pairs[i] for i in np.flatnonzero(best_mask)]
            )
        except ValueError:
            break
        mask = _inlier_masks(refit.m[None], *inlier_args)[0]
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
    """Mean displacement of the four image corners between two warps.

    Raises:
        ValueError: when the frame size is not a positive integer.
    """
    _require_int("width", width)
    _require_int("height", height)
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be positive")
    corners = [(0.0, 0.0), (float(width), 0.0), (float(width), float(height)), (0.0, float(height))]
    total = 0.0
    for c in corners:
        pe = apply_homography(h_est, c)
        pg = apply_homography(h_gt, c)
        total += math.hypot(pe.x - pg.x, pe.y - pg.y)
    return total / 4.0


def vp_consistency(
    gt_clusters: Sequence[Sequence[LineSegment]],
    predicted: Sequence[VanishingPoint],
    thresholds: Sequence[float],
) -> list[float]:
    """Fraction of ground truth lines consistent with their assigned VP.

    Clusters claim predicted points greedily by the median d_vp over the
    cluster's lines (the scan of match_one_to_one: ascending, ties in index
    order), each point used at most once; pairs whose median is not finite
    (NaN or +inf) are not claimed. For every threshold the
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
    if any(math.isnan(t) for t in ths):
        raise ValueError("thresholds must not be NaN")
    if len(predicted) == 0:
        return [0.0 for _ in ths]

    ends = [_line_arrays(_rows(c))[:3] for c in clusters]  # midpoints, first, second endpoints
    med = np.array([[float(np.median(_d_vp_many(*e, v.v))) for v in predicted] for e in ends])
    claimed = [(ci, vi) for ci, vi in zip(*_greedy_pairs(med)) if math.isfinite(med[ci, vi])]
    out = []
    for t in ths:
        good = 0
        for ci, vi in claimed:
            good += int((_d_vp_many(*ends[ci], predicted[vi].v) < t).sum())
        out.append(good / total_lines)
    return out


def _min_cost_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost one-to-one pairing of the rows and columns of a small
    2-D cost matrix, as (rows ascending, their columns). A port of the
    solver of scipy.optimize.linear_sum_assignment, Crouse's shortest
    augmenting path (IEEE TAES 2016), with its choices among ties: a wide
    matrix is solved row by row (a tall one transposed); each row runs
    Dijkstra over the reduced costs to the nearest free column, the duals
    move by the path costs, and the path is flipped.

    Raises:
        ValueError: on a NaN or -inf entry, or when a row has no finite
            path to a free column.
    """
    c = np.asarray(cost, dtype=np.float64)
    transpose = c.shape[1] < c.shape[0]
    if transpose:
        c = c.T
    if np.isnan(c).any() or (c == -math.inf).any():
        raise ValueError("matrix contains invalid numeric entries")
    nr, nc = c.shape
    c = c.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # The columns are scanned in reverse so that a constant matrix
        # pairs row i with column i.
        remaining = list(range(nc - 1, -1, -1))
        short = [math.inf] * nc
        rows, cols = [], []
        min_val = 0.0
        i = cur
        sink = -1
        while sink < 0:
            rows.append(i)
            ci, ui = c[i], u[i]
            index = -1
            lowest = math.inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < short[j]:
                    path[j] = i
                    short[j] = r
                # Among tied columns, one with no row ends the path.
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    lowest = short[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - short[col4row[i]]
        for j in cols:
            v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    pairs = np.array(col4row, dtype=np.intp)
    if transpose:
        order = np.argsort(pairs)
        return pairs[order], order
    return np.arange(nr), pairs


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
    if not (math.isfinite(max_angle_deg) and max_angle_deg > 0.0):
        raise ValueError("max_angle_deg must be positive and finite")
    if len(predicted) == 0:
        return math.inf, 0.0
    kinv = intrinsics.inverse_matrix()

    def directions(vps: Sequence[VanishingPoint]) -> np.ndarray:
        with np.errstate(all="ignore"):  # refused below when it matters
            d = np.stack([kinv @ v.v for v in vps])
            norm = np.linalg.norm(d, axis=1, keepdims=True)
        if not (np.isfinite(d).all() and np.all((norm > 0.0) & (norm < math.inf))):
            raise ValueError(
                "vanishing point directions overflow or vanish under the "
                "inverse intrinsics; check fx, fy, cx and cy"
            )
        return d / norm

    dg = directions(gt_vps)
    dp = directions(predicted)
    cosangle = np.clip(np.abs(dg @ dp.T), 0.0, 1.0)
    err_deg = np.degrees(np.arccos(cosangle))
    rows, cols = _min_cost_assignment(err_deg)
    assigned = err_deg[rows, cols]
    median = float(np.median(assigned))
    auc = float(
        np.sum(np.maximum(0.0, max_angle_deg - assigned))
        / (max_angle_deg * len(gt_vps))
    )
    return median, auc
