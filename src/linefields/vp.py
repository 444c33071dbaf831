"""Vanishing point estimation from line segments.

Candidates come from minimal 2-line samples (cross product of the two
supporting lines); consensus is measured by the midpoint-anchored distance
d_vp, weighted by segment length. Models are extracted greedily: the best
candidate absorbs its inliers, which are removed before the next round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import LineSegment, _d_vp_many, segments_to_array

__all__ = [
    "VanishingPoint",
    "VpParams",
    "VpAssignment",
    "vp_from_two_lines",
    "fit_vps",
    "refine_vp",
]

# Per-line model index, None for unassigned lines.
VpAssignment = list  # list[int | None]

_SCORE_ELEMENTS = 1 << 16  # d_vp entries fit_vps scores per array call


@dataclass(frozen=True)
class VanishingPoint:
    """Homogeneous image point with unit Euclidean norm.

    The sign is canonicalized (last nonzero coordinate positive) so equal
    directions compare equal.
    """

    v: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=float).reshape(3)
        if not np.all(np.isfinite(v)):
            raise ValueError("vanishing point must be finite")
        n = float(np.linalg.norm(v))
        if n < 1e-12:
            raise ValueError("vanishing point must be a nonzero 3-vector")
        if abs(n - 1.0) > 1e-12:  # keep already-unit vectors bit-stable
            v = v / n
        for c in (v[2], v[1], v[0]):
            if c != 0.0:
                if c < 0.0:
                    v = -v
                break
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def is_ideal(self, eps: float = 1e-12) -> bool:
        """True for directions (points at infinity)."""
        return abs(self.v[2]) <= eps


@dataclass(frozen=True)
class VpParams:
    """Greedy multi-model fitting configuration."""

    t_vp: float = 1.5  # inlier threshold on d_vp, pixels
    min_support: int = 5  # lines required to accept a model
    max_models: int = 8
    ransac_iters: int = 1000  # candidate samples per model round
    seed: int = 0

    def __post_init__(self) -> None:
        if self.t_vp <= 0.0:
            raise ValueError("t_vp must be positive")
        if self.min_support < 2:
            raise ValueError("min_support must be at least 2")
        if self.max_models < 1:
            raise ValueError("max_models must be positive")
        if self.ransac_iters < 1:
            raise ValueError("ransac_iters must be positive")


def vp_from_two_lines(l1: LineSegment, l2: LineSegment) -> VanishingPoint:
    """Intersection of two supporting lines as a vanishing point.

    Raises:
        ValueError: when the lines are identical (undefined intersection).
    """
    a = l1.homogeneous_line()
    b = l2.homogeneous_line()
    v = np.cross(a, b)
    if float(np.linalg.norm(v)) < 1e-12:
        raise ValueError("lines share a supporting line; intersection undefined")
    return VanishingPoint(v)


def _line_arrays(
    lines: Sequence[LineSegment],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Midpoints, first and second endpoints as (n, 2) arrays, and lengths."""
    pts = segments_to_array(lines)
    lengths = np.array([seg.length for seg in lines])
    return 0.5 * (pts[:, 0] + pts[:, 1]), pts[:, 0], pts[:, 1], lengths


def _tangent_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(v)))] = 1.0
    e1 = np.cross(v, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(v, e1)
    e2 /= np.linalg.norm(e2)
    return e1, e2


def refine_vp(
    v: VanishingPoint,
    inliers: Sequence[LineSegment],
    *,
    max_iter: int = 100,
    tol: float = 1e-12,
    full_output: bool = False,
):
    """Minimize the length-weighted squared d_vp over the unit sphere.

    Levenberg-Marquardt on a 2-parameter tangent-plane chart, numeric
    central-difference Jacobian, uphill steps rejected. Residuals carry
    the side sign (squaring removes it from the cost) so the Jacobian
    stays meaningful where segments cross the joining line. Returns the
    best iterate; with ``full_output=True`` returns (vp, cost, converged).

    Raises:
        ValueError: with fewer than 2 inlier lines.
    """
    if len(inliers) < 2:
        raise ValueError("vanishing point refinement needs at least 2 lines")
    mids, e1p, e2p, lengths = _line_arrays(inliers)
    sqw = np.sqrt(lengths)

    def residuals(vec: np.ndarray) -> np.ndarray:
        return sqw * _d_vp_many(mids, e1p, e2p, vec, signed=True)

    cur = np.array(v.v, dtype=float)
    res = residuals(cur)
    cost = float(res @ res)
    if not math.isfinite(cost):
        if full_output:
            return VanishingPoint(cur), cost, False
        return VanishingPoint(cur)

    mu = 1e-3
    converged = False
    h = 1e-7
    for _ in range(max_iter):
        b1, b2 = _tangent_basis(cur)

        def at(a: float, b: float) -> np.ndarray:
            w = cur + a * b1 + b * b2
            return w / np.linalg.norm(w)

        jac = np.empty((len(inliers), 2))
        jac[:, 0] = (residuals(at(h, 0.0)) - residuals(at(-h, 0.0))) / (2.0 * h)
        jac[:, 1] = (residuals(at(0.0, h)) - residuals(at(0.0, -h))) / (2.0 * h)
        if not np.all(np.isfinite(jac)):
            break
        g = jac.T @ res
        if float(np.linalg.norm(g)) < 1e-14:
            converged = True
            break
        jtj = jac.T @ jac
        damp_scale = np.maximum(np.diag(jtj), 1e-12)
        stepped = False
        for _boost in range(12):
            try:
                delta = np.linalg.solve(jtj + mu * np.diag(damp_scale), -g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            trial = at(float(delta[0]), float(delta[1]))
            trial_res = residuals(trial)
            trial_cost = float(trial_res @ trial_res)
            if math.isfinite(trial_cost) and trial_cost < cost:
                step = float(np.linalg.norm(delta))
                cur = trial
                res = trial_res
                improvement = cost - trial_cost
                cost = trial_cost
                mu = max(mu / 3.0, 1e-12)
                stepped = True
                if step < tol or improvement < tol * max(cost, 1.0):
                    converged = True
                break
            mu *= 10.0
        if not stepped:
            converged = True  # no downhill step at any damping: local minimum
            break
        if converged:
            break

    out = VanishingPoint(cur)
    if full_output:
        return out, cost, converged
    return out


def _best_candidate(v: np.ndarray, sub: tuple[np.ndarray, ...], params: VpParams) -> int | None:
    """Index of the row of ``v`` (cross products of candidate line pairs)
    whose VP wins a round against the lines of ``sub`` (_line_arrays).

    The winner is the first candidate with the largest inlier length among
    those with at least min_support inliers, as a one-at-a-time scan with a
    strict ``>`` finds it; pairs on one supporting line are skipped. The
    (candidates x lines) d_vp matrix is scored in row chunks of at most
    _SCORE_ELEMENTS entries.
    """
    mids, e1, e2, lengths = sub
    # vecdot runs the dot kernel of np.linalg.norm, so the skip test and
    # the unit scaling match vp_from_two_lines bit for bit. Its sign flip
    # is left out: negating v leaves every d_vp bit unchanged.
    norm = np.sqrt(np.vecdot(v, v))[:, None]
    index = np.flatnonzero(norm[:, 0] >= 1e-12)
    v, norm = v[index], norm[index]
    vecs = np.where(np.abs(norm - 1.0) > 1e-12, v / norm, v)
    best, best_len = None, 0.0
    rows = max(1, _SCORE_ELEMENTS // len(lengths))
    for start in range(0, len(index), rows):
        inl = _d_vp_many(mids, e1, e2, vecs[start : start + rows, None, :]) < params.t_vp
        for k in np.flatnonzero(inl.sum(axis=1) >= params.min_support):
            support_len = float(lengths[inl[k]].sum())
            if support_len > best_len:
                best, best_len = int(index[start + k]), support_len
    return best


def fit_vps(
    lines: Sequence[LineSegment],
    params: VpParams | None = None,
) -> tuple[list[VanishingPoint], VpAssignment]:
    """Greedy sequential multi-model vanishing point fitting.

    Each round draws random 2-line candidates from the still-unassigned
    lines and scores them by the total length of lines with d_vp below
    t_vp. Candidates with fewer than min_support inliers are never
    acceptable, so they cannot outrank a valid model; the best acceptable
    one is refined and its inliers leave the pool. Deterministic given
    params.seed. Every assigned line satisfies d_vp < t_vp against its
    model.
    """
    params = params or VpParams()
    n = len(lines)
    assignment: VpAssignment = [None] * n
    models: list[VanishingPoint] = []
    if n < 2:
        return models, assignment

    arrays = _line_arrays(lines)
    hom = np.array([seg.homogeneous_line() for seg in lines])
    rng = np.random.default_rng(params.seed)
    remaining = np.arange(n)

    while len(models) < params.max_models and len(remaining) >= params.min_support:
        sub_m, sub_e1, sub_e2, _ = sub = tuple(x[remaining] for x in arrays)
        draws = [rng.choice(len(remaining), 2, replace=False) for _ in range(params.ransac_iters)]
        pairs = remaining[np.array(draws)]
        best = _best_candidate(np.cross(hom[pairs[:, 0]], hom[pairs[:, 1]]), sub, params)
        if best is None:
            break
        best_vec = vp_from_two_lines(lines[pairs[best, 0]], lines[pairs[best, 1]]).v

        mask = _d_vp_many(sub_m, sub_e1, sub_e2, best_vec) < params.t_vp
        inlier_idx = remaining[mask]
        refined = refine_vp(
            VanishingPoint(best_vec), [lines[int(ix)] for ix in inlier_idx]
        )
        ref_mask = _d_vp_many(sub_m, sub_e1, sub_e2, refined.v) < params.t_vp
        if int(ref_mask.sum()) >= params.min_support:
            chosen, chosen_mask = refined, ref_mask
        else:
            chosen, chosen_mask = VanishingPoint(best_vec), mask
        model_idx = len(models)
        models.append(chosen)
        for ix in remaining[chosen_mask]:
            assignment[int(ix)] = model_idx
        remaining = remaining[~chosen_mask]

    return models, assignment
