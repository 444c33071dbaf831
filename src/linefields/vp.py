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

from .geometry import (
    LineSegment,
    _d_vp_many,
    _homogeneous_lines,
    _line_arrays,
    _require_finite,
    _rows,
)

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
_VP_LEVELS = 12  # damping levels refine_vp tries per iteration: mu, 10 mu, ...
_VP_MAX_ITER = 100  # refine_vp iterations
_VP_TOL = 1e-12  # refine_vp step size and relative gain convergence threshold


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
        if not np.any(v):
            raise ValueError("vanishing point must be a nonzero 3-vector")
        with np.errstate(over="ignore"):
            n = float(np.linalg.norm(v))
        if not 1e-12 <= n < math.inf:  # squares over- or underflow: scale by max |v| first
            v = v / np.max(np.abs(v))
            n = float(np.linalg.norm(v))
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
        _require_finite(self)
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
    a, b = _homogeneous_lines(_rows([l1, l2]))
    v = np.cross(a, b)
    if float(np.linalg.norm(v)) < 1e-12:
        raise ValueError("lines share a supporting line; intersection undefined")
    return VanishingPoint(v)


def _cross(a, b) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit: the same products and
    differences, without its axis handling (which dominates at this size)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _tangent_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    axis = [0.0, 0.0, 0.0]
    axis[int(np.argmin(np.abs(v)))] = 1.0
    a = v.tolist()
    e1 = _cross(a, axis)
    e1 /= np.linalg.norm(e1)
    e2 = _cross(a, e1.tolist())
    e2 /= np.linalg.norm(e2)
    return e1, e2


def _solve_2x2(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of 2x2 systems; returns (solutions, solved mask).

    One singular matrix makes np.linalg.solve raise for the whole stack;
    then each system is solved alone, so only the singular ones fail.
    """
    solved = np.ones(len(rhs), dtype=bool)
    try:
        return np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0], solved
    except np.linalg.LinAlgError:
        out = np.zeros_like(rhs)
        for k in range(len(rhs)):
            try:
                out[k] = np.linalg.solve(lhs[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return out, solved


def _damping_ladder(hess, damp, g, mu, f0, levels, trial):
    """One Levenberg-Marquardt damping ladder for each of n 2x2 systems.

    System k is damped at mu[k], 10 mu[k], ... (``levels`` of them, each
    the one before times 10, as raising mu level by level does): the
    (n, 2, 2) hess[k] + mu_level damp[k] are solved against -g[k] as one
    _solve_2x2 stack. ``trial`` maps the (n, levels, 2) steps to their
    (n, levels) costs followed by any per-step (n, levels, ...) arrays.
    System k steps at its first level that solved, costs a finite amount
    and goes below f0[k]; one with no such level has converged. Returns
    the stepped mask and, for the systems that stepped, the next mu (that
    level's mu / 3, at least 1e-12) and the entries of ``trial`` there.
    """
    n = len(g)
    mus = np.full((n, levels), 10.0)
    mus[:, 0] = mu
    mus = np.cumprod(mus, axis=1)
    lhs = hess[:, None] + mus[:, :, None, None] * damp[:, None]
    delta, solved = _solve_2x2(lhs.reshape(-1, 2, 2), np.repeat(-g, levels, axis=0))
    cost, *steps = trial(delta.reshape(n, levels, 2))
    down = solved.reshape(n, levels) & np.isfinite(cost) & (cost < f0[:, None])
    stepped = down.any(axis=1)
    r, lvl = np.flatnonzero(stepped), np.argmax(down[stepped], axis=1)  # first downhill level
    return stepped, np.maximum(mus[r, lvl] / 3.0, 1e-12), cost[r, lvl], *(s[r, lvl] for s in steps)


def refine_vp(v: VanishingPoint, inliers: Sequence[LineSegment], *, full_output: bool = False):
    """Minimize the length-weighted squared d_vp over the unit sphere.

    Levenberg-Marquardt on a 2-parameter tangent-plane chart, numeric
    central-difference Jacobian, uphill steps rejected. Residuals carry
    the side sign (squaring removes it from the cost) so the Jacobian
    stays meaningful where segments cross the joining line. Each iteration
    scores its _VP_LEVELS damping levels in one _damping_ladder call.
    Converged means the gradient vanished, the step or its relative gain
    fell below _VP_TOL, or no level went downhill. Returns the best
    iterate; with ``full_output=True`` returns (vp, cost, converged).

    Raises:
        ValueError: with fewer than 2 inlier lines.
    """
    if len(inliers) < 2:
        raise ValueError("vanishing point refinement needs at least 2 lines")
    mids, e1p, e2p, lengths = _line_arrays(_rows(inliers))
    sqw = np.sqrt(lengths)

    def residuals(vec: np.ndarray) -> np.ndarray:
        return sqw * _d_vp_many(mids, e1p, e2p, vec, signed=True)

    cur = np.array(v.v, dtype=float)
    res = residuals(cur)
    cost = float(res @ res)
    mu = np.array([1e-3])
    converged = False
    h = 1e-7
    # A cost that cannot be evaluated leaves the point where it is.
    for _ in range(_VP_MAX_ITER if math.isfinite(cost) else 0):
        b1, b2 = _tangent_basis(cur)

        def at(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            # vecdot runs the dot kernel of np.linalg.norm and of r @ r, so
            # stacked vectors and costs round as each one alone.
            w = cur + a[..., None] * b1 + b[..., None] * b2
            return w / np.sqrt(np.vecdot(w, w))[..., None]

        r = residuals(at(np.array([h, -h, 0.0, 0.0]), np.array([0.0, 0.0, h, -h]))[:, None])
        jac = np.stack([(r[0] - r[1]) / (2.0 * h), (r[2] - r[3]) / (2.0 * h)], axis=1)
        if not np.all(np.isfinite(jac)):
            break
        g = jac.T @ res
        if float(np.linalg.norm(g)) < 1e-14:
            converged = True
            break
        jtj = jac.T @ jac

        def trial(delta: np.ndarray) -> tuple[np.ndarray, ...]:
            w = at(delta[..., 0], delta[..., 1])
            w_res = residuals(w[..., None, :])
            return np.vecdot(w_res, w_res), w, w_res, delta

        damp = np.diag(np.maximum(np.diag(jtj), 1e-12))
        stepped, *moved = _damping_ladder(
            jtj[None], damp[None], g[None], mu, np.array([cost]), _VP_LEVELS, trial
        )
        if not stepped[0]:
            converged = True  # no downhill step at any damping: local minimum
            break
        mu, (trial_cost,), (cur,), (res,), (delta,) = moved
        improvement = cost - trial_cost
        cost = float(trial_cost)
        if float(np.linalg.norm(delta)) < _VP_TOL or improvement < _VP_TOL * max(cost, 1.0):
            converged = True
            break

    out = VanishingPoint(cur)
    if full_output:
        return out, cost, converged
    return out


def _pair_draws(rng: np.random.Generator, m: int, iters: int) -> np.ndarray:
    """``iters`` rows of ``rng.choice(m, 2, replace=False)``, drawn at once.

    For m of 3 or more, numpy's choice runs Floyd's sampling over Lemire's
    bounded integers: one 32-bit word for the first index in [0, m - 1),
    one for the second in [0, m) (taken as m - 1 if it repeats the first),
    and one for the coin of the final shuffle. So one block of 3 words per
    draw gives the same pairs and leaves the generator in the same state.
    When a word would be rejected and redrawn (the low half of its product
    falls below (2**32 - n) % n), when m < 3 (no word for the first index)
    or m >= 2**32, and for bit generators other than PCG64, the state is
    restored and the draws are made one call at a time.
    """
    if 3 <= m < 2**32 and isinstance(rng.bit_generator, np.random.PCG64):
        state = rng.bit_generator.state
        words = rng.integers(0, 2**32, size=(iters, 3), dtype=np.uint32).astype(np.uint64)
        first, second = words[:, 0] * np.uint64(m - 1), words[:, 1] * np.uint64(m)
        rejected = ((first & 0xFFFFFFFF) < (2**32 - (m - 1)) % (m - 1)) | (
            (second & 0xFFFFFFFF) < (2**32 - m) % m
        )
        if not rejected.any():
            a, b = (first >> 32).astype(np.intp), (second >> 32).astype(np.intp)
            b[b == a] = m - 1
            keep = (words[:, 2] >> 31) == 1
            return np.where(keep[:, None], np.stack([a, b], axis=1), np.stack([b, a], axis=1))
        rng.bit_generator.state = state
    return np.array([rng.choice(m, 2, replace=False) for _ in range(iters)])


def _best_candidate(
    v: np.ndarray, sub: tuple[np.ndarray, ...], params: VpParams, best_len: float
) -> tuple[int | None, float]:
    """The row of ``v`` (cross products of candidate line pairs) whose VP
    wins against the lines of ``sub`` (_line_arrays), and its inlier length.

    The winner is the first candidate with the largest inlier length among
    those with at least min_support inliers and more than ``best_len``, as
    a one-at-a-time scan with a strict ``>`` finds it; pairs on one
    supporting line are skipped. Returns (None, best_len) when no row wins.
    """
    mids, e1, e2, lengths = sub
    # vecdot runs the dot kernel of np.linalg.norm, so the skip test and
    # the unit scaling match vp_from_two_lines bit for bit. Its sign flip
    # is left out: negating v leaves every d_vp bit unchanged.
    norm = np.sqrt(np.vecdot(v, v))[:, None]
    index = np.flatnonzero(norm[:, 0] >= 1e-12)
    v, norm = v[index], norm[index]
    vecs = np.where(np.abs(norm - 1.0) > 1e-12, v / norm, v)
    best = None
    inl = _d_vp_many(mids, e1, e2, vecs[:, None, :]) < params.t_vp
    for k in np.flatnonzero(inl.sum(axis=1) >= params.min_support):
        support_len = float(lengths[inl[k]].sum())
        if support_len > best_len:
            best, best_len = int(index[k]), support_len
    return best, best_len


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

    ends = _rows(lines)
    arrays, hom = _line_arrays(ends), _homogeneous_lines(ends)
    rng = np.random.default_rng(params.seed)
    remaining = np.arange(n)

    while len(models) < params.max_models and len(remaining) >= params.min_support:
        sub_m, sub_e1, sub_e2, _ = sub = tuple(x[remaining] for x in arrays)
        # Candidates are drawn, crossed and scored in chunks of at most
        # _SCORE_ELEMENTS d_vp entries, in stream order, so memory does not
        # grow with ransac_iters.
        best, best_len = None, 0.0
        rows = max(1, _SCORE_ELEMENTS // len(remaining))
        for start in range(0, params.ransac_iters, rows):
            count = min(rows, params.ransac_iters - start)
            pairs = remaining[_pair_draws(rng, len(remaining), count)]
            k, best_len = _best_candidate(
                np.cross(hom[pairs[:, 0]], hom[pairs[:, 1]]), sub, params, best_len
            )
            if k is not None:
                best = pairs[k]
        if best is None:
            break
        best_vec = vp_from_two_lines(lines[best[0]], lines[best[1]]).v

        mask = _d_vp_many(sub_m, sub_e1, sub_e2, best_vec) < params.t_vp
        inlier_idx = remaining[mask]
        refined = refine_vp(VanishingPoint(best_vec), [lines[i] for i in inlier_idx.tolist()])
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
