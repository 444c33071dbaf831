"""Vanishing point estimation from line segments.

Candidates come from minimal 2-line samples (cross product of the two
supporting lines); consensus is measured by the midpoint-anchored distance
d_vp, weighted by segment length. Models are extracted greedily: the best
candidate absorbs its inliers, which are removed before the next round.
Both this RANSAC and the homography RANSAC draw minimal samples by _draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .geometry import (
    _DEGENERATE_EPS,
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
    "vp_from_two_lines",
    "fit_vps",
    "refine_vp",
]

# Per-line model index, None for unassigned lines.
VpAssignment = list  # list[int | None]

_SCORE_ELEMENTS = 1 << 16  # d_vp entries fit_vps scores per array call
_VP_LEVELS = 12  # refine_vp damping levels mu, 10 mu, ..., after 2x the mu step
_VP_MAX_ITER = 100  # refine_vp iterations
_VP_TOL = 1e-12  # refine_vp step size and relative gain convergence threshold
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_U = 2.0**-53  # unit roundoff of float64


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


def _cross(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, float]:
    """np.cross of two 3-vectors in Python floats, bit for bit (numpy's overhead dominates here)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _unit(w: np.ndarray) -> np.ndarray:
    # vecdot runs the dot kernel of np.linalg.norm and r @ r: unstrided stacks round as each alone.
    return w / np.sqrt(np.vecdot(w, w))[..., None]


def _tangent_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangents e1, e2 of the sphere at each (m, 3) row v: e1 = v x its least |axis|."""
    rows = v.tolist()
    axes = [_AXES[min(range(3), key=lambda i: abs(a[i]))] for a in rows]  # first on ties
    e1 = _unit(np.array([_cross(a, b) for a, b in zip(rows, axes)]))
    e2 = _unit(np.array([_cross(a, b) for a, b in zip(rows, e1.tolist())]))
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
    _solve_2x2 stack; row 0, before them, doubles the mu[k] step. At
    d << h from a kink J |x - k| of the cost, central differences of step
    h give slope J d / h and curvature 2 J / h: the Newton step goes d / 2
    and the doubled one lands on the kink (on a quadratic, on the mirror
    point at cost f0[k]). ``trial`` maps the (n, levels + 1, 2) steps to
    their costs followed by any per-step arrays. System k steps at its
    lowest-cost row (the first on ties) among those that solved, cost a
    finite amount and go below f0[k]; one with no such row has converged.
    Returns the stepped mask and, for the systems that stepped, the next
    mu (that row's mu / 3, at least 1e-12) and the entries of ``trial``.
    """
    n = len(g)
    mus = np.full((n, levels), 10.0)
    mus[:, 0] = mu
    mus = np.cumprod(mus, axis=1)
    lhs = hess[:, None] + mus[:, :, None, None] * damp[:, None]
    delta, solved = _solve_2x2(lhs.reshape(-1, 2, 2), (-g).repeat(levels, axis=0))
    rows = np.maximum(np.arange(-1, levels), 0)  # row 0: the first level again, its step doubled
    delta = delta.reshape(n, levels, 2)[:, rows]
    delta[:, 0] *= 2.0
    cost, *steps = trial(delta)
    down = solved.reshape(n, levels)[:, rows] & np.isfinite(cost) & (cost < f0[:, None])
    stepped = down.any(axis=1)
    r, row = stepped.nonzero()[0], np.where(down, cost, np.inf)[stepped].argmin(axis=1)
    mu_next = np.maximum(mus[r, rows[row]] / 3.0, 1e-12)
    return stepped, mu_next, cost[r, row], *(s[r, row] for s in steps)


def _refine_vps(vecs: np.ndarray, lines: tuple[np.ndarray, ...], members: Sequence[Sequence[int]]):
    """Refine the (m, 3) VPs ``vecs`` at once, VP j against rows members[j] of ``lines``
    (_line_arrays); returns the vectors, costs and converged flags. Each runs refine_vp's
    iteration with its own mu, basis, cost and stopping rules; bases, residuals and
    Jacobian rows are stacked and one _damping_ladder call scores all, while every
    reduction (costs, J^T r, J^T J, norms) runs on one model's own contiguous lines:
    each refines as alone. A line's residual is r = w (q . D) / (2 |q|), with
    q = (la, lb) = P v linear in v and D = e1 - e2 (lc cancels), so
    dr/dq = w (D - (q^ . D) q^) / (2 |q|), chained through P and the chart's
    derivatives at 0, the tangents b1 and b2."""

    def group(models):  # the lines of ``models``, each line's index into them, each one's slice
        sizes = [len(members[j]) for j in models]
        li = np.fromiter((i for j in models for i in members[j]), np.intp)
        m, a, b, lengths = (x[li] for x in lines)
        parts = [slice(e - n, e) for e, n in zip(accumulate(sizes), sizes)]
        return (m, a, b, np.sqrt(lengths)), np.arange(len(sizes)).repeat(sizes), parts

    def residuals(w: np.ndarray) -> np.ndarray:  # (rows, lines), C order (take: see _unit)
        (m, a, b, weight), rep, _ = sub
        return weight * _d_vp_many(m, a, b, w.swapaxes(0, 1).take(rep, axis=1), signed=True)

    def jacobian(c: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:  # (lines, 2)
        (m, a, b, weight), rep, _ = sub
        x = np.concatenate([c, b1, b2], axis=1).take(rep, axis=0)  # per line: v, b1, b2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # (la, lb) of v, then their derivatives along b1 and b2: P applied to each row
            p = np.stack([m[:, 1:] * x[..., 2] - x[..., 1], x[..., 0] - m[:, :1] * x[..., 2]], axis=2)
            norm = np.hypot(p[:, 0, 0], p[:, 0, 1])[:, None]
            unit, span = p[:, 0] / norm, a - b
            along = unit * span
            drdq = 0.5 * weight[:, None] * (span - (along[:, :1] + along[:, 1:]) * unit) / norm
            jac = drdq[:, None] * p[:, 1:]
            return jac[..., 0] + jac[..., 1]

    cur = np.array(vecs, dtype=float).reshape(-1, 3)
    sub = group(range(len(cur)))
    cost = np.array([r[s] @ r[s] for r in residuals(cur[:, None]) for s in sub[2]], dtype=float)
    mu, converged = np.full(len(cur), 1e-3), np.zeros(len(cur), dtype=bool)
    # A model with under 2 lines, or whose cost cannot be evaluated, stays where it is.
    k = (np.isfinite(cost) & np.array([len(m) >= 2 for m in members], dtype=bool)).nonzero()[0]
    for _ in range(_VP_MAX_ITER):
        if not k.size:
            break
        if len(k) < len(sub[2]):
            sub = group(k)
        c = cur[k][:, None]
        b1, b2 = (e[:, None] for e in _tangent_basis(c[:, 0]))

        def at(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return _unit(c + a[..., None] * b1 + b[..., None] * b2)

        r, jac = residuals(c), jacobian(c, b1, b2)
        lad = []  # position, J^T J and gradient of each model that goes on to the ladder
        for p, (model, s) in enumerate(zip(k.tolist(), sub[2])):
            jk = jac[s]
            if np.isfinite(jk).all():  # else it stops where it is, not converged
                gk = jk.T @ r[0, s]
                converged[model] = math.sqrt(gk @ gk) < 1e-14  # sqrt of the dot kernel, as norm
                if not converged[model]:
                    lad.append((p, jk.T @ jk, gk))
        if not lad:
            break
        lad, hess, g = map(list, zip(*lad))
        if len(lad) < len(k):
            c, b1, b2, k = c[lad], b1[lad], b2[lad], k[lad]
            sub = group(k)
        hess = np.array(hess)
        damp = np.maximum(hess.diagonal(axis1=1, axis2=2), 1e-12)[:, :, None] * np.eye(2)

        def trial(delta: np.ndarray) -> tuple[np.ndarray, ...]:
            w = at(delta[..., 0], delta[..., 1])
            r = residuals(w)
            return np.array([np.vecdot(r[:, s], r[:, s]) for s in sub[2]]), w, delta

        stepped, mu_next, new_cost, new_w, delta = _damping_ladder(
            hess, damp, np.array(g), mu[k], cost[k], _VP_LEVELS, trial
        )
        size = np.sqrt(np.vecdot(delta, delta))  # as np.linalg.norm
        taken = zip(mu_next.tolist(), new_cost.tolist(), new_w, size.tolist())
        for model, moved in zip(k.tolist(), stepped.tolist()):
            converged[model] = True  # no downhill step at any damping: local minimum
            if moved:
                mu[model], f, cur[model], step = next(taken)
                improvement, cost[model] = cost[model] - f, f
                converged[model] = step < _VP_TOL or improvement < _VP_TOL * max(f, 1.0)
        k = k[~converged[k]]
    return cur, cost, converged


def refine_vp(v: VanishingPoint, inliers: Sequence[LineSegment], *, full_output: bool = False):
    """Minimize the length-weighted squared d_vp over the unit sphere.

    Levenberg-Marquardt on a 2-parameter tangent-plane chart, closed-form
    Jacobian (see _refine_vps), uphill steps rejected. Residuals carry
    the side sign (squaring removes it from the cost) so the Jacobian
    stays meaningful where segments cross the joining line. Each iteration
    scores the doubled step and _VP_LEVELS damping levels in one
    _damping_ladder call and takes the lowest-cost downhill row. Converged
    means the gradient vanished, the step or its relative gain fell below
    _VP_TOL, or no row went downhill (one model of _refine_vps). Returns the
    best iterate; with ``full_output=True`` returns (vp, cost, converged).

    Raises:
        ValueError: with fewer than 2 inlier lines.
    """
    if len(inliers) < 2:
        raise ValueError("vanishing point refinement needs at least 2 lines")
    cur, cost, converged = _refine_vps(v.v, _line_arrays(_rows(inliers)), [range(len(inliers))])
    out = VanishingPoint(cur[0])
    return (out, float(cost[0]), bool(converged[0])) if full_output else out


def _draws(rng: np.random.Generator, m: int, k: int, iters: int) -> np.ndarray:
    """``iters`` rows of k distinct ints in [0, m), 2 <= k <= m < 2**32.

    Floyd's sampling (Bentley & Floyd, CACM 1987) on one 32-bit word per
    column: column c maps its word w to [0, j], j = m - k + c, by Lemire's
    multiply-shift (w (j + 1)) >> 32, and takes j instead when that repeats
    an earlier column of its row. The words are read row by row and a row
    uses only its own, so blocks of any size continue one stream.
    """
    words = rng.integers(0, 2**32, size=(iters, k), dtype=np.uint32).astype(np.uint64)
    out = np.empty((iters, k), dtype=np.intp)
    for c in range(k):
        j = m - k + c
        t = (words[:, c] * np.uint64(j + 1) >> 32).astype(np.intp)
        out[:, c] = np.where((out[:, :c] == t[:, None]).any(axis=1), j, t)
    return out


def _score_columns(sub: tuple[np.ndarray, ...]) -> tuple[np.ndarray, float]:
    """The (3, 4n) columns whose product with a VP row v gives d1, d2, la
    and lb of _d_vp_many for the n lines of ``sub`` (_line_arrays): d1 is
    v . (y1 - my, mx - x1, my x1 - mx y1), d2 likewise, la is v . (0, -1, my)
    and lb is v . (1, 0, -mx). Also the largest
    C = (1 + |mx| + |my|)(1 + |x1| + |y1| + |x2| + |y2|) over the lines,
    the scale of _best_candidate's rounding bound."""
    (mx, my), (x1, y1), (x2, y2) = (a.T for a in sub[:3])
    zeros, ones = np.zeros_like(mx), np.ones_like(mx)
    cols = np.array([
        [y1 - my, y2 - my, zeros, ones],
        [mx - x1, mx - x2, -ones, zeros],
        [my * x1 - mx * y1, my * x2 - mx * y2, my, -mx],
    ])
    scale = (1.0 + np.abs(mx) + np.abs(my)) * (1.0 + np.abs(sub[1]).sum(axis=1) + np.abs(sub[2]).sum(axis=1))
    return cols.reshape(3, -1), float(scale.max())


def _inlier_matrix(
    vecs: np.ndarray, sub: tuple[np.ndarray, ...], columns: tuple[np.ndarray, float], t: float
) -> np.ndarray:
    """The (k, n) bits of ``_d_vp_many(mids, e1, e2, vecs[:, None]) < t`` for
    the (k, 3) unit rows ``vecs`` and the lines of ``sub``, without
    evaluating d_vp on every entry.

    ``columns`` (_score_columns) gives d1, d2, la and lb of every entry as
    one product, and an entry is in when P = (|d1| + |d2|)^2 is below
    T = 4 t^2 (la^2 + lb^2), which needs no hypot. That product and
    _d_vp_many's own arithmetic both put each of d1, d2, la and lb within
    E = 16 u max|v| max C of its exact value (u = 2^-53; each is a sum of
    three products of at most |v| C, through under 8 roundings in any
    order; Higham, ch. 3). Both decisions then equal the exact one, and so
    each other, when |T - P| > 4 (2 + 3t) E sqrt(Z) + 40 u Z, Z = max(P, T).
    With sqrt(Z) <= (Z / 2t + 2t) / 2 that is implied, with a factor of 2
    to spare, by |T - P| > alpha Z + beta; beta is also large enough that
    an entry passing the test has hypot(la, lb) well above _d_vp_many's
    degenerate limit. The entries that fail it, NaN and inf included
    (every comparison with them is false), are re-scored with _d_vp_many.
    """
    mids, e1, e2, _ = sub
    cols, scale = columns
    n = len(mids)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = vecs @ cols
        s = np.abs(prod[:, : 2 * n])
        s = s[:, :n] + s[:, n:]
        q = np.square(prod[:, 2 * n :])
        big_t = (4.0 * t * t) * (q[:, :n] + q[:, n:])
        big_p = s * s
        inl = big_p < big_t
        err = 16.0 * _U * float(np.abs(vecs).max(initial=0.0)) * scale
        k1 = (2.0 + 3.0 * t) * err
        alpha = 2.0 * k1 / t + 64.0 * _U
        beta = max(8.0 * k1 * t, 8.0 * t * t * (2.0 * _DEGENERATE_EPS + 3.0 * err) ** 2)
        near = ~(np.abs(big_t - big_p) > alpha * np.maximum(big_p, big_t) + beta)
    k, j = near.nonzero()
    if k.size:
        inl[k, j] = _d_vp_many(mids[j], e1[j], e2[j], vecs[k]) < t
    return inl


def _best_candidate(
    v: np.ndarray,
    sub: tuple[np.ndarray, ...],
    columns: tuple[np.ndarray, float],
    params: VpParams,
    best_len: float,
) -> tuple[int | None, float]:
    """The row of ``v`` (cross products of candidate line pairs) whose VP
    wins against the lines of ``sub`` (_line_arrays), and its inlier length.

    The winner is the first candidate with the largest inlier length among
    those with at least min_support inliers and more than ``best_len``, as
    a one-at-a-time scan with a strict ``>`` finds it; pairs on one
    supporting line are skipped. Returns (None, best_len) when no row wins.
    Inliers come from _inlier_matrix (``columns`` is the round's
    _score_columns). Support sums come from one matrix product, within
    4 n u sum(lengths) of the exact sums (u = 2^-53); only the candidates
    that can still reach the largest of them and beat ``best_len`` run the
    exact ``lengths[inliers].sum()`` scan.
    """
    lengths = sub[3]
    # vecdot runs the dot kernel of np.linalg.norm, so the skip test and
    # the unit scaling match vp_from_two_lines bit for bit. Its sign flip
    # is left out: negating v leaves every d_vp bit unchanged.
    norm = np.sqrt(np.vecdot(v, v))[:, None]
    index = np.flatnonzero(norm[:, 0] >= 1e-12)
    v, norm = v[index], norm[index]
    vecs = np.where(np.abs(norm - 1.0) > 1e-12, v / norm, v)
    inl = _inlier_matrix(vecs, sub, columns, params.t_vp)
    cand = np.flatnonzero(np.count_nonzero(inl, axis=1) >= params.min_support)
    if not cand.size:
        return None, best_len
    approx = inl[cand] @ lengths
    slack = 4.0 * len(lengths) * _U * float(lengths.sum())
    if math.isfinite(slack):
        reach = approx + slack
        cand = cand[(reach > best_len) & (reach >= approx.max() - slack)]
    best = None
    for k in cand.tolist():
        support_len = float(lengths[inl[k]].sum())
        if support_len > best_len:
            best, best_len = int(index[k]), support_len
    return best, best_len


def fit_vps(
    lines: Sequence[LineSegment],
    params: VpParams | None = None,
) -> tuple[list[VanishingPoint], VpAssignment]:
    """Greedy sequential multi-model vanishing point fitting.

    Each round draws ransac_iters 2-line candidates from the unassigned
    lines (_draws) and scores each distinct pair once by the total length
    of lines with d_vp below t_vp. Candidates with fewer than min_support
    inliers are never acceptable, so they cannot outrank a valid model;
    the best acceptable one is refined and its inliers leave the pool.
    Deterministic given params.seed. Every assigned line satisfies
    d_vp < t_vp against its model.
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
        columns = _score_columns(sub)
        # Candidates are drawn, crossed and scored in chunks of at most
        # _SCORE_ELEMENTS d_vp entries, in stream order, so memory does not
        # grow with ransac_iters.
        best, best_len, seen = None, 0.0, np.empty(0, dtype=np.intp)
        rows = max(1, _SCORE_ELEMENTS // len(remaining))
        for start in range(0, params.ransac_iters, rows):
            count = min(rows, params.ransac_iters - start)
            draws = _draws(rng, len(remaining), 2, count)
            # A pair drawn again, in either order, has the same d_vp bits: it cannot win.
            code = draws.min(axis=1) * len(remaining) + draws.max(axis=1)
            first = np.unique(code, return_index=True)[1]
            first = np.sort(first[~np.isin(code[first], seen)])
            seen = np.union1d(seen, code[first])
            pairs = remaining[draws[first]]
            k, best_len = _best_candidate(
                np.cross(hom[pairs[:, 0]], hom[pairs[:, 1]]), sub, columns, params, best_len
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
