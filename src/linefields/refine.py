"""Joint refinement of line segments against attraction fields.

A line is scored by sampling the fields along it: an angular agreement
term, a mean distance term, and optionally the distance to an associated
vanishing point. Each line is optimized over two degrees of freedom
(rotation about its midpoint and lateral translation, length fixed) with a
damped Newton scheme that only ever accepts downhill steps. All lines of
a set are refined as one batch with per-line damping, VP gate and stopping
state; per-line numbers come only from elementwise operations and row-wise
reductions, so a line refines bit for bit the same alone as in any batch.
Joint refinement alternates line refinement, vanishing point
re-estimation, and re-association.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import FieldPair, _bilinear_many
from .geometry import LineSegment, Point2, _d_vp_many, d_vp
from .vp import VanishingPoint, VpAssignment, VpParams, _line_arrays, fit_vps, refine_vp

__all__ = [
    "RefineParams",
    "line_cost",
    "refine_line",
    "refine_joint",
]

# A line's 8 central-difference probes, in angle and lateral probe sizes.
_PROBE_A = np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
_PROBE_T = np.array([0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
_MAX_BOOSTS = 14  # damping increases tried per iteration


@dataclass(frozen=True)
class RefineParams:
    """Cost weights and optimizer configuration."""

    lambda_df: float = 1.0  # weight of the mean sampled distance
    lambda_af: float = 1.0  # weight of the angular agreement term
    lambda_vp: float = 0.2  # weight of the vanishing point distance
    n_opt: int = 10  # samples along the line, endpoints included
    k_alternations: int = 5  # joint refinement rounds
    t_vp: float = 1.5  # vanishing point association gate, pixels
    max_lateral_step: float = 5.0  # per-iteration translation clamp, pixels
    fd_step: float = 0.05  # central-difference probe size, pixels
    max_iter: int = 50  # optimizer iterations per line
    tol: float = 1e-6  # step-size convergence threshold

    def __post_init__(self) -> None:
        if self.n_opt < 2:
            raise ValueError("n_opt must be at least 2")
        if min(self.lambda_df, self.lambda_af, self.lambda_vp) < 0.0:
            raise ValueError("cost weights must be non-negative")
        if self.t_vp <= 0.0 or self.max_lateral_step <= 0.0 or self.fd_step <= 0.0:
            raise ValueError("t_vp, max_lateral_step and fd_step must be positive")
        if self.k_alternations < 1 or self.max_iter < 1:
            raise ValueError("iteration counts must be positive")


def _batch_costs(
    fp: FieldPair,
    thetas: np.ndarray,
    mxs: np.ndarray,
    mys: np.ndarray,
    half_len: np.ndarray,
    v_vec: np.ndarray | None,
    use_v: np.ndarray,
    params: RefineParams,
) -> np.ndarray:
    """Cost of several (theta, midpoint, half length) configurations at once.

    Row k adds the vanishing point term of ``v_vec[k]`` where ``use_v[k]``
    is set; ``v_vec`` is None when no row has one. Configurations whose
    endpoints leave the sampleable area get +inf.
    """
    h, w = fp.height, fp.width
    ux = np.cos(thetas)
    uy = np.sin(thetas)
    x1 = mxs - half_len * ux
    y1 = mys - half_len * uy
    x2 = mxs + half_len * ux
    y2 = mys + half_len * uy
    ok = (
        (np.minimum(x1, x2) >= 0.5)
        & (np.maximum(x1, x2) <= w - 0.5)
        & (np.minimum(y1, y2) >= 0.5)
        & (np.maximum(y1, y2) <= h - 0.5)
    )
    ts = np.linspace(0.0, 1.0, params.n_opt)
    xs = x1[:, None] + ts[None, :] * (x2 - x1)[:, None]
    ys = y1[:, None] + ts[None, :] * (y2 - y1)[:, None]
    # Clip so out-of-bounds rows stay evaluable; their cost is overridden.
    gx = np.clip(xs - 0.5, 0.0, w - 1.0).ravel()
    gy = np.clip(ys - 0.5, 0.0, h - 1.0).ravel()
    df_s = _bilinear_many(fp.df.data, gx, gy, circular=False).reshape(xs.shape)
    af_s = _bilinear_many(fp.af.data, gx, gy, circular=True).reshape(xs.shape)

    delta = np.mod(af_s - thetas[:, None], math.pi)
    delta = np.where(delta > 0.5 * math.pi, delta - math.pi, delta)
    c_af = np.mean(1.0 - np.cos(delta), axis=1)
    c_df = np.mean(df_s, axis=1)
    cost = params.lambda_af * c_af + params.lambda_df * c_df
    if v_vec is not None:
        mids = np.stack([mxs, mys], axis=1)
        e1 = np.stack([x1, y1], axis=1)
        e2 = np.stack([x2, y2], axis=1)
        with_vp = cost + params.lambda_vp * _d_vp_many(mids, e1, e2, v_vec)
        cost = np.where(use_v, with_vp, cost)
    return np.where(ok, cost, np.inf)


def _line_state(
    lines: Sequence[LineSegment],
    vps: Sequence[VanishingPoint | None],
    params: RefineParams,
) -> tuple[np.ndarray, ...]:
    """Per-line angle, midpoint x and y, half length, VP rows (None when no
    line has one) and VP gate: the VP lies within t_vp (scalar d_vp)."""
    gate = [v is not None and d_vp(l, v) <= params.t_vp for l, v in zip(lines, vps)]
    use_v = np.array(gate, dtype=bool)
    v_vec = None
    if use_v.any():
        v_vec = np.array([v.v if u else np.zeros(3) for v, u in zip(vps, use_v)])
    mids, _, _, lengths = _line_arrays(lines)
    mx, my = mids.T.copy()
    theta = np.array([l.oriented_angle for l in lines])
    return theta, mx, my, 0.5 * lengths, v_vec, use_v


def line_cost(
    l: LineSegment,
    fp: FieldPair,
    v: VanishingPoint | None = None,
    params: RefineParams | None = None,
) -> float:
    """Field-agreement cost of one line.

    The angular term averages 1 - cos of the sampled angle deviations
    (taken modulo pi into (-pi/2, pi/2]); the distance term averages the
    sampled distance field; the vanishing point term contributes d_vp only
    when ``v`` is given and lies within t_vp of the line.

    Raises:
        ValueError: when a sample point falls outside the field.
    """
    params = params or RefineParams()
    h, w = fp.height, fp.width
    for p in (l.p1, l.p2):
        if not (0.5 <= p.x <= w - 0.5 and 0.5 <= p.y <= h - 0.5):
            raise ValueError(f"line endpoint {tuple(p)} falls outside the field")
    return float(_batch_costs(fp, *_line_state([l], [v], params), params)[0])


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


def _refine_lines(
    lines: Sequence[LineSegment],
    fp: FieldPair,
    vps: Sequence[VanishingPoint | None],
    params: RefineParams,
) -> tuple[list[LineSegment], np.ndarray, np.ndarray]:
    """Refine a set of lines at once; returns (lines, costs, converged).

    ``vps`` holds one VanishingPoint or None per line. Each iteration makes
    one _batch_costs call on the 8 probes of every running line, then one
    per damping level on the lines whose trial step was still rejected.
    The rules are per line, as described in refine_line.
    """
    theta, mx, my, half_len, v_vec, use_v = _line_state(lines, vps, params)

    def costs(rows: np.ndarray, th: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        vv = None if v_vec is None else v_vec[rows]
        return _batch_costs(fp, th, cx, cy, half_len[rows], vv, use_v[rows], params)

    f = costs(np.arange(len(lines)), theta, mx, my)
    evaluable = np.flatnonzero(np.isfinite(f))
    h_t = params.fd_step
    h_a = params.fd_step / np.maximum(half_len, params.fd_step)
    mu = np.full(len(lines), 1e-3)
    converged = np.zeros(len(lines), dtype=bool)
    active = evaluable

    for _ in range(params.max_iter):
        if active.size == 0:
            break
        nx, ny, dt = -np.sin(theta[active]), np.cos(theta[active]), _PROBE_T * h_t
        probes = costs(
            np.repeat(active, len(_PROBE_A)),
            (theta[active, None] + _PROBE_A * h_a[active, None]).ravel(),
            (mx[active, None] + dt * nx[:, None]).ravel(),
            (my[active, None] + dt * ny[:, None]).ravel(),
        ).reshape(len(active), -1)
        # A line probing across the border stops at its current position.
        inside = np.all(np.isfinite(probes), axis=1)
        a, nx, ny = active[inside], nx[inside], ny[inside]
        fa_p, fa_m, ft_p, ft_m, fpp, fpm, fmp, fmm = probes[inside].T
        ha, f0 = h_a[a], f[a]
        g = np.stack([(fa_p - fa_m) / (2.0 * ha), (ft_p - ft_m) / (2.0 * h_t)], axis=1)
        haa = (fa_p - 2.0 * f0 + fa_m) / (ha * ha)
        htt = (ft_p - 2.0 * f0 + ft_m) / (h_t * h_t)
        hat = (fpp - fpm - fmp + fmm) / (4.0 * ha * h_t)
        hess = np.stack([haa, hat, hat, htt], axis=1).reshape(-1, 2, 2)
        damp = np.zeros_like(hess)
        damp[:, 0, 0] = np.maximum(np.abs(haa), 1e-8)
        damp[:, 1, 1] = np.maximum(np.abs(htt), 1e-8)

        stepped = np.zeros(len(a), dtype=bool)
        pending = np.arange(len(a))  # rows of ``a`` still without a step
        for _boost in range(_MAX_BOOSTS):
            if pending.size == 0:
                break
            i = a[pending]
            lhs = hess[pending] + mu[i, None, None] * damp[pending]
            delta, solved = _solve_2x2(lhs, -g[pending])
            mu[i[~solved]] *= 10.0
            p, i, d0, d1 = pending[solved], i[solved], delta[solved, 0], delta[solved, 1]
            lat = params.max_lateral_step
            d1 = np.where(np.abs(d1) > lat, np.copysign(lat, d1), d1)
            t_th, t_mx, t_my = theta[i] + d0, mx[i] + d1 * nx[p], my[i] + d1 * ny[p]
            trial = costs(i, t_th, t_mx, t_my)
            down = np.isfinite(trial) & (trial < f[i])
            j = i[down]
            improvement = f[j] - trial[down]
            f[j], theta[j], mx[j], my[j] = trial[down], t_th[down], t_mx[down], t_my[down]
            mu[j] = np.maximum(mu[j] / 3.0, 1e-12)
            step = np.hypot(d0[down] * np.maximum(half_len[j], 1.0), d1[down])
            converged[j] = (step < params.tol) | (improvement < 1e-14 * np.maximum(f[j], 1.0))
            stepped[p[down]] = True
            mu[i[~down]] *= 10.0
            pending = np.sort(np.concatenate([pending[~solved], p[~down]]))
        converged[a[~stepped]] = True  # no downhill step at any damping level
        active = a[~converged[a]]

    refined = list(lines)
    for k in evaluable:
        c, s, hl = math.cos(theta[k]), math.sin(theta[k]), float(half_len[k])
        refined[k] = LineSegment(
            Point2(mx[k] - hl * c, my[k] - hl * s), Point2(mx[k] + hl * c, my[k] + hl * s)
        )
    return refined, f, converged


def refine_line(
    l: LineSegment,
    fp: FieldPair,
    v: VanishingPoint | None = None,
    params: RefineParams | None = None,
    *,
    full_output: bool = False,
):
    """Optimize one line against the fields, keeping its length fixed.

    Two degrees of freedom: rotation about the midpoint and translation
    along the current normal. Damped Newton steps with central-difference
    derivatives (probe size fd_step, the angle probe scaled to move the
    endpoints by the same amount), up to 14 damping levels per iteration;
    uphill steps are rejected, so the final cost never exceeds the initial
    one. Converged means the last step was below tol or gained under 1e-14
    relative, or no damping level went downhill; a probe leaving the field
    stops the line unconverged. The vanishing point constraint is gated
    once at entry (dropped when d_vp(l, v) > t_vp). This runs the batched
    solver of refine_joint on one line, with bitwise the same result.

    Returns the refined line; with ``full_output=True`` returns
    (line, cost, converged). Lines whose cost cannot be evaluated (samples
    outside the field) are returned unchanged and flagged not converged.
    """
    refined, cost, converged = _refine_lines([l], fp, [v], params or RefineParams())
    if full_output:
        return refined[0], float(cost[0]), bool(converged[0])
    return refined[0]


def refine_joint(
    lines: Sequence[LineSegment],
    fp: FieldPair,
    params: RefineParams | None = None,
    vp_params: VpParams | None = None,
) -> tuple[list[LineSegment], list[VanishingPoint], VpAssignment]:
    """Alternate line refinement, VP refinement, and re-association.

    Vanishing points are fitted once up front, then k_alternations rounds
    run: all lines are refined in one batch (each line's VP term active
    only while its association stays within t_vp), each VP is re-estimated
    from its currently assigned lines, and lines are re-assigned to their
    closest VP. Deterministic given the VP seed.
    """
    params = params or RefineParams()
    current = list(lines)
    n = len(current)
    if n == 0:
        return [], [], []

    vps, assignment = fit_vps(current, vp_params)
    for _ in range(params.k_alternations):
        line_vps = [vps[j] if j is not None else None for j in assignment]
        current, _, _ = _refine_lines(current, fp, line_vps, params)
        if vps:
            for j in range(len(vps)):
                members = [current[i] for i in range(n) if assignment[i] == j]
                if len(members) >= 2:
                    vps[j] = refine_vp(vps[j], members)
            for i, seg in enumerate(current):
                dists = [d_vp(seg, vp_j) for vp_j in vps]
                j = int(np.argmin(dists))  # the first closest VP
                assignment[i] = j if dists[j] < params.t_vp else None
    return current, vps, assignment
