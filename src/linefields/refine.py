"""Joint refinement of line segments against attraction fields.

A line is scored by sampling the fields along it: an angular agreement
term, a mean distance term, and optionally the distance to an associated
vanishing point. Each line is optimized over two degrees of freedom
(rotation about its midpoint and lateral translation, length fixed) with a
damped Newton scheme that only ever accepts downhill steps. All lines of
a set are refined as one batch with per-line damping, VP and stopping
state; per-line numbers come only from elementwise operations and row-wise
reductions, so a line refines bit for bit the same alone as in any batch.
That independence lets an iteration score every damping level of every
line in one call and keep, per line, the first level that went downhill:
the same step a level-by-level search takes.
Joint refinement alternates line refinement, vanishing point
re-estimation, and re-association.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import FieldPair, _bilinear_corners, _blend, _half_angle
from .geometry import (
    LineSegment,
    _d_vp_many,
    _line_arrays,
    _oriented_angles,
    _require_finite,
    _rows,
    _segments,
)
from .vp import VanishingPoint, VpAssignment, VpParams, _damping_ladder, fit_vps, refine_vp

__all__ = [
    "RefineParams",
    "line_cost",
    "refine_line",
    "refine_joint",
]

# A line's 8 central-difference probes, in angle and lateral probe sizes.
_PROBE_A = np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
_PROBE_T = np.array([0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
_MAX_BOOSTS = 14  # damping levels tried per iteration: mu, 10 mu, ...


@dataclass(frozen=True)
class RefineParams:
    """Cost weights and optimizer configuration."""

    lambda_df: float = 1.0  # weight of the mean sampled distance
    lambda_af: float = 1.0  # weight of the angular agreement term
    lambda_vp: float = 0.2  # weight of the vanishing point distance
    n_opt: int = 10  # samples along the line, endpoints included
    k_alternations: int = 5  # joint refinement rounds
    max_lateral_step: float = 5.0  # per-iteration translation clamp, pixels
    fd_step: float = 0.05  # central-difference probe size, pixels
    max_iter: int = 50  # optimizer iterations per line
    tol: float = 1e-6  # step-size convergence threshold

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.n_opt < 2:
            raise ValueError("n_opt must be at least 2")
        if min(self.lambda_df, self.lambda_af, self.lambda_vp) < 0.0:
            raise ValueError("cost weights must be non-negative")
        if self.max_lateral_step <= 0.0 or self.fd_step <= 0.0:
            raise ValueError("max_lateral_step and fd_step must be positive")
        if self.k_alternations < 1 or self.max_iter < 1:
            raise ValueError("iteration counts must be positive")


def _sampling_tables(
    fp: FieldPair, window: tuple[slice, slice] = (slice(None), slice(None))
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grids _batch_costs samples: DF, cos(2 AF) and sin(2 AF).

    Angles mod pi interpolate on the doubled circle; tabulating it once
    gives each sample the values _bilinear_many computes at its corners.
    Only the ``window`` (rows, columns) of the AF tables is filled, the
    rest reads 0.
    """
    cos2, sin2 = np.zeros((2, *fp.af.data.shape))
    af2 = 2.0 * fp.af.data[window]
    cos2[window], sin2[window] = np.cos(af2), np.sin(af2)
    return fp.df.data, cos2, sin2


def _batch_costs(
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    thetas: np.ndarray,
    mxs: np.ndarray,
    mys: np.ndarray,
    half_len: np.ndarray,
    v_vec: np.ndarray | None,
    use_v: np.ndarray,
    params: RefineParams,
) -> np.ndarray:
    """Cost of several (theta, midpoint, half length) configurations at once.

    ``tables`` comes from _sampling_tables. Row k adds the vanishing point
    term of ``v_vec[k]`` where ``use_v[k]`` is set; ``v_vec`` is None when
    no row has one. Configurations whose endpoints leave the sampleable
    area get +inf.
    """
    h, w = tables[0].shape
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
    gx = np.clip(xs - 0.5, 0.0, w - 1.0)
    gy = np.clip(ys - 0.5, 0.0, h - 1.0)
    corners, weights = _bilinear_corners((h, w), gx, gy)
    df_s, cos_s, sin_s = (_blend(t.ravel().take(corners), weights) for t in tables)
    af_s = _half_angle(sin_s, cos_s)

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
    rows: np.ndarray, vps: Sequence[VanishingPoint | None]
) -> tuple[np.ndarray, ...]:
    """Per-line angle, midpoint x and y, half length, VP rows (None when no
    line has one) and which lines have a VP, of the (n, 4) endpoint rows."""
    mids, _, _, lengths = _line_arrays(rows)
    # A missing VP is the zero vector; a VanishingPoint never is.
    v_vec = np.array([np.zeros(3) if v is None else v.v for v in vps]).reshape(-1, 3)
    use_v = v_vec.any(axis=1)
    if not use_v.any():
        v_vec = None
    mx, my = mids.T.copy()
    theta = _oriented_angles(rows)
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
    sampled distance field; the vanishing point term adds lambda_vp d_vp
    whenever ``v`` is given, however far it lies from the line.

    Raises:
        ValueError: when a sample point falls outside the field.
    """
    params = params or RefineParams()
    h, w = fp.height, fp.width
    for p in (l.p1, l.p2):
        if not (0.5 <= p.x <= w - 0.5 and 0.5 <= p.y <= h - 0.5):
            raise ValueError(f"line endpoint {tuple(p)} falls outside the field")
    # Samples lie between the endpoints (up to rounding), so they read no
    # grid cell outside the endpoints' box widened by 2.
    (x1, y1), (x2, y2) = l.p1, l.p2
    window = (
        slice(max(int(min(y1, y2)) - 2, 0), int(max(y1, y2)) + 2),
        slice(max(int(min(x1, x2)) - 2, 0), int(max(x1, x2)) + 2),
    )
    state = _line_state(_rows([l]), [v])
    return float(_batch_costs(_sampling_tables(fp, window), *state, params)[0])


def _refine_lines(
    rows: np.ndarray,
    fp: FieldPair,
    vps: Sequence[VanishingPoint | None],
    params: RefineParams,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refine (n, 4) endpoint rows at once; returns (rows, costs, converged).

    Rows whose cost cannot be evaluated come back unchanged. ``vps``
    holds one VanishingPoint or None per line; ``tables`` is
    _sampling_tables(fp), built here when not given. Each iteration makes
    two _batch_costs calls: one on the 8 probes of every running line, one
    on the trial steps of all _MAX_BOOSTS damping levels of every line
    that probed inside the field (one _damping_ladder call). Each line
    takes its first downhill level, so the rules are per line, as
    described in refine_line.
    """
    theta, mx, my, half_len, v_vec, use_v = _line_state(rows, vps)
    if tables is None:
        tables = _sampling_tables(fp)

    def costs(idx: np.ndarray, th: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        vv = None if v_vec is None else v_vec[idx]
        return _batch_costs(tables, th, cx, cy, half_len[idx], vv, use_v[idx], params)

    f = costs(np.arange(len(rows)), theta, mx, my)
    evaluable = np.flatnonzero(np.isfinite(f))
    h_t = params.fd_step
    h_a = params.fd_step / np.maximum(half_len, params.fd_step)
    mu = np.full(len(rows), 1e-3)
    converged = np.zeros(len(rows), dtype=bool)
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

        def trial(delta: np.ndarray) -> tuple[np.ndarray, ...]:
            d0, d1 = delta.transpose(2, 0, 1)
            lat = params.max_lateral_step
            d1 = np.where(np.abs(d1) > lat, np.copysign(lat, d1), d1)
            t_th = theta[a, None] + d0
            t_mx = mx[a, None] + d1 * nx[:, None]
            t_my = my[a, None] + d1 * ny[:, None]
            rows = np.repeat(a, _MAX_BOOSTS)
            cost = costs(rows, t_th.ravel(), t_mx.ravel(), t_my.ravel())
            return cost.reshape(len(a), _MAX_BOOSTS), t_th, t_mx, t_my, d0, d1

        stepped, mu_next, *moved, d0, d1 = _damping_ladder(
            hess, damp, g, mu[a], f0, _MAX_BOOSTS, trial
        )
        j = a[stepped]
        improvement = f0[stepped] - moved[0]
        f[j], theta[j], mx[j], my[j] = moved
        mu[j] = mu_next
        step = np.hypot(d0 * np.maximum(half_len[j], 1.0), d1)
        converged[j] = (step < params.tol) | (improvement < 1e-14 * np.maximum(f[j], 1.0))
        converged[a[~stepped]] = True  # no downhill step at any damping level
        active = a[~converged[a]]

    k, th = evaluable, theta[evaluable].tolist()  # math.cos/sin: np.cos/sin may differ
    hx = half_len[k] * np.array([math.cos(t) for t in th])
    hy = half_len[k] * np.array([math.sin(t) for t in th])
    refined = rows.copy()
    refined[k] = np.stack([mx[k] - hx, my[k] - hy, mx[k] + hx, my[k] + hy], axis=1)
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
    stops the line unconverged. A given vanishing point always adds its
    term, however far it lies; association is the caller's choice, as in
    refine_joint. This runs the batched solver of refine_joint on one line,
    with bitwise the same result.

    Returns the refined line; with ``full_output=True`` returns
    (line, cost, converged). Lines whose cost cannot be evaluated (samples
    outside the field) are returned unchanged and flagged not converged.
    """
    rows, cost, converged = _refine_lines(_rows([l]), fp, [v], params or RefineParams())
    out = _segments(rows)[0] if np.isfinite(cost[0]) else l
    return (out, float(cost[0]), bool(converged[0])) if full_output else out


def refine_joint(
    lines: Sequence[LineSegment],
    fp: FieldPair,
    params: RefineParams | None = None,
    vp_params: VpParams | None = None,
) -> tuple[list[LineSegment], list[VanishingPoint], VpAssignment]:
    """Alternate line refinement, VP refinement, and re-association.

    Vanishing points are fitted once up front, then k_alternations rounds
    run: all lines are refined in one batch (a line's VP term active while
    it is assigned), each VP is re-estimated from its currently assigned
    lines, and lines are re-assigned to their closest VP when its d_vp is
    below vp_params.t_vp, the gate fit_vps assigns with. Deterministic given
    the VP seed.
    """
    params = params or RefineParams()
    vp_params = vp_params or VpParams()
    n = len(lines)
    if n == 0:
        return [], [], []

    vps, assignment = fit_vps(lines, vp_params)
    rows = _rows(lines)
    tables = _sampling_tables(fp)
    for _ in range(params.k_alternations):
        line_vps = [vps[j] if j is not None else None for j in assignment]
        rows, _, _ = _refine_lines(rows, fp, line_vps, params, tables)
        if vps:
            for j in range(len(vps)):
                members = [i for i in range(n) if assignment[i] == j]
                if len(members) >= 2:
                    vps[j] = refine_vp(vps[j], _segments(rows[members]))
            mids, e1, e2, _ = _line_arrays(rows)
            dists = _d_vp_many(mids, e1, e2, np.array([v.v for v in vps])[:, None, :])
            closest = np.argmin(dists, axis=0)  # the first closest VP
            close = dists[closest, np.arange(n)] < vp_params.t_vp
            assignment = [int(j) if c else None for j, c in zip(closest, close)]
    return _segments(rows), vps, assignment
