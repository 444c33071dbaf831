"""Joint refinement of line segments against attraction fields.

A line is scored by sampling the fields along it: an angular agreement
term, a mean distance term, and optionally the distance to an associated
vanishing point. Each line is optimized over two degrees of freedom
(rotation about its midpoint and lateral translation, length fixed) with a
Newton scheme, damped in endpoint pixels, that only ever accepts downhill
steps. All lines of a set are refined as one batch with per-line damping,
VP and stopping state; per-line numbers come only from elementwise
operations and row-wise reductions, so a line refines bit for bit the
same alone as in any batch. That independence lets an iteration score
every damping level of every line, and a doubled least-damped step, in
one call and keep, per line, the lowest-cost row that went downhill.
Joint refinement alternates line refinement, vanishing point
re-estimation, and re-association.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import FieldPair, _bilinear_corners, _blend, _half_angle
from .geometry import (
    LineSegment,
    _d_vp_columns,
    _d_vp_many,
    _line_arrays,
    _oriented_angles,
    _require_finite,
    _rows,
    _segments,
    _signed_circular,
)
from .vp import VanishingPoint, VpAssignment, VpParams, _damping_ladder, _refine_vps, fit_vps
from .vp import refine_vp  # noqa: F401  (a name of this module: perfbench's tracer hooks it here)

__all__ = [
    "RefineParams",
    "refine_line",
    "refine_joint",
]

# A line's 8 central-difference probes, in angle and lateral probe sizes.
_PROBE_A = np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
_PROBE_T = np.array([0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
# Damping levels mu, 10 mu, ..., 1e5 mu per iteration, after 2x the mu step;
# in endpoint pixels, levels above 1e5 mu hardly ever decide a step.
_MAX_BOOSTS = 6
# A line stops on a relative gain below the float32 resolution of its fields.
_GAIN_GATE = float(np.finfo(np.float32).eps)


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


def _sampling_tables(fp: FieldPair) -> np.ndarray:
    """The (3, h, w) grids _batch_costs samples: DF, cos(2 AF) and sin(2 AF).

    Angles mod pi interpolate on the doubled circle; tabulating it once
    gives each sample the values _bilinear_many computes at its corners.
    One array lets a single gather read all three; unpacking it gives the
    three grids.
    """
    af2 = 2.0 * fp.af.data
    return np.stack([fp.df.data, np.cos(af2), np.sin(af2)])


@functools.lru_cache(maxsize=4)
def _sample_ts(n_opt: int) -> np.ndarray:
    """The n_opt sample positions along a line, 0 and 1 included."""
    ts = np.linspace(0.0, 1.0, n_opt)
    ts.setflags(write=False)
    return ts


def _batch_costs(
    tables: np.ndarray,
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
    area get +inf. Most calls hold a few rows, so the fixed cost per call
    is what counts: one gather reads the four corners of every sample from
    all three tables, the means are np.add.reduce over n_opt (np.mean's
    bits) and the VP term reads the coordinate columns as they are.
    """
    _, h, w = tables.shape
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
    n = params.n_opt
    ts = _sample_ts(n)
    xs = x1[:, None] + ts * (x2 - x1)[:, None]
    ys = y1[:, None] + ts * (y2 - y1)[:, None]
    # Clip so out-of-bounds rows stay evaluable; their cost is overridden.
    gx = np.minimum(np.maximum(xs - 0.5, 0.0), w - 1.0)
    gy = np.minimum(np.maximum(ys - 0.5, 0.0), h - 1.0)
    corners, weights = _bilinear_corners((h, w), gx, gy)
    values = tables.reshape(3, -1).take(corners, axis=1).swapaxes(0, 1)
    df_s, cos_s, sin_s = _blend(values, weights)
    delta = _signed_circular(_half_angle(sin_s, cos_s) - thetas[:, None], math.pi)
    c_af = np.add.reduce(1.0 - np.cos(delta), axis=1) / n
    c_df = np.add.reduce(df_s, axis=1) / n
    cost = params.lambda_af * c_af + params.lambda_df * c_df
    if v_vec is not None:
        d_vp = _d_vp_columns(mxs, mys, x1, y1, x2, y2, v_vec)
        cost = np.where(use_v, cost + params.lambda_vp * d_vp, cost)
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


def _refine_lines(
    rows: np.ndarray,
    fp: FieldPair,
    vps: Sequence[VanishingPoint | None],
    params: RefineParams,
    tables: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refine (n, 4) endpoint rows at once; returns (rows, costs, converged).

    Rows whose cost cannot be evaluated come back unchanged. ``vps``
    holds one VanishingPoint or None per line; ``tables`` is
    _sampling_tables(fp), built here when not given. Each iteration makes
    two _batch_costs calls: one on the 8 probes of every running line, one
    on the doubled step and all _MAX_BOOSTS damping levels of every line
    that probed inside the field (one _damping_ladder call). Lines are
    damped by diag(max(half length, 1)^2, 1), in endpoint pixels as the step
    test measures: damping by |H| sees H_tt ~ 0 on the flat DF off a line,
    drives mu up there and then crawls at the kink. Each line takes its lowest-cost
    downhill row and stops below _GAIN_GATE relative gain, per line as in refine_line.
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
    scale = np.maximum(half_len, 1.0)  # endpoint pixels per radian
    metric = np.stack([scale * scale, np.ones_like(scale)], axis=1)[:, :, None] * np.eye(2)
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

        def trial(delta: np.ndarray) -> tuple[np.ndarray, ...]:
            d0, d1 = delta.transpose(2, 0, 1)
            lat = params.max_lateral_step
            d1 = np.where(np.abs(d1) > lat, np.copysign(lat, d1), d1)
            t_th = theta[a, None] + d0
            t_mx = mx[a, None] + d1 * nx[:, None]
            t_my = my[a, None] + d1 * ny[:, None]
            rows = np.repeat(a, delta.shape[1])
            cost = costs(rows, t_th.ravel(), t_mx.ravel(), t_my.ravel())
            return cost.reshape(delta.shape[:2]), t_th, t_mx, t_my, d0, d1

        stepped, mu_next, *moved, d0, d1 = _damping_ladder(
            hess, metric[a], g, mu[a], f0, _MAX_BOOSTS, trial
        )
        j = a[stepped]
        improvement = f0[stepped] - moved[0]
        f[j], theta[j], mx[j], my[j] = moved
        mu[j] = mu_next
        step = np.hypot(d0 * scale[j], d1)
        converged[j] = (step < params.tol) | (improvement < _GAIN_GATE * np.maximum(f[j], 1.0))
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
    endpoints by the same amount). Each iteration takes the lowest-cost
    downhill step among 6 damping levels, in endpoint pixels, and the doubled
    least-damped step (the kink case of _damping_ladder), so the cost never rises.
    Converged means the last step was below tol or gained under float32
    epsilon (_GAIN_GATE) relative, or no step went downhill; a probe leaving
    the field stops the line unconverged. A given vanishing point always adds
    its term, however far it lies; association is the caller's choice, as in
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
    it is assigned), the VPs are re-estimated from their assigned lines in
    one batch, and lines are re-assigned to their closest VP when its d_vp
    is below vp_params.t_vp, the gate fit_vps assigns with. Deterministic
    given the VP seed.
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
            arrays = mids, e1, e2, _ = _line_arrays(rows)
            members = [[i for i in range(n) if assignment[i] == j] for j in range(len(vps))]
            vecs = _refine_vps(np.array([v.v for v in vps]), arrays, members)[0]
            vps = [VanishingPoint(v) for v in vecs]
            dists = _d_vp_many(mids, e1, e2, np.array([v.v for v in vps])[:, None, :])
            closest = np.argmin(dists, axis=0)  # the first closest VP
            close = dists[closest, np.arange(n)] < vp_params.t_vp
            assignment = [int(j) if c else None for j, c in zip(closest, close)]
    return _segments(rows), vps, assignment
