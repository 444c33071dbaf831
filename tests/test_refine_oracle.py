"""_refine_lines against the level-by-level damping search it replaced.

``oracle_refine_lines`` is the batched line solver before its speculative
ladder: after the probe call it tries one damping level at a time, with
one _batch_costs call per level on the lines still without a step, and it
samples AF through a frozen copy of the earlier bilinear lookup, with 8
cos/sin per sample. The new solver solves and scores all 14 levels of
every line at once, keeps each line's first downhill level, and reads AF
from whole-grid cos(2 AF) and sin(2 AF) tables. Cost rows are independent
and the ladder's damping values are the same products, so on any input
the two must agree bit for bit: refined lines, costs and converged flags.
The oracle also counts the levels at which lines stepped or gave up, so
each fixed case can show it covered the case it names.

The oracle reads no sampling or line set-up code of the library: the
bilinear lookup (``oracle_bilinear_many``, also the filter oracle's) and
the per-line state (``oracle_line_state``: a given VP is always used,
with frozen per-segment midpoints, lengths and angles) are frozen here,
and the library's lookup is checked against the frozen one. The library
solver takes and returns (n, 4) endpoint rows; the oracle keeps segments.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefields import (
    FieldPair,
    LineSegment,
    RefineParams,
    ScalarField,
    VanishingPoint,
    line_cost,
    render_fields,
)
from linefields.fields import _bilinear_many
from linefields.geometry import Point2, _d_vp_many, _rows
from linefields.refine import _MAX_BOOSTS, _PROBE_A, _PROBE_T, _batch_costs, _refine_lines, _sampling_tables
from linefields.vp import _solve_2x2

from util_synth import perturb_segment, random_segments


def oracle_bilinear_corners(shape, xs, ys):
    h, w = shape
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x0 = np.clip(x0, 0, max(w - 2, 0))
    y0 = np.clip(y0, 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = xs - x0
    wy = ys - y0
    return x0, y0, x1, y1, wx, wy


def oracle_bilinear_many(data, xs, ys, circular):
    x0, y0, x1, y1, wx, wy = oracle_bilinear_corners(data.shape, xs, ys)
    v00 = data[y0, x0]
    v01 = data[y0, x1]
    v10 = data[y1, x0]
    v11 = data[y1, x1]
    ax = 1.0 - wx
    ay = 1.0 - wy
    if not circular:
        top = ax * v00 + wx * v01
        bot = ax * v10 + wx * v11
        return ay * top + wy * bot
    cs = np.cos(2.0 * v00), np.cos(2.0 * v01), np.cos(2.0 * v10), np.cos(2.0 * v11)
    sn = np.sin(2.0 * v00), np.sin(2.0 * v01), np.sin(2.0 * v10), np.sin(2.0 * v11)
    c = ay * (ax * cs[0] + wx * cs[1]) + wy * (ax * cs[2] + wx * cs[3])
    s = ay * (ax * sn[0] + wx * sn[1]) + wy * (ax * sn[2] + wx * sn[3])
    ang = 0.5 * np.arctan2(s, c)
    return np.where(ang < 0.0, ang + math.pi, ang)


def oracle_line_state(lines, vps):
    pts = np.stack([seg.as_array() for seg in lines])
    mids = 0.5 * (pts[:, 0] + pts[:, 1])
    lengths = np.array([math.hypot(l.p2.x - l.p1.x, l.p2.y - l.p1.y) for l in lines])
    use_v = np.array([v is not None for v in vps], dtype=bool)
    v_vec = None
    if use_v.any():
        v_vec = np.array([np.zeros(3) if v is None else v.v for v in vps])
    theta = np.array([math.atan2(l.p2.y - l.p1.y, l.p2.x - l.p1.x) for l in lines])
    return theta, mids[:, 0].copy(), mids[:, 1].copy(), 0.5 * lengths, v_vec, use_v


def oracle_batch_costs(fp, thetas, mxs, mys, half_len, v_vec, use_v, params):
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
    gx = np.clip(xs - 0.5, 0.0, w - 1.0).ravel()
    gy = np.clip(ys - 0.5, 0.0, h - 1.0).ravel()
    df_s = oracle_bilinear_many(fp.df.data, gx, gy, circular=False).reshape(xs.shape)
    af_s = oracle_bilinear_many(fp.af.data, gx, gy, circular=True).reshape(xs.shape)

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


def oracle_refine_lines(lines, fp, vps, params, seen: Counter):
    theta, mx, my, half_len, v_vec, use_v = oracle_line_state(lines, vps)

    def costs(rows, th, cx, cy):
        vv = None if v_vec is None else v_vec[rows]
        return oracle_batch_costs(fp, th, cx, cy, half_len[rows], vv, use_v[rows], params)

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
        inside = np.all(np.isfinite(probes), axis=1)
        seen["probe_outside"] += int((~inside).sum())
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
        pending = np.arange(len(a))
        for boost in range(_MAX_BOOSTS):
            if pending.size == 0:
                break
            i = a[pending]
            lhs = hess[pending] + mu[i, None, None] * damp[pending]
            delta, solved = _solve_2x2(lhs, -g[pending])
            seen["singular"] += int((~solved).sum())
            mu[i[~solved]] *= 10.0
            p, i, d0, d1 = pending[solved], i[solved], delta[solved, 0], delta[solved, 1]
            lat = params.max_lateral_step
            d1 = np.where(np.abs(d1) > lat, np.copysign(lat, d1), d1)
            t_th, t_mx, t_my = theta[i] + d0, mx[i] + d1 * nx[p], my[i] + d1 * ny[p]
            trial = costs(i, t_th, t_mx, t_my)
            down = np.isfinite(trial) & (trial < f[i])
            seen[f"level_{boost}"] += int(down.sum())
            j = i[down]
            improvement = f[j] - trial[down]
            f[j], theta[j], mx[j], my[j] = trial[down], t_th[down], t_mx[down], t_my[down]
            mu[j] = np.maximum(mu[j] / 3.0, 1e-12)
            step = np.hypot(d0[down] * np.maximum(half_len[j], 1.0), d1[down])
            converged[j] = (step < params.tol) | (improvement < 1e-14 * np.maximum(f[j], 1.0))
            stepped[p[down]] = True
            mu[i[~down]] *= 10.0
            pending = np.sort(np.concatenate([pending[~solved], p[~down]]))
        seen["no_level"] += int((~stepped).sum())
        converged[a[~stepped]] = True
        active = a[~converged[a]]

    refined = list(lines)
    for k in evaluable:
        c, s, hl = math.cos(theta[k]), math.sin(theta[k]), float(half_len[k])
        refined[k] = LineSegment(
            Point2(mx[k] - hl * c, my[k] - hl * s), Point2(mx[k] + hl * c, my[k] + hl * s)
        )
    return refined, f, converged


def assert_same(lines, fp, vps, params, seen: Counter | None = None) -> Counter:
    seen = Counter() if seen is None else seen
    want, want_f, want_conv = oracle_refine_lines(lines, fp, vps, params, seen)
    got, got_f, got_conv = _refine_lines(_rows(lines), fp, vps, params)
    assert got.tolist() == [[*w.p1, *w.p2] for w in want]
    assert np.array_equal(got_f, want_f)
    assert np.array_equal(got_conv, want_conv)
    return seen


def vp_along(seg: LineSegment, turn: float) -> VanishingPoint:
    """A point 600 px from the midpoint, ``turn`` radians off the segment's direction."""
    a = seg.oriented_angle + turn
    mx, my = seg.midpoint
    return VanishingPoint(np.array([mx + 600.0 * math.cos(a), my + 600.0 * math.sin(a), 1.0]))


SIZE = 96
GT = random_segments(np.random.default_rng(5), size=SIZE, k_range=(4, 4), min_length=20.0,
                     max_length=50.0, min_separation=12.0, margin=6.0)
FP = render_fields(GT, SIZE, SIZE)


def random_line(rng: np.random.Generator, kind: str) -> LineSegment:
    if kind == "near_gt":
        return perturb_segment(GT[int(rng.integers(len(GT)))], rng, 2.5, 6.0)
    if kind == "border":  # along an edge, within a probe or two of leaving
        y = float(rng.uniform(0.5, 0.6))
        x = float(rng.uniform(1.0, 40.0))
        seg = LineSegment((x, y), (x + float(rng.uniform(5.0, 40.0)), y))
        flip = rng.integers(4)
        if flip & 1:
            seg = LineSegment((seg.p1.y, seg.p1.x), (seg.p2.y, seg.p2.x))
        if flip & 2:
            seg = LineSegment((SIZE - seg.p1.x, SIZE - seg.p1.y), (SIZE - seg.p2.x, SIZE - seg.p2.y))
        return seg
    # Anywhere, often far from every GT line, where the field is nearly flat.
    p = rng.uniform(4.0, SIZE - 4.0, 2)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    q = np.clip(p + rng.uniform(3.0, 30.0) * np.array([math.cos(ang), math.sin(ang)]), 1.0, SIZE - 1.0)
    return LineSegment(tuple(p), tuple(q))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["near_gt", "border", "anywhere"]), min_size=1, max_size=8),
    turns=st.lists(st.sampled_from([None, 0.0, 0.001, 0.5]), min_size=8, max_size=8),
    max_iter=st.integers(1, 50),
)
def test_bitwise_equal_on_random_line_sets(seed, kinds, turns, max_iter) -> None:
    rng = np.random.default_rng(seed)
    lines = [random_line(rng, kind) for kind in kinds]
    # A turn of 0 or 0.001 rad puts the VP near the line, 0.5 rad far
    # from it; every given VP is used.
    vps = [None if t is None else vp_along(l, t) for l, t in zip(lines, turns)]
    assert_same(lines, FP, vps, RefineParams(max_iter=max_iter))


# Far from every GT line, where the field is nearly flat: one step of each
# is accepted only at damping level 13 or 10.
LATE = [
    LineSegment((74.84025728959345, 75.09878949681145), (64.17326616073085, 74.06844272499424)),
    LineSegment((86.98893729036836, 48.99682464766382), (92.11388293182597, 48.226116275654256)),
]
# Near a GT line: its first step is accepted at damping level 5, and its
# last iteration finds no downhill step at any level.
MID = LineSegment((80.69804458251215, 8.664168379587585), (69.32457785343311, 25.159172780416455))


def test_lines_accepted_at_level_ten_or_more() -> None:
    seen = assert_same(LATE, FP, [None, None], RefineParams())
    assert seen["level_13"] >= 1 and seen["level_10"] >= 1


def test_line_that_fails_every_level() -> None:
    seen = assert_same([GT[1], MID], FP, [None, None], RefineParams())
    assert seen["no_level"] >= 1
    assert _refine_lines(_rows([MID]), FP, [None], RefineParams())[2][0]


def test_lines_probing_across_the_border() -> None:
    rng = np.random.default_rng(8)
    lines = [random_line(rng, "border") for _ in range(6)] + [MID]
    seen = assert_same(lines, FP, [None] * len(lines), RefineParams())
    assert seen["probe_outside"] >= 1


def poison_solve(monkeypatch: pytest.MonkeyPatch, bad: np.ndarray) -> None:
    """Make ``bad`` singular: a stack holding it raises, as LAPACK does."""
    real = np.linalg.solve

    def solve(lhs, rhs):
        stack = lhs if np.ndim(lhs) == 3 else lhs[None]
        if any(np.array_equal(m, bad) for m in stack):
            raise np.linalg.LinAlgError("Singular matrix")
        return real(lhs, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)


@pytest.mark.parametrize("level", [2, 5])
def test_singular_level_in_the_middle_of_a_ladder(monkeypatch, level) -> None:
    first_ladder = []
    real = np.linalg.solve

    def record(lhs, rhs):
        first_ladder.append(np.copy(lhs[0]))
        return real(lhs, rhs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", record)
        seen = Counter()
        oracle_refine_lines([MID], FP, [None], RefineParams(max_iter=1), seen)
    assert seen["level_5"] == 1 and len(first_ladder) == 6
    clean = _refine_lines(_rows([MID]), FP, [None], RefineParams())

    poison_solve(monkeypatch, first_ladder[level])
    lines = [MID, *LATE, GT[1]]
    seen = assert_same(lines, FP, [None] * len(lines), RefineParams())
    assert seen["singular"] == 1
    got = _refine_lines(_rows([MID]), FP, [None], RefineParams())
    # Level 2 was rejected anyway; level 5 was the accepted one.
    assert (got[0][0, :2] != clean[0][0, :2]).any() == (level == 5)


def test_tables_match_per_sample_values() -> None:
    rng = np.random.default_rng(17)
    af_random = ScalarField(rng.uniform(0.0, math.pi, (97, 131)))
    for fp in (FP, FieldPair(ScalarField(np.zeros((97, 131))), af_random, 3.0)):
        _, cos2, sin2 = _sampling_tables(fp)
        h, w = fp.height, fp.width
        gx = rng.uniform(0.0, w - 1.0, 250_000)
        gy = rng.uniform(0.0, h - 1.0, 250_000)
        x0, y0, x1, y1, _, _ = oracle_bilinear_corners((h, w), gx, gy)
        for yy, xx in ((y0, x0), (y0, x1), (y1, x0), (y1, x1)):
            v = fp.af.data[yy, xx]
            assert np.array_equal(cos2[yy, xx], np.cos(2.0 * v))
            assert np.array_equal(sin2[yy, xx], np.sin(2.0 * v))


def test_batch_costs_match_per_sample_sampling() -> None:
    rng = np.random.default_rng(23)
    n = 4000
    theta = rng.uniform(-math.pi, math.pi, n)
    mx, my = rng.uniform(-2.0, SIZE + 2.0, (2, n))
    half_len = rng.uniform(0.5, 30.0, n)
    v_vec = np.column_stack([rng.uniform(-500.0, 600.0, (n, 2)), rng.uniform(0.0, 1.0, n)])
    use_v = rng.random(n) < 0.5
    for vv in (None, v_vec):
        args = (theta, mx, my, half_len, vv, use_v, RefineParams())
        got = _batch_costs(_sampling_tables(FP), *args)
        assert np.array_equal(got, oracle_batch_costs(FP, *args))
        assert np.isfinite(got).any() and np.isinf(got).any()


def test_line_cost_reads_only_its_window() -> None:
    # line_cost fills the AF tables only around the line; every sample it
    # reads must still fall inside that window.
    rng = np.random.default_rng(29)
    ends = [0.5, 1.0, 1.5, 2.5, SIZE - 2.5, SIZE - 1.5, SIZE - 1.0, SIZE - 0.5]
    lines = [random_line(rng, "anywhere") for _ in range(200)]
    for p, q in rng.choice(ends, (200, 2, 2)):
        if tuple(p) != tuple(q):
            lines.append(LineSegment(tuple(p), tuple(q)))
    lines += [LineSegment((x, 0.5), (x, SIZE - 0.5)) for x in (0.5, 7.25, SIZE - 0.5)]
    params = RefineParams()
    for k, l in enumerate(lines):
        v = vp_along(l, 0.0) if k % 2 else None
        want = oracle_batch_costs(FP, *oracle_line_state([l], [v]), params)[0]
        assert line_cost(l, FP, v, params) == want


@st.composite
def grid_samples(draw):
    """A grid (1 x N, N x 1, 2 x 2 or larger) and coordinates on it: a
    fraction of a random cell, a grid point, or a point beyond the border
    clipped back as callers clip. Fractions are squared: rng.random() gives
    multiples of 2**-53, for which 1 - x is exact, so a weight off by one
    ulp would not show; squares have bits below that, finest in cell 0."""
    h, w = draw(st.sampled_from([(1, 1), (1, 2), (1, 7), (2, 1), (7, 1), (2, 2), (3, 5), (9, 4)]))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(seed)

    def coords(size):
        c = rng.integers(0, max(size - 1, 1), n) + rng.random(n) ** 2
        kind = rng.choice(3, n, p=[0.6, 0.2, 0.2])
        c = np.where(kind == 1, np.floor(c), c)
        c = np.where(kind == 2, rng.uniform(-3.0, size + 2.0, n), c)
        return np.clip(c, 0.0, size - 1.0)

    xs, ys = coords(w), coords(h)
    return rng, (h, w), xs, ys


@settings(max_examples=200, deadline=None)
@given(sample=grid_samples(), circular=st.booleans(), shape_2d=st.booleans())
def test_bilinear_many_matches_frozen_lookup(sample, circular, shape_2d) -> None:
    rng, shape, xs, ys = sample
    if circular:  # angles mod pi, with values next to 0 and pi
        data = rng.choice([0.0, 1e-9, 1.0, math.pi - 1e-9, 3.0], shape) + rng.uniform(0.0, 0.1, shape)
        data = np.mod(data, math.pi)
    else:
        data = rng.normal(0.0, 10.0, shape)
    if shape_2d and len(xs) % 2 == 0:  # refinement samples (lines, n_opt) grids
        xs, ys = xs.reshape(2, -1), ys.reshape(2, -1)
    got = _bilinear_many(data, xs, ys, circular)
    want = oracle_bilinear_many(data, xs, ys, circular)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
