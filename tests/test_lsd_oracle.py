"""lsd_extract against the plain region-growing extractor it replaced.

``oracle_lsd_extract`` is the extractor before its fast path: region
growing on the unpadded grid with clamped 8-neighbourhoods, seeds ordered
by a lexsort, every seed grown, each rectangle fitted by
``oracle_fit_rect`` (one 1-D sum per moment), its pixels counted by
``oracle_count_in_rect`` as soon as it is fitted, the local tolerance
taken pixel by pixel, and the NFA tail through ``scipy.special.logsumexp``.
Its rectangles are ``_Rect`` objects, frozen here; the fast path keeps
each rectangle as a ``_fit_rect`` row.
The fast path pads the grid, sorts 16-bit seed keys, skips seeds that can
only grow to one pixel, sums stacked moments, takes the local tolerance
in one array pass, counts the pixels of all rectangles after growing in
fixed-size chunks of row spans, decides the NFA gate from bounds on the
tail, and reads log Gamma from a table of ``math.lgamma`` values. None
of that may change the output, so on any grid the two
must return the same segments, coordinate for coordinate. The oracle
also counts which branches a grid took, so the fixed scenes can show they
covered the retry, shrink and NFA paths. It writes out LSD's constants
(1024 seed-order bins, density 0.7, log10 epsilon 0, tolerance pi/8) as
literals rather than reading the module's, so it stays an independent
reference.

The NFA tail itself is held to scipy's within TAIL_RTOL, relative to
max(1, |tail|), and exactly where k <= 0 (0) or k > n (-inf): libm's
lgamma and scipy's gammaln differ in the last bit at some integers.
``frozen_meaningful`` is the gate as it was, one exact tail per
rectangle, and ``frozen_surrogate_gradient`` the surrogate gradient with
AF taken mod pi over the whole grid; the bounded gate and the masked mod
must match them bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln, logsumexp

from linefields import (
    FieldPair,
    ScalarField,
    image_gradient,
    lsd_extract,
    orient_angles,
    render_fields,
    sample_homography,
    surrogate_gradient,
    warp_image,
)
from linefields import detector
from linefields.detector import (
    _count_in_rects,
    _dense,
    _fit_rect,
    _lonely,
    _log10_binomial_tail,
    _meaningful,
    _padded,
    _width,
)
from linefields.geometry import TWO_PI, LineSegment, Point2, circular_distance

from util_synth import dense_field_pair, random_segments

TAU = math.pi / 8.0  # LSD's angle tolerance


class _Rect:
    """Fitted rectangle in image coordinates."""

    __slots__ = (
        "cx",
        "cy",
        "theta",
        "ux",
        "uy",
        "lmin",
        "lmax",
        "wmin",
        "wmax",
        "length",
        "width",
    )

    def __init__(self, cx, cy, theta, lmin, lmax, wmin, wmax):
        self.cx = cx
        self.cy = cy
        self.theta = theta
        self.ux = math.cos(theta)
        self.uy = math.sin(theta)
        self.lmin = lmin
        self.lmax = lmax
        self.wmin = wmin
        self.wmax = wmax
        self.length = lmax - lmin
        self.width = max(wmax - wmin, 1.0)


ROW_FIELDS = _Rect.__slots__[:9]  # a _fit_rect row, in order


def rows_of(rects):
    """The (n, 9) array of _fit_rect rows of frozen rectangles."""
    return np.array([[getattr(r, name) for name in ROW_FIELDS] for r in rects]).reshape(-1, 9)


def rect_of(row):
    """The frozen rectangle of a _fit_rect row."""
    cx, cy, theta, _, _, lmin, lmax, wmin, wmax = row
    return _Rect(cx, cy, theta, lmin, lmax, wmin, wmax)


def oracle_log10_tail(n: int, k: int, p: float) -> float:
    if k <= 0:
        return 0.0
    if k > n:
        return -math.inf
    j = np.arange(k, n + 1)
    log_terms = (
        gammaln(n + 1.0)
        - gammaln(j + 1.0)
        - gammaln(n - j + 1.0)
        + j * math.log(p)
        + (n - j) * math.log1p(-p)
    )
    return float(logsumexp(log_terms)) / math.log(10.0)


def oracle_fit_rect(xs, ys, weights, reg_angle, period):
    total = weights.sum()
    cx = float((weights * xs).sum() / total)
    cy = float((weights * ys).sum() / total)
    dx = xs - cx
    dy = ys - cy
    ixx = float((weights * dy * dy).sum() / total)
    iyy = float((weights * dx * dx).sum() / total)
    ixy = -float((weights * dx * dy).sum() / total)
    lam = 0.5 * ((ixx + iyy) - math.sqrt((ixx - iyy) ** 2 + 4.0 * ixy * ixy))
    if abs(ixx) > abs(iyy):
        theta = math.atan2(lam - ixx, ixy)
    else:
        theta = math.atan2(ixy, lam - iyy)
    if period > 1.5 * math.pi and circular_distance(theta, reg_angle, TWO_PI) > 0.5 * math.pi:
        theta += math.pi
    ux = math.cos(theta)
    uy = math.sin(theta)
    pl = dx * ux + dy * uy
    pw = -dx * uy + dy * ux
    rect = _Rect(
        cx, cy, theta, float(pl.min()), float(pl.max()), float(pw.min()), float(pw.max())
    )
    if rect.length < 1e-12:
        return None
    return rect


def oracle_count_in_rect(rect, ldir, usable, tol, period, offset):
    """Pixels whose center lies in the rectangle, and the aligned subset."""
    h, w = ldir.shape
    corner_l = np.array([rect.lmin, rect.lmin, rect.lmax, rect.lmax])
    corner_w = np.array([rect.wmin, rect.wmax, rect.wmin, rect.wmax])
    cxs = rect.cx + corner_l * rect.ux - corner_w * rect.uy
    cys = rect.cy + corner_l * rect.uy + corner_w * rect.ux
    x_lo = max(int(math.floor(cxs.min() - offset)), 0)
    x_hi = min(int(math.ceil(cxs.max() - offset)), w - 1)
    y_lo = max(int(math.floor(cys.min() - offset)), 0)
    y_hi = min(int(math.ceil(cys.max() - offset)), h - 1)
    if x_lo > x_hi or y_lo > y_hi:
        return 0, 0
    gx = np.arange(x_lo, x_hi + 1, dtype=float) + offset - rect.cx
    gy = (np.arange(y_lo, y_hi + 1, dtype=float) + offset - rect.cy)[:, None]
    pl = gx * rect.ux + gy * rect.uy
    pw = -gx * rect.uy + gy * rect.ux
    inside = (pl >= rect.lmin) & (pl <= rect.lmax) & (pw >= rect.wmin) & (pw <= rect.wmax)
    n = int(inside.sum())
    if n == 0:
        return 0, 0
    sub_dir = ldir[y_lo : y_hi + 1, x_lo : x_hi + 1]
    diff = np.mod(sub_dir - rect.theta, period)
    circ = np.minimum(diff, period - diff)
    aligned = inside & (circ <= tol) & usable[y_lo : y_hi + 1, x_lo : x_hi + 1]
    return n, int(aligned.sum())


def oracle_lsd_extract(
    magnitude, angle, *, threshold=3.0, period=TWO_PI, grid_offset=0.5, seen=None
):
    seen = Counter() if seen is None else seen
    h, w = magnitude.data.shape
    tol = TAU
    half = 0.5 * period
    k = TWO_PI / period

    mag = magnitude.data
    ldir2d = np.mod(angle.data + 0.5 * math.pi, period)
    usable2d = mag >= threshold
    max_mag = float(mag.max(initial=0.0))
    if max_mag <= 0.0 or not usable2d.any():
        return []

    p_align = 2.0 * tol / period
    log_nt = 2.5 * math.log10(float(w) * float(h))
    min_region_size = max(int(-log_nt / math.log10(p_align)), 2)

    flat_mag = mag.ravel()
    flat_usable = usable2d.ravel()
    usable_idx = np.flatnonzero(flat_usable)
    bins = np.minimum((flat_mag[usable_idx] / max_mag * 1024).astype(int), 1023)
    seed_order = usable_idx[np.lexsort((usable_idx, -bins))]

    ldir = ldir2d.ravel().tolist()
    cos_k = np.cos(k * ldir2d).ravel().tolist()
    sin_k = np.sin(k * ldir2d).ravel().tolist()
    status = bytearray(np.where(flat_usable, 0, 1).astype(np.uint8).tobytes())

    def grow(seed, grow_tol):
        region = [seed]
        status[seed] = 1
        sx = cos_k[seed]
        sy = sin_k[seed]
        ang = ldir[seed]
        head = 0
        while head < len(region):
            p = region[head]
            head += 1
            py, px = divmod(p, w)
            y0 = py - 1 if py > 0 else 0
            y1 = py + 1 if py < h - 1 else h - 1
            x0 = px - 1 if px > 0 else 0
            x1 = px + 1 if px < w - 1 else w - 1
            for ny in range(y0, y1 + 1):
                base = ny * w
                for q in range(base + x0, base + x1 + 1):
                    if status[q]:
                        continue
                    d = (ldir[q] - ang) % period
                    if d > half:
                        d = period - d
                    if d <= grow_tol:
                        status[q] = 1
                        region.append(q)
                        sx += cos_k[q]
                        sy += sin_k[q]
                        ang = math.atan2(sy, sx) / k
        return region, ang

    def release(pixels):
        for q in pixels:
            status[q] = 0

    def fit(region, reg_angle):
        idx = np.asarray(region)
        iy, ix = np.divmod(idx, w)
        xs = ix.astype(float) + grid_offset
        ys = iy.astype(float) + grid_offset
        rect = oracle_fit_rect(xs, ys, flat_mag[idx], reg_angle, period)
        return rect, xs, ys

    def local_tolerance(region, xs, ys, seed, width):
        sy, sx = divmod(seed, w)
        sxc = sx + grid_offset
        syc = sy + grid_offset
        near = (xs - sxc) ** 2 + (ys - syc) ** 2 <= width * width
        if not near.any():
            return tol
        ref = ldir[seed]
        diffs = []
        for q, close in zip(region, near):
            if close:
                d = (ldir[q] - ref) % period
                if d > half:
                    d -= period
                diffs.append(d)
        arr = np.asarray(diffs)
        two_std = 2.0 * math.sqrt(float(np.mean(arr * arr)))
        return max(min(two_std, 0.5 * period - 1e-9), 1e-6)

    results = []
    for seed in seed_order:
        seed = int(seed)
        if status[seed]:
            continue
        region, reg_angle = grow(seed, tol)
        if len(region) == 1:
            seen["region_of_one"] += 1
        if len(region) < min_region_size:
            continue
        rect, xs, ys = fit(region, reg_angle)
        ok = rect is not None and len(region) / (rect.length * rect.width) >= 0.7

        if not ok and rect is not None:
            seen["retry"] += 1
            tol2 = local_tolerance(region, xs, ys, seed, rect.width)
            release(region)
            region, reg_angle = grow(seed, tol2)
            if len(region) < min_region_size:
                continue
            rect, xs, ys = fit(region, reg_angle)
            ok = rect is not None and len(region) / (rect.length * rect.width) >= 0.7

        if not ok and rect is not None:
            seen["shrink"] += 1
            sy, sx = divmod(seed, w)
            sxc = sx + grid_offset
            syc = sy + grid_offset
            d2 = (xs - sxc) ** 2 + (ys - syc) ** 2
            radius = math.sqrt(float(d2.max()))
            arr_region = np.asarray(region)
            for _ in range(5):
                radius *= 0.75
                keep = d2 <= radius * radius
                dropped = arr_region[~keep]
                release(dropped.tolist())
                arr_region = arr_region[keep]
                xs = xs[keep]
                ys = ys[keep]
                d2 = d2[keep]
                if len(arr_region) < min_region_size:
                    break
                region = arr_region.tolist()
                rect2 = oracle_fit_rect(xs, ys, flat_mag[arr_region], reg_angle, period)
                if rect2 is None:
                    continue
                rect = rect2
                if len(region) / (rect.length * rect.width) >= 0.7:
                    ok = True
                    break
            if len(arr_region) < min_region_size:
                continue

        if not ok or rect is None:
            continue

        n_in, k_in = oracle_count_in_rect(rect, ldir2d, usable2d, tol, period, grid_offset)
        if n_in == 0:
            continue
        log_nfa = log_nt + oracle_log10_tail(n_in, k_in, p_align)
        if log_nfa > 0.0:
            seen["nfa_reject"] += 1
            continue
        seen["accepted"] += 1
        results.append(
            LineSegment(
                Point2(rect.cx + rect.lmin * rect.ux, rect.cy + rect.lmin * rect.uy),
                Point2(rect.cx + rect.lmax * rect.ux, rect.cy + rect.lmax * rect.uy),
            )
        )
    return results


def bits(lines):
    return [tuple(v.hex() for v in (s.p1.x, s.p1.y, s.p2.x, s.p2.y)) for s in lines]


def assert_matches_oracle(mag, ang, offset, seen=None, *, threshold=3.0, period=TWO_PI):
    m, a = ScalarField(mag), ScalarField(ang)
    got = lsd_extract(m, a, threshold=threshold, period=period, grid_offset=offset)
    want = oracle_lsd_extract(
        m, a, threshold=threshold, period=period, grid_offset=offset, seen=seen
    )
    assert bits(got) == bits(want)
    return got


def bars_on_noise(rng, h, w, n_bars=1, sigma=8.0):
    """An (h, w) gradient grid of bright 4 px bars on a noisy background."""
    ys, xs = np.mgrid[0 : h + 1, 0 : w + 1] + 0.5
    img = 60.0 + rng.normal(0.0, sigma, (h + 1, w + 1))
    for _ in range(n_bars):
        cx, cy = rng.uniform(0, w + 1), rng.uniform(0, h + 1)
        t = rng.uniform(0.0, math.pi)
        across = np.abs(-(xs - cx) * math.sin(t) + (ys - cy) * math.cos(t))
        img[across <= 2.0] += 120.0
    mag, ang = image_gradient(img)
    return mag.data[:h, :w], ang.data[:h, :w]


def make_grid(kind, h, w, seed):
    rng = np.random.default_rng(seed)
    if kind == "noise":
        return np.abs(rng.normal(0.0, 6.0, (h, w))), rng.uniform(-math.pi, math.pi, (h, w))
    if kind == "bars":
        return bars_on_noise(rng, h, w, n_bars=2)
    # "wrap": line directions cluster around 0, where both periods wrap.
    return np.abs(rng.normal(5.0, 3.0, (h, w))), -0.5 * math.pi + rng.normal(0.0, 0.15, (h, w))


sides = st.integers(1, 48)


@settings(max_examples=200, deadline=None)
@given(
    h=sides,
    w=sides,
    kind=st.sampled_from(["noise", "bars", "wrap"]),
    period=st.sampled_from([TWO_PI, math.pi]),
    offset=st.sampled_from([0.5, 1.0]),
    threshold=st.sampled_from([0.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=1, w=48, kind="wrap", period=math.pi, offset=0.5, threshold=0.0, seed=0)
@example(h=48, w=1, kind="wrap", period=TWO_PI, offset=1.0, threshold=0.0, seed=1)
@example(h=1, w=1, kind="noise", period=TWO_PI, offset=0.5, threshold=0.0, seed=2)
@example(h=2, w=40, kind="bars", period=math.pi, offset=1.0, threshold=3.0, seed=3)
def test_random_grids_match_oracle(h, w, kind, period, offset, threshold, seed):
    mag, ang = make_grid(kind, h, w, seed)
    assert_matches_oracle(mag, ang, offset, threshold=threshold, period=period)


def test_pseudo_gt_warps_match_oracle():
    """Image-mode detection on warps of a noisy bar image, as gen-gt runs it."""
    rng = np.random.default_rng(7)
    h = w = 128
    ys, xs = np.mgrid[0:h, 0:w] + 0.5
    img = 40.0 + rng.normal(0.0, 8.0, (h, w))
    for _ in range(6):
        cx, cy = rng.uniform(20, 108, 2)
        t = rng.uniform(0.0, math.pi)
        along = np.abs((xs - cx) * math.cos(t) + (ys - cy) * math.sin(t))
        across = np.abs(-(xs - cx) * math.sin(t) + (ys - cy) * math.cos(t))
        img[(across <= 2.0) & (along <= 30.0)] = 200.0
    seen = Counter()
    total = 0
    for _ in range(3):
        warp = sample_homography(w, h, rng)
        mag, ang = image_gradient(warp_image(img, warp))
        for period in (TWO_PI, math.pi):
            total += len(assert_matches_oracle(mag.data, ang.data, 1.0, seen, period=period))
    assert total > 0
    for branch in ("region_of_one", "retry", "shrink", "nfa_reject", "accepted"):
        assert seen[branch] > 0, branch


def rendered_pair_matches_oracle():
    rng = np.random.default_rng(11)
    segs = random_segments(rng, size=128, k_range=(5, 7))
    mag, theta = surrogate_gradient(render_fields(segs, 128, 128, 5.0))
    seen = Counter()
    lines = assert_matches_oracle(
        mag.data, theta.data, 0.5, seen, period=math.pi
    )
    assert len(lines) >= len(segs)
    assert seen["accepted"] > 0


def test_rendered_field_pair_matches_oracle():
    """Field-mode detection: the surrogate gradient of a rendered pair."""
    rendered_pair_matches_oracle()


def test_rendered_field_pair_matches_oracle_in_small_chunks():
    with mock.patch.object(detector, "_NFA_ELEMENTS", 37):
        rendered_pair_matches_oracle()


def test_dense_field_pair_matches_oracle():
    """40 long lines at 256 x 256, as dense as a benchmark view: many long
    diagonal rectangles for the NFA count on the padded grids. Period pi,
    then 2 pi with the angles oriented by a companion image that brightens
    towards the lines, so each line's two flanks point apart."""
    segs, fp = dense_field_pair()
    mag, theta = surrogate_gradient(fp)
    lines = assert_matches_oracle(mag.data, theta.data, 0.5, period=math.pi)
    assert len(lines) >= len(segs)
    _, grad_angle = image_gradient(np.maximum(40.0, 200.0 - 30.0 * fp.df.data))
    oriented = orient_angles(theta, grad_angle)
    lines = assert_matches_oracle(mag.data, oriented.data, 0.5)
    assert len(lines) >= len(segs)


# ------------------------------------------------------ rectangle fits


def rect_bits(rect):
    """A frozen rectangle's row fields and width, bit for bit."""
    if rect is None:
        return None
    return [getattr(rect, name).hex() for name in (*ROW_FIELDS, "width")]


def row_bits(row):
    """A _fit_rect row and its _width, bit for bit."""
    if row is None:
        return None
    return [v.hex() for v in (*row, _width(row))]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 4000),
    spread=st.floats(0.0, 6.0),
    log_w=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    period=st.sampled_from([TWO_PI, math.pi]),
    offset=st.sampled_from([0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4000, spread=3.0, log_w=(-3.0, 3.0), period=TWO_PI, offset=1.0, seed=0)
@example(n=2, spread=0.0, log_w=(0.0, 0.0), period=math.pi, offset=0.5, seed=1)
def test_fit_rect_matches_oracle(n, spread, log_w, period, offset, seed):
    """Pixel bands of any direction and width, weights 1e-3 to 1e3; eight
    bands per example, as a last-bit slip moves the rectangle only now and
    then."""
    rng = np.random.default_rng(seed)
    lo, hi = sorted(w + 0.0 for w in log_w)  # -0.0 + 0.0 is 0.0: uniform(0.0, -0.0) raises
    for _ in range(8):
        t = rng.uniform(0.0, math.pi)
        along = rng.uniform(-n, n, 4 * n)
        across = rng.uniform(-spread, spread, 4 * n)
        ix = np.round(along * math.cos(t) - across * math.sin(t))
        iy = np.round(along * math.sin(t) + across * math.cos(t))
        _, first = np.unique(np.stack([ix, iy], axis=1), axis=0, return_index=True)
        pick = rng.permutation(first)[:n]
        if len(pick) < 2:
            continue
        xs, ys = ix[pick] + 500.0 + offset, iy[pick] + 500.0 + offset
        weights = 10.0 ** rng.uniform(lo, hi, len(pick))
        reg_angle = rng.uniform(0.0, period)
        got = _fit_rect(xs, ys, weights, reg_angle, period)
        want = oracle_fit_rect(xs, ys, weights, reg_angle, period)
        assert row_bits(got) == rect_bits(want)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 400),
    lmin=st.floats(-200.0, 0.0),
    length=st.floats(1e-12, 200.0),
    wmin=st.floats(-20.0, 0.0),
    width=st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 40.0),
)
@example(n=7, lmin=0.0, length=10.0, wmin=0.0, width=0.5)  # 7 / 10 is 0.7
@example(n=14, lmin=-1.0, length=4.0, wmin=-1.0, width=5.0)  # 14 / 20 is 0.7
@example(n=13, lmin=-1.0, length=4.0, wmin=-1.0, width=5.0)  # 13 / 20 is 0.65
def test_density_gate_matches_frozen_rectangle(n, lmin, length, wmin, width):
    """The gate at LSD's density 0.7, written out here."""
    rect = _Rect(3.0, 4.0, 0.5, lmin, lmin + length, wmin, wmin + width)
    assume(rect.length >= 1e-12)
    want = n / (rect.length * rect.width) >= 0.7
    assert _dense(n, rows_of([rect])[0].tolist()) == want


# ------------------------------------------------------------ NFA counts


def random_rect(draw, h, w, reach):
    """A rectangle centered within ``reach / 3`` pixels of an h x w grid,
    possibly off it, thin enough to hold no pixel center, or wider than
    the grid."""
    theta = draw(st.floats(0.0, TWO_PI, allow_nan=False))
    cx = draw(st.floats(-reach / 3.0, w + reach / 3.0, allow_nan=False))
    cy = draw(st.floats(-reach / 3.0, h + reach / 3.0, allow_nan=False))
    lmin = draw(st.floats(-reach, 0.0, allow_nan=False))
    lmax = draw(st.floats(1e-9, reach, allow_nan=False))
    wmin = draw(st.floats(-reach / 4.0, 0.0, allow_nan=False))
    wmax = draw(st.one_of(st.just(wmin), st.floats(wmin, wmin + reach / 2.0)))
    return _Rect(cx, cy, theta, lmin, lmax, wmin, wmax)


@st.composite
def rect_scenes(draw):
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rects = [random_rect(draw, h, w, 30.0) for _ in range(draw(st.integers(0, 6)))]
    return h, w, rng, rects


def assert_counts_match(rects, ldir, usable, tol, period, offset):
    n_in, k_in = _count_in_rects(rows_of(rects), ldir, usable, tol, period, offset)
    want = [oracle_count_in_rect(r, ldir, usable, tol, period, offset) for r in rects]
    assert list(zip(n_in.tolist(), k_in.tolist())) == want
    return want


@settings(max_examples=150, deadline=None)
@given(
    scene=rect_scenes(),
    chunk=st.sampled_from([1, 2, detector._NFA_ELEMENTS]),
    period=st.sampled_from([TWO_PI, math.pi]),
    offset=st.sampled_from([0.5, 1.0]),
)
def test_chunked_counts_match_scalar_count(scene, chunk, period, offset):
    h, w, rng, rects = scene
    ldir = rng.uniform(0.0, period, (h, w))
    usable = rng.random((h, w)) < 0.7
    with mock.patch.object(detector, "_NFA_ELEMENTS", chunk):
        assert_counts_match(rects, ldir, usable, TAU, period, offset)


@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(2, 40),
    w=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 2, detector._NFA_ELEMENTS]),
    period=st.sampled_from([TWO_PI, math.pi]),
    offset=st.sampled_from([0.5, 1.0]),
)
def test_fitted_rectangles_count_their_own_pixels(h, w, seed, chunk, period, offset):
    """Rectangles fitted to pixel regions, as lsd_extract fits them: the
    extreme pixels project exactly onto the rectangle's edges, so every
    region pixel must count as inside, on both sides of the comparison."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:h, 0:w]
    t = rng.uniform(0.0, math.pi)
    c = rng.uniform(0.0, [w, h])
    across = np.abs(-(xs + offset - c[0]) * math.sin(t) + (ys + offset - c[1]) * math.cos(t))
    region = np.flatnonzero((across <= rng.uniform(0.5, 3.0)) & (rng.random((h, w)) < 0.9))
    assume(len(region) >= 2)
    iy, ix = np.divmod(region, w)
    row = _fit_rect(ix + offset, iy + offset, rng.uniform(1.0, 5.0, len(region)), t, period)
    assume(row is not None)
    rect = rect_of(row)
    assert rows_of([rect]).tolist() == [list(row)]
    ldir = rng.uniform(0.0, period, (h, w))
    usable = rng.random((h, w)) < 0.8
    with mock.patch.object(detector, "_NFA_ELEMENTS", chunk):
        (n_in, _), = assert_counts_match([rect], ldir, usable, TAU, period, offset)
    assert n_in >= len(region)


@pytest.mark.parametrize("chunk", [1000, detector._NFA_ELEMENTS])
def test_rectangles_larger_than_a_chunk(chunk):
    """Boxes of up to 2.4 default chunks, next to empty and off-grid ones."""
    h = w = 200
    rng = np.random.default_rng(5)
    ldir = rng.uniform(0.0, math.pi, (h, w))
    ldir[50:150, :] = 0.25  # an aligned band
    usable = rng.random((h, w)) < 0.9
    rects = [
        _Rect(100.0, 100.0, 0.25, -140.0, 140.0, -90.0, 90.0),  # whole grid
        _Rect(-50.0, -50.0, 1.0, -10.0, 10.0, -2.0, 2.0),  # off the grid
        _Rect(100.3, 100.3, 0.0, -0.2, 0.2, 0.0, 0.0),  # no pixel center
        _Rect(20.0, 180.0, 2.0, -60.0, 60.0, -1.0, 1.5),
        _Rect(100.0, 100.0, 0.25, -90.0, 90.0, -40.0, 40.0),
    ]
    with mock.patch.object(detector, "_NFA_ELEMENTS", chunk):
        want = assert_counts_match(rects, ldir, usable, TAU, math.pi, 0.5)
    assert want[0][0] > detector._NFA_ELEMENTS
    assert want[1] == (0, 0) and want[2] == (0, 0)
    assert 0 < want[4][1] < want[4][0]


SMALL_COMPONENTS = [0.0, 1e-7, 1e-5]  # |ux| or |uy| of a near-axis rectangle
SCALES = [1.0, 1e6, 1e12, 1e200]  # huge ones clip the box or leave no span


def near_axis_rect(draw, h, w, offset):
    """A rectangle whose |ux| or |uy| is 0, 1e-7 or 1e-5, and how many
    pixels lie on its edges. Either it lies on the grid, partly or wholly
    off it, with coordinates up to 1e200, or its extents are the
    projections, in the count's arithmetic, of a few grid pixels, which
    then lie exactly on its edges."""
    small = draw(st.sampled_from(SMALL_COMPONENTS)) * draw(st.sampled_from([1.0, -1.0]))
    big = math.sqrt(1.0 - small * small) * draw(st.sampled_from([1.0, -1.0]))
    ux, uy = (small, big) if draw(st.booleans()) else (big, small)
    pixels = []
    if draw(st.booleans()):
        cx, cy = draw(st.floats(0.0, float(w))), draw(st.floats(0.0, float(h)))
        cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
        pixels = draw(st.lists(cell, min_size=1, max_size=6, unique=True))
        ix, iy = np.array(pixels).T
        gx, gy = ix + offset - cx, iy + offset - cy
        pl, pw = gx * ux + gy * uy, -gx * uy + gy * ux
        extents = pl.min(), pl.max(), pw.min(), pw.max()
    else:
        scale = draw(st.sampled_from(SCALES))
        cx = draw(st.floats(-1.0, 1.0)) * scale + 0.5 * w
        cy = draw(st.floats(-1.0, 1.0)) * scale + 0.5 * h
        reach = draw(st.sampled_from([0.5, 5.0, 30.0, scale]))
        lmin, lmax = sorted(draw(st.floats(-reach, reach)) for _ in range(2))
        wmin, wmax = sorted(draw(st.floats(-reach, reach)) for _ in range(2))
        extents = lmin, lmax, wmin, wmax
    rect = _Rect(cx, cy, math.atan2(uy, ux), *extents)
    rect.ux, rect.uy = ux, uy
    return rect, len(pixels)


@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 7, detector._NFA_ELEMENTS]),
    period=st.sampled_from([TWO_PI, math.pi]),
    offset=st.sampled_from([0.5, 1.0]),
    data=st.data(),
)
def test_counts_of_near_axis_off_grid_and_huge_rectangles(h, w, seed, chunk, period, offset, data):
    """Row spans count what the box scan counts where a direction component
    is 0 or tiny, the rectangle is partly or wholly off the grid, or its
    coordinates are huge, and every pixel on an edge counts. Warnings are
    errors, so no span end or box may overflow or divide by zero."""
    rng = np.random.default_rng(seed)
    drawn = [near_axis_rect(data.draw, h, w, offset) for _ in range(data.draw(st.integers(1, 4)))]
    rects, on_edges = zip(*drawn)
    ldir = rng.uniform(0.0, period, (h, w))
    usable = rng.random((h, w)) < 0.7
    with mock.patch.object(detector, "_NFA_ELEMENTS", chunk):
        counts = assert_counts_match(rects, ldir, usable, TAU, period, offset)
    assert all(n_in >= planted for (n_in, _), planted in zip(counts, on_edges))


# --------------------------------------------------------- lonely seeds


def lonely_mask(mag, ang, *, threshold=3.0, period=TWO_PI):
    """The lonely flag of every pixel as a grid (False where unusable)."""
    ldir = np.mod(ang + 0.5 * math.pi, period)
    return lonely_of(ldir, mag >= threshold, period)


def lonely_of(ldir, usable, period):
    usable_idx = np.flatnonzero(usable)
    wp, pidx, pusable = _padded(ldir.shape, usable_idx)
    pldir = np.zeros(len(pusable))
    pldir[pidx] = ldir.ravel()[usable_idx]
    alone = _lonely(wp, pidx, pldir, pusable, TAU, period)
    out = np.zeros(ldir.shape, dtype=bool)
    out.ravel()[usable_idx] = alone
    return out


def scalar_lonely(ldir, usable, period):
    """grow()'s first step from every usable seed, neighbour by neighbour."""
    h, w = ldir.shape
    tol = TAU
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            if not usable[y, x]:
                continue
            out[y, x] = True
            for ny in range(max(y - 1, 0), min(y + 2, h)):
                for nx in range(max(x - 1, 0), min(x + 2, w)):
                    if (ny, nx) == (y, x) or not usable[ny, nx]:
                        continue
                    d = (float(ldir[ny, nx]) - float(ldir[y, x])) % period
                    if d > 0.5 * period:
                        d = period - d
                    if d <= tol:
                        out[y, x] = False
    return out


@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(1, 10),
    w=st.integers(1, 10),
    period=st.sampled_from([TWO_PI, math.pi]),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 7, detector._LONELY_ELEMENTS]),
)
def test_lonely_mask_matches_scalar_rule(h, w, period, seed, chunk):
    """Directions at 0, at the period itself, just below it and whole
    tolerances apart, where a rounding slip would flip the test; the
    usable pixels in one chunk or in several."""
    rng = np.random.default_rng(seed)
    tol = TAU
    pool = np.array([0.0, period, np.nextafter(period, 0.0), tol, 2 * tol, period - tol, 1e-17])
    ldir = np.where(
        rng.random((h, w)) < 0.5,
        pool[rng.integers(0, len(pool), (h, w))],
        rng.uniform(0.0, period, (h, w)),
    )
    usable = rng.random((h, w)) < 0.8
    with mock.patch.object(detector, "_LONELY_ELEMENTS", chunk):
        lonely = lonely_of(ldir, usable, period)
    assert np.array_equal(lonely, scalar_lonely(ldir, usable, period))


def grid_of(ldirs, mags):
    """Angle grid (gradient convention) and magnitude grid from line directions."""
    ldirs = np.asarray(ldirs, dtype=float)
    return np.asarray(mags, dtype=float), ldirs - 0.5 * math.pi


def test_sub_threshold_neighbour_does_not_count():
    up = 0.5 * math.pi
    ang_ldir = [[up, 0.0, up], [up, 0.0, up], [up, up, up]]
    mags = [[10.0, 1.0, 10.0], [10.0, 10.0, 10.0], [10.0, 10.0, 10.0]]
    mag, ang = grid_of(ang_ldir, mags)
    assert lonely_mask(mag, ang)[1, 1]
    # Once the neighbour is usable it is a compatible neighbour.
    assert not lonely_mask(mag, ang, threshold=0.0)[1, 1]
    assert_matches_oracle(mag, ang, 0.5)


def test_neighbours_across_the_border_never_count():
    # (0, 2) and (1, 0) are consecutive in the unpadded flat order, and
    # each also sits next to the padding, whose direction reads 0.0.
    mag, ang = grid_of(np.zeros((2, 3)), [[0.0, 0.0, 10.0], [10.0, 0.0, 0.0]])
    mask = lonely_mask(mag, ang)
    assert mask[0, 2] and mask[1, 0]
    assert_matches_oracle(mag, ang, 0.5)
    # A lone pixel in each corner, and in the middle of a 1-row grid.
    for shape in [(4, 4), (1, 5), (5, 1)]:
        for y, x in {(0, 0), (0, shape[1] - 1), (shape[0] - 1, 0), (shape[0] - 1, shape[1] - 1)}:
            mags = np.zeros(shape)
            mags[y, x] = 10.0
            mag, ang = grid_of(np.zeros(shape), mags)
            assert lonely_mask(mag, ang)[y, x]


@pytest.mark.parametrize(
    "a, b",
    [
        (0.01, math.pi - 0.01),  # 0.02 apart across the wrap of period pi
        (-0.19, -0.19 + TAU),  # exactly the tolerance apart
    ],
)
def test_compatible_pair_is_not_lonely(a, b):
    ldirs = np.full((5, 20), 0.5 * math.pi)
    ldirs[2] = [a, b] * 10
    mags = np.zeros((5, 20))
    mags[2] = 10.0
    mag, ang = grid_of(ldirs, mags)
    ldir = np.mod(ang[2, :2] + 0.5 * math.pi, math.pi).tolist()
    for d in ((ldir[1] - ldir[0]) % math.pi, (ldir[0] - ldir[1]) % math.pi):
        assert min(d, math.pi - d) <= TAU
    assert not lonely_mask(mag, ang, period=math.pi)[2].any()
    lines = assert_matches_oracle(mag, ang, 0.5, period=math.pi)
    assert len(lines) == 1


def test_lonely_pixel_is_still_absorbed_by_a_drifted_region():
    # A chain at direction 0.3, then N at 0.0, then P at 0.45. P's only
    # usable neighbour is N, 0.45 away (> pi/8), so P is lonely; but the
    # region's mean direction is about 0.27 when it reaches P, so it
    # absorbs P before P's own turn as a seed.
    ldirs = np.zeros((3, 12))
    ldirs[1, :10] = 0.3
    ldirs[1, 10] = 0.0
    ldirs[1, 11] = 0.45
    mags = np.zeros((3, 12))
    mags[1, :10] = 10.0
    mags[1, 10] = 9.0
    mags[1, 11] = 5.0
    mag, ang = grid_of(ldirs, mags)
    mask = lonely_mask(mag, ang)
    assert mask[1, 11] and not mask[1, 10]
    lines = assert_matches_oracle(mag, ang, 0.5)
    assert len(lines) == 1
    # The segment reaches P's center.
    assert max(lines[0].p1.x, lines[0].p2.x) == pytest.approx(11.5)


# ------------------------------------------------------------ NFA tail

TAIL_NS = [1, 2, 3, 7, 8, 16, 87, 100, 131, 512, 1000, 2711, 5000]
TAIL_RTOL = 1e-10  # relative to max(1, |tail|): log Gamma from math.lgamma, not gammaln


def assert_tail_close(n: int, k: int, p: float) -> None:
    """The tail within TAIL_RTOL of scipy's; exact where k <= 0 or k > n."""
    got, want = _log10_binomial_tail(n, k, p), oracle_log10_tail(n, k, p)
    if k <= 0 or k > n:
        assert got == want, (n, k, p)
    else:
        assert abs(got - want) <= TAIL_RTOL * max(1.0, abs(want)), (n, k, p)


@pytest.mark.parametrize("p", [1.0 / 8.0, 1.0 / 16.0, 0.25, 0.5])
@pytest.mark.parametrize("n", TAIL_NS)
def test_nfa_tail_matches_scipy(n, p):
    ks = sorted({-3, 0, 1, 2, n // 16, n // 8, n // 4, n // 2, n - 1, n, n + 1, n + 7})
    for k in ks:
        assert_tail_close(n, k, p)


@pytest.mark.parametrize("n, p", [(87, 0.25), (131, 0.25), (7, 0.5), (13, 0.5)])
def test_nfa_tail_tie_at_the_maximum_term(n, p):
    j = np.arange(0, n + 1)
    terms = (
        gammaln(n + 1.0)
        - gammaln(j + 1.0)
        - gammaln(n - j + 1.0)
        + j * math.log(p)
        + (n - j) * math.log1p(-p)
    )
    assert np.count_nonzero(terms == terms.max()) == 2
    for k in (0, 1, int(np.argmax(terms))):
        assert_tail_close(n, k, p)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5000),
    frac=st.floats(0.0, 1.2),
    p=st.sampled_from([1.0 / 8.0, 1.0 / 16.0]),
)
def test_nfa_tail_matches_scipy_random(n, frac, p):
    assert_tail_close(n, int(frac * n), p)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5000),
    p=st.sampled_from([1.0 / 16.0, 1.0 / 8.0, 0.25, 0.5]),
    data=st.data(),
)
def test_nfa_tail_is_a_nonincreasing_log_probability(n, p, data):
    # Up to TAIL_RTOL: the terms' rounding alone puts some tails near k = 1
    # a few 1e-12 above 0, the scipy reference's too.
    k1 = data.draw(st.integers(1, n))
    k2 = data.draw(st.integers(k1, n))
    lo, hi = _log10_binomial_tail(n, k1, p), _log10_binomial_tail(n, k2, p)
    assert lo <= TAIL_RTOL
    assert hi <= lo + TAIL_RTOL * max(1.0, abs(lo))
    assert _log10_binomial_tail(n, data.draw(st.integers(-3, 0)), p) == 0.0
    assert _log10_binomial_tail(n, n + data.draw(st.integers(1, 3)), p) == -math.inf
    want = n * math.log10(p)
    assert abs(_log10_binomial_tail(n, n, p) - want) <= TAIL_RTOL * max(1.0, abs(want))


# ------------------------------------------------------------ NFA gate


def frozen_meaningful(n_in, k_in, log_nt, p):
    """The gate as lsd_extract ran it, one exact tail per rectangle."""
    return [
        n > 0 and not log_nt + _log10_binomial_tail(n, k, p) > 0.0
        for n, k in zip(n_in.tolist(), k_in.tolist())
    ]


GATE_SHIFTS = [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 0.01, -0.01]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5000),
    frac=st.floats(0.0, 1.0),
    p=st.sampled_from([1.0 / 8.0, 0.25]),
    shift=st.sampled_from(GATE_SHIFTS),
    ulps=st.integers(-2, 2),
)
def test_gate_decides_as_the_exact_tail_near_the_gate(n, frac, p, shift, ulps):
    """log_nt sits on the gate of (n, k), or a hair to either side of it,
    and the batch holds k's neighbours and the special cases n <= 0,
    k <= 0 and k > n: the bounds must leave every close call to the
    exact tail."""
    k = max(1, int(frac * n))
    log_nt = -_log10_binomial_tail(n, k, p) + shift
    for _ in range(abs(ulps)):
        log_nt = math.nextafter(log_nt, math.copysign(math.inf, ulps))
    ks = [k - 2, k - 1, k, k + 1, k + 2, 0, -1, n, n + 1]
    n_in = np.array([n] * len(ks) + [0, -1, 0])
    k_in = np.array(ks + [0, 0, 3])
    got = _meaningful(n_in, k_in, log_nt, p)
    assert got.tolist() == frozen_meaningful(n_in, k_in, log_nt, p)


@pytest.mark.parametrize("p", [1.0 / 8.0, 0.25])
def test_gate_on_every_pair_of_a_grid(p):
    """Every (n, k) up to n = 120 against the log_nt of 1 x 1 to 512 x 512
    grids: the decided and the exact pairs together decide as before."""
    n, k = (a.ravel() for a in np.mgrid[0:121, -1:122])
    for side in (1, 8, 64, 384, 512):
        log_nt = 2.5 * math.log10(float(side) * float(side))
        assert _meaningful(n, k, log_nt, p).tolist() == frozen_meaningful(n, k, log_nt, p)


# ------------------------------------------------------ surrogate gradient


def frozen_surrogate_gradient(fp):
    """surrogate_gradient with AF taken mod pi over the whole grid."""
    mag = np.maximum(0.0, fp.r - fp.df.data)
    af = np.mod(fp.af.data, math.pi)
    theta = af - 0.5 * math.pi
    theta = np.where(theta <= -0.5 * math.pi, theta + math.pi, theta)
    return mag, theta


AF_SPECIALS = [
    -0.0,
    0.0,
    1e-17,
    5e-324,
    -5e-324,
    float(np.float32(math.pi)),  # above pi, as a float32 file stores pi
    math.pi,
    math.nextafter(math.pi, 0.0),
    0.5 * math.pi,
    -1e-17,
    -math.pi,
    -2.5,
    3.5,
    7.0 * math.pi,
    1e300,
    -1e300,
]


@settings(max_examples=300, deadline=None)
@given(
    af=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        elements=st.one_of(
            st.sampled_from(AF_SPECIALS),
            st.floats(0.0, math.pi, exclude_max=True),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    ),
    r=st.sampled_from([0.5, 5.0]),
)
def test_surrogate_gradient_matches_the_whole_grid_mod(af, r):
    """Bit for bit wherever AF lies: in [0, pi), at -0.0 or
    at values that round to 0 against pi/2, at the float32 value of pi, or
    outside [0, pi)."""
    df = np.linspace(0.0, 8.0, af.size).reshape(af.shape)
    fp = FieldPair(ScalarField(df), ScalarField(af), r)
    mag, theta = surrogate_gradient(fp)
    want_mag, want_theta = frozen_surrogate_gradient(fp)
    assert mag.data.tobytes() == want_mag.tobytes()
    assert theta.data.tobytes() == want_theta.tobytes()
    assert af.tobytes() == fp.af.data.tobytes()  # the input is left alone
