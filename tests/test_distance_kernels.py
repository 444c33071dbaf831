"""The broadcasting distance kernels against their scalar references.

``orthogonal_distance`` and ``d_vp`` are thin wrappers over the array
kernels ``_orthogonal_many`` and ``_d_vp_many``; a pair gives bit for bit
the entry the matching matrix holds for it. The scalar functions they
replaced are frozen here: they sum in another order (orthogonal distance)
or normalize with ``math.hypot`` instead of ``np.hypot`` (d_vp), so they
agree to the last bits only. The render kernel ``_point_segment_many``
does the scalar point-segment distance's arithmetic: one point of it
(``util_synth.point_segment_distance``) agrees with it bit for bit.

``estimate_homography`` tests every pair against a model in one array
pass. ``per_pair_inliers`` is the loop it replaced: scalar
``apply_homography`` and orthogonal distance pair by pair, an outlier
wherever either raises. The masks must be equal except for a pair whose
distance lies within rounding of the threshold.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linefields import (
    Homography,
    LineSegment,
    apply_homography,
    d_vp,
    orthogonal_distance,
)
from linefields.evaluate import _inlier_masks
from linefields.geometry import _d_vp_many, _homogeneous_lines, _orthogonal_many, _rows

from util_synth import point_segment_distance

RTOL = 1e-15  # a few float64 ulps: rounding order and hypot differ, nothing else


def scalar_point_line_distance(p, seg: LineSegment) -> float:
    a, b, c = seg.homogeneous_line()
    return abs(a * float(p[0]) + b * float(p[1]) + c)


def scalar_orthogonal_distance(l1: LineSegment, l2: LineSegment) -> float:
    return 0.25 * (
        scalar_point_line_distance(l1.p1, l2)
        + scalar_point_line_distance(l1.p2, l2)
        + scalar_point_line_distance(l2.p1, l1)
        + scalar_point_line_distance(l2.p2, l1)
    )


def scalar_d_vp(seg: LineSegment, vec: np.ndarray) -> float:
    mx, my = seg.midpoint
    la = my * vec[2] - vec[1]
    lb = vec[0] - mx * vec[2]
    lc = mx * vec[1] - my * vec[0]
    n = math.hypot(la, lb)
    if n < 1e-12:
        return math.inf
    d1 = abs(la * seg.p1.x + lb * seg.p1.y + lc)
    d2 = abs(la * seg.p2.x + lb * seg.p2.y + lc)
    return 0.5 * (d1 + d2) / n


def scalar_point_segment_distance(p, seg: LineSegment) -> float:
    px, py = float(p[0]), float(p[1])
    x1, y1 = seg.p1
    dx = seg.p2.x - x1
    dy = seg.p2.y - y1
    den = dx * dx + dy * dy
    t = ((px - x1) * dx + (py - y1) * dy) / den if den > 0.0 else 0.0
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    cx = x1 + t * dx
    cy = y1 + t * dy
    return math.sqrt((px - cx) * (px - cx) + (py - cy) * (py - cy))


def segments_to_array(lines) -> np.ndarray:
    """The (n, 2, 2) endpoint stack the references read (a frozen copy)."""
    return np.stack([seg.as_array() for seg in lines])


def orthogonal_matrix(a_pts, b_pts, a_lines, b_lines) -> np.ndarray:
    """The matching matrix as match_one_to_one computed it before the kernel."""

    def pt_to_lines(pts: np.ndarray, lines: np.ndarray) -> np.ndarray:
        return np.abs(
            pts[:, None, :, 0] * lines[None, :, None, 0]
            + pts[:, None, :, 1] * lines[None, :, None, 1]
            + lines[None, :, None, 2]
        )

    a_to_b = pt_to_lines(a_pts, b_lines).sum(axis=2)
    b_to_a = pt_to_lines(b_pts, a_lines).sum(axis=2).T
    return 0.25 * (a_to_b + b_to_a)


def per_pair_inliers(h: Homography, pairs, threshold: float):
    """The per-pair inlier loop. Also returns each pair's distance and the
    largest coordinate it involved (NaN where a step raised)."""
    mask = np.zeros(len(pairs), dtype=bool)
    dist = np.full(len(pairs), np.nan)
    scale = np.full(len(pairs), np.nan)
    for i, (sa, sb) in enumerate(pairs):
        try:
            warped = apply_homography(h, sa)
        except ValueError:
            continue
        dist[i] = scalar_orthogonal_distance(warped, sb)
        scale[i] = max(np.abs(warped.as_array()).max(), np.abs(sb.as_array()).max())
        mask[i] = dist[i] < threshold
    return mask, dist, scale


def array_inliers(h: Homography, pairs, threshold: float) -> np.ndarray:
    a_rows, b_rows = _rows([p[0] for p in pairs]), _rows([p[1] for p in pairs])
    return _inlier_masks(h.m[None], a_rows, b_rows, _homogeneous_lines(b_rows), threshold)[0]


coords = st.floats(-50.0, 300.0, allow_nan=False, allow_infinity=False)


@st.composite
def segments(draw, count: st.SearchStrategy) -> list[LineSegment]:
    out = []
    for _ in range(draw(count)):
        p, q = (draw(coords), draw(coords)), (draw(coords), draw(coords))
        if p != q:
            out.append(LineSegment(p, q))
    return out or [LineSegment((0.0, 0.0), (1.0, 2.0))]


@settings(max_examples=60, deadline=None)
@given(a=segments(st.integers(1, 8)), b=segments(st.integers(1, 8)))
def test_orthogonal_kernel_rows_equal_matrix_entries(a, b) -> None:
    a_rows, b_rows = _rows(a), _rows(b)
    a_lines, b_lines = _homogeneous_lines(a_rows), _homogeneous_lines(b_rows)
    matrix = _orthogonal_many(a_rows[:, None], b_rows, a_lines[:, None], b_lines)
    want = orthogonal_matrix(segments_to_array(a), segments_to_array(b), a_lines, b_lines)
    assert np.array_equal(matrix, want)

    ii, jj = np.divmod(np.arange(len(a) * len(b)), len(b))
    rows = _orthogonal_many(a_rows[ii], b_rows[jj], a_lines[ii], b_lines[jj])
    assert np.array_equal(rows, matrix.ravel())
    for i, j in zip(ii, jj):
        d = orthogonal_distance(a[i], b[j])
        assert d == matrix[i, j]
        assert math.isclose(d, scalar_orthogonal_distance(a[i], b[j]), rel_tol=RTOL)


@settings(max_examples=60, deadline=None)
@given(
    lines=segments(st.integers(1, 8)),
    vec=st.tuples(coords, coords, st.sampled_from([0.0, 1.0, 1e-3])),
)
def test_d_vp_is_its_kernel_row(lines, vec) -> None:
    v = np.array(vec)
    pts = segments_to_array(lines)
    rows = _d_vp_many(0.5 * (pts[:, 0] + pts[:, 1]), pts[:, 0], pts[:, 1], v)
    for seg, row in zip(lines, rows):
        d = d_vp(seg, v)
        assert d == row
        assert math.isclose(d, scalar_d_vp(seg, v), rel_tol=RTOL)


HUGE = LineSegment((1.5e308, 0.0), (1.5e308, 10.0))  # the midpoint overflows


@pytest.mark.parametrize(
    "seg, vec",
    [(HUGE, (600.0, 128.0, 1.0)), (HUGE, (0.0, 1.0, 0.0)), (HUGE, (1.0, 0.0, 0.0)),
     (LineSegment((1e308, 0.0), (1e308, 10.0)), (600.0, 128.0, 1.0))],  # c overflows
)
def test_d_vp_that_overflows_is_inf_without_warnings(seg, vec) -> None:
    v = np.array(vec)
    e = seg.as_array()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert d_vp(seg, v) == math.inf
        for signed in (False, True):
            got = _d_vp_many(np.array([seg.midpoint]), e[:1], e[1:], v, signed=signed)
            assert got.tolist() == [math.inf]


@st.composite
def point_and_segment(draw):
    """A segment and a point past p1, past p2, on the segment, anywhere, or
    near a segment whose squared length underflows to 0."""
    coord = st.floats(-1e4, 1e4)
    where = draw(st.sampled_from(["before", "after", "on", "anywhere", "underflow"]))
    if where == "underflow":
        small = st.floats(-1e-165, 1e-165)
        x1, y1 = draw(small), draw(small)
        x2, y2 = x1 + draw(small), y1 + draw(small)
        assume((x1, y1) != (x2, y2))
        assert (x2 - x1) ** 2 + (y2 - y1) ** 2 == 0.0
        return (draw(coord), draw(coord)), LineSegment((x1, y1), (x2, y2))
    ends = draw(coord), draw(coord), draw(coord), draw(coord)
    assume(ends[:2] != ends[2:])
    seg = LineSegment(ends[:2], ends[2:])
    (x1, y1), (x2, y2) = seg.p1, seg.p2
    t = draw(st.floats(0.0, 1.0))
    if where == "before":
        t = -draw(st.floats(0.0, 10.0))
    elif where == "after":
        t = 1.0 + draw(st.floats(0.0, 10.0))
    elif where == "anywhere":
        return (draw(coord), draw(coord)), seg
    off = 0.0 if where == "on" else draw(st.floats(-100.0, 100.0))
    # Offset along the normal (-dy, dx): the projection stays t.
    return (x1 + t * (x2 - x1) - off * (y2 - y1), y1 + t * (y2 - y1) + off * (x2 - x1)), seg


@settings(max_examples=300, deadline=None)
@given(case=point_and_segment())
@example(case=((3.0, 4.0), LineSegment((0.0, 0.0), (1e-170, -1e-170))))
@example(case=((-0.0, 0.0), LineSegment((-0.0, -0.0), (-1e-170, 0.0))))
def test_point_segment_distance_is_the_render_kernel(case) -> None:
    p, seg = case
    want = scalar_point_segment_distance(p, seg)
    assert point_segment_distance(p, seg).hex() == want.hex()


@st.composite
def hest_scenes(draw):
    """A homography near the identity whose perspective row can send points
    near or past infinity, and pairs that are exact, noisy or unrelated.
    Some a-segments get an endpoint on, or just off, the line the
    homography sends to infinity."""
    lin = [draw(st.floats(-0.3, 0.3)) for _ in range(4)]
    t = [draw(st.floats(-20.0, 20.0)) for _ in range(2)]
    persp = [draw(st.floats(-0.01, 0.01)) for _ in range(2)]
    m = np.array(
        [[1.0 + lin[0], lin[1], t[0]], [lin[2], 1.0 + lin[3], t[1]], [persp[0], persp[1], 1.0]]
    )
    try:
        h = Homography(m)
    except ValueError:
        h = Homography.identity()
    pairs = []
    g, k = h.m[2, 0], h.m[2, 1]
    for sa in draw(segments(st.integers(1, 12))):
        if abs(g) > 1e-6 and draw(st.booleans()):
            y = sa.p2.y
            x = -(k * y + h.m[2, 2]) / g + draw(st.sampled_from([0.0, 1e-9, 1e-6]))
            if (x, y) != tuple(sa.p2):
                sa = LineSegment((x, y), sa.p2)
        kind = draw(st.sampled_from(["exact", "noisy", "unrelated"]))
        try:
            warped = apply_homography(h, sa)
        except ValueError:
            kind = "unrelated"
        if kind == "exact":
            sb = warped
        elif kind == "noisy":
            off = [draw(st.floats(-4.0, 4.0)) for _ in range(4)]
            try:
                sb = LineSegment(
                    (warped.p1.x + off[0], warped.p1.y + off[1]),
                    (warped.p2.x + off[2], warped.p2.y + off[3]),
                )
            except ValueError:
                sb = warped
        else:
            sb = draw(segments(st.just(1)))[0]
        pairs.append((sa, sb))
    return h, pairs


@settings(max_examples=150, deadline=None)
@given(scene=hest_scenes(), threshold=st.sampled_from([0.5, 1.0, 3.0, 10.0]))
def test_inlier_mask_matches_per_pair_loop(scene, threshold: float) -> None:
    h, pairs = scene
    want, dist, scale = per_pair_inliers(h, pairs, threshold)
    got = array_inliers(h, pairs, threshold)
    # A point-line distance carries rounding of a few ulps of the largest
    # coordinate involved (measured: under 2e-16 of it); 1e-14 is far above.
    borderline = np.abs(dist - threshold) <= 1e-14 * (1.0 + scale)
    assert np.array_equal(got[~borderline], want[~borderline])


def test_inlier_mask_outliers_at_infinity() -> None:
    # w = x: an a-endpoint on x = 0 maps to infinity and one at 1e-13 falls
    # within the 1e-12 gate, although its b-segment is its exact image.
    h = Homography(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    inlier = LineSegment((1.0, 2.0), (4.0, 8.0))
    pairs = [
        (LineSegment((0.0, 5.0), (10.0, 5.0)), LineSegment((0.0, 0.0), (1.0, 1.0))),
        (
            LineSegment((1e-13, 5.0), (10.0, 5.0)),
            LineSegment((1.0 / 1e-13, 5.0 / 1e-13), (1.0 / 10.0, 5.0 / 10.0)),
        ),
        (inlier, apply_homography(h, inlier)),
    ]
    want = per_pair_inliers(h, pairs, 3.0)[0]
    assert want.tolist() == [False, False, True]
    assert array_inliers(h, pairs, 3.0).tolist() == want.tolist()


def test_inlier_mask_coinciding_endpoints_and_strict_threshold() -> None:
    # Endpoints one ulp apart round onto the same point after the shift; a
    # pair exactly 3 px apart is not within a 3 px threshold.
    h = Homography.translation(1000.0, 0.0)
    sb = LineSegment((1001.0, 3.0), (1010.0, 3.0))
    pairs = [
        (LineSegment((1.0, 3.0), (1.0 + 2.0**-52, 3.0)), sb),
        (LineSegment((1.0, 3.0), (9.0, 3.0)), sb),
        (LineSegment((1.0, 6.0), (9.0, 6.0)), sb),
    ]
    want = per_pair_inliers(h, pairs, 3.0)[0]
    assert want.tolist() == [False, True, False]
    assert array_inliers(h, pairs, 3.0).tolist() == want.tolist()
