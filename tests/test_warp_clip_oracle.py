"""The segment warp and clip kernels against the scalar code they replaced.

``apply_homography`` and ``clip_segment_to_rect`` are one-row calls of the
array kernels ``_warp_segments`` and ``_clip_segments``, and ``warp_lines``
and ``filter_lines`` make one kernel call per segment set. The scalar
functions are frozen here as they were before the kernels, with the
per-segment ``warp_lines`` loop built on them. On any input the kernels
must give the same endpoint bits (the sign of a zero included) and accept
exactly the rows the scalar code accepts: a row is ``ok`` where the frozen
``apply_homography`` does not raise, and ``kept`` where the frozen clip
does not return None.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linefields import Homography, LineSegment, Point2, apply_homography, warp_lines
from linefields.geometry import _clip_segments, _warp_segments, clip_segment_to_rect


def oracle_apply_homography(h: Homography, obj):
    if isinstance(obj, LineSegment):
        return LineSegment(
            oracle_apply_homography(h, obj.p1), oracle_apply_homography(h, obj.p2)
        )
    x, y = float(obj[0]), float(obj[1])
    m = h.m
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if abs(w) <= 1e-12:
        raise ValueError("point maps to infinity under this homography")
    u = (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / w
    v = (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / w
    return Point2(u, v)


def oracle_clip_segment_to_rect(seg, xmin, ymin, xmax, ymax):
    x1, y1 = seg.p1
    dx = seg.p2.x - x1
    dy = seg.p2.y - y1
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x1 - xmin),
        (dx, xmax - x1),
        (-dy, y1 - ymin),
        (dy, ymax - y1),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return None
            if r < t1:
                t1 = r
    if t1 <= t0:
        return None
    a = Point2(x1 + t0 * dx, y1 + t0 * dy)
    b = Point2(x1 + t1 * dx, y1 + t1 * dy)
    if a.x == b.x and a.y == b.y:
        return None
    return LineSegment(a, b)


def oracle_warp_lines(lines, h, width, height, min_length=5.0):
    out = []
    for seg in lines:
        try:
            warped = oracle_apply_homography(h, seg)
        except ValueError:
            continue
        clipped = oracle_clip_segment_to_rect(warped, 0.0, 0.0, float(width), float(height))
        if clipped is None or clipped.length < min_length:
            continue
        out.append(clipped)
    return out


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def seg_bits(seg: LineSegment) -> list[str]:
    return bits([*seg.p1, *seg.p2])


def call(fn, *args):
    """fn(*args), or the ValueError it raised (the scalar code may overflow)."""
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except ValueError as exc:
            return exc


RECTS = [
    (0.0, 0.0, 64.0, 48.0),
    (0.5, 0.5, 63.5, 47.5),
    (0.5, 0.5, 0.5, 39.5),
    (-0.0, -0.0, 0.0, 0.0),
]


@st.composite
def coordinate(draw, rect):
    """A coordinate near, on or far outside ``rect``: its edges and their
    negated zeros, small offsets from them, anywhere in a wide window,
    or near the float range where q / p overflows."""
    edges = [c for c in rect] + [-c for c in rect]
    return draw(
        st.one_of(
            st.sampled_from(edges + [-0.0, 0.0, 1e-12, -1e-12, 1e300, -1e300, 1.5e308, -1.5e308]),
            st.builds(
                lambda e, d: e + d, st.sampled_from(edges), st.sampled_from([-1.0, 1e-9, 1.0, 2.5])
            ),
            st.floats(-100.0, 200.0),
            st.floats(-1e300, 1e300),
            st.integers(-5, 70).map(float),
        )
    )


@st.composite
def clip_case(draw):
    """A rectangle and segments that cross it, lie inside or outside it,
    run parallel to an edge, touch it or start on its border."""
    rect = draw(st.sampled_from(RECTS))
    segs = []
    for _ in range(draw(st.integers(0, 12))):
        x1, y1 = draw(coordinate(rect)), draw(coordinate(rect))
        shape = draw(st.sampled_from(["free", "vertical", "horizontal", "tiny"]))
        if shape == "vertical":
            x2, y2 = x1, draw(coordinate(rect))
        elif shape == "horizontal":
            x2, y2 = draw(coordinate(rect)), y1
        elif shape == "tiny":
            # dx of 1e-310 makes q / p overflow to inf
            x2 = x1 + draw(st.sampled_from([1e-310, -1e-300, 1e-10, 0.0]))
            y2 = y1 + draw(st.sampled_from([1e-310, 1e-10, 0.0]))
        else:
            x2, y2 = draw(coordinate(rect)), draw(coordinate(rect))
        if (x1, y1) != (x2, y2):
            segs.append(LineSegment((x1, y1), (x2, y2)))
    return rect, segs


def check_clip(rect, segs) -> None:
    ends = np.array([[*s.p1, *s.p2] for s in segs]).reshape(-1, 4)
    rows, kept = call(_clip_segments, ends, *rect)
    for seg, row, k in zip(segs, rows, kept):
        want = call(oracle_clip_segment_to_rect, seg, *rect)
        got = call(clip_segment_to_rect, seg, *rect)
        if isinstance(want, ValueError):  # the clipped endpoints overflow
            assert k and not np.all(np.isfinite(row))
            assert isinstance(got, ValueError) and str(got) == str(want)
        elif want is None:
            assert not k and got is None
        else:
            assert k
            assert bits(row) == seg_bits(want) == seg_bits(got)


@settings(max_examples=150, deadline=None)
@given(case=clip_case())
@example(case=((0.0, 0.0, 64.0, 48.0), [LineSegment((-0.0, 0.0), (10.0, 5.0))]))
@example(case=((0.0, 0.0, 64.0, 48.0), [LineSegment((0.0, 10.0), (1e-310, 20.0))]))
def test_clip_kernel_matches_scalar_clip(case) -> None:
    check_clip(*case)


def test_clip_fixed_cases_cover_every_branch() -> None:
    rect = (0.0, 0.0, 64.0, 48.0)
    cases = {
        "parallel, outside (q < 0)": (LineSegment((-1.0, 5.0), (-1.0, 20.0)), None),
        "parallel, on the edge (q == 0)": (LineSegment((0.0, 5.0), (0.0, 20.0)), "same"),
        "parallel, on the edge with -0.0": (
            LineSegment((-0.0, 20.0), (-0.0, 5.0)), [0.0, 20.0, 0.0, 5.0]
        ),
        "touches a corner at one point": (LineSegment((-1.0, 1.0), (1.0, -1.0)), None),
        "touches an edge at one point": (LineSegment((10.0, -5.0), (20.0, 0.0)), None),
        "endpoints on the border": (LineSegment((0.0, 48.0), (64.0, 0.0)), "same"),
        "crosses two edges": (LineSegment((-10.0, 24.0), (74.0, 24.0)), [0.0, 24.0, 64.0, 24.0]),
        "reversed, crosses two edges": (
            LineSegment((74.0, 24.0), (-10.0, 24.0)), [64.0, 24.0, 0.0, 24.0]
        ),
        "r overflows to inf": (LineSegment((0.0, 10.0), (1e-310, 20.0)), "same"),
        # t0 and t1 round to 0.5, so both ends land on one point.
        "crosses, ends near 1e300": (LineSegment((1e300, 10.0), (-1e300, 20.0)), None),
        "wholly outside": (LineSegment((70.0, 50.0), (90.0, 60.0)), None),
    }
    for name, (seg, want) in cases.items():
        got = clip_segment_to_rect(seg, *rect)
        if want is None:
            assert got is None, name
        else:
            want = seg_bits(seg) if want == "same" else bits(want)
            assert seg_bits(got) == want, name
        check_clip(rect, [seg])
    # p1 lies on y = 0, so r = 0.0 / -5.0 is -0.0 there. It does not raise
    # t0 above +0.0, and x1 + t0 * dx turns x1 = -0.0 into +0.0.
    got = clip_segment_to_rect(LineSegment((-0.0, 0.0), (10.0, 5.0)), *rect)
    assert seg_bits(got) == bits([0.0, 0.0, 10.0, 5.0])


@st.composite
def homographies(draw):
    """Near-identity homographies with a perspective row that can send
    points to or past infinity, line-at-infinity swaps, huge scalings
    whose images overflow, and far translations that merge endpoints."""
    kind = draw(st.sampled_from(["mild", "swap", "huge", "far"]))
    if kind == "swap":  # w = x
        return Homography(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    if kind == "huge":
        return Homography.scaling(draw(st.sampled_from([1e300, 1e306])))
    if kind == "far":
        return Homography.translation(draw(st.sampled_from([1e17, 1000.0])), 0.0)
    lin = [draw(st.floats(-0.3, 0.3)) for _ in range(4)]
    t = [draw(st.floats(-20.0, 20.0)) for _ in range(2)]
    persp = [draw(st.floats(-0.05, 0.05)) for _ in range(2)]
    m = np.array(
        [[1.0 + lin[0], lin[1], t[0]], [lin[2], 1.0 + lin[3], t[1]], [persp[0], persp[1], 1.0]]
    )
    try:
        return Homography(m)
    except ValueError:
        return Homography.identity()


@st.composite
def warp_case(draw):
    h = draw(homographies())
    rect = (0.0, 0.0, 64.0, 48.0)
    segs = draw(clip_case().map(lambda c: c[1]))
    m = h.m
    out = []
    for seg in segs:
        if abs(m[2, 0]) > 1e-6 and draw(st.booleans()):
            # Move p1 onto, or next to, the line sent to infinity.
            y = seg.p1.y
            x = -(m[2, 1] * y + m[2, 2]) / m[2, 0] + draw(st.sampled_from([0.0, 1e-13, 1e-9]))
            if math.isfinite(x) and (x, y) != tuple(seg.p2):
                seg = LineSegment((x, y), seg.p2)
        if draw(st.booleans()):  # endpoints one ulp apart
            seg = LineSegment(seg.p1, (math.nextafter(seg.p1.x, math.inf), seg.p1.y))
        out.append(seg)
    return h, rect, out


def check_warp(h, segs) -> None:
    ends = np.array([[*s.p1, *s.p2] for s in segs]).reshape(-1, 4)
    rows, ok = call(_warp_segments, h.m, ends)
    for seg, row, k in zip(segs, rows, ok):
        want = call(oracle_apply_homography, h, seg)
        got = call(apply_homography, h, seg)
        if isinstance(want, ValueError):
            assert not k
            assert isinstance(got, ValueError) and str(got) == str(want)
        else:
            assert k
            assert bits(row) == seg_bits(want) == seg_bits(got)


@settings(max_examples=150, deadline=None)
@given(case=warp_case(), min_length=st.sampled_from([0.0, 1e-9, 5.0, 30.0]))
def test_warp_kernel_and_warp_lines_match_scalar_loop(case, min_length) -> None:
    h, rect, segs = case
    check_warp(h, segs)
    want = call(oracle_warp_lines, segs, h, rect[2], rect[3], min_length)
    got = call(warp_lines, segs, h, int(rect[2]), int(rect[3]), min_length)
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
    else:
        assert [seg_bits(s) for s in got] == [seg_bits(s) for s in want]


def test_warp_fixed_cases_cover_every_failure() -> None:
    swap = Homography(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    cases = [
        (swap, LineSegment((0.0, 5.0), (10.0, 5.0)), "point maps to infinity"),  # w == 0
        (swap, LineSegment((10.0, 5.0), (1e-13, 5.0)), "point maps to infinity"),  # |w| < 1e-12
        (swap, LineSegment((1e-12, 5.0), (10.0, 5.0)), "point maps to infinity"),  # |w| == 1e-12
        (Homography.scaling(1e300), LineSegment((1e10, 0.0), (1.0, 1.0)), "must be finite"),
        (swap, LineSegment((1.0, 2.0), (1e-11, 1e300)), "must be finite"),
        (Homography.translation(1e17, 0.0), LineSegment((1.0, 3.0), (2.0, 3.0)), "distinct"),
        (swap, LineSegment((1.0, 2.0), (4.0, 8.0)), None),
    ]
    for h, seg, message in cases:
        ends = np.array([[*seg.p1, *seg.p2]])
        _, ok = _warp_segments(h.m, ends)
        assert ok[0] == (message is None), message
        if message is not None:
            with pytest.raises(ValueError, match=message):
                with np.errstate(all="ignore"):
                    apply_homography(h, seg)
        check_warp(h, [seg])
    segs = [c[1] for c in cases]
    with np.errstate(over="ignore"):  # the frozen scalar divide overflows on 1e300 / 1e-11
        want = oracle_warp_lines(segs, swap, 64, 48, 0.0)
    assert warp_lines(segs, swap, 64, 48, 0.0) == want
