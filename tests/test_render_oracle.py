"""render_fields against the full-grid loop it replaced.

``oracle_render_fields`` draws every segment over every pixel, one pass
per segment, and keeps a pixel's closest segment under a strict ``<``.
The tiled renderer measures each tile only against the segments that can
win it and reduces them in index order, which must not change a bit: DF
and AF are compared with ``np.array_equal``, no tolerance. The lattice
coordinates below put many pixel centers at exactly equal distances from
two segments, so the lowest-index tie rule is exercised, not just the
generic case.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefields import LineSegment, point_segment_distance, render_fields
from linefields import fields


def oracle_render_fields(lines, width, height):
    px = np.arange(width, dtype=float) + 0.5
    py = (np.arange(height, dtype=float) + 0.5)[:, None]
    best_df = np.full((height, width), np.inf)
    best_af = np.zeros((height, width))
    for seg in lines:
        x1, y1 = seg.p1
        dx = seg.p2.x - x1
        dy = seg.p2.y - y1
        t = ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)
        t = np.clip(t, 0.0, 1.0)
        cx = x1 + t * dx
        cy = y1 + t * dy
        d = np.sqrt((px - cx) * (px - cx) + (py - cy) * (py - cy))
        closer = d < best_df
        best_df[closer] = d[closer]
        best_af[closer] = seg.angle
    return best_df, best_af


def assert_matches_oracle(lines, width, height) -> None:
    fp = render_fields(lines, width, height)
    df, af = oracle_render_fields(lines, width, height)
    assert np.array_equal(fp.df.data, df)
    assert np.array_equal(fp.af.data, af)


def chunk_elements(candidates: int) -> int:
    """_RENDER_ELEMENTS that holds this many candidates of a full tile."""
    return candidates * fields._TILE * fields._TILE


# Half-pixel lattice points in and around a grid of up to 100 x 100: pixel
# centers sit at exactly equal distances from many pairs of such segments.
lattice = st.integers(-80, 280).map(lambda v: v * 0.5)
wide = st.floats(-1e6, 1e6, allow_nan=False)
coord = st.one_of(lattice, lattice, wide)


@st.composite
def segment(draw) -> LineSegment:
    p = (draw(coord), draw(coord))
    q = (draw(coord), draw(coord))
    dx, dy = q[0] - p[0], q[1] - p[1]
    # The oracle divides by the squared length, so it must not underflow.
    if dx * dx + dy * dy == 0.0:
        q = (p[0] + 1.0, p[1] - 2.0)
    return LineSegment(p, q)


@st.composite
def scene(draw) -> list[LineSegment]:
    """Segments, then exact and reversed copies of some of them at random
    places in the list: each copy ties with its original."""
    lines = draw(st.lists(segment(), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 4))):
        seg = lines[draw(st.integers(0, len(lines) - 1))]
        if draw(st.booleans()):
            seg = LineSegment(seg.p2, seg.p1)
        lines.insert(draw(st.integers(0, len(lines))), seg)
    return lines


@settings(max_examples=300, deadline=None)
@given(
    lines=scene(),
    width=st.integers(1, 100),
    height=st.integers(1, 100),
    per_chunk=st.sampled_from([1, 2, 64]),
)
def test_bitwise_equal_to_full_grid_loop(lines, width, height, per_chunk) -> None:
    with mock.patch.object(fields, "_RENDER_ELEMENTS", chunk_elements(per_chunk)):
        assert_matches_oracle(lines, width, height)


def test_exact_ties_go_to_the_lowest_index() -> None:
    # Rows 10 and 21 are 5.5 from pixel-center row 15.5; the vertical at
    # x = 36 is 5.5 from pixel-center column 30.5.
    low = LineSegment((0.0, 10.0), (60.0, 10.0))
    high = LineSegment((60.0, 21.0), (0.0, 21.0))
    vertical = LineSegment((36.0, 0.0), (36.0, 31.0))
    for lines in ([low, high, vertical], [vertical, high, low], [high, low, low]):
        fp = render_fields(lines, 64, 32)
        assert fp.af.data[15, 30] == lines[0].angle
        assert_matches_oracle(lines, 64, 32)


def test_more_candidates_than_one_chunk() -> None:
    rows = fields._RENDER_ELEMENTS // (fields._TILE * fields._TILE)
    # A pencil through the first tile's center: no segment can be culled
    # there, and each exact copy ties with its original one chunk later.
    pencil = []
    for a in np.linspace(0.0, math.pi, rows + 5, endpoint=False):
        u = 12.0 * np.array([math.cos(a), math.sin(a)])
        pencil.append(LineSegment(tuple(16.0 - u), tuple(16.0 + u)))
    lines = pencil + pencil + [LineSegment(seg.p2, seg.p1) for seg in pencil]
    assert len(lines) > 3 * rows
    assert_matches_oracle(lines, 70, 45)


def test_segments_outside_and_spanning_the_grid() -> None:
    lines = [
        LineSegment((-500.0, -40.0), (-20.0, -300.0)),
        LineSegment((1e6, -1e6), (-1e6, 1e6)),
        LineSegment((-3e5, 77.25), (4e5, 77.25)),
        LineSegment((150.0, 150.0), (151.0, 190.0)),
        LineSegment((0.0, 0.0), (97.0, 95.0)),
    ]
    for width, height in ((1, 1), (1, 97), (97, 1), (95, 97)):
        assert_matches_oracle(lines, width, height)


def outcome(lines, width, height):
    try:
        fp = render_fields(lines, width, height)
    except ValueError as err:
        return str(err)
    return fp.df.data, fp.af.data


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_coordinates_cull_nothing() -> None:
    """Beyond 1e150 products overflow and distances turn inf or NaN; those
    pixels must fail or resolve as the full-grid loop has them."""
    rng = np.random.default_rng(150)
    finite = 0
    for _ in range(120):
        lines = []
        for _ in range(int(rng.integers(1, 6))):
            mag = np.where(rng.random(4) < 0.5, 10.0 ** rng.choice([2, 150, 154, 200, 300]), 40.0)
            p = rng.uniform(-1.0, 1.0, 4) * mag
            if p[0] != p[2] or p[1] != p[3]:
                lines.append(LineSegment(p[:2], p[2:]))
        if not lines:
            continue
        width, height = (int(v) for v in rng.integers(1, 70, 2))
        df, af = oracle_render_fields(lines, width, height)
        got = outcome(lines, width, height)
        if np.all(np.isfinite(df)):
            finite += 1
            assert np.array_equal(got[0], df) and np.array_equal(got[1], af)
        else:
            assert got == "field data must be finite"
    assert finite > 20
    # Closest to the first tile's center, but its projection overflows to
    # NaN wherever px + py > 46; the far vertical wins those pixels.
    lines = [LineSegment((0.5, 0.5), (4e306, 4e306)), LineSegment((100.0, 0.0), (100.0, 40.0))]
    df, af = oracle_render_fields(lines, 40, 40)
    assert np.all(np.isfinite(df)) and np.any(af == math.pi / 2)
    got = outcome(lines, 40, 40)
    assert np.array_equal(got[0], df) and np.array_equal(got[1], af)


def test_fixed_two_view_scene() -> None:
    """384 x 384 with 170 segments, as one view of the two_view benchmark."""
    rng = np.random.default_rng(170)
    lines = []
    while len(lines) < 170:
        p = rng.uniform(0.0, 384.0, 2)
        ang = rng.uniform(0.0, math.pi)
        q = p + rng.uniform(20.0, 120.0) * np.array([math.cos(ang), math.sin(ang)])
        lines.append(LineSegment(tuple(p), tuple(q)))
    assert_matches_oracle(lines, 384, 384)


@pytest.mark.filterwarnings("error")
def test_underflowing_squared_length_measures_from_p1() -> None:
    tiny = LineSegment((0.0, 0.0), (1e-170, -1e-170))
    assert tiny.p2.x * tiny.p2.x + tiny.p2.y * tiny.p2.y == 0.0
    c = np.arange(8) + 0.5
    to_p1 = np.sqrt(c * c + (c * c)[:, None])
    fp = render_fields([tiny], 8, 8)
    assert np.array_equal(fp.df.data, to_p1)
    assert np.all(fp.af.data == tiny.angle)
    assert point_segment_distance((3.0, 4.0), tiny) == 5.0
    # The other segment's pixels keep the full-grid loop's values.
    other = LineSegment((2.0, 7.0), (7.5, 1.0))
    df, af = oracle_render_fields([other], 8, 8)
    fp = render_fields([other, tiny], 8, 8)
    closer = to_p1 < df
    assert closer.any() and not closer.all()
    assert np.array_equal(fp.df.data, np.where(closer, to_p1, df))
    assert np.array_equal(fp.af.data, np.where(closer, tiny.angle, af))
