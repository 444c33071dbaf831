"""render_fields against the full-grid loop it replaced.

``oracle_render_fields`` draws every segment over every pixel, one pass
per segment, and keeps a pixel's closest segment under a strict ``<``.
The renderer culls segments per 32 px tile, then per 8 px block, measures
each block only against the segments that can win it and keeps the
lowest-index minimum, which must not change a bit: DF and AF are compared
with ``np.array_equal``, no tolerance. The lattice
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

from linefields import LineSegment, render_fields
from linefields import fields

from util_synth import point_segment_distance, two_view_segments


def oracle_distances(seg, width, height):
    """Distances from every pixel center to one segment."""
    px = np.arange(width, dtype=float) + 0.5
    py = (np.arange(height, dtype=float) + 0.5)[:, None]
    x1, y1 = seg.p1
    dx = seg.p2.x - x1
    dy = seg.p2.y - y1
    t = ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)
    t = np.clip(t, 0.0, 1.0)
    cx = x1 + t * dx
    cy = y1 + t * dy
    return np.sqrt((px - cx) * (px - cx) + (py - cy) * (py - cy))


def oracle_render_fields(lines, width, height):
    best_df = np.full((height, width), np.inf)
    best_af = np.zeros((height, width))
    for seg in lines:
        d = oracle_distances(seg, width, height)
        closer = d < best_df
        best_df[closer] = d[closer]
        best_af[closer] = seg.angle
    return best_df, best_af


def some_distance_is_nan(lines, width, height) -> bool:
    return any(np.isnan(oracle_distances(seg, width, height)).any() for seg in lines)


def assert_matches_oracle(lines, width, height) -> None:
    fp = render_fields(lines, width, height)
    df, af = oracle_render_fields(lines, width, height)
    assert np.array_equal(fp.df.data, df)
    assert np.array_equal(fp.af.data, af)


def chunk_elements(pairs: int) -> int:
    """_RENDER_ELEMENTS that holds this many (block, segment) pairs."""
    return pairs * fields._BLOCK * fields._BLOCK


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
    pairs = fields._RENDER_ELEMENTS // (fields._BLOCK * fields._BLOCK)
    # A pencil through the corner shared by four blocks of the first tile:
    # no segment can be culled there, and each exact copy ties with its
    # original one chunk later.
    pencil = []
    for a in np.linspace(0.0, math.pi, pairs + 5, endpoint=False):
        u = 12.0 * np.array([math.cos(a), math.sin(a)])
        pencil.append(LineSegment(tuple(16.0 - u), tuple(16.0 + u)))
    lines = pencil + pencil + [LineSegment(seg.p2, seg.p1) for seg in pencil]
    assert len(lines) > 3 * pairs
    with mock.patch.object(fields, "_draw", wraps=fields._draw) as draw:
        assert_matches_oracle(lines, 70, 45)
    # (best_df, best_af, block, k, seg, angles) of each chunk: there were
    # several, and a block's pairs were split between two of them.
    chunks = [call.args[2] for call in draw.call_args_list]
    assert len(chunks) > 1
    assert any(a[-1] == b[0] for a, b in zip(chunks, chunks[1:]))


@pytest.mark.parametrize("width", [7, 8, 9, 31, 32, 33, 63, 65])
@pytest.mark.parametrize("height", [7, 8, 9, 31, 32, 33, 63, 65])
def test_frames_around_block_and_tile_multiples(width, height) -> None:
    """Partial blocks and tiles at the right and bottom edges have smaller
    radii, and their pixels past the frame must not leak into it."""
    rng = np.random.default_rng(width * 100 + height)
    lines = []
    for _ in range(12):
        p = rng.uniform(-10.0, 75.0, 2)
        q = p + rng.uniform(-30.0, 30.0, 2)
        lines.append(LineSegment(tuple(p), tuple(q)))
    # Exact ties on the half-pixel lattice, across the edge cells.
    lines.append(LineSegment((0.0, height - 0.5), (width + 3.0, height - 0.5)))
    lines.append(LineSegment((width - 0.5, 0.0), (width - 0.5, height + 3.0)))
    assert_matches_oracle(lines, width, height)


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
        if np.all(np.isfinite(df)) and not some_distance_is_nan(lines, width, height):
            finite += 1
            assert np.array_equal(got[0], df) and np.array_equal(got[1], af)
        else:
            assert got == "segment coordinates are too large to render"
    assert finite > 20
    # Closest to the first tile's center, but its projection overflows to
    # NaN wherever px + py > 46. The full-grid loop lets the far vertical
    # win those pixels; the true distance there is unknown, so it fails.
    lines = [LineSegment((0.5, 0.5), (4e306, 4e306)), LineSegment((100.0, 0.0), (100.0, 40.0))]
    df, af = oracle_render_fields(lines, 40, 40)
    assert np.all(np.isfinite(df)) and np.any(af == math.pi / 2)
    assert outcome(lines, 40, 40) == "segment coordinates are too large to render"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("per_chunk", [1, 64])
@pytest.mark.parametrize("crossing_first", [True, False])
def test_segment_crossing_the_frame_with_nan_distances_fails(per_chunk, crossing_first) -> None:
    """The crossing segment's distances overflow to NaN at every pixel
    while the other segment keeps them all finite: silently dropping the
    crossing one would give DF 5.70 at pixel (0, 1), where it is about 0.
    With one pair per chunk the finite segment may be drawn first."""
    crossing = LineSegment((-1e200, 1.0), (1e200, 2.0))
    lines = [LineSegment((5.0, 5.0), (10.0, 10.0))]
    lines.insert(0 if crossing_first else 1, crossing)
    with mock.patch.object(fields, "_RENDER_ELEMENTS", chunk_elements(per_chunk)):
        assert outcome(lines, 16, 16) == "segment coordinates are too large to render"


def test_fixed_two_view_scene() -> None:
    assert_matches_oracle(two_view_segments(), 384, 384)


def test_fixed_two_view_scene_on_partial_tiles() -> None:
    """The same segments on a frame whose last tile column and row, and
    last block column and row, are partial."""
    assert_matches_oracle(two_view_segments(), 383, 385)


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
