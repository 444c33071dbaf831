"""Unit tests for geometric primitives and distances."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefields import (
    CameraIntrinsics,
    Homography,
    LineSegment,
    Point2,
    apply_homography,
    circular_distance,
    d_vp,
    orthogonal_distance,
    wrap_angle,
)
from linefields.geometry import (
    _angles,
    _clip_segments,
    _homogeneous_lines,
    _line_arrays,
    _lengths,
    _oriented_angles,
    _rows,
    _segments,
)

from util_synth import point_segment_distance


class TestWrapAngle:
    def test_identity_inside_range(self) -> None:
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(1.2) == pytest.approx(1.2)

    def test_wraps_above_period(self) -> None:
        assert wrap_angle(math.pi + 0.3) == pytest.approx(0.3)

    def test_wraps_negative(self) -> None:
        assert wrap_angle(-0.1) == pytest.approx(math.pi - 0.1)

    def test_custom_period(self) -> None:
        assert wrap_angle(2.0 * math.pi + 0.5, period=2.0 * math.pi) == pytest.approx(0.5)

    def test_output_range(self) -> None:
        rng = np.random.default_rng(0)
        for a in rng.uniform(-50.0, 50.0, 500):
            w = wrap_angle(float(a))
            assert 0.0 <= w < math.pi


class TestCircularDistance:
    def test_zero(self) -> None:
        assert circular_distance(0.0, 0.0) == 0.0

    def test_maximal_separation(self) -> None:
        assert circular_distance(math.pi / 4, 3 * math.pi / 4) == pytest.approx(
            math.pi / 2
        )

    def test_wraparound_branch(self) -> None:
        # min(2.9, pi - 2.9) takes the wrapped side
        assert circular_distance(0.1, 3.0) == pytest.approx(math.pi - 2.9)

    def test_symmetry_and_period_shift(self) -> None:
        rng = np.random.default_rng(1)
        for a, b in rng.uniform(-10.0, 10.0, (300, 2)):
            d1 = circular_distance(float(a), float(b))
            assert d1 == pytest.approx(circular_distance(float(b), float(a)))
            assert d1 == pytest.approx(
                circular_distance(float(a) + math.pi, float(b)), abs=1e-9
            )
            assert 0.0 <= d1 <= math.pi / 2 + 1e-12

    def test_triangle_inequality(self) -> None:
        rng = np.random.default_rng(2)
        for a, b, c in rng.uniform(0.0, math.pi, (300, 3)):
            ab = circular_distance(float(a), float(b))
            bc = circular_distance(float(b), float(c))
            ac = circular_distance(float(a), float(c))
            assert ac <= ab + bc + 1e-12


class TestLineSegment:
    def test_rejects_identical_endpoints(self) -> None:
        with pytest.raises(ValueError):
            LineSegment((1.0, 2.0), (1.0, 2.0))

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError):
            LineSegment((math.nan, 0.0), (1.0, 1.0))

    def test_length_and_midpoint(self) -> None:
        seg = LineSegment((0.0, 0.0), (3.0, 4.0))
        assert seg.length == pytest.approx(5.0)
        assert seg.midpoint == Point2(1.5, 2.0)

    def test_angle_mod_pi(self) -> None:
        seg = LineSegment((0.0, 0.0), (-1.0, -1.0))
        assert seg.angle == pytest.approx(math.pi / 4)
        assert 0.0 <= LineSegment((5.0, 1.0), (2.0, 9.0)).angle < math.pi

    def test_oriented_angle_keeps_direction(self) -> None:
        seg = LineSegment((0.0, 0.0), (-1.0, -1.0))
        assert seg.oriented_angle == pytest.approx(-3 * math.pi / 4)

    def test_homogeneous_line_contains_endpoints(self) -> None:
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, q = rng.uniform(-20.0, 20.0, (2, 2))
            if np.hypot(*(p - q)) < 1e-6:
                continue
            seg = LineSegment(tuple(p), tuple(q))
            a, b, c = seg.homogeneous_line()
            assert math.hypot(a, b) == pytest.approx(1.0)
            assert abs(a * p[0] + b * p[1] + c) < 1e-9
            assert abs(a * q[0] + b * q[1] + c) < 1e-9

    def test_reversed_swaps_endpoints(self) -> None:
        seg = LineSegment((1.0, 2.0), (3.0, 4.0))
        assert seg.reversed() == LineSegment((3.0, 4.0), (1.0, 2.0))


# Row kernels against the scalar formulas LineSegment's properties had
# before they became one-row kernel calls.


def scalar_oriented_angle(s: LineSegment) -> float:
    return math.atan2(s.p2.y - s.p1.y, s.p2.x - s.p1.x)


def scalar_homogeneous_line(s: LineSegment) -> list[float]:
    a, b = s.p1.y - s.p2.y, s.p2.x - s.p1.x
    c = s.p1.x * s.p2.y - s.p2.x * s.p1.y
    n = math.hypot(a, b)
    return [a / n, b / n, c / n]


COORDS = st.floats(-1e150, 1e150)


def nudged(c: float, steps: int) -> float:
    """``c`` moved ``steps`` ulps (down when negative)."""
    for _ in range(abs(steps)):
        c = math.nextafter(c, math.copysign(math.inf, steps))
    return c


@st.composite
def segment_sets(draw) -> list[LineSegment]:
    """Segments with coordinates up to 1e150 in magnitude, some of them
    only a few ulps long."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        p = (draw(COORDS), draw(COORDS))
        if draw(st.booleans()):
            q = (draw(COORDS), draw(COORDS))
        else:
            q = (nudged(p[0], draw(st.integers(-3, 3))), nudged(p[1], draw(st.integers(-3, 3))))
        if p != q:
            out.append(LineSegment(p, q))
    return out or [LineSegment((0.0, 0.0), (0.0, 5e-324))]


def same_bits(got: np.ndarray, want) -> bool:
    want = np.array(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRowKernels:
    @settings(max_examples=300, deadline=None)
    @given(segs=segment_sets())
    def test_kernels_equal_the_properties_bit_for_bit(self, segs) -> None:
        rows = _rows(segs)
        assert _segments(rows) == segs
        assert same_bits(_rows(_segments(rows)), rows)
        lengths = [math.hypot(s.p2.x - s.p1.x, s.p2.y - s.p1.y) for s in segs]
        assert same_bits(_lengths(rows), lengths)
        assert same_bits(_lengths(rows), [s.length for s in segs])
        oriented = [scalar_oriented_angle(s) for s in segs]
        assert same_bits(_oriented_angles(rows), oriented)
        assert same_bits(_oriented_angles(rows), [s.oriented_angle for s in segs])
        assert same_bits(_angles(rows), [wrap_angle(a) for a in oriented])
        assert same_bits(_angles(rows), [s.angle for s in segs])
        lines = [scalar_homogeneous_line(s) for s in segs]
        assert same_bits(_homogeneous_lines(rows), lines)
        assert same_bits(_homogeneous_lines(rows), [s.homogeneous_line() for s in segs])
        mids, e1, e2, kernel_lengths = _line_arrays(rows)
        assert same_bits(mids, [s.midpoint for s in segs])
        assert same_bits(e1, [s.p1 for s in segs]) and same_bits(e2, [s.p2 for s in segs])
        assert same_bits(kernel_lengths, lengths)

    def test_empty_set(self) -> None:
        rows = _rows([])
        assert rows.shape == (0, 4) and _segments(rows) == []
        assert _lengths(rows).shape == _angles(rows).shape == (0,)
        assert _homogeneous_lines(rows).shape == (0, 3)


class TestPointSegmentDistance:
    def test_perpendicular_foot_inside(self) -> None:
        seg = LineSegment((10.0, 20.0), (50.0, 20.0))
        assert point_segment_distance(Point2(30.0, 25.0), seg) == pytest.approx(5.0)

    def test_clamped_to_endpoint(self) -> None:
        seg = LineSegment((10.0, 20.0), (50.0, 20.0))
        assert point_segment_distance(Point2(5.0, 20.0), seg) == pytest.approx(5.0)

    def test_nearest_is_endpoint_off_axis(self) -> None:
        seg = LineSegment((3.0, 4.0), (6.0, 8.0))
        assert point_segment_distance(Point2(0.0, 0.0), seg) == pytest.approx(5.0)

    def test_zero_on_segment(self) -> None:
        seg = LineSegment((0.0, 0.0), (10.0, 10.0))
        assert point_segment_distance(Point2(4.0, 4.0), seg) == 0.0


class TestOrthogonalDistance:
    def test_collinear_overlap_is_zero(self) -> None:
        l1 = LineSegment((0.0, 0.0), (10.0, 0.0))
        l2 = LineSegment((4.0, 0.0), (14.0, 0.0))
        assert orthogonal_distance(l1, l2) == 0.0

    def test_parallel_offset(self) -> None:
        l1 = LineSegment((0.0, 0.0), (10.0, 0.0))
        l2 = LineSegment((0.0, 2.0), (10.0, 2.0))
        assert orthogonal_distance(l1, l2) == pytest.approx(2.0)

    def test_four_endpoint_average(self) -> None:
        l1 = LineSegment((0.0, 0.0), (10.0, 0.0))
        l2 = LineSegment((0.0, 0.0), (10.0, 1.0))
        expected = (0.0 + 1.0 + 0.0 + 10.0 / math.sqrt(101.0)) / 4.0
        assert orthogonal_distance(l1, l2) == pytest.approx(expected, abs=1e-12)

    def test_measures_to_infinite_lines(self) -> None:
        # Disjoint along the x axis: each endpoint is 3 px off the other
        # segment's supporting line, however far beyond its endpoints.
        l1 = LineSegment((0.0, 0.0), (10.0, 0.0))
        l2 = LineSegment((20.0, 3.0), (30.0, 3.0))
        assert orthogonal_distance(l1, l2) == pytest.approx(3.0)

    def test_symmetric(self) -> None:
        l1 = LineSegment((3.0, -1.0), (12.0, 4.0))
        l2 = LineSegment((1.0, 8.0), (14.0, 2.0))
        assert orthogonal_distance(l1, l2) == pytest.approx(orthogonal_distance(l2, l1))


class TestDvp:
    def test_vp_on_supporting_line(self) -> None:
        seg = LineSegment((0.0, 0.0), (10.0, 0.0))
        assert d_vp(seg, np.array([100.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_known_offset(self) -> None:
        seg = LineSegment((0.0, 0.0), (10.0, 1.0))
        # line through midpoint (5, 0.5) and (100, 0): cross = (0.5, 95, -50)
        expected = 50.0 / math.hypot(0.5, 95.0)
        assert d_vp(seg, np.array([100.0, 0.0, 1.0])) == pytest.approx(expected)

    def test_ideal_point_along_direction(self) -> None:
        seg = LineSegment((0.0, 0.0), (10.0, 0.0))
        assert d_vp(seg, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_returns_infinity(self) -> None:
        seg = LineSegment((0.0, 0.0), (10.0, 0.0))
        assert d_vp(seg, np.array([5.0, 0.0, 1.0])) == math.inf


class TestHomography:
    def test_normalizes_scale(self) -> None:
        h = Homography(2.0 * np.eye(3))
        assert np.allclose(h.m, np.eye(3))

    def test_rejects_singular(self) -> None:
        with pytest.raises(ValueError):
            Homography(np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]]))

    def test_huge_finite_matrix_is_accepted_without_warnings(self) -> None:
        # Its determinant overflows to inf, which the singularity gate passes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Homography.scaling(1e300).m[0, 0] == 1e300
            with pytest.raises(ValueError, match="singular"):
                Homography(np.array([[1e300, 1e300, 0], [1e300, 1e300, 0], [0, 0, 1.0]]))

    def test_rejects_non_finite(self) -> None:
        m = np.eye(3)
        m[0, 2] = math.inf
        with pytest.raises(ValueError):
            Homography(m)

    def test_inverse_and_compose(self) -> None:
        h = Homography(np.array([[1.1, 0.1, 5.0], [-0.05, 0.9, -3.0], [1e-4, 2e-4, 1.0]]))
        prod = h @ h.inverse()
        assert np.allclose(prod.m, np.eye(3), atol=1e-12)

    def test_constructors(self) -> None:
        assert np.allclose(Homography.translation(2.0, -1.0).m[:2, 2], [2.0, -1.0])
        assert np.allclose(Homography.scaling(2.0).m[0, 0], 2.0)
        r = Homography.rotation(math.pi / 2)
        assert np.allclose(r.m[:2, :2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


class TestApplyHomography:
    def test_identity_point(self) -> None:
        p = apply_homography(Homography.identity(), Point2(3.0, 7.0))
        assert p == Point2(3.0, 7.0)

    def test_translation_segment(self) -> None:
        h = Homography.translation(2.0, 0.0)
        seg = apply_homography(h, LineSegment((0.0, 0.0), (1.0, 0.0)))
        assert seg == LineSegment((2.0, 0.0), (3.0, 0.0))

    def test_scale_point(self) -> None:
        p = apply_homography(Homography.scaling(2.0), Point2(3.0, 4.0))
        assert p == Point2(6.0, 8.0)

    def test_degenerate_projection_raises(self) -> None:
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 1.0]]))
        with pytest.raises(ValueError):
            apply_homography(h, Point2(0.0, 1.0))

    def test_round_trip(self) -> None:
        rng = np.random.default_rng(6)
        h = Homography(np.array([[1.2, -0.1, 8.0], [0.2, 0.95, -5.0], [3e-4, -1e-4, 1.0]]))
        hinv = h.inverse()
        for _ in range(200):
            p = Point2(*rng.uniform(-50.0, 50.0, 2))
            q = apply_homography(hinv, apply_homography(h, p))
            assert math.hypot(q.x - p.x, q.y - p.y) < 1e-6


class TestClipSegmentToRect:
    @staticmethod
    def clip(seg: LineSegment) -> list[LineSegment]:
        """The kept clip of ``seg`` against [0, 10] x [0, 10], as a list."""
        rows, kept = _clip_segments(_rows([seg]), 0.0, 0.0, 10.0, 10.0)
        return _segments(rows[kept])

    def test_inside_unchanged(self) -> None:
        seg = LineSegment((2.0, 2.0), (8.0, 8.0))
        assert self.clip(seg) == [seg]

    def test_crossing_clipped_exactly(self) -> None:
        # dyadic clip parameters: t0 = 0.25 and t1 = 0.5 are exact
        seg = LineSegment((-10.0, 5.0), (30.0, 5.0))
        assert self.clip(seg) == [LineSegment((0.0, 5.0), (10.0, 5.0))]

    def test_outside_returns_none(self) -> None:
        seg = LineSegment((20.0, 20.0), (30.0, 25.0))
        assert self.clip(seg) == []


class TestCameraIntrinsics:
    def test_inverse_matrix(self) -> None:
        k = CameraIntrinsics(400.0, 380.0, 320.0, 240.0)
        assert np.allclose(k.matrix() @ k.inverse_matrix(), np.eye(3), atol=1e-12)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            CameraIntrinsics(-1.0, 400.0, 0.0, 0.0)
