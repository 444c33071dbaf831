"""Unit tests for gradient computation, extraction, and line filtering."""

from __future__ import annotations

import math

import numpy as np
import pytest

from linefields import (
    DetectorParams,
    FilterParams,
    LineSegment,
    detect,
    filter_lines,
    image_gradient,
    lsd_extract,
    orthogonal_distance,
    render_fields,
    surrogate_gradient,
)

from util_synth import dense_field_pair, random_segments, square_image, stripe_scene, traced_peak


class TestDetectorParams:
    def test_defaults_valid(self) -> None:
        p = DetectorParams()
        assert p.mag_threshold == 3.0
        assert p.angle_tolerance == pytest.approx(math.pi / 8)

    def test_rejects_bad_tolerance(self) -> None:
        with pytest.raises(ValueError):
            DetectorParams(angle_tolerance=0.0)
        with pytest.raises(ValueError):
            DetectorParams(angle_tolerance=math.pi)

    def test_rejects_bad_density(self) -> None:
        with pytest.raises(ValueError):
            DetectorParams(density_threshold=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["mag_threshold", "angle_tolerance", "density_threshold", "log_nfa_max", "angle_period"],
    )
    def test_rejects_non_finite(self, name: str, value: float) -> None:
        # A NaN log_nfa_max used to switch the NFA test off.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DetectorParams(**{name: value})

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_rejects_non_integer_bins(self, value: object) -> None:
        with pytest.raises(ValueError, match="n_bins must be an integer"):
            DetectorParams(n_bins=value)


class TestFilterParams:
    def test_rejects_too_few_samples(self) -> None:
        with pytest.raises(ValueError):
            FilterParams(n_samples=1)

    def test_rejects_bad_fraction(self) -> None:
        with pytest.raises(ValueError):
            FilterParams(min_inlier_frac=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["eta_df", "eta_theta", "min_inlier_frac"])
    def test_rejects_non_finite(self, name: str, value: float) -> None:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FilterParams(**{name: value})

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_rejects_non_integer_samples(self, value: object) -> None:
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            FilterParams(n_samples=value)


class TestImageGradient:
    def test_constant_image_zero_magnitude(self) -> None:
        mag, _ = image_gradient(np.full((8, 8), 17.0))
        assert np.all(mag.data == 0.0)

    def test_vertical_step(self) -> None:
        img = np.zeros((6, 6))
        img[:, 3:] = 100.0
        mag, ang = image_gradient(img)
        # the 2x2 block straddling columns 2|3 sees the full step
        assert mag.data[2, 2] == 100.0
        assert ang.data[2, 2] == 0.0

    def test_horizontal_step(self) -> None:
        img = np.zeros((6, 6))
        img[3:, :] = 100.0
        mag, ang = image_gradient(img)
        assert mag.data[2, 2] == 100.0
        assert abs(ang.data[2, 2]) == pytest.approx(math.pi / 2)

    def test_last_row_and_column_inert(self) -> None:
        rng = np.random.default_rng(20)
        mag, _ = image_gradient(rng.uniform(0, 255, (10, 10)))
        assert np.all(mag.data[-1, :] == 0.0)
        assert np.all(mag.data[:, -1] == 0.0)

    def test_too_small_image(self) -> None:
        with pytest.raises(ValueError):
            image_gradient(np.zeros((1, 5)))


class TestLsdExtract:
    def test_zero_magnitude_empty(self) -> None:
        fp = render_fields([LineSegment((0.0, 0.0), (10.0, 0.0))], 32, 32)
        mag, theta = surrogate_gradient(fp)
        from linefields import ScalarField

        zero = ScalarField(np.zeros((32, 32)))
        assert lsd_extract(zero, theta) == []

    def test_single_segment_recovered(self) -> None:
        gt = LineSegment((40.0, 40.0), (200.0, 60.0))
        fp = render_fields([gt], 256, 256, r=5.0)
        mag, theta = surrogate_gradient(fp)
        lines = lsd_extract(mag, theta, DetectorParams(angle_period=math.pi))
        assert len(lines) == 1
        assert orthogonal_distance(lines[0], gt) < 1.0

    def test_deterministic(self) -> None:
        rng = np.random.default_rng(21)
        segs = random_segments(rng, size=128, k_range=(4, 8), min_length=25,
                               max_length=60, min_separation=15, margin=8)
        fp = render_fields(segs, 128, 128)
        mag, theta = surrogate_gradient(fp)
        first = lsd_extract(mag, theta, DetectorParams(angle_period=math.pi))
        second = lsd_extract(mag, theta, DetectorParams(angle_period=math.pi))
        assert first == second

    def test_shape_mismatch(self) -> None:
        from linefields import ScalarField

        with pytest.raises(ValueError):
            lsd_extract(ScalarField(np.zeros((4, 4))), ScalarField(np.zeros((4, 5))))

    def test_field_mode_memory_budget(self) -> None:
        """Each padded grid is held once, in the buffer region growing reads:
        about 5 float64 grids for lsd_extract and 7 for detect, against 10.5
        and 12.5 when numpy kept copies of them."""
        segs, fp = dense_field_pair()
        grid = 256 * 256 * 8
        mag, theta = surrogate_gradient(fp)
        params = DetectorParams(angle_period=math.pi)
        lines, lsd_peak = traced_peak(lsd_extract, mag, theta, params, grid_offset=0.5)
        assert len(lines) >= len(segs)
        assert lsd_peak <= 7 * grid
        _, detect_peak = traced_peak(detect, fp)
        assert detect_peak <= 9 * grid

    def test_image_mode_memory_budget(self) -> None:
        """On a noisy image of bright 4 px bars nearly every pixel is usable.
        The lonely-seed test takes the usable pixels in fixed-size chunks:
        about 10.8 float64 grids at the peak, against 13.7 when it made its
        per-offset temporaries over all of them at once."""
        rng = np.random.default_rng(0)
        segs = random_segments(
            rng, size=256, k_range=(8, 8), min_length=60, max_length=120, min_separation=16
        )
        df = render_fields(segs, 256, 256).df.data
        image = np.where(df <= 2.0, 200.0, 40.0) + rng.normal(0.0, 8.0, df.shape)
        mag, ang = image_gradient(image)
        lines, peak = traced_peak(lsd_extract, mag, ang, DetectorParams(), grid_offset=1.0)
        assert len(lines) >= len(segs)
        assert peak <= 12 * 256 * 256 * 8


class TestFilterLines:
    def test_exact_line_kept(self) -> None:
        gt = LineSegment((5.0, 50.0), (72.0, 50.0))
        fp = render_fields([gt], 120, 100, r=5.0)
        assert filter_lines([gt], fp) == [gt]

    def test_far_line_removed(self) -> None:
        gt = LineSegment((5.0, 50.0), (72.0, 50.0))
        fp = render_fields([gt], 120, 100, r=5.0)
        far = LineSegment((20.0, 90.0), (100.0, 90.0))
        assert filter_lines([far], fp) == []

    def test_partial_overlap_depends_on_fraction(self) -> None:
        """A candidate covering the reference for ~60% of its length sits
        between the 0.5 and 0.7 acceptance fractions (32 of 50 samples)."""
        gt = LineSegment((5.0, 50.0), (72.0, 50.0))
        fp = render_fields([gt], 120, 100, r=5.0)
        cand = LineSegment((10.0, 50.0), (110.0, 50.0))
        assert filter_lines([cand], fp, FilterParams(min_inlier_frac=0.5)) == [cand]
        assert filter_lines([cand], fp, FilterParams(min_inlier_frac=0.7)) == []

    def test_wrong_angle_removed(self) -> None:
        gt = LineSegment((10.0, 50.0), (90.0, 50.0))
        fp = render_fields([gt], 100, 100, r=5.0)
        crossing = LineSegment((50.0, 10.0), (50.0, 90.0))
        assert filter_lines([crossing], fp) == []

    def test_never_grows_and_idempotent(self) -> None:
        rng = np.random.default_rng(22)
        for _ in range(5):
            segs = random_segments(rng, size=96, k_range=(3, 7), min_length=20,
                                   max_length=50, min_separation=10, margin=6)
            fp = render_fields(segs, 96, 96)
            jittered = [
                LineSegment(
                    (s.p1.x + rng.uniform(-3, 3), s.p1.y + rng.uniform(-3, 3)),
                    (s.p2.x + rng.uniform(-3, 3), s.p2.y + rng.uniform(-3, 3)),
                )
                for s in segs
            ]
            once = filter_lines(jittered, fp)
            assert len(once) <= len(jittered)
            assert filter_lines(once, fp) == once

    def test_fully_outside_dropped(self) -> None:
        gt = LineSegment((10.0, 10.0), (40.0, 10.0))
        fp = render_fields([gt], 64, 64)
        outside = LineSegment((200.0, 200.0), (240.0, 200.0))
        assert filter_lines([outside], fp) == []


class TestDetect:
    def test_field_mode_single_segment(self) -> None:
        gt = LineSegment((40.0, 40.0), (200.0, 60.0))
        fp = render_fields([gt], 256, 256, r=5.0)
        lines = detect(fp)
        assert len(lines) == 1
        assert orthogonal_distance(lines[0], gt) < 1.0

    def test_field_mode_strict_filter_empties(self) -> None:
        gt = LineSegment((40.0, 40.0), (200.0, 60.0))
        fp = render_fields([gt], 256, 256, r=5.0)
        assert detect(fp, filter_params=FilterParams(eta_df=1e-6)) == []

    def test_field_mode_no_filter_keeps_raw(self) -> None:
        gt = LineSegment((40.0, 40.0), (200.0, 60.0))
        fp = render_fields([gt], 256, 256, r=5.0)
        raw = detect(fp, apply_filter=False)
        assert len(raw) >= 1

    def test_companion_image_shape_checked(self) -> None:
        fp = render_fields([LineSegment((5.0, 5.0), (30.0, 5.0))], 64, 64)
        with pytest.raises(ValueError):
            detect(fp, image=np.zeros((32, 32)))

    def test_companion_image_splits_double_edge(self) -> None:
        """A bright 3 px stripe has two sides. Oriented angles keep them
        apart; the plain mod-pi field merges them into one response."""
        edges, image = stripe_scene()
        fp = render_fields(edges, 100, 100, r=5.0)
        oriented = detect(fp, image=image, apply_filter=False)
        unoriented = detect(fp, apply_filter=False)
        assert len(oriented) == 2
        assert len(unoriented) == 1

    def test_image_mode_step_edge(self) -> None:
        img = np.full((64, 64), 30.0)
        img[:, 32:] = 220.0
        lines = detect(img)
        assert len(lines) == 1
        edge = LineSegment((32.0, 1.0), (32.0, 63.0))
        assert orthogonal_distance(lines[0], edge) < 1.0
        assert abs(math.degrees(lines[0].angle) - 90.0) < 2.0

    def test_image_mode_square(self) -> None:
        img = square_image().astype(float)
        q = img.shape[0] // 4
        sides = [
            LineSegment((q, q), (3 * q, q)),
            LineSegment((q, 3 * q), (3 * q, 3 * q)),
            LineSegment((q, q), (q, 3 * q)),
            LineSegment((3 * q, q), (3 * q, 3 * q)),
        ]
        lines = detect(img)
        assert len(lines) == 4
        best = [min(orthogonal_distance(l, s) for s in sides) for l in lines]
        assert max(best) < 1.0

    def test_image_mode_rejects_bad_rank(self) -> None:
        with pytest.raises(ValueError):
            detect(np.zeros((4, 4, 3)))
