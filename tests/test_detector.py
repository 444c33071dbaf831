"""Unit tests for gradient computation, extraction, and line filtering."""

from __future__ import annotations

import inspect
import math
import warnings

import numpy as np
import pytest

from linefields import (
    LineSegment,
    ScalarField,
    detect,
    filter_lines,
    image_gradient,
    lsd_extract,
    orient_angles,
    orthogonal_distance,
    render_fields,
    surrogate_gradient,
)
from linefields import detector
from linefields.geometry import TWO_PI

from util_synth import dense_field_pair, random_segments, square_image, stripe_scene, traced_peak

RHO = 2.0 / math.sin(math.pi / 8.0)  # LSD's threshold at tau = 22.5 deg


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

    def test_matches_two_by_two_formula(self) -> None:
        img = np.random.default_rng(22).uniform(0, 255, (12, 9))
        a, b, c, d = img[:-1, :-1], img[:-1, 1:], img[1:, :-1], img[1:, 1:]
        gx = ((b + d) - (a + c)) * 0.5
        gy = ((c + d) - (a + b)) * 0.5
        mag, ang = image_gradient(img)
        assert np.array_equal(mag.data[:-1, :-1], np.sqrt(gx * gx + gy * gy))
        assert np.array_equal(ang.data[:-1, :-1], np.arctan2(gy, gx))

    @pytest.mark.parametrize("value", [1e200, 1e308])
    def test_overflow_is_one_error(self, value: float) -> None:
        """1e200 overflows when squared, 1e308 already when two pixels
        are added: either way one ValueError, and no RuntimeWarning."""
        img = np.zeros((32, 32))
        img[:, 16:] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="image gradient overflows: pixel values too large"):
                image_gradient(img)

    def test_large_finite_step_kept(self) -> None:
        img = np.zeros((8, 8))
        img[:, 4:] = 1e150
        mag, _ = image_gradient(img)
        assert mag.data[2, 3] == 1e150


class TestLsdExtract:
    def test_zero_magnitude_empty(self) -> None:
        fp = render_fields([LineSegment((0.0, 0.0), (10.0, 0.0))], 32, 32)
        mag, theta = surrogate_gradient(fp)
        zero = ScalarField(np.zeros((32, 32)))
        assert lsd_extract(zero, theta) == []

    def test_single_segment_recovered(self) -> None:
        gt = LineSegment((40.0, 40.0), (200.0, 60.0))
        fp = render_fields([gt], 256, 256, r=5.0)
        mag, theta = surrogate_gradient(fp)
        lines = lsd_extract(mag, theta, period=math.pi)
        assert len(lines) == 1
        assert orthogonal_distance(lines[0], gt) < 1.0

    def test_deterministic(self) -> None:
        rng = np.random.default_rng(21)
        segs = random_segments(rng, size=128, k_range=(4, 8), min_length=25,
                               max_length=60, min_separation=15, margin=8)
        fp = render_fields(segs, 128, 128)
        mag, theta = surrogate_gradient(fp)
        first = lsd_extract(mag, theta, period=math.pi)
        second = lsd_extract(mag, theta, period=math.pi)
        assert first == second

    def test_shape_mismatch(self) -> None:
        with pytest.raises(ValueError):
            lsd_extract(ScalarField(np.zeros((4, 4))), ScalarField(np.zeros((4, 5))))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_bad_threshold(self, value: float) -> None:
        """A NaN threshold would make every pixel unusable without a word."""
        mag, theta = ScalarField(np.full((8, 8), 10.0)), ScalarField(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="threshold must be finite and non-negative"):
            lsd_extract(mag, theta, threshold=value)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 0.0, -math.pi, math.pi / 4.0]
    )
    def test_rejects_bad_period(self, value: float) -> None:
        """The period must exceed 2 tau, or every angle would count as aligned."""
        mag, theta = ScalarField(np.full((8, 8), 10.0)), ScalarField(np.zeros((8, 8)))
        with pytest.raises(ValueError, match="period must be finite and above 2 tau"):
            lsd_extract(mag, theta, period=value)

    def test_keyword_defaults(self) -> None:
        # The defaults of the two keywords detect sets per mode: LSD's field
        # mode threshold 3.0 over the full 2 pi period, at pixel centres.
        defaults = {
            name: p.default
            for name, p in inspect.signature(lsd_extract).parameters.items()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        }
        assert defaults == {"threshold": 3.0, "period": TWO_PI, "grid_offset": 0.5}

    def test_lsd_constants(self) -> None:
        # LSD fixes its seed-order bins, density, log10 epsilon and
        # tolerance tau for every image; image mode seeds at rho.
        assert (detector._N_BINS, detector._DENSITY, detector._LOG_EPS) == (1024, 0.7, 0.0)
        assert detector._TAU == math.pi / 8.0
        assert detector._RHO == RHO

    def test_field_mode_memory_budget(self) -> None:
        """Each padded grid is held once, in the buffer region growing reads:
        about 5 float64 grids for lsd_extract and 7 for detect, against 10.5
        and 12.5 when numpy kept copies of them."""
        segs, fp = dense_field_pair()
        grid = 256 * 256 * 8
        mag, theta = surrogate_gradient(fp)
        lines, lsd_peak = traced_peak(lsd_extract, mag, theta, period=math.pi, grid_offset=0.5)
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
        lines, peak = traced_peak(lsd_extract, mag, ang, grid_offset=1.0)
        assert len(lines) >= len(segs)
        assert peak <= 12 * 256 * 256 * 8


class TestMagnitudeThresholds:
    """detect's per-mode choices, as explicit lsd_extract calls: image mode
    at LSD's rho = 2 / sin(tau) with period 2 pi, field mode at 3.0 with
    period pi, or 2 pi when a companion image orients the angles."""

    def test_image_mode_equals_lsd_extract_at_rho(self) -> None:
        img = square_image(96) + np.random.default_rng(23).normal(0.0, 8.0, (96, 96))
        mag, ang = image_gradient(img)
        at_rho = lsd_extract(mag, ang, threshold=RHO, period=TWO_PI, grid_offset=1.0)
        assert detect(img) == at_rho
        assert at_rho != lsd_extract(mag, ang, threshold=3.0, period=TWO_PI, grid_offset=1.0)

    def test_step_between_threshold_and_rho_finds_nothing(self) -> None:
        img = np.full((64, 64), 100.0)
        img[:, 32:] = 104.0
        mag, ang = image_gradient(img)
        assert mag.data.max() == 4.0
        assert len(lsd_extract(mag, ang, threshold=3.0, grid_offset=1.0)) == 1
        assert detect(img) == []

    def test_field_mode_seeds_at_mag_threshold(self) -> None:
        """rho (5.23) exceeds every surrogate magnitude (at most r = 5), so
        field mode at rho would find nothing."""
        gt = LineSegment((40.0, 40.0), (200.0, 60.0))
        fp = render_fields([gt], 256, 256, r=5.0)
        mag, theta = surrogate_gradient(fp)
        raw = detect(fp, apply_filter=False)
        assert len(raw) == 1
        assert raw == lsd_extract(mag, theta, threshold=3.0, period=math.pi, grid_offset=0.5)
        assert lsd_extract(mag, theta, threshold=RHO, period=math.pi, grid_offset=0.5) == []

    def test_companion_image_sets_full_period(self) -> None:
        edges, image = stripe_scene()
        fp = render_fields(edges, 100, 100, r=5.0)
        mag, theta = surrogate_gradient(fp)
        oriented = orient_angles(theta, image_gradient(image)[1])
        want = lsd_extract(mag, oriented, threshold=3.0, period=TWO_PI, grid_offset=0.5)
        assert detect(fp, image=image, apply_filter=False) == want
        assert want != lsd_extract(mag, oriented, threshold=3.0, period=math.pi, grid_offset=0.5)


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

    def test_partial_overlap_depends_on_fraction(self, monkeypatch) -> None:
        """A candidate covering the reference for ~60% of its length sits
        between the 0.5 acceptance fraction and 0.7 (32 of 50 samples)."""
        gt = LineSegment((5.0, 50.0), (72.0, 50.0))
        fp = render_fields([gt], 120, 100, r=5.0)
        cand = LineSegment((10.0, 50.0), (110.0, 50.0))
        assert filter_lines([cand], fp) == [cand]
        monkeypatch.setattr(detector, "_MIN_INLIER_FRAC", 0.7)
        assert filter_lines([cand], fp) == []

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

    def test_field_mode_strict_filter_empties(self, monkeypatch) -> None:
        gt = LineSegment((40.0, 40.0), (200.0, 60.0))
        fp = render_fields([gt], 256, 256, r=5.0)
        monkeypatch.setattr(detector, "_ETA_DF", 1e-6)
        assert detect(fp) == []

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

    def test_image_mode_rejects_companion_image(self) -> None:
        img = square_image().astype(float)
        with pytest.raises(ValueError, match="image mode takes no companion image"):
            detect(img, image=img)
