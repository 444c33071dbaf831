"""Unit tests for homography sampling, warping, and median aggregation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from linefields import (
    FieldPair,
    Homography,
    LineSegment,
    ScalarField,
    aggregate_median,
    bilinear_sample,
    detect,
    generate_pseudo_gt,
    render_fields,
    sample_homography,
    warp_image,
    warp_lines,
)

from linefields import pseudo_gt

from util_synth import band_scores, bar_image, square_image


class TestSampleHomography:
    def test_sampler_ranges(self) -> None:
        assert pseudo_gt._MAX_ROTATION == math.radians(30.0)
        assert pseudo_gt._SCALE_RANGE == (0.7, 1.4)
        assert (pseudo_gt._MAX_TRANSLATION_FRAC, pseudo_gt._MAX_PERSPECTIVE) == (0.1, 0.1)

    def test_degenerate_ranges_give_identity(self, monkeypatch) -> None:
        for name, value in [
            ("_MAX_ROTATION", 0.0),
            ("_SCALE_RANGE", (1.0, 1.0)),
            ("_MAX_TRANSLATION_FRAC", 0.0),
            ("_MAX_PERSPECTIVE", 0.0),
        ]:
            monkeypatch.setattr(pseudo_gt, name, value)
        h = sample_homography(64, 64, np.random.default_rng(0))
        assert np.allclose(h.m, np.eye(3), atol=1e-12)

    def test_deterministic_given_seed(self) -> None:
        a = sample_homography(64, 48, np.random.default_rng(7))
        b = sample_homography(64, 48, np.random.default_rng(7))
        assert np.array_equal(a.m, b.m)

    def test_always_invertible(self) -> None:
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            h = sample_homography(128, 96, rng)
            assert abs(np.linalg.det(h.m)) > 1e-12

    def test_rejects_bad_dimensions(self) -> None:
        with pytest.raises(ValueError):
            sample_homography(0, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("width, height", [(True, 10), (2.5, 10), (math.nan, 10), (10, 2.0), (10, "8")])
    def test_rejects_sizes_that_are_not_integers(self, width, height) -> None:
        # A bool or a fractional size used to yield a warp for a frame no
        # image has; NaN failed later, as a non-finite homography.
        name = "width" if width != 10 else "height"
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample_homography(width, height, np.random.default_rng(0))

    def test_accepts_numpy_integer_sizes(self) -> None:
        a = sample_homography(np.int64(64), np.int32(48), np.random.default_rng(7))
        assert np.array_equal(a.m, sample_homography(64, 48, np.random.default_rng(7)).m)


class TestWarpImage:
    def test_identity_exact(self) -> None:
        rng = np.random.default_rng(30)
        img = rng.uniform(0, 255, (12, 17))
        assert np.array_equal(warp_image(img, Homography.identity()), img)

    def test_integer_shift(self) -> None:
        img = np.arange(16.0).reshape(4, 4)
        out = warp_image(img, Homography.translation(1.0, 0.0))
        assert np.array_equal(out[:, 1:], img[:, :-1])
        # border replication fills the vacated column
        assert np.array_equal(out[:, 0], img[:, 0])

    def test_rejects_empty(self) -> None:
        with pytest.raises(ValueError):
            warp_image(np.zeros((0, 4)), Homography.identity())


class TestWarpLines:
    def test_identity_passthrough(self) -> None:
        segs = [LineSegment((5.0, 5.0), (20.0, 9.0))]
        assert warp_lines(segs, Homography.identity(), 64, 64) == segs

    def test_fully_outside_dropped(self) -> None:
        segs = [LineSegment((5.0, 5.0), (20.0, 5.0))]
        pushed = warp_lines(segs, Homography.translation(100.0, 0.0), 64, 64)
        assert pushed == []

    def test_half_outside_clipped(self) -> None:
        segs = [LineSegment((-10.0, 30.0), (30.0, 30.0))]
        out = warp_lines(segs, Homography.identity(), 64, 64)
        assert out == [LineSegment((0.0, 30.0), (30.0, 30.0))]

    def test_short_after_clip_dropped(self) -> None:
        segs = [LineSegment((-20.0, 10.0), (3.0, 10.0))]
        assert warp_lines(segs, Homography.identity(), 64, 64) == []

    def test_min_length_configurable(self) -> None:
        segs = [LineSegment((-20.0, 10.0), (3.0, 10.0))]
        out = warp_lines(segs, Homography.identity(), 64, 64, min_length=2.0)
        assert out == [LineSegment((0.0, 10.0), (3.0, 10.0))]

    def test_exactly_min_length_kept(self) -> None:
        # Only segments shorter than min_length drop; a 3-4-5 one is kept.
        segs = [LineSegment((10.0, 10.0), (13.0, 14.0)), LineSegment((0.0, 0.0), (3.0, 3.9))]
        assert warp_lines(segs, Homography.identity(), 64, 64) == segs[:1]


def _pair_of(df_value: float, af_value: float, r: float = 5.0) -> FieldPair:
    return FieldPair(
        ScalarField(np.full((2, 3), df_value)),
        ScalarField(np.full((2, 3), af_value)),
        r,
    )


class TestAggregateMedian:
    def test_df_median_odd(self) -> None:
        agg = aggregate_median([_pair_of(1.0, 0.0), _pair_of(2.0, 0.0), _pair_of(100.0, 0.0)])
        assert np.all(agg.df.data == 2.0)

    def test_df_median_even_takes_lower_middle(self) -> None:
        pairs = [_pair_of(v, 0.0) for v in (1.0, 2.0, 3.0, 100.0)]
        agg = aggregate_median(pairs)
        assert np.all(agg.df.data == 2.0)

    def test_af_circular_median(self) -> None:
        # summed circular distances: 0.0 wins with 0.0916 over 3.10 (0.1332)
        # and 0.05 (0.1416)
        pairs = [_pair_of(1.0, a) for a in (0.05, 3.10, 0.0)]
        agg = aggregate_median(pairs)
        assert np.all(agg.af.data == 0.0)

    def test_identical_pairs_fixed_point(self) -> None:
        fp = _pair_of(1.5, 0.7)
        agg = aggregate_median([fp] * 5)
        assert np.array_equal(agg.df.data, fp.df.data)
        assert np.array_equal(agg.af.data, fp.af.data)

    def test_permutation_invariant(self) -> None:
        rng = np.random.default_rng(31)
        pairs = [
            FieldPair(
                ScalarField(rng.uniform(0, 10, (4, 4))),
                ScalarField(rng.uniform(0, math.pi, (4, 4))),
                5.0,
            )
            for _ in range(6)
        ]
        base = aggregate_median(pairs)
        for _ in range(5):
            perm = [pairs[i] for i in rng.permutation(len(pairs))]
            agg = aggregate_median(perm)
            assert np.array_equal(agg.df.data, base.df.data)
            assert np.array_equal(agg.af.data, base.af.data)

    def test_empty_list_rejected(self) -> None:
        with pytest.raises(ValueError):
            aggregate_median([])

    def test_shape_mismatch_rejected(self) -> None:
        other = FieldPair(ScalarField(np.zeros((3, 3))), ScalarField(np.zeros((3, 3))), 5.0)
        with pytest.raises(ValueError):
            aggregate_median([_pair_of(1.0, 0.0), other])

    def test_radius_mismatch_rejected(self) -> None:
        with pytest.raises(ValueError):
            aggregate_median([_pair_of(1.0, 0.0, r=5.0), _pair_of(1.0, 0.0, r=4.0)])


class TestGeneratePseudoGt:
    def test_single_warp_equals_direct_render(self) -> None:
        img = square_image().astype(float)
        det = detect(img)
        direct = render_fields(det, img.shape[1], img.shape[0], 5.0)
        one = generate_pseudo_gt(img, 1)
        assert np.array_equal(one.df.data, direct.df.data)
        assert np.array_equal(one.af.data, direct.af.data)

    def test_square_edges_have_small_distance(self) -> None:
        img = square_image().astype(float)
        q = img.shape[0] // 4
        fp = generate_pseudo_gt(img, 6, seed=3)
        xs = np.linspace(q + 2, 3 * q - 2, 40)
        worst = 0.0
        for x in xs:
            for px, py in ((x, q), (x, 3 * q), (q, x), (3 * q, x)):
                worst = max(worst, bilinear_sample(fp.df, (px - 0.5, py - 0.5)))
        assert worst <= 1.0

    @pytest.mark.parametrize(
        "noise, max_mae, min_coverage", [(0.0, 0.05, 0.98), (8.0, 0.45, 0.84)]
    )
    def test_bar_edges_accuracy(self, noise: float, max_mae: float, min_coverage: float) -> None:
        """Eight 4 px bars at 256 x 256 with 8 warps, as in the pseudo_gt
        benchmark: the DF error in the band of the bars' long edges stays
        small, and the field reaches most of the band. On the noisy image,
        seeding at 3.0 instead of rho read coverage 0.817 and MAE 0.528."""
        img, edges = bar_image(np.random.default_rng(0), noise=noise)
        coverage, mae = band_scores(generate_pseudo_gt(img, 8, seed=0), edges)
        assert mae <= max_mae
        assert coverage >= min_coverage

    def test_deterministic(self) -> None:
        img = square_image().astype(float)
        a = generate_pseudo_gt(img, 4, seed=9)
        b = generate_pseudo_gt(img, 4, seed=9)
        assert np.array_equal(a.df.data, b.df.data)
        assert np.array_equal(a.af.data, b.af.data)

    def test_featureless_image_rejected(self) -> None:
        with pytest.raises(ValueError):
            generate_pseudo_gt(np.full((64, 64), 128.0), 4)

    def test_needs_positive_count(self) -> None:
        with pytest.raises(ValueError):
            generate_pseudo_gt(square_image().astype(float), 0)

    @pytest.mark.parametrize(
        "count, message",
        [
            (True, "n_homographies must be an integer"),
            (2.5, "n_homographies must be an integer"),
            (-1, "n_homographies must be at least 1"),
        ],
    )
    def test_rejects_bad_count(self, count: object, message: str) -> None:
        """True once ran one warp, and 2.5 raised TypeError from range."""
        with pytest.raises(ValueError, match=message):
            generate_pseudo_gt(square_image().astype(float), count)

    @pytest.mark.parametrize(
        "seed, message", [(-1, "seed must be at least 0"), (1.5, "seed must be an integer")]
    )
    def test_rejects_bad_seed(self, seed: object, message: str) -> None:
        with pytest.raises(ValueError, match=message):
            generate_pseudo_gt(square_image().astype(float), 2, seed=seed)
