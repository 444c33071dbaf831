"""Unit tests for detection and vanishing point metrics."""

from __future__ import annotations

import inspect
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linefields import (
    CameraIntrinsics,
    Homography,
    LineMatch,
    LineSegment,
    VanishingPoint,
    apply_homography,
    corner_error,
    estimate_homography,
    homography_from_lines,
    localization_error,
    match_one_to_one,
    orthogonal_distance,
    repeatability,
    vp_consistency,
    vp_error_auc,
)
from linefields import evaluate

from util_synth import concurrent_lines, traced_peak

H_GT = Homography(
    np.array([[1.02, 0.01, 3.0], [-0.008, 0.98, -2.0], [1e-4, -5e-5, 1.0]])
)


def scattered_segments(rng: np.random.Generator, n: int) -> list[LineSegment]:
    segs: list[LineSegment] = []
    while len(segs) < n:
        p = rng.uniform(5.0, 123.0, 2)
        ang = rng.uniform(0.0, math.pi)
        ln = rng.uniform(15.0, 40.0)
        d = np.array([math.cos(ang), math.sin(ang)])
        segs.append(LineSegment(tuple(p - 0.5 * ln * d), tuple(p + 0.5 * ln * d)))
    return segs


def exact_pairs(segs: list[LineSegment]) -> list[tuple[LineSegment, LineSegment]]:
    return [(s, apply_homography(H_GT, s)) for s in segs]


def concurrent_through_center() -> list[LineSegment]:
    out = []
    for ang in (0.1, 0.9, 1.7, 2.5):
        d = np.array([math.cos(ang), math.sin(ang)])
        c = np.array([64.0, 64.0])
        out.append(LineSegment(tuple(c + 5.0 * d), tuple(c + 30.0 * d)))
    return out


class TestEvalParams:
    """The metrics' keywords, each checked by the one function that reads it,
    and the RANSAC cap. Each keyword comes straight from a CLI option."""

    def test_defaults(self) -> None:
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert default(match_one_to_one, "distance") == "structural"
        assert default(repeatability, "threshold") == 3.0
        assert default(localization_error, "top_k") == 50
        assert default(estimate_homography, "inlier_threshold") == 3.0
        assert default(estimate_homography, "seed") == 0
        assert evaluate._HEST_ITERS == 1_000_000

    def test_rejects_bad_values(self) -> None:
        with pytest.raises(ValueError, match="^threshold must be positive"):
            repeatability([], (1, 1), threshold=0.0)
        with pytest.raises(ValueError, match="^top_k must be at least 1"):
            localization_error([LineMatch(0, 0, 1.0)], top_k=0)
        with pytest.raises(ValueError, match="^distance must be structural or orthogonal"):
            match_one_to_one([], [], Homography.identity(), distance="chamfer")  # type: ignore[arg-type]

    # By command and keyword: eval rep --threshold, eval hest --inlier-threshold.
    THRESHOLDS = {
        "rep_threshold": ("threshold", lambda v: repeatability([], (1, 1), threshold=v)),
        "hest_inlier_threshold": ("inlier_threshold", lambda v: estimate_homography([], inlier_threshold=v)),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["rep_threshold", "hest_inlier_threshold"])
    def test_rejects_non_finite(self, name: str, value: float) -> None:
        keyword, call = self.THRESHOLDS[name]
        with pytest.raises(ValueError, match=f"^{keyword} must be positive and finite"):
            call(value)

    # By command and keyword: eval le --top-k, eval hest --seed.
    INTEGERS = {
        "le_top_k": ("top_k", lambda v: localization_error([LineMatch(0, 0, 1.0)], top_k=v)),
        "seed": ("seed", lambda v: estimate_homography([], seed=v)),
    }

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize("name", ["le_top_k", "seed"])
    def test_rejects_non_integer_counts(self, name: str, value: object) -> None:
        keyword, call = self.INTEGERS[name]
        with pytest.raises(ValueError, match=f"^{keyword} must be an integer"):
            call(value)

    def test_rejects_negative_seed(self) -> None:
        # It used to fail only inside numpy, without naming the keyword.
        with pytest.raises(ValueError, match="seed must be at least 0"):
            estimate_homography([], seed=-1)


class TestMatchOneToOne:
    def test_identity_matches_index_to_itself(self) -> None:
        segs = [
            LineSegment((5.0, 10.0), (50.0, 12.0)),
            LineSegment((20.0, 60.0), (90.0, 55.0)),
            LineSegment((100.0, 10.0), (101.0, 80.0)),
        ]
        matches = match_one_to_one(segs, segs, Homography.identity())
        assert [(m.index_a, m.index_b, m.distance) for m in matches] == [
            (0, 0, 0.0),
            (1, 1, 0.0),
            (2, 2, 0.0),
        ]

    def test_warped_copies_match_at_zero_distance(self) -> None:
        rng = np.random.default_rng(62)
        segs = scattered_segments(rng, 8)
        h = Homography.translation(10.0, 0.0)
        segs_b = [apply_homography(h, s) for s in segs]
        matches = match_one_to_one(segs, segs_b, h)
        assert len(matches) == 8
        assert all(m.distance < 1e-9 for m in matches)

    def test_match_count_and_one_to_one(self) -> None:
        rng = np.random.default_rng(63)
        a = scattered_segments(rng, 5)
        b = scattered_segments(rng, 3)
        matches = match_one_to_one(a, b, Homography.identity())
        assert len(matches) == 3
        assert len({m.index_a for m in matches}) == 3
        assert len({m.index_b for m in matches}) == 3

    def test_matches_claimed_in_ascending_distance(self) -> None:
        rng = np.random.default_rng(64)
        a = scattered_segments(rng, 10)
        b = scattered_segments(rng, 10)
        matches = match_one_to_one(a, b, Homography.identity())
        dists = [m.distance for m in matches]
        assert dists == sorted(dists)

    def test_empty_side_gives_no_matches(self) -> None:
        seg = LineSegment((0.0, 0.0), (10.0, 0.0))
        assert match_one_to_one([], [seg], Homography.identity()) == []
        assert match_one_to_one([seg], [], Homography.identity()) == []

    def test_distance_kinds_disagree_on_collinear_shift(self) -> None:
        # Same supporting line, half-length shift along it: structural sees
        # the endpoint motion, orthogonal sees collinearity.
        a = [LineSegment((0.0, 0.0), (10.0, 0.0))]
        b = [LineSegment((5.0, 0.0), (15.0, 0.0))]
        ms = match_one_to_one(a, b, Homography.identity())
        mo = match_one_to_one(a, b, Homography.identity(), distance="orthogonal")
        assert ms[0].distance == 5.0
        assert mo[0].distance == 0.0

    # h_gt maps frame a to frame b, so the b lines go through its inverse.
    FAILING_B = {
        # The inverse's last row (-0.1, 0, 1) sends x = 10 to w = 0.
        "point maps to infinity under this homography": (
            Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.1, 0.0, 1.0]])),
            LineSegment((10.0, 5.0), (0.0, 5.0)),
        ),
        # 1e16 + 0.5 rounds to 1e16.
        "segment endpoints must be distinct": (
            Homography.translation(-1e16, 0.0),
            LineSegment((0.0, 0.0), (0.5, 0.0)),
        ),
        # 1e10 * 1e300 overflows.
        "segment endpoints must be finite": (
            Homography.scaling(1e-300, 1e300),
            LineSegment((0.0, 0.0), (1e10, 0.0)),
        ),
    }

    @pytest.mark.parametrize("kind", ["structural", "orthogonal"])
    @pytest.mark.parametrize("message", sorted(FAILING_B))
    def test_failing_b_segment_raises_its_error(self, message: str, kind: str) -> None:
        h_gt, bad = self.FAILING_B[message]
        a = [LineSegment((0.0, 0.0), (1.0, 0.0))]
        good = LineSegment((0.0, 0.0), (0.0, 10.0))
        with pytest.raises(ValueError, match=f"^{message}$"):
            match_one_to_one(a, [good, bad, good], h_gt, distance=kind)

    def test_first_of_two_failing_b_segments_raises(self) -> None:
        h_gt = Homography.scaling(1e-300, 1e300)  # b to a: x * 1e300, y * 1e-300
        overflow = LineSegment((0.0, 0.0), (1e10, 0.0))
        collapse = LineSegment((0.0, 0.0), (0.0, 1e-30))  # 1e-330 underflows to 0
        a = [LineSegment((0.0, 0.0), (1.0, 0.0))]
        good = LineSegment((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError, match="must be finite"):
            match_one_to_one(a, [good, overflow, collapse], h_gt)
        with pytest.raises(ValueError, match="must be distinct"):
            match_one_to_one(a, [good, collapse, overflow], h_gt)


class TestStructuralMatrix:
    """The structural distance, as match_one_to_one computes it."""

    @staticmethod
    def distance(l1: LineSegment, l2: LineSegment) -> float:
        return match_one_to_one([l1], [l2], Homography.identity())[0].distance

    def test_parallel_shift(self) -> None:
        l1 = LineSegment((0.0, 0.0), (10.0, 0.0))
        l2 = LineSegment((0.0, 1.0), (10.0, 1.0))
        assert self.distance(l1, l2) == pytest.approx(1.0)

    def test_endpoint_order_invariance(self) -> None:
        l1 = LineSegment((0.0, 0.0), (10.0, 0.0))
        assert self.distance(l1, l1.reversed()) == 0.0

    def test_collinear_shift(self) -> None:
        l1 = LineSegment((0.0, 0.0), (10.0, 0.0))
        l2 = LineSegment((2.0, 0.0), (12.0, 0.0))
        assert self.distance(l1, l2) == pytest.approx(2.0)

    def test_symmetric(self) -> None:
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = LineSegment(tuple(rng.uniform(0, 50, 2)), tuple(rng.uniform(0, 50, 2) + 1))
            b = LineSegment(tuple(rng.uniform(0, 50, 2)), tuple(rng.uniform(0, 50, 2) + 1))
            assert self.distance(a, b) == self.distance(b, a)


class TestRepeatability:
    def test_perfect(self) -> None:
        assert repeatability([LineMatch(0, 0, 0.0)], (1, 1)) == 1.0

    def test_zero_when_match_exceeds_threshold(self) -> None:
        assert repeatability([LineMatch(0, 0, 5.0)], (1, 1)) == 0.0

    def test_threshold_is_strict(self) -> None:
        assert repeatability([LineMatch(0, 0, 3.0)], (1, 1)) == 0.0
        assert repeatability([LineMatch(0, 0, 2.999999)], (1, 1)) == 1.0

    def test_half(self) -> None:
        matches = [LineMatch(0, 0, 0.0), LineMatch(1, 1, 10.0)]
        assert repeatability(matches, (2, 2)) == 0.5

    def test_normalized_by_smaller_count(self) -> None:
        assert repeatability([LineMatch(2, 0, 0.0)], (3, 1)) == 1.0

    def test_rejects_zero_counts(self) -> None:
        with pytest.raises(ValueError):
            repeatability([], (0, 3))

    def test_monotone_in_threshold(self) -> None:
        matches = [LineMatch(i, i, float(i)) for i in range(10)]
        values = [
            repeatability(matches, (10, 10), threshold=t)
            for t in (1.0, 3.0, 5.0, 20.0)
        ]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)


class TestLocalizationError:
    def test_averages_only_the_best_k(self) -> None:
        matches = [LineMatch(i, i, 1.0) for i in range(50)]
        matches += [LineMatch(50 + i, 50 + i, 9.0) for i in range(50)]
        assert localization_error(matches) == 1.0

    def test_fewer_matches_than_k(self) -> None:
        matches = [LineMatch(i, i, float(i + 1)) for i in range(10)]
        assert localization_error(matches) == 5.5

    def test_custom_k(self) -> None:
        matches = [LineMatch(i, i, float(i + 1)) for i in range(10)]
        assert localization_error(matches, top_k=5) == 3.0

    def test_order_independent(self) -> None:
        matches = [LineMatch(i, i, float(i + 1)) for i in range(10)]
        shuffled = list(reversed(matches))
        assert localization_error(shuffled) == localization_error(matches)

    def test_rejects_empty(self) -> None:
        with pytest.raises(ValueError):
            localization_error([])

    def test_leaves_out_distances_that_are_not_finite(self) -> None:
        matches = [LineMatch(0, 0, math.inf)] + [LineMatch(i, i, 1.0) for i in range(1, 4)]
        assert localization_error(matches) == 1.0
        matches.append(LineMatch(4, 4, math.nan))
        assert localization_error(matches, top_k=2) == 1.0

    def test_rejects_matches_without_a_finite_distance(self) -> None:
        with pytest.raises(ValueError, match="finite distance"):
            localization_error([LineMatch(0, 0, math.inf), LineMatch(1, 1, math.nan)])


class TestHomographyFromLines:
    def test_recovers_known_homography(self) -> None:
        rng = np.random.default_rng(60)
        pairs = exact_pairs(scattered_segments(rng, 20))
        h_est = homography_from_lines(pairs)
        assert corner_error(h_est, H_GT, 128, 128) < 1e-6

    def test_minimal_four_pairs_exact(self) -> None:
        rng = np.random.default_rng(60)
        pairs = exact_pairs(scattered_segments(rng, 4))
        h_est = homography_from_lines(pairs)
        assert corner_error(h_est, H_GT, 128, 128) < 1e-6

    def test_identity_from_identical_pairs(self) -> None:
        rng = np.random.default_rng(65)
        segs = scattered_segments(rng, 6)
        h_est = homography_from_lines([(s, s) for s in segs])
        assert corner_error(h_est, Homography.identity(), 128, 128) < 1e-6

    def test_rejects_too_few_pairs(self) -> None:
        rng = np.random.default_rng(60)
        with pytest.raises(ValueError):
            homography_from_lines(exact_pairs(scattered_segments(rng, 3)))

    def test_rejects_concurrent_lines(self) -> None:
        with pytest.raises(ValueError):
            homography_from_lines(exact_pairs(concurrent_through_center()))

    def test_rejects_parallel_pencil(self) -> None:
        par = [
            LineSegment((5.0, 10.0 + 20.0 * k), (100.0, 10.0 + 20.0 * k))
            for k in range(4)
        ]
        with pytest.raises(ValueError):
            homography_from_lines(exact_pairs(par))

    def test_rejects_duplicated_pair(self) -> None:
        rng = np.random.default_rng(60)
        pairs = exact_pairs(scattered_segments(rng, 3))
        with pytest.raises(ValueError):
            homography_from_lines([pairs[0], pairs[0], pairs[1], pairs[2]])


@st.composite
def line_correspondences(draw):
    """A homography close to the identity and 4-12 exact line pairs under
    it, no three of the lines near-concurrent (general position)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b, c, d = (draw(st.floats(-0.2, 0.2)) for _ in range(4))
    tx, ty = (draw(st.floats(-20.0, 20.0)) for _ in range(2))
    g, h = (draw(st.floats(-1e-3, 1e-3)) for _ in range(2))
    hom = Homography(np.array([[1.0 + a, b, tx], [c, 1.0 + d, ty], [g, h, 1.0]]))
    segs = scattered_segments(rng, draw(st.integers(4, 12)))
    lines = np.array([s.homogeneous_line() for s in segs])
    assume(all(abs(np.linalg.det(lines[list(t)])) >= 0.02
               for t in itertools.combinations(range(len(segs)), 3)))
    return hom, [(s, apply_homography(hom, s)) for s in segs]


class TestHomographyProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=line_correspondences())
    def test_exact_pairs_recover_h_up_to_scale(self, case) -> None:
        """Within 1e-6 px at the corners of the 128 px frame, and within
        1e-8 per entry once both matrices are scaled to unit norm with the
        same sign (observed: 3e-10 px and 5e-11 over 3,000 cases)."""
        hom, pairs = case
        h_est = homography_from_lines(pairs)
        assert corner_error(h_est, hom, 128, 128) < 1e-6
        est, want = h_est.m / np.linalg.norm(h_est.m), hom.m / np.linalg.norm(hom.m)
        est *= np.sign(np.sum(est * want))
        assert np.abs(est - want).max() < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(case=line_correspondences())
    def test_all_inlier_pairs_stay_inliers(self, case) -> None:
        hom, pairs = case
        h_est, mask = estimate_homography(pairs)
        assert mask.shape == (len(pairs),) and mask.all()
        assert corner_error(h_est, hom, 128, 128) < 1e-6


class TestEstimateHomography:
    def outlier_pairs(
        self, rng: np.random.Generator, n: int
    ) -> list[tuple[LineSegment, LineSegment]]:
        out: list[tuple[LineSegment, LineSegment]] = []
        while len(out) < n:
            sa = scattered_segments(rng, 1)[0]
            sb = scattered_segments(rng, 1)[0]
            if orthogonal_distance(apply_homography(H_GT, sa), sb) > 10.0:
                out.append((sa, sb))
        return out

    def test_rejects_outliers_and_recovers(self) -> None:
        rng = np.random.default_rng(60)
        pairs = exact_pairs(scattered_segments(rng, 20))
        pairs += self.outlier_pairs(rng, 6)
        h_est, mask = estimate_homography(pairs)
        assert corner_error(h_est, H_GT, 128, 128) < 1e-6
        assert mask[:20].all()
        assert not mask[20:].any()

    def test_minimal_noiseless_input(self) -> None:
        rng = np.random.default_rng(66)
        pairs = exact_pairs(scattered_segments(rng, 4))
        h_est, mask = estimate_homography(pairs)
        assert corner_error(h_est, H_GT, 128, 128) < 1e-6
        assert mask.all()

    def test_deterministic(self) -> None:
        rng = np.random.default_rng(67)
        pairs = exact_pairs(scattered_segments(rng, 12))
        pairs += self.outlier_pairs(rng, 4)
        h1, m1 = estimate_homography(pairs)
        h2, m2 = estimate_homography(pairs)
        assert np.array_equal(h1.m, h2.m)
        assert np.array_equal(m1, m2)

    def test_rejects_too_few_pairs(self) -> None:
        rng = np.random.default_rng(60)
        with pytest.raises(ValueError):
            estimate_homography(exact_pairs(scattered_segments(rng, 3)))

    @pytest.mark.parametrize("pencil_on", ["both", "a", "b"])
    @pytest.mark.parametrize("vp", [(300.0, -200.0, 1.0), (1.0, 0.3, 0.0)])
    def test_concurrent_pencil_fails_fast(self, pencil_on: str, vp: tuple) -> None:
        # No 4 lines of a pencil (finite or parallel) fix a homography;
        # sampling them up to the 1e6-iteration cap took about 14 minutes.
        rng = np.random.default_rng(70)
        pencil = concurrent_lines(rng, np.array(vp), 30)
        other = scattered_segments(rng, 30)
        pairs = {
            "both": exact_pairs(pencil),
            "a": list(zip(pencil, other)),
            "b": list(zip(other, pencil)),
        }[pencil_on]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="no homography model found consensus"):
            estimate_homography(pairs)
        assert time.perf_counter() - start < 1.0

    def test_memory_does_not_grow_with_iteration_cap(self, monkeypatch) -> None:
        # Pure outliers keep the adaptive bound above the cap, so both runs
        # go to _HEST_ITERS. Blocks of samples are capped by _HEST_ELEMENTS,
        # so the peak is that of the largest block, not of the cap. The
        # interpreter's own allocations move it by a few KB between runs.
        pairs = self.outlier_pairs(np.random.default_rng(71), 200)
        peaks = []
        for iters in (2_000, 20_000):
            monkeypatch.setattr(evaluate, "_HEST_ITERS", iters)
            peaks.append(traced_peak(estimate_homography, pairs)[1])
        assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0]

    def test_samples_the_dlt_rejects_are_not_tested(self, monkeypatch) -> None:
        # 199 concurrent a-lines and one more span the plane, so the set
        # passes the up-front check, but no minimal sample fits: four lines
        # of the pencil span 2 dimensions, and three of them with the odd
        # one admit many maps. The inlier test sees none of the 10,000.
        rng = np.random.default_rng(72)
        a = concurrent_lines(rng, np.array([300.0, -200.0, 1.0]), 199)
        pairs = list(zip(a + scattered_segments(rng, 1), scattered_segments(rng, 200)))
        tested = []
        inlier_masks = evaluate._inlier_masks

        def counting(ms, *args):
            tested.append(len(ms))
            return inlier_masks(ms, *args)

        monkeypatch.setattr(evaluate, "_inlier_masks", counting)
        monkeypatch.setattr(evaluate, "_HEST_ITERS", 10_000)
        with pytest.raises(ValueError, match="no homography model found consensus"):
            estimate_homography(pairs)
        assert sum(tested) == 0

    def test_no_consensus_on_degenerate_input(self, monkeypatch) -> None:
        # Every 4-subset is concurrent or contains the duplicate, so no
        # minimal sample ever yields a model.
        conc = concurrent_through_center()
        pairs = exact_pairs(conc + [conc[0]])
        monkeypatch.setattr(evaluate, "_HEST_ITERS", 300)
        with pytest.raises(ValueError):
            estimate_homography(pairs)


class TestCornerError:
    def test_zero_for_equal_homographies(self) -> None:
        assert corner_error(H_GT, H_GT, 128, 128) == 0.0

    def test_translation_displaces_every_corner(self) -> None:
        h = Homography.translation(2.0, 0.0)
        assert math.isclose(
            corner_error(h, Homography.identity(), 128, 128), 2.0, abs_tol=1e-12
        )

    @pytest.mark.parametrize("width, height", [(0, 64), (64, 0), (-5, -5)])
    def test_rejects_non_positive_frame(self, width: int, height: int) -> None:
        with pytest.raises(ValueError, match="image dimensions must be positive"):
            corner_error(H_GT, H_GT, width, height)

    @pytest.mark.parametrize(
        "width, height", [(math.nan, 10), (10, math.nan), (64.0, 64), (True, 10)]
    )
    def test_rejects_non_integer_frame(self, width: object, height: object) -> None:
        """A NaN width once slipped past the positivity test and gave nan."""
        with pytest.raises(ValueError, match="must be an integer"):
            corner_error(H_GT, H_GT, width, height)


class TestVpConsistency:
    def make_clusters(self):
        rng = np.random.default_rng(61)
        va = np.array([600.0, 128.0, 1.0])
        vb = np.array([128.0, -500.0, 1.0])
        return (
            concurrent_lines(rng, va, 6),
            concurrent_lines(rng, vb, 4),
            VanishingPoint(va),
            VanishingPoint(vb),
        )

    def test_exact_points_give_full_consistency(self) -> None:
        ca, cb, va, vb = self.make_clusters()
        assert vp_consistency([ca, cb], [va, vb], [1.0, 2.0]) == [1.0, 1.0]

    def test_no_predictions(self) -> None:
        ca, cb, _, _ = self.make_clusters()
        assert vp_consistency([ca, cb], [], [1.0]) == [0.0]

    def test_unmatched_cluster_counts_against(self) -> None:
        ca, cb, va, _ = self.make_clusters()
        # 6 of 10 lines sit in the cluster the single point can serve.
        assert vp_consistency([ca, cb], [va], [1.0]) == [0.6]

    def test_monotone_in_threshold(self) -> None:
        rng = np.random.default_rng(68)
        va = np.array([600.0, 128.0, 1.0])
        cluster = concurrent_lines(rng, va, 10, noise=1.0)
        vals = vp_consistency([cluster], [VanishingPoint(va)], [0.5, 1.0, 3.0, 10.0])
        assert vals == sorted(vals)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_rejects_empty_ground_truth(self) -> None:
        with pytest.raises(ValueError):
            vp_consistency([[]], [VanishingPoint(np.array([1.0, 0.0, 0.0]))], [1.0])

    def test_rejects_empty_thresholds(self) -> None:
        ca, cb, va, vb = self.make_clusters()
        with pytest.raises(ValueError):
            vp_consistency([ca, cb], [va, vb], [])

    @pytest.mark.parametrize("n_pred", [0, 2])
    def test_rejects_nan_threshold(self, n_pred: int) -> None:
        ca, cb, va, vb = self.make_clusters()
        with pytest.raises(ValueError, match="NaN"):
            vp_consistency([ca, cb], [va, vb][:n_pred], [1.0, math.nan])

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_cluster_with_nan_median_claims_nothing(self, nan_first: bool) -> None:
        # The midpoints of segments near x = 1.5e308 overflow, so their
        # d_vp and this cluster's median are +inf; in either order the
        # other cluster still claims the point.
        rng = np.random.default_rng(61)
        va = np.array([600.0, 128.0, 1.0])
        good = concurrent_lines(rng, va, 4)
        far = [LineSegment((1.5e308, y), (1.4e308, y + 1.0)) for y in (0.0, 10.0, 20.0)]
        clusters = [far, good] if nan_first else [good, far]
        with np.errstate(all="ignore"):
            assert vp_consistency(clusters, [VanishingPoint(va)], [1.0]) == [4 / 7]

    def test_cluster_with_infinite_median_claims_nothing(self) -> None:
        # Two midpoints sit on the point (d_vp = +inf), so the median is
        # +inf; the third line, through the point, still does not count.
        v = VanishingPoint(np.array([600.0, 128.0, 1.0]))
        cluster = [
            LineSegment((590.0, 128.0), (610.0, 128.0)),
            LineSegment((600.0, 118.0), (600.0, 138.0)),
            LineSegment((100.0, 128.0), (200.0, 128.0)),
        ]
        assert vp_consistency([cluster], [v], [1.0]) == [0.0]

    def test_infinite_threshold_counts_every_claimed_line(self) -> None:
        ca, cb, va, vb = self.make_clusters()
        assert vp_consistency([ca, cb], [va, vb], [math.inf]) == [1.0]


class TestVpErrorAuc:
    K = CameraIntrinsics(100.0, 100.0, 64.0, 64.0)

    def from_direction(self, deg: float) -> VanishingPoint:
        d = np.array([math.sin(math.radians(deg)), 0.0, math.cos(math.radians(deg))])
        return VanishingPoint(self.K.matrix() @ d)

    def test_equal_points(self) -> None:
        gt = [VanishingPoint(np.array([64.0, 64.0, 1.0]))]
        assert vp_error_auc(gt, gt, self.K) == (0.0, 1.0)

    def test_five_degree_error_halves_the_area(self) -> None:
        median, auc = vp_error_auc(
            [self.from_direction(0.0)], [self.from_direction(5.0)], self.K
        )
        assert math.isclose(median, 5.0, abs_tol=1e-9)
        assert math.isclose(auc, 0.5, abs_tol=1e-9)

    def test_angle_is_sign_free(self) -> None:
        median, auc = vp_error_auc(
            [self.from_direction(80.0)], [self.from_direction(-80.0)], self.K
        )
        assert math.isclose(median, 20.0, abs_tol=1e-9)
        assert auc == 0.0

    def test_no_predictions(self) -> None:
        gt = [VanishingPoint(np.array([64.0, 64.0, 1.0]))]
        assert vp_error_auc(gt, [], self.K) == (math.inf, 0.0)

    def test_partial_prediction_caps_area(self) -> None:
        gt = [
            self.from_direction(0.0),
            self.from_direction(80.0),
            VanishingPoint(np.array([1.0, 0.0, 0.0])),
        ]
        median, auc = vp_error_auc(gt, [gt[0]], self.K)
        assert median == 0.0
        assert math.isclose(auc, 1.0 / 3.0, abs_tol=1e-12)

    def test_assignment_order_invariant(self) -> None:
        gt = [self.from_direction(d) for d in (0.0, 30.0, 60.0)]
        pred = [self.from_direction(d) for d in (61.0, 1.0, 29.0)]
        m1, a1 = vp_error_auc(gt, pred, self.K)
        m2, a2 = vp_error_auc(list(reversed(gt)), list(reversed(pred)), self.K)
        assert math.isclose(m1, 1.0, abs_tol=1e-9)
        assert math.isclose(m1, m2, abs_tol=1e-12)
        assert math.isclose(a1, a2, abs_tol=1e-12)

    @pytest.mark.parametrize(
        "k",
        [
            CameraIntrinsics(1e-320, 100.0, 64.0, 64.0),  # 1 / fx is inf
            CameraIntrinsics(1e300, 1e300, 1e300, 64.0),  # direction norms underflow
            CameraIntrinsics(1e-300, 1e-300, 0.0, 0.0),  # direction norms overflow
        ],
    )
    def test_rejects_overflowing_intrinsics_without_warnings(self, k) -> None:
        gt = [
            VanishingPoint(np.array([600.0, 128.0, 1.0])),
            VanishingPoint(np.array([1.0, 0.2, 0.0])),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="inverse intrinsics"):
                vp_error_auc(gt, gt, k)

    def test_rejects_empty_ground_truth(self) -> None:
        with pytest.raises(ValueError):
            vp_error_auc([], [self.from_direction(0.0)], self.K)

    def test_rejects_bad_max_angle(self) -> None:
        gt = [self.from_direction(0.0)]
        with pytest.raises(ValueError):
            vp_error_auc(gt, gt, self.K, max_angle_deg=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n_pred", [0, 1])
    def test_rejects_non_finite_max_angle(self, bad: float, n_pred: int) -> None:
        gt = [self.from_direction(0.0)]
        with pytest.raises(ValueError, match="finite"):
            vp_error_auc(gt, gt[:n_pred], self.K, max_angle_deg=bad)
