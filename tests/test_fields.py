"""Unit tests for attraction field rendering, normalization, and sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linefields import (
    FieldPair,
    LineSegment,
    ScalarField,
    bilinear_sample,
    df_normalize,
    orient_angles,
    render_fields,
    surrogate_gradient,
)

from util_synth import brute_force_fields, random_segments, traced_peak, two_view_segments


class TestScalarField:
    def test_rejects_wrong_rank(self) -> None:
        with pytest.raises(ValueError):
            ScalarField(np.zeros(5))

    def test_rejects_non_finite(self) -> None:
        data = np.zeros((3, 3))
        data[1, 1] = np.inf
        with pytest.raises(ValueError):
            ScalarField(data)

    def test_data_is_read_only(self) -> None:
        f = ScalarField(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            f.data[0, 0] = 1.0

    def test_shape_properties(self) -> None:
        f = ScalarField(np.zeros((3, 7)))
        assert (f.height, f.width) == (3, 7)


class TestFieldPair:
    def test_shape_mismatch(self) -> None:
        with pytest.raises(ValueError):
            FieldPair(ScalarField(np.zeros((2, 2))), ScalarField(np.zeros((2, 3))), 5.0)

    def test_bad_radius(self) -> None:
        f = ScalarField(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            FieldPair(f, f, 0.0)
        with pytest.raises(ValueError):
            FieldPair(f, f, math.inf)


class TestRenderFields:
    def test_empty_input_rejected(self) -> None:
        with pytest.raises(ValueError):
            render_fields([], 10, 10)

    def test_horizontal_segment_pixel(self) -> None:
        """Pixel (30, 25) has center (30.5, 25.5); its foot is on the line y=20."""
        fp = render_fields([LineSegment((10.0, 20.0), (50.0, 20.0))], 64, 64, r=5.0)
        assert fp.df.data[25, 30] == 5.5
        assert fp.af.data[25, 30] == 0.0

    def test_af_range_and_df_sign(self) -> None:
        rng = np.random.default_rng(10)
        segs = random_segments(rng, size=64, k_range=(3, 6), min_length=15,
                               max_length=40, min_separation=8, margin=5)
        fp = render_fields(segs, 64, 64)
        assert np.all(fp.df.data >= 0.0)
        assert np.all(fp.af.data >= 0.0)
        assert np.all(fp.af.data < math.pi)

    def test_tie_goes_to_lowest_index(self) -> None:
        # pixel center (30.5, 15.5) is exactly 5.5 from both segments
        horizontal = LineSegment((0.0, 10.0), (60.0, 10.0))
        vertical = LineSegment((36.0, 0.0), (36.0, 31.0))
        fp = render_fields([horizontal, vertical], 64, 32)
        assert fp.af.data[15, 30] == 0.0
        fp_swapped = render_fields([vertical, horizontal], 64, 32)
        assert fp_swapped.af.data[15, 30] == pytest.approx(math.pi / 2)

    def test_matches_brute_force_oracle(self) -> None:
        rng = np.random.default_rng(11)
        for _ in range(5):
            segs = random_segments(rng, size=48, k_range=(3, 6), min_length=12,
                                   max_length=30, min_separation=6, margin=4)
            fp = render_fields(segs, 48, 48)
            df_ref, af_ref = brute_force_fields(segs, 48, 48)
            assert np.array_equal(fp.df.data, df_ref)
            assert np.array_equal(fp.af.data, af_ref)

    def test_carries_radius(self) -> None:
        fp = render_fields([LineSegment((0.0, 0.0), (5.0, 5.0))], 8, 8, r=3.5)
        assert fp.r == 3.5

    def test_memory_budget(self) -> None:
        """A 384 x 384 view of 170 segments, as in the two_view benchmark:
        the two output grids plus bounded chunks, about 2.4 float64 grids
        at the peak. The per-tile renderer peaked at 2.6; a full-grid copy
        would add one more."""
        _, peak = traced_peak(render_fields, two_view_segments(), 384, 384)
        assert peak <= 2.6 * 384 * 384 * 8


class TestDfNormalize:
    def test_forward_at_r_is_zero(self) -> None:
        assert df_normalize(5.0, 5.0) == 0.0

    def test_inverse_of_one(self) -> None:
        assert df_normalize(1.0, 5.0, "inverse") == pytest.approx(5.0 / math.e)

    def test_round_trip(self) -> None:
        rng = np.random.default_rng(12)
        vals = rng.uniform(1e-6, 5.0, 200)
        back = df_normalize(df_normalize(vals, 5.0), 5.0, "inverse")
        assert np.allclose(back, vals, rtol=1e-12)

    def test_forward_domain(self) -> None:
        with pytest.raises(ValueError):
            df_normalize(0.0, 5.0)
        with pytest.raises(ValueError):
            df_normalize(5.1, 5.0)

    def test_inverse_domain(self) -> None:
        with pytest.raises(ValueError):
            df_normalize(-0.1, 5.0, "inverse")

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_rejects_nan(self, direction: str) -> None:
        """NaN lies in neither domain; it once passed through both."""
        for value in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="not NaN"):
                df_normalize(value, 5.0, direction)

    def test_scalar_in_scalar_out(self) -> None:
        assert isinstance(df_normalize(2.0, 5.0), float)

    def test_array_in_array_out(self) -> None:
        out = df_normalize(np.array([1.0, 2.0]), 5.0)
        assert isinstance(out, np.ndarray)


class TestSurrogateGradient:
    def test_magnitude_ramp(self) -> None:
        df = np.array([[0.0, 2.0, 5.0, 9.0]])
        fp = FieldPair(ScalarField(df), ScalarField(np.zeros((1, 4))), 5.0)
        mag, _ = surrogate_gradient(fp)
        assert np.array_equal(mag.data, [[5.0, 3.0, 0.0, 0.0]])

    def test_angle_is_normal_direction(self) -> None:
        af = np.array([[0.0, math.pi / 2, math.pi / 4]])
        fp = FieldPair(ScalarField(np.ones((1, 3))), ScalarField(af), 5.0)
        _, theta = surrogate_gradient(fp)
        assert theta.data[0, 0] == pytest.approx(math.pi / 2)
        assert theta.data[0, 1] == pytest.approx(0.0)
        assert theta.data[0, 2] == pytest.approx(-math.pi / 4)

    def test_angle_range(self) -> None:
        rng = np.random.default_rng(13)
        af = rng.uniform(0.0, math.pi, (16, 16))
        af[af == math.pi] = 0.0
        fp = FieldPair(ScalarField(np.ones((16, 16))), ScalarField(af), 5.0)
        _, theta = surrogate_gradient(fp)
        assert np.all(theta.data > -math.pi / 2)
        assert np.all(theta.data <= math.pi / 2)


class TestOrientAngles:
    def test_keeps_closer_branch(self) -> None:
        theta = ScalarField(np.zeros((1, 1)))
        ref = ScalarField(np.full((1, 1), 0.3))
        assert orient_angles(theta, ref).data[0, 0] == 0.0

    def test_flips_to_opposite_branch(self) -> None:
        theta = ScalarField(np.zeros((1, 1)))
        ref = ScalarField(np.full((1, 1), 3.0))
        assert orient_angles(theta, ref).data[0, 0] == pytest.approx(-math.pi)

    def test_output_range(self) -> None:
        rng = np.random.default_rng(14)
        theta = ScalarField(rng.uniform(-math.pi / 2, math.pi / 2, (8, 8)))
        ref = ScalarField(rng.uniform(-math.pi, math.pi, (8, 8)))
        out = orient_angles(theta, ref).data
        assert np.all(out >= -math.pi)
        assert np.all(out < math.pi)

    def test_result_mod_pi_unchanged(self) -> None:
        rng = np.random.default_rng(15)
        t = rng.uniform(-math.pi / 2, math.pi / 2, (8, 8))
        theta = ScalarField(t)
        ref = ScalarField(rng.uniform(-math.pi, math.pi, (8, 8)))
        out = orient_angles(theta, ref).data
        diff = np.mod(np.abs(out - t), math.pi)
        circ = np.minimum(diff, math.pi - diff)
        assert np.all(circ < 1e-12)

    def test_shape_mismatch(self) -> None:
        with pytest.raises(ValueError):
            orient_angles(ScalarField(np.zeros((2, 2))), ScalarField(np.zeros((2, 3))))

    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(-1e-14, 1e-14) | st.floats(-4 * math.pi, 4 * math.pi),
                st.sampled_from([math.pi, -math.pi, 0.0]) | st.floats(-math.pi, math.pi),
            ),
            min_size=1,
            max_size=16,
        )
    )
    @example(pairs=[(-5e-16, math.pi)])  # out + pi is about -4e-16; its mod rounds to 2*pi
    def test_output_in_half_open_range_and_congruent_mod_pi(self, pairs) -> None:
        theta, ref = (np.array([list(col)]) for col in zip(*pairs))
        out = orient_angles(ScalarField(theta), ScalarField(ref)).data
        assert np.all(out >= -math.pi) and np.all(out < math.pi)
        diff = np.mod(out - theta, math.pi)
        slack = 8.0 * np.finfo(float).eps * (np.abs(theta) + math.pi)
        assert np.all(np.minimum(diff, math.pi - diff) <= slack)


class TestBilinearSample:
    def test_exact_at_grid_points(self) -> None:
        f = ScalarField(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert bilinear_sample(f, (1.0, 1.0)) == 4.0

    def test_midpoint_average(self) -> None:
        f = ScalarField(np.array([[2.0, 4.0]]))
        assert bilinear_sample(f, (0.5, 0.0)) == 3.0

    def test_circular_blend_across_wrap(self) -> None:
        f = ScalarField(np.array([[0.05, math.pi - 0.05]]))
        assert bilinear_sample(f, (0.5, 0.0), mode="circular_pi") == pytest.approx(
            0.0, abs=1e-12
        )

    def test_circular_result_range(self) -> None:
        rng = np.random.default_rng(16)
        f = ScalarField(rng.uniform(0.0, math.pi, (6, 6)))
        for _ in range(100):
            x = rng.uniform(0.0, 5.0)
            y = rng.uniform(0.0, 5.0)
            v = bilinear_sample(f, (x, y), mode="circular_pi")
            assert 0.0 <= v < math.pi

    def test_out_of_grid_rejected(self) -> None:
        f = ScalarField(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            bilinear_sample(f, (3.5, 1.0))
        with pytest.raises(ValueError):
            bilinear_sample(f, (1.0, -0.1))

    def test_unknown_mode_rejected(self) -> None:
        f = ScalarField(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            bilinear_sample(f, (1.0, 1.0), mode="cubic")
