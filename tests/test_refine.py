"""Unit tests for line cost evaluation and refinement."""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linefields import (
    LineSegment,
    RefineParams,
    VanishingPoint,
    VpParams,
    circular_distance,
    d_vp,
    orthogonal_distance,
    refine_joint,
    refine_line,
    render_fields,
)
from linefields.geometry import _rows
from linefields.refine import _batch_costs, _line_state, _sampling_tables

from util_synth import pencil_segments, perturb_segment

# Horizontal segment through pixel-center rows: the rendered fields are
# exactly zero along it, so cost values below are closed-form.
GT_SEG = LineSegment((20.5, 30.5), (80.5, 30.5))


def line_cost(l: LineSegment, fp, v=None, params: RefineParams | None = None) -> float:
    """Cost of one line as refinement scores it: one row of _batch_costs."""
    state = _line_state(_rows([l]), [v])
    return float(_batch_costs(_sampling_tables(fp), *state, params or RefineParams())[0])


def make_fp():
    return render_fields([GT_SEG], 100, 64)


class TestRefineParams:
    def test_defaults(self) -> None:
        p = RefineParams()
        assert (p.lambda_df, p.lambda_af, p.lambda_vp) == (1.0, 1.0, 0.2)
        assert p.n_opt == 10
        assert p.k_alternations == 5

    def test_t_vp_lives_in_vp_params(self) -> None:
        # One association gate: fit_vps and refine_joint both read VpParams.t_vp.
        assert not hasattr(RefineParams(), "t_vp")
        assert VpParams().t_vp == 1.5
        with pytest.raises(TypeError):
            RefineParams(t_vp=1.5)

    def test_rejects_single_sample(self) -> None:
        with pytest.raises(ValueError):
            RefineParams(n_opt=1)

    def test_rejects_negative_weights(self) -> None:
        with pytest.raises(ValueError):
            RefineParams(lambda_af=-0.1)

    def test_rejects_bad_steps(self) -> None:
        with pytest.raises(ValueError):
            RefineParams(fd_step=0.0)
        with pytest.raises(ValueError):
            RefineParams(max_lateral_step=0.0)

    def test_rejects_bad_iteration_counts(self) -> None:
        with pytest.raises(ValueError):
            RefineParams(k_alternations=0)
        with pytest.raises(ValueError):
            RefineParams(max_iter=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["lambda_df", "lambda_af", "lambda_vp", "max_lateral_step", "fd_step", "tol"],
    )
    def test_rejects_non_finite(self, name: str, value: float) -> None:
        # NaN passes every range check (comparisons with it are False).
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RefineParams(**{name: value})

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize("name", ["n_opt", "k_alternations", "max_iter"])
    def test_rejects_non_integer_counts(self, name: str, value: object) -> None:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            RefineParams(**{name: value})


class TestLineCost:
    def test_zero_on_the_generating_line(self) -> None:
        fp = make_fp()
        assert line_cost(GT_SEG, fp) == 0.0

    def test_unit_offset_costs_unit_distance(self) -> None:
        fp = make_fp()
        off = LineSegment((20.5, 31.5), (80.5, 31.5))
        assert math.isclose(line_cost(off, fp), 1.0, abs_tol=1e-12)

    def test_rotation_costs_one_minus_cosine(self) -> None:
        fp = make_fp()
        a = math.radians(10.0)
        rot = LineSegment(
            (50.5 - 30.0 * math.cos(a), 30.5 - 30.0 * math.sin(a)),
            (50.5 + 30.0 * math.cos(a), 30.5 + 30.0 * math.sin(a)),
        )
        got = line_cost(rot, fp, params=RefineParams(lambda_df=0.0))
        assert math.isclose(got, 1.0 - math.cos(a), abs_tol=1e-12)

    def test_vanishing_point_term_added_when_close(self) -> None:
        fp = make_fp()
        v = VanishingPoint(np.array([200.0, 31.5, 1.0]))
        dist = d_vp(GT_SEG, v)
        assert dist < 1.5
        base = line_cost(GT_SEG, fp)
        assert math.isclose(line_cost(GT_SEG, fp, v), base + 0.2 * dist, abs_tol=1e-12)

    def test_vanishing_point_term_applied_when_far(self) -> None:
        # A given VP is always used, however far: association is the caller's.
        fp = make_fp()
        v = VanishingPoint(np.array([200.0, 80.0, 1.0]))
        dist = d_vp(GT_SEG, v)
        assert dist > 1.5
        base = line_cost(GT_SEG, fp)
        assert math.isclose(line_cost(GT_SEG, fp, v), base + 0.2 * dist, abs_tol=1e-12)

    def test_angular_term_ignores_direction_flip(self) -> None:
        fp = make_fp()
        off = LineSegment((20.5, 31.5), (80.5, 31.5))
        assert abs(line_cost(off.reversed(), fp) - line_cost(off, fp)) < 1e-12


class TestRefineLine:
    def test_zero_cost_line_is_a_fixed_point(self) -> None:
        fp = make_fp()
        out, cost, converged = refine_line(GT_SEG, fp, full_output=True)
        assert converged
        assert cost == 0.0
        assert out.p1 == GT_SEG.p1 and out.p2 == GT_SEG.p2

    def test_recovers_from_unit_offset(self) -> None:
        fp = make_fp()
        off = LineSegment((20.5, 31.5), (80.5, 31.5))
        out = refine_line(off, fp)
        assert orthogonal_distance(out, GT_SEG) < 0.1
        assert math.isclose(out.length, 60.0, abs_tol=1e-9)

    def test_recovers_from_rotation_and_offset(self) -> None:
        fp = make_fp()
        rng = np.random.default_rng(50)
        pert = perturb_segment(GT_SEG, rng, max_lateral=1.0, max_rotation_deg=3.0)
        out, cost, _ = refine_line(pert, fp, full_output=True)
        assert orthogonal_distance(out, GT_SEG) < 0.1
        angle_err = circular_distance(out.angle, GT_SEG.angle)
        assert math.degrees(angle_err) < 0.3
        assert math.isclose(out.length, pert.length, abs_tol=1e-9)
        assert cost <= line_cost(pert, fp)

    @pytest.mark.parametrize(
        "shift, turn, max_iter",
        [(0.02, 0.0, 6), (0.0, 0.002, 16)],
        ids=["lateral_0.02px", "rotated_0.002rad"],
    )
    def test_lands_on_the_df_kink_in_few_iterations(self, shift, turn, max_iter) -> None:
        # Near the line DF is V-shaped and central differences see half its
        # slope, so plain Newton steps would only halve the distance.
        c, s = 30.0 * math.cos(turn), 30.0 * math.sin(turn)
        seg = LineSegment((50.5 - c, 30.5 + shift - s), (50.5 + c, 30.5 + shift + s))
        params = RefineParams(max_iter=max_iter)
        out, _, converged = refine_line(seg, make_fp(), params=params, full_output=True)
        assert converged
        if turn == 0.0:
            assert abs(out.p1.y - 30.5) <= 1e-6 and abs(out.p2.y - 30.5) <= 1e-6

    @settings(max_examples=150, deadline=None)
    @given(
        shift=st.floats(-3.5, 3.5),
        turn=st.floats(-0.05, 0.05),
        slide=st.floats(-5.0, 5.0),
    )
    @example(shift=2.5, turn=0.05, slide=0.0)
    @example(shift=1.5, turn=0.02, slide=0.0)
    def test_converges_onto_the_line_from_nearby_poses(self, shift, turn, slide) -> None:
        # Off the line DF is flat (H_tt ~ 0) up to the kink: damping must not
        # grow there until the line stops short of the kink as converged.
        c, s = 30.0 * math.cos(turn), 30.0 * math.sin(turn)
        mx, my = 50.5 + slide * math.cos(turn), 30.5 + shift + slide * math.sin(turn)
        seg = LineSegment((mx - c, my - s), (mx + c, my + s))
        out, _, converged = refine_line(seg, make_fp(), full_output=True)
        assert converged
        assert abs(out.p1.y - 30.5) <= 1e-6 and abs(out.p2.y - 30.5) <= 1e-6

    def test_vp_coupled_line_stops_at_the_float32_resolution(self, monkeypatch) -> None:
        # The VP term pulls this line along the DF kink of GT_SEG: after 7
        # iterations it gains under float32 epsilon per step. With a 1e-14
        # gate it crept 32 more iterations and 3e-7 more cost.
        seg = LineSegment((22.9155, 31.2604), (82.9149, 30.9904))
        v = VanishingPoint(np.array([1713.3, 152.77, 1.0]))
        short = RefineParams(max_iter=7)
        _, cost, converged = refine_line(seg, make_fp(), v, short, full_output=True)
        assert converged
        _, long_cost, _ = refine_line(seg, make_fp(), v, full_output=True)
        assert long_cost == cost
        monkeypatch.setattr("linefields.refine._GAIN_GATE", 1e-14)
        _, ungated_cost, ungated = refine_line(seg, make_fp(), v, short, full_output=True)
        assert not ungated and ungated_cost == cost
        _, crept_cost, _ = refine_line(seg, make_fp(), v, full_output=True)
        assert 0.0 < cost - crept_cost < 1e-6 * cost

    def test_cost_never_increases(self) -> None:
        fp = make_fp()
        rng = np.random.default_rng(52)
        for _ in range(10):
            pert = perturb_segment(GT_SEG, rng, max_lateral=1.5, max_rotation_deg=3.0)
            _, cost, _ = refine_line(pert, fp, full_output=True)
            assert cost <= line_cost(pert, fp)

    def test_unevaluable_line_returned_unchanged(self) -> None:
        fp = make_fp()
        oob = LineSegment((0.1, 30.0), (40.0, 30.0))
        out, cost, converged = refine_line(oob, fp, full_output=True)
        assert out is oob
        assert math.isinf(cost)
        assert not converged


class TestRefineJoint:
    def test_exact_axis_aligned_scene_is_a_fixed_point(self) -> None:
        rows = [10.5, 30.5, 50.5, 70.5, 90.5]
        gt = [LineSegment((15.5, y), (110.5, y)) for y in rows]
        fp = render_fields(gt, 128, 128)
        out, vps, assignment = refine_joint(gt, fp)
        for a, b in zip(out, gt):
            assert a.p1 == b.p1 and a.p2 == b.p2
        assert len(vps) == 1
        assert vps[0].is_ideal()
        assert assignment == [0] * 5

    def test_perturbed_pencil_improves_and_respects_vp(self) -> None:
        rng = np.random.default_rng(51)
        gt = pencil_segments(rng, vp_xy=(1800.0, 128.0), size=256, n=10, half_range=(8.0, 12.0))
        fp = render_fields(gt, 256, 256)
        pert = [perturb_segment(s, rng) for s in gt]
        before = statistics.median(orthogonal_distance(p, g) for p, g in zip(pert, gt))
        refined, vps, assignment = refine_joint(pert, fp)
        after = statistics.median(orthogonal_distance(r, g) for r, g in zip(refined, gt))
        assert after <= 0.5 * before
        assert len(vps) == 1
        assert all(j == 0 for j in assignment)
        assert max(d_vp(r, vps[0]) for r in refined) < 0.5

    def test_zero_vp_weight_matches_sequential_line_refinement(self) -> None:
        rng = np.random.default_rng(51)
        gt = pencil_segments(rng, vp_xy=(1800.0, 128.0), size=256, n=10, half_range=(8.0, 12.0))
        fp = render_fields(gt, 256, 256)
        pert = [perturb_segment(s, rng) for s in gt]
        params = RefineParams(lambda_vp=0.0)
        refined, vps, _ = refine_joint(pert, fp, params)
        assert len(vps) >= 1  # association ran; the weight alone disabled it
        manual = list(pert)
        for _ in range(params.k_alternations):
            for i in range(len(manual)):
                manual[i] = refine_line(manual[i], fp, None, params)
        for m, r in zip(manual, refined):
            assert m.p1 == r.p1 and m.p2 == r.p2

    def test_reassociation_uses_the_vp_gate(self) -> None:
        # The last round re-assigns with vp_params.t_vp: below it exactly the
        # assigned lines, and an unassigned line is at least that far from
        # every point.
        rng = np.random.default_rng(54)
        gt = pencil_segments(rng, vp_xy=(1800.0, 128.0), size=256, n=10, half_range=(8.0, 12.0))
        fp = render_fields(gt, 256, 256)
        pert = [perturb_segment(s, rng) for s in gt]
        vp_params = VpParams(t_vp=0.02, min_support=2)
        refined, vps, assignment = refine_joint(pert, fp, vp_params=vp_params)
        assert None in assignment and len(set(assignment) - {None}) >= 1
        for seg, j in zip(refined, assignment):
            if j is None:
                assert min(d_vp(seg, v) for v in vps) >= vp_params.t_vp
            else:
                assert d_vp(seg, vps[j]) < vp_params.t_vp

    def test_deterministic(self) -> None:
        rng = np.random.default_rng(53)
        gt = pencil_segments(rng, vp_xy=(-900.0, 50.0), size=256, n=8, half_range=(8.0, 12.0))
        fp = render_fields(gt, 256, 256)
        pert = [perturb_segment(s, rng) for s in gt]
        r1, v1, a1 = refine_joint(pert, fp)
        r2, v2, a2 = refine_joint(pert, fp)
        assert a1 == a2
        assert all(np.array_equal(x.v, y.v) for x, y in zip(v1, v2))
        assert all(x.p1 == y.p1 and x.p2 == y.p2 for x, y in zip(r1, r2))

    def test_empty_input(self) -> None:
        fp = make_fp()
        assert refine_joint([], fp) == ([], [], [])

    def test_single_line_refined_without_vps(self) -> None:
        fp = make_fp()
        off = LineSegment((20.5, 31.5), (80.5, 31.5))
        refined, vps, assignment = refine_joint([off], fp)
        assert len(refined) == 1
        assert vps == []
        assert assignment == [None]
        assert orthogonal_distance(refined[0], GT_SEG) < 0.1
