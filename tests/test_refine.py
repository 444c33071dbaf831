"""Unit tests for line cost evaluation and refinement."""

from __future__ import annotations

import dataclasses
import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linefields import (
    LineSegment,
    RefineParams,
    VanishingPoint,
    circular_distance,
    d_vp,
    orthogonal_distance,
    refine_joint,
    refine_line,
    render_fields,
)
from linefields import refine, vp
from linefields.geometry import _rows, _segments
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
        assert [f.name for f in dataclasses.fields(RefineParams)] == ["lambda_vp"]
        assert RefineParams().lambda_vp == 0.2
        fixed = (refine._LAMBDA_DF, refine._LAMBDA_AF, refine._N_OPT, refine._K_ALTERNATIONS,
                 refine._MAX_LATERAL_STEP, refine._FD_STEP, refine._MAX_ITER, refine._TOL)
        assert fixed == (1.0, 1.0, 10, 8, 5.0, 0.05, 50, 1e-6)
        assert refine._TS.tolist() == np.linspace(0.0, 1.0, 10).tolist()
        assert not refine._TS.flags.writeable

    def test_t_vp_lives_in_vp_params(self) -> None:
        # One association gate among the VP settings: fit_vps and refine_joint
        # both read vp._T_VP.
        assert not hasattr(RefineParams(), "t_vp")
        assert vp._T_VP == 1.5
        with pytest.raises(TypeError):
            RefineParams(t_vp=1.5)

    def test_rejects_negative_weights(self) -> None:
        with pytest.raises(ValueError, match="lambda_vp must be finite and non-negative"):
            RefineParams(lambda_vp=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["lambda_vp"])
    def test_rejects_non_finite(self, name: str, value: float) -> None:
        # NaN passes every range check (comparisons with it are False).
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RefineParams(**{name: value})


class TestLineCost:
    def test_zero_on_the_generating_line(self) -> None:
        fp = make_fp()
        assert line_cost(GT_SEG, fp) == 0.0

    def test_unit_offset_costs_unit_distance(self) -> None:
        fp = make_fp()
        off = LineSegment((20.5, 31.5), (80.5, 31.5))
        assert math.isclose(line_cost(off, fp), 1.0, abs_tol=1e-12)

    def test_rotation_costs_one_minus_cosine(self, monkeypatch) -> None:
        fp = make_fp()
        a = math.radians(10.0)
        rot = LineSegment(
            (50.5 - 30.0 * math.cos(a), 30.5 - 30.0 * math.sin(a)),
            (50.5 + 30.0 * math.cos(a), 30.5 + 30.0 * math.sin(a)),
        )
        monkeypatch.setattr(refine, "_LAMBDA_DF", 0.0)
        got = line_cost(rot, fp)
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
    def test_lands_on_the_df_kink_in_few_iterations(self, monkeypatch, shift, turn, max_iter) -> None:
        # Near the line DF is V-shaped and central differences see half its
        # slope, so plain Newton steps would only halve the distance.
        c, s = 30.0 * math.cos(turn), 30.0 * math.sin(turn)
        seg = LineSegment((50.5 - c, 30.5 + shift - s), (50.5 + c, 30.5 + shift + s))
        monkeypatch.setattr(refine, "_MAX_ITER", max_iter)
        out, _, converged = refine_line(seg, make_fp(), full_output=True)
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
        def short():
            with monkeypatch.context() as m:
                m.setattr(refine, "_MAX_ITER", 7)
                return refine_line(seg, make_fp(), v, full_output=True)

        _, cost, converged = short()
        assert converged
        _, long_cost, _ = refine_line(seg, make_fp(), v, full_output=True)
        assert long_cost == cost
        monkeypatch.setattr("linefields.refine._GAIN_GATE", 1e-14)
        _, ungated_cost, ungated = short()
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

    def test_zero_vp_weight_matches_sequential_line_refinement(self, monkeypatch) -> None:
        # Each round takes one line iteration: refine_line with _MAX_ITER 1.
        rng = np.random.default_rng(51)
        gt = pencil_segments(rng, vp_xy=(1800.0, 128.0), size=256, n=10, half_range=(8.0, 12.0))
        fp = render_fields(gt, 256, 256)
        pert = [perturb_segment(s, rng) for s in gt]
        params = RefineParams(lambda_vp=0.0)
        refined, vps, _ = refine_joint(pert, fp, params)
        assert len(vps) >= 1  # association ran; the weight alone disabled it
        monkeypatch.setattr(refine, "_MAX_ITER", 1)
        manual = list(pert)
        for _ in range(refine._K_ALTERNATIONS):
            for i in range(len(manual)):
                manual[i] = refine_line(manual[i], fp, None, params)
        for m, r in zip(manual, refined):
            assert m.p1 == r.p1 and m.p2 == r.p2

    def test_zero_vp_weight_with_an_unassigned_line_is_silent(self) -> None:
        # The line without a VP carries the zero vector, whose d_vp is +inf;
        # a zero weight must not form 0 * inf (a RuntimeWarning). At weight 0
        # the VP line refines as if it had no VP.
        segs = [LineSegment((20.0, 20.5), (60.0, 22.5)), LineSegment((30.5, 40.0), (32.5, 60.0))]
        fp = render_fields([GT_SEG, *segs], 100, 64)
        rows = _rows([LineSegment((21.0, 21.5), (61.0, 22.0)), LineSegment((31.5, 40.0), (32.0, 60.0))])
        params = RefineParams(lambda_vp=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = refine._refine_lines(rows, fp, [VanishingPoint([1.0, 0.05, 0.0]), None], params)
        want = refine._refine_lines(rows, fp, [None, None], params)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("lambda_vp", [0.0, 0.2])
    def test_vp_on_the_midpoint_gives_no_vp_term(self, monkeypatch, lambda_vp) -> None:
        # The line joining a VP to the midpoint it sits on is undefined, so
        # d_vp is +inf: the line refines as one without a VP (no 0 * inf at
        # weight 0, no +inf cost at 0.2), and fit_vps and re-association
        # leave it unassigned.
        monkeypatch.setattr(vp, "_MIN_SUPPORT", 2)
        h = LineSegment((20.5, 30.5), (60.5, 30.5))
        scene = [h, LineSegment((40.5, 40.5), (40.5, 58.5)), LineSegment((70.5, 30.5), (90.5, 30.5))]
        fp = render_fields(scene, 100, 64)
        params = RefineParams(lambda_vp=lambda_vp)
        rows = _rows([LineSegment((20.5, 31.0), (60.5, 30.0))])  # h turned about its midpoint
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            models, assignment = vp.fit_vps(scene)
            got = refine._refine_lines(rows, fp, models, params)
            joint = refine_joint(scene, fp, params)
        assert len(models) == 1 and assignment == [None, 0, 0] and d_vp(h, models[0]) == math.inf
        want = refine._refine_lines(rows, fp, [None], params)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert np.isfinite(got[1][0]) and got[2][0]
        assert orthogonal_distance(_segments(got[0])[0], h) < 0.1
        assert joint[2] == [None, 0, 0] and d_vp(joint[0][0], joint[1][0]) == math.inf

    def test_reassociation_uses_the_vp_gate(self, monkeypatch) -> None:
        # The last round re-assigns with vp._T_VP: below it exactly the
        # assigned lines, and an unassigned line is at least that far from
        # every point.
        rng = np.random.default_rng(54)
        gt = pencil_segments(rng, vp_xy=(1800.0, 128.0), size=256, n=10, half_range=(8.0, 12.0))
        fp = render_fields(gt, 256, 256)
        pert = [perturb_segment(s, rng) for s in gt]
        monkeypatch.setattr(vp, "_T_VP", 0.02)
        monkeypatch.setattr(vp, "_MIN_SUPPORT", 2)
        refined, vps, assignment = refine_joint(pert, fp)
        assert None in assignment and len(set(assignment) - {None}) >= 1
        for seg, j in zip(refined, assignment):
            if j is None:
                assert min(d_vp(seg, v) for v in vps) >= 0.02
            else:
                assert d_vp(seg, vps[j]) < 0.02

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


# A pencil through a finite VP, for the single-iteration properties below.
STEP_GT = pencil_segments(np.random.default_rng(71), vp_xy=(300.0, 40.0), size=128, n=6,
                          half_range=(10.0, 16.0))
STEP_FP = render_fields(STEP_GT, 128, 128)


def step_vp(seg: LineSegment, kind: str) -> VanishingPoint | None:
    """No VP, one 600 px off along the line ("near") or 0.5 rad off it ("far"), or its midpoint."""
    if kind == "none":
        return None
    mx, my = seg.midpoint
    if kind == "midpoint":
        return VanishingPoint([mx, my, 1.0])
    a = seg.oriented_angle + (0.0 if kind == "near" else 0.5)
    return VanishingPoint([mx + 600.0 * math.cos(a), my + 600.0 * math.sin(a), 1.0])


class TestSingleIteration:
    """refine_joint takes one line iteration per round (the VP side is
    test_vp_oracle.py::test_one_iteration_keeps_the_invariants)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["none", "near", "far", "midpoint"]), min_size=1, max_size=6),
        lambda_vp=st.sampled_from([0.0, 0.2]),
    )
    @example(seed=0, kinds=["midpoint", "near"], lambda_vp=0.0)
    @example(seed=0, kinds=["midpoint", "far"], lambda_vp=0.2)
    def test_one_line_iteration_keeps_the_invariants(self, seed, kinds, lambda_vp) -> None:
        # No cost rises, lengths are kept, rows stay finite, a line still
        # moving is not flagged converged, and a line whose VP sits on its
        # midpoint steps as one without a VP; no warning on the way.
        rng = np.random.default_rng(seed)
        lines = [perturb_segment(STEP_GT[int(rng.integers(len(STEP_GT)))], rng) for _ in kinds]
        vps = [step_vp(l, k) for l, k in zip(lines, kinds)]
        rows, params = _rows(lines), RefineParams(lambda_vp=lambda_vp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, start, _ = refine._refine_lines(rows, STEP_FP, vps, params, max_iter=0)
            out, cost, converged = refine._refine_lines(rows, STEP_FP, vps, params, max_iter=1)
            bare = refine._refine_lines(rows, STEP_FP, [None] * len(rows), params, max_iter=1)
        assert np.isfinite(start).all() and np.isfinite(out).all()
        assert (cost <= start).all()
        lengths = np.hypot(*(rows[:, 2:] - rows[:, :2]).T)
        assert np.allclose(np.hypot(*(out[:, 2:] - out[:, :2]).T), lengths, rtol=1e-12, atol=0.0)
        moved = np.abs(out - rows).max(axis=1)
        gaining = start - cost >= refine._GAIN_GATE * np.maximum(cost, 1.0)
        assert not (converged & (moved > 2.0 * refine._TOL) & gaining).any()
        mid = np.array([k == "midpoint" for k in kinds])
        assert out[mid].tobytes() == bare[0][mid].tobytes()
        assert cost[mid].tobytes() == bare[1][mid].tobytes()
