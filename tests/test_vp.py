"""Unit tests for vanishing point fitting and refinement."""

from __future__ import annotations

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefields import (
    LineSegment,
    VanishingPoint,
    d_vp,
    fit_vps,
    refine_vp,
    vp_from_two_lines,
)

from linefields import vp as vp_module

from util_synth import concurrent_lines, traced_peak


def scale_about_midpoint(seg: LineSegment, s: float) -> LineSegment:
    mx, my = seg.midpoint
    return LineSegment(
        (mx + s * (seg.p1.x - mx), my + s * (seg.p1.y - my)),
        (mx + s * (seg.p2.x - mx), my + s * (seg.p2.y - my)),
    )


class TestVanishingPoint:
    def test_normalized_to_unit_norm(self) -> None:
        v = VanishingPoint(np.array([3.0, 4.0, 0.0]))
        assert np.allclose(v.v, [0.6, 0.8, 0.0])
        assert math.isclose(float(np.linalg.norm(v.v)), 1.0, abs_tol=1e-12)

    def test_sign_canonicalized_on_last_nonzero(self) -> None:
        v = VanishingPoint(np.array([0.0, 0.0, -2.0]))
        assert np.allclose(v.v, [0.0, 0.0, 1.0])

    def test_opposite_directions_compare_equal(self) -> None:
        a = VanishingPoint(np.array([-3.0, 4.0, 0.0]))
        b = VanishingPoint(np.array([3.0, -4.0, 0.0]))
        assert np.allclose(a.v, b.v)

    def test_construction_idempotent_bitwise(self) -> None:
        v = VanishingPoint(np.array([17.0, -5.0, 1.0]))
        again = VanishingPoint(v.v)
        assert np.array_equal(again.v, v.v)

    def test_huge_entries_scale_before_normalizing(self) -> None:
        # The squared norm of [1e300, 1e300, 1] overflows; dividing by it
        # stored the zero vector.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = VanishingPoint(np.array([1e300, 1e300, 1.0]))
        assert np.allclose(v.v[:2], [math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-15, atol=0.0)
        assert 0.0 < v.v[2] < 1e-299
        assert math.isclose(float(np.linalg.norm(v.v)), 1.0, abs_tol=1e-15)
        assert np.array_equal(VanishingPoint(v.v).v, v.v)
        assert np.array_equal(VanishingPoint(np.array([-1e308, 0.0, 0.0])).v, [1.0, 0.0, 0.0])

    def test_tiny_entries_scale_before_the_zero_test(self) -> None:
        # An absolute norm test rejected the point (1, 0) and the direction
        # (3, 4) given with entries this small.
        point = VanishingPoint(np.array([1e-13, 0.0, 1e-13]))
        assert np.array_equal(point.v, VanishingPoint(np.array([1.0, 0.0, 1.0])).v)
        v = VanishingPoint(np.array([3e-13, 4e-13, 0.0]))
        assert np.allclose(v.v, [0.6, 0.8, 0.0], rtol=1e-15, atol=0.0)
        assert np.array_equal(VanishingPoint(np.array([0.0, -5e-324, 0.0])).v, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="nonzero"):
            VanishingPoint(np.array([0.0, -0.0, 0.0]))

    def test_rejects_zero_vector(self) -> None:
        with pytest.raises(ValueError):
            VanishingPoint(np.zeros(3))

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError):
            VanishingPoint(np.array([1.0, math.nan, 0.0]))

    def test_rejects_wrong_shape(self) -> None:
        with pytest.raises(ValueError):
            VanishingPoint(np.array([1.0, 2.0]))

    def test_is_ideal(self) -> None:
        assert VanishingPoint(np.array([1.0, 2.0, 0.0])).is_ideal()
        assert not VanishingPoint(np.array([100.0, 0.0, 1.0])).is_ideal()
        near = VanishingPoint(np.array([1.0, 0.0, 1e-9]))
        assert not near.is_ideal()
        assert near.is_ideal(eps=1e-6)

    def test_array_read_only(self) -> None:
        v = VanishingPoint(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            v.v[0] = 2.0


class TestVpParams:
    """fit_vps' fixed settings and its one keyword, the seed."""

    def test_defaults(self) -> None:
        fixed = (vp_module._T_VP, vp_module._MIN_SUPPORT, vp_module._MAX_MODELS, vp_module._RANSAC_ITERS)
        assert fixed == (1.5, 5, 8, 1000)
        assert inspect.signature(fit_vps).parameters["seed"].default == 0

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize("name", ["seed"])
    def test_rejects_non_integer_counts(self, name: str, value: object) -> None:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            fit_vps([], **{name: value})

    def test_rejects_negative_seed(self) -> None:
        with pytest.raises(ValueError, match="seed must be at least 0"):
            fit_vps([], seed=-1)

    def test_accepts_numpy_integers(self) -> None:
        lines = concurrent_lines(np.random.default_rng(40), np.array([600.0, 128.0, 1.0]), 8)
        models, assignment = fit_vps(lines, seed=np.int64(3))
        want_models, want_assignment = fit_vps(lines, seed=3)
        assert assignment == want_assignment and len(models) == len(want_models) == 1
        assert models[0].v.tobytes() == want_models[0].v.tobytes()


class TestVpFromTwoLines:
    def test_euclidean_intersection(self) -> None:
        # y = 0 meets the line through (0, 10) and (10, 11) at x = -100.
        v = vp_from_two_lines(
            LineSegment((0.0, 0.0), (10.0, 0.0)),
            LineSegment((0.0, 10.0), (10.0, 11.0)),
        )
        assert not v.is_ideal()
        assert np.allclose(v.v / v.v[2], [-100.0, 0.0, 1.0])

    def test_parallel_lines_meet_at_ideal_point(self) -> None:
        v = vp_from_two_lines(
            LineSegment((0.0, 0.0), (10.0, 0.0)),
            LineSegment((0.0, 1.0), (10.0, 1.0)),
        )
        assert v.is_ideal()
        assert np.allclose(v.v, [1.0, 0.0, 0.0])

    def test_intersection_lies_on_both_lines(self) -> None:
        rng = np.random.default_rng(42)
        for _ in range(20):
            pts = rng.uniform(-50.0, 50.0, (4, 2))
            try:
                a = LineSegment(tuple(pts[0]), tuple(pts[1]))
                b = LineSegment(tuple(pts[2]), tuple(pts[3]))
                v = vp_from_two_lines(a, b)
            except ValueError:
                continue
            assert abs(float(a.homogeneous_line() @ v.v)) < 1e-9
            assert abs(float(b.homogeneous_line() @ v.v)) < 1e-9

    def test_identical_lines_rejected(self) -> None:
        seg = LineSegment((0.0, 0.0), (10.0, 5.0))
        with pytest.raises(ValueError):
            vp_from_two_lines(seg, seg)
        with pytest.raises(ValueError):
            vp_from_two_lines(seg, seg.reversed())


class TestRefineVp:
    def test_exact_intersection_is_fixed_point(self) -> None:
        rng = np.random.default_rng(40)
        lines = concurrent_lines(rng, np.array([500.0, 300.0, 1.0]), 10)
        v = VanishingPoint(np.array([500.0, 300.0, 1.0]))
        out, cost, converged = refine_vp(v, lines, full_output=True)
        assert converged
        assert cost < 1e-12
        assert np.allclose(out.v, v.v, atol=1e-12)

    def test_five_pixel_perturbation_recovers_intersection(self) -> None:
        rng = np.random.default_rng(40)
        lines = concurrent_lines(rng, np.array([500.0, 300.0, 1.0]), 10)
        start = VanishingPoint(np.array([503.0, 296.0, 1.0]))
        out = refine_vp(start, lines)
        euc = out.v[:2] / out.v[2]
        assert math.hypot(euc[0] - 500.0, euc[1] - 300.0) < 1e-6

    def test_parallel_inliers_converge_to_ideal_point(self) -> None:
        par = [
            LineSegment((0.0, 0.0), (10.0, 0.0)),
            LineSegment((0.0, 1.0), (10.0, 1.0)),
        ]
        start = VanishingPoint(np.array([1.0, 0.001, 0.0005]))
        out = refine_vp(start, par)
        assert abs(abs(out.v[0]) - 1.0) < 1e-6
        assert abs(out.v[1]) < 1e-6
        assert abs(out.v[2]) < 1e-6

    def test_invariant_to_uniform_length_scaling(self) -> None:
        rng = np.random.default_rng(43)
        noisy = concurrent_lines(rng, np.array([500.0, 300.0, 1.0]), 8, noise=0.5)
        start = VanishingPoint(np.array([495.0, 305.0, 1.0]))
        a = refine_vp(start, noisy)
        b = refine_vp(start, [scale_about_midpoint(s, 2.0) for s in noisy])
        assert float(np.linalg.norm(a.v - b.v)) < 1e-9

    def test_cost_never_increases(self) -> None:
        rng = np.random.default_rng(44)
        noisy = concurrent_lines(rng, np.array([-200.0, 80.0, 1.0]), 12, noise=1.0)
        start = VanishingPoint(np.array([-195.0, 84.0, 1.0]))
        initial = sum(s.length * d_vp(s, start) ** 2 for s in noisy)
        _, cost, _ = refine_vp(start, noisy, full_output=True)
        assert cost <= initial

    def test_degenerate_start_returned_unconverged(self) -> None:
        # A vanishing point on a segment midpoint makes d_vp undefined.
        seg = LineSegment((0.0, 0.0), (10.0, 0.0))
        other = LineSegment((0.0, 5.0), (10.0, 6.0))
        start = VanishingPoint(np.array([5.0, 0.0, 1.0]))
        out, cost, converged = refine_vp(start, [seg, other], full_output=True)
        assert math.isinf(cost)
        assert not converged
        assert np.array_equal(out.v, start.v)

    def test_narrow_valley_converges_well_under_the_iteration_cap(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # A 5-line model of the vp_refine pool of seed 119: its JᵀJ had
        # eigenvalues near 1e5 and 1e16, and with central-difference probes
        # it zig-zagged for all 100 iterations, ending unconverged at a cost
        # of 104.0003. The closed-form Jacobian reaches 90.47 in 14.
        rows = [
            (202.67313984985898, 15.596621158573425, 186.76004876272808, 33.656052223315555),
            (78.16920881428878, 128.22459420260236, 111.74554869338665, 136.91866122273126),
            (64.49933597598232, 207.1539012529506, 50.323185912977216, 240.16397541392072),
            (210.1465157466627, 178.48343538944698, 241.48148970219242, 187.52130293918793),
            (22.465509510808914, 65.51189017749675, 47.25402497940273, 86.10094985571254),
        ]
        lines = [LineSegment(r[:2], r[2:]) for r in rows]
        start = VanishingPoint(np.array([0.5822762613001531, 0.8129678650740538, 0.006132363594134659]))
        ladders = []
        real = vp_module._damping_ladder
        monkeypatch.setattr(vp_module, "_damping_ladder", lambda *a: ladders.append(1) or real(*a))
        _, cost, converged = refine_vp(start, lines, full_output=True)
        assert converged and len(ladders) <= vp_module._VP_MAX_ITER // 4
        assert cost < 100.0

    def test_needs_two_inliers(self) -> None:
        with pytest.raises(ValueError):
            refine_vp(
                VanishingPoint(np.array([0.0, 0.0, 1.0])),
                [LineSegment((0.0, 0.0), (10.0, 0.0))],
            )


class TestFitVps:
    def test_single_pencil_with_outliers(self) -> None:
        rng = np.random.default_rng(40)
        lines = concurrent_lines(rng, np.array([500.0, 300.0, 1.0]), 10)
        outliers = [
            LineSegment((10.0, 200.0), (60.0, 198.0)),
            LineSegment((150.0, 30.0), (152.0, 90.0)),
            LineSegment((30.0, 40.0), (80.0, 95.0)),
        ]
        models, assignment = fit_vps(lines + outliers)
        assert len(models) == 1
        assert assignment[:10] == [0] * 10
        assert assignment[10:] == [None, None, None]
        assert max(d_vp(seg, models[0]) for seg in lines) < 1e-6

    def test_two_pencils_partitioned(self) -> None:
        rng = np.random.default_rng(41)
        a = concurrent_lines(rng, np.array([600.0, 128.0, 1.0]), 10)
        b = concurrent_lines(rng, np.array([128.0, -500.0, 1.0]), 10)
        models, assignment = fit_vps(a + b)
        assert len(models) == 2
        first = set(assignment[:10])
        second = set(assignment[10:])
        assert len(first) == 1 and len(second) == 1
        assert first != second
        eucs = sorted(tuple(m.v[:2] / m.v[2]) for m in models)
        assert np.allclose(eucs[0], (128.0, -500.0), atol=1e-6)
        assert np.allclose(eucs[1], (600.0, 128.0), atol=1e-6)

    def test_skew_lines_yield_nothing(self) -> None:
        skew = [
            LineSegment((0.0, 0.0), (50.0, 10.0)),
            LineSegment((10.0, 60.0), (70.0, 50.0)),
            LineSegment((80.0, 0.0), (90.0, 40.0)),
        ]
        models, assignment = fit_vps(skew)
        assert models == []
        assert assignment == [None, None, None]

    def test_fewer_than_two_lines(self) -> None:
        assert fit_vps([]) == ([], [])
        seg = LineSegment((0.0, 0.0), (10.0, 0.0))
        assert fit_vps([seg]) == ([], [None])

    def test_assigned_lines_respect_threshold(self) -> None:
        rng = np.random.default_rng(45)
        lines = concurrent_lines(rng, np.array([600.0, 128.0, 1.0]), 8, noise=1.0)
        lines += concurrent_lines(rng, np.array([128.0, 900.0, 1.0]), 8, noise=1.0)
        models, assignment = fit_vps(lines)
        assert any(idx is not None for idx in assignment)
        for seg, idx in zip(lines, assignment):
            if idx is not None:
                assert d_vp(seg, models[idx]) < vp_module._T_VP

    def test_deterministic(self) -> None:
        rng = np.random.default_rng(41)
        lines = concurrent_lines(rng, np.array([600.0, 128.0, 1.0]), 10)
        lines += concurrent_lines(rng, np.array([128.0, -500.0, 1.0]), 10)
        m1, a1 = fit_vps(lines)
        m2, a2 = fit_vps(lines)
        assert a1 == a2
        assert all(np.array_equal(x.v, y.v) for x, y in zip(m1, m2))

    def test_permutation_invariant_up_to_model_order(self) -> None:
        rng = np.random.default_rng(41)
        lines = concurrent_lines(rng, np.array([600.0, 128.0, 1.0]), 10)
        lines += concurrent_lines(rng, np.array([128.0, -500.0, 1.0]), 10)
        lines += [
            LineSegment((10.0, 200.0), (60.0, 198.0)),
            LineSegment((30.0, 40.0), (80.0, 95.0)),
        ]
        m1, _ = fit_vps(lines)
        order = np.random.default_rng(5).permutation(len(lines))
        m2, _ = fit_vps([lines[i] for i in order])
        assert len(m1) == len(m2)
        for x in m1:
            closest = min(
                min(
                    float(np.linalg.norm(x.v - y.v)),
                    float(np.linalg.norm(x.v + y.v)),
                )
                for y in m2
            )
            assert closest < 1e-6

    def test_refinement_that_loses_support_keeps_the_candidate(self, monkeypatch) -> None:
        """The candidate is where lines 0 and 3 meet; the other three lie
        0.5-1.4 px (d_vp) from it. The length-weighted refinement pushes
        one of them past t_vp, leaving 4 of the 5 lines required, so
        fit_vps keeps the unrefined two-line candidate and all 5 of its
        inliers."""
        lines = [
            LineSegment((89.4, 98.7), (35.7, 91.9)),
            LineSegment((69.7, 115.0), (37.8, 130.8)),
            LineSegment((120.1, 107.5), (153.7, 116.3)),
            LineSegment((113.9, 131.4), (158.1, 251.8)),
            LineSegment((134.5, 86.6), (260.6, 41.2)),
        ]
        monkeypatch.setattr(vp_module, "_MAX_MODELS", 1)
        monkeypatch.setattr(vp_module, "_RANSAC_ITERS", 200)
        models, assignment = fit_vps(lines)
        assert len(models) == 1
        assert assignment == [0] * 5
        pair_vps = [vp_from_two_lines(a, b) for i, a in enumerate(lines) for b in lines[i + 1 :]]
        assert any(np.array_equal(models[0].v, v.v) for v in pair_vps)
        refined = refine_vp(models[0], lines)
        assert sum(d_vp(seg, refined) < vp_module._T_VP for seg in lines) == 4
        assert all(d_vp(seg, models[0]) < vp_module._T_VP for seg in lines)

    def test_max_models_caps_output(self, monkeypatch) -> None:
        rng = np.random.default_rng(46)
        lines: list[LineSegment] = []
        for k in range(3):
            vp = np.array([400.0 * math.cos(k * 2.1), 400.0 * math.sin(k * 2.1), 1.0])
            lines += concurrent_lines(rng, vp, 8)
        monkeypatch.setattr(vp_module, "_MAX_MODELS", 1)
        models, assignment = fit_vps(lines)
        assert len(models) == 1
        assert all(idx in (0, None) for idx in assignment)

    def test_memory_does_not_grow_with_ransac_iters(self, monkeypatch) -> None:
        # Drawn, crossed and scored in chunks: 300k candidates used to hold
        # about 87 MB of pair and cross-product arrays at once.
        rng = np.random.default_rng(47)
        mids = rng.uniform(20.0, 236.0, (30, 2))
        angles = rng.uniform(0.0, math.pi, 30)
        halves = 20.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        lines = [LineSegment(tuple(m - h), tuple(m + h)) for m, h in zip(mids, halves)]
        monkeypatch.setattr(vp_module, "_RANSAC_ITERS", 300_000)
        monkeypatch.setattr(vp_module, "_MAX_MODELS", 1)
        _, peak = traced_peak(fit_vps, lines)
        assert peak < 16e6


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pencils=st.lists(st.tuples(st.integers(2, 10), st.booleans()), max_size=3),
    clutter=st.integers(0, 8),
    noise=st.sampled_from([0.0, 0.5, 2.0]),
    min_support=st.integers(2, 6),
    max_models=st.integers(1, 4),
    ransac_iters=st.integers(1, 300),
    t_vp=st.sampled_from([0.5, 1.5, 3.0]),
)
def test_fit_vps_invariants(
    seed: int,
    pencils: list[tuple[int, bool]],
    clutter: int,
    noise: float,
    min_support: int,
    max_models: int,
    ransac_iters: int,
    t_vp: float,
) -> None:
    rng = np.random.default_rng(seed)
    lines: list[LineSegment] = []
    for count, at_infinity in pencils:
        if at_infinity:
            a = rng.uniform(0.0, math.pi)
            vp = np.array([math.cos(a), math.sin(a), 0.0])
        else:
            vp = np.array([*rng.uniform(-600.0, 850.0, 2), 1.0])
        lines += concurrent_lines(rng, vp, count, noise=noise)
    for _ in range(clutter):
        m = rng.uniform(20.0, 236.0, 2)
        a = rng.uniform(0.0, math.pi)
        h = rng.uniform(5.0, 40.0) * np.array([math.cos(a), math.sin(a)])
        lines.append(LineSegment(tuple(m - h), tuple(m + h)))
    # A function-scoped monkeypatch fixture fails hypothesis' health check.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(vp_module, "_T_VP", t_vp)
        m.setattr(vp_module, "_MIN_SUPPORT", min_support)
        m.setattr(vp_module, "_MAX_MODELS", max_models)
        m.setattr(vp_module, "_RANSAC_ITERS", ransac_iters)
        models, assignment = fit_vps(lines, seed=seed)
        again_models, again_assignment = fit_vps(lines, seed=seed)

    assert len(assignment) == len(lines)
    assert len(models) <= max_models
    for k in range(len(models)):
        assert assignment.count(k) >= min_support
    for seg, idx in zip(lines, assignment):
        if idx is not None:
            assert d_vp(seg, models[idx]) < t_vp
    assert again_assignment == assignment
    assert len(again_models) == len(models)
    assert all(np.array_equal(x.v, y.v) for x, y in zip(again_models, models))
