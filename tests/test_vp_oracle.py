"""fit_vps against a one-candidate-at-a-time reference.

``scalar_fit_vps`` is the plain candidate loop: every RANSAC pair becomes
a VanishingPoint through vp_from_two_lines and is scored alone. fit_vps
scores a round's candidates as one matrix but draws from the RNG in the
same order, so on any input the two must agree bit for bit: the same
models, in the same order, and the same assignment. The reference also
counts which branches a scene took, so each test can show it covered the
case it names.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from linefields import LineSegment, VanishingPoint, VpParams, fit_vps, refine_vp, vp_from_two_lines
from linefields.geometry import _d_vp_many

from util_synth import concurrent_lines


def scalar_fit_vps(lines, params, seen: Counter):
    n = len(lines)
    assignment = [None] * n
    models: list[VanishingPoint] = []
    if n < 2:
        return models, assignment
    mids = np.array([[seg.midpoint.x, seg.midpoint.y] for seg in lines])
    e1 = np.array([[seg.p1.x, seg.p1.y] for seg in lines])
    e2 = np.array([[seg.p2.x, seg.p2.y] for seg in lines])
    lengths = np.array([seg.length for seg in lines])
    rng = np.random.default_rng(params.seed)
    remaining = np.arange(n)

    while len(models) < params.max_models and len(remaining) >= params.min_support:
        best_vec = None
        best_len = 0.0
        sub_m, sub_e1, sub_e2 = mids[remaining], e1[remaining], e2[remaining]
        sub_len = lengths[remaining]
        for _ in range(params.ransac_iters):
            i, j = rng.choice(len(remaining), size=2, replace=False)
            try:
                cand = vp_from_two_lines(lines[remaining[i]], lines[remaining[j]])
            except ValueError:
                seen["same_line_pair"] += 1
                continue
            d = _d_vp_many(sub_m, sub_e1, sub_e2, cand.v)
            mask = d < params.t_vp
            if int(mask.sum()) < params.min_support:
                continue
            support_len = float(sub_len[mask].sum())
            if support_len > best_len:
                best_len = support_len
                best_vec = cand.v
        if best_vec is None:
            seen["round_below_min_support"] += 1
            break

        mask = _d_vp_many(sub_m, sub_e1, sub_e2, best_vec) < params.t_vp
        inlier_idx = remaining[mask]
        refined = refine_vp(VanishingPoint(best_vec), [lines[int(ix)] for ix in inlier_idx])
        ref_mask = _d_vp_many(sub_m, sub_e1, sub_e2, refined.v) < params.t_vp
        if int(ref_mask.sum()) >= params.min_support:
            chosen, chosen_mask = refined, ref_mask
        else:
            chosen, chosen_mask = VanishingPoint(best_vec), mask
        models.append(chosen)
        for ix in remaining[chosen_mask]:
            assignment[int(ix)] = len(models) - 1
        remaining = remaining[~chosen_mask]
    if len(models) == params.max_models and len(remaining) >= params.min_support:
        seen["max_models_cap"] += 1
    # Noise and refinement keep a parallel pencil's VP just off infinity.
    seen["far_model"] += sum(abs(float(m.v[2])) < 1e-3 for m in models)
    return models, assignment


def assert_same_fit(lines, params) -> Counter:
    seen: Counter = Counter()
    want_models, want_assignment = scalar_fit_vps(lines, params, seen)
    got_models, got_assignment = fit_vps(lines, params)
    assert got_assignment == want_assignment
    assert len(got_models) == len(want_models)
    for got, want in zip(got_models, want_models):
        assert np.array_equal(got.v, want.v)
    return seen


def three_pencil_scene(rng: np.random.Generator, noise: float = 0.5) -> list[LineSegment]:
    lines: list[LineSegment] = []
    for vp in ([-400.0, 140.0, 1.0], [650.0, 110.0, 1.0], [0.2, 1.0, 0.0]):
        lines += concurrent_lines(rng, np.array(vp), 10, noise=noise)
    for _ in range(6):
        m = rng.uniform(30.0, 226.0, 2)
        a = rng.uniform(0.0, math.pi)
        d = 15.0 * np.array([math.cos(a), math.sin(a)])
        lines.append(LineSegment(m - d, m + d))
    return lines


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_matches_reference_on_noisy_pencils(seed: int) -> None:
    lines = three_pencil_scene(np.random.default_rng(100 + seed))
    params = VpParams(seed=seed, ransac_iters=300)
    seen = assert_same_fit(lines, params)
    assert seen["far_model"] >= 1  # the third pencil is parallel


def test_matches_reference_with_same_line_pairs() -> None:
    rng = np.random.default_rng(7)
    lines = concurrent_lines(rng, np.array([500.0, 300.0, 1.0]), 6)
    # Collinear copies: any pair drawn from one supporting line is skipped.
    on_one_line = [
        LineSegment((20.0, 30.0), (60.0, 50.0)),
        LineSegment((100.0, 70.0), (140.0, 90.0)),
    ]
    lines += on_one_line * 3
    seen = assert_same_fit(lines, VpParams(seed=3, ransac_iters=200))
    assert seen["same_line_pair"] > 0


def test_matches_reference_when_a_round_finds_no_model() -> None:
    rng = np.random.default_rng(8)
    lines = concurrent_lines(rng, np.array([600.0, 128.0, 1.0]), 8)
    lines += [
        LineSegment((0.0, 0.0), (50.0, 10.0)),
        LineSegment((10.0, 60.0), (70.0, 50.0)),
        LineSegment((80.0, 0.0), (90.0, 40.0)),
        LineSegment((120.0, 200.0), (180.0, 150.0)),
        LineSegment((30.0, 230.0), (35.0, 170.0)),
        LineSegment((200.0, 20.0), (240.0, 90.0)),
    ]
    seen = assert_same_fit(lines, VpParams(seed=5, ransac_iters=150))
    assert seen["round_below_min_support"] == 1


def test_matches_reference_at_the_model_cap() -> None:
    lines = three_pencil_scene(np.random.default_rng(9), noise=0.0)
    seen = assert_same_fit(lines, VpParams(seed=2, max_models=2, ransac_iters=250))
    assert seen["max_models_cap"] == 1


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_matches_reference_on_a_parallel_pencil(noise: float) -> None:
    rng = np.random.default_rng(10)
    lines = concurrent_lines(rng, np.array([1.0, 0.05, 0.0]), 12, noise=noise)
    seen = assert_same_fit(lines, VpParams(seed=11, ransac_iters=120))
    assert seen["far_model"] == 1


def test_matches_reference_when_scored_in_many_chunks(monkeypatch: pytest.MonkeyPatch) -> None:
    lines = three_pencil_scene(np.random.default_rng(12))
    # About two candidates per chunk: chunk edges must not change the winner.
    monkeypatch.setattr("linefields.vp._SCORE_ELEMENTS", 2 * len(lines))
    assert_same_fit(lines, VpParams(seed=6, ransac_iters=100))
