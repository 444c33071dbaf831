"""fit_vps against a one-candidate-at-a-time reference.

``scalar_fit_vps`` is the plain candidate loop: every RANSAC pair becomes
a VanishingPoint through vp_from_two_lines and is scored alone. fit_vps
scores a round's candidates as one matrix but draws from the RNG in the
same order, so on any input the two must agree bit for bit: the same
models, in the same order, and the same assignment. The reference draws
one pair per iteration through ``_draws(rng, m, 2, 1)``; fit_vps draws a
chunk of pairs per call and scores only a pair's first draw in a round
(a repeat, in either order, has the same d_vp bits and cannot win a
strict comparison). The reference also counts which branches a scene
took, so each test can show it covered the case it names. The sampler
itself is checked for distinct in-range rows, for blocks that continue
one stream, and for seeded reruns; no module of the package may call
numpy's ``choice``.

``_inlier_matrix`` scores candidates by one matrix product and re-scores
only the entries near the gate; on lines planted within a few ulp of
t_vp (finite, ideal and degenerate VPs, coordinates near 1e6) its masks
must be the bits of the ``_d_vp_many < t_vp`` scan, with the re-scoring
band entered, and ``_best_candidate`` must pick the winner of
``frozen_best_candidate``, a full strict-> scan.

``oracle_refine_vp`` is refine_vp without the damping ladder it shares
with line refinement: per iteration one solve per damping level, in
order, and one trial vector and cost per row (the doubled level-0 step,
then each level), keeping the lowest cost below the start seen so far,
the first on ties. Its Jacobian is written out from the joining line
m x v with np.cross, per model. refine_vp scores all rows as one stack,
and must return the same VP bits, cost bits and convergence flag.

``_refine_vps`` refines many models in one batch (refine_vp is its
one-model call): each model of a ragged batch must come out as
``oracle_refine_vp`` on it alone, and refine_joint, which runs the batch
once per round, as a frozen loop of one refine_vp call per model.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linefields import (
    LineSegment,
    RefineParams,
    VanishingPoint,
    VpParams,
    fit_vps,
    refine_joint,
    refine_vp,
    render_fields,
    vp_from_two_lines,
)
from linefields import vp as vp_module
from linefields.geometry import _d_vp_many, _homogeneous_lines, _line_arrays, _rows, _segments
from linefields.refine import _refine_lines
from linefields.vp import _best_candidate, _draws, _inlier_matrix, _refine_vps, _score_columns, _tangent_basis

from util_synth import concurrent_lines, pencil_segments, perturb_segment


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
        seen["two_line_round"] += len(remaining) == 2
        best_vec = None
        best_len = 0.0
        sub_m, sub_e1, sub_e2 = mids[remaining], e1[remaining], e2[remaining]
        sub_len = lengths[remaining]
        for _ in range(params.ransac_iters):
            i, j = _draws(rng, len(remaining), 2, 1)[0]
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


@pytest.mark.parametrize("chunk_rows", [None, 40])
def test_matches_reference_when_most_draws_repeat(monkeypatch, chunk_rows) -> None:
    # 8 lines have 28 pairs, so almost all of 5000 draws repeat one; with
    # 40 rows per chunk, repeats span chunks and later chunks hold none new.
    rng = np.random.default_rng(14)
    lines = concurrent_lines(rng, np.array([500.0, 300.0, 1.0]), 6, noise=0.3)
    lines += [LineSegment((10.0, 200.0), (40.0, 240.0)), LineSegment((200.0, 20.0), (150.0, 60.0))]
    if chunk_rows:
        monkeypatch.setattr("linefields.vp._SCORE_ELEMENTS", chunk_rows * len(lines))
    draws = _draws(np.random.default_rng(1), len(lines), 2, 5000)
    assert len(np.unique(np.sort(draws, axis=1), axis=0)) == 28
    assert_same_fit(lines, VpParams(seed=1, ransac_iters=5000))


def test_matches_reference_when_the_last_round_has_two_lines() -> None:
    # A pencil takes all but two lines; the two left form a model of their
    # own, and every draw from two lines is the pair (0, 1).
    rng = np.random.default_rng(13)
    lines = concurrent_lines(rng, np.array([500.0, 300.0, 1.0]), 8, half_range=(40.0, 60.0))
    lines += [LineSegment((10.0, 200.0), (40.0, 240.0)), LineSegment((200.0, 20.0), (150.0, 60.0))]
    seen = assert_same_fit(lines, VpParams(seed=4, min_support=2, ransac_iters=50))
    assert seen["two_line_round"] == 1
    models, assignment = fit_vps(lines, VpParams(seed=4, min_support=2, ransac_iters=50))
    assert len(models) == 2
    assert assignment[-2:] == [1, 1]


def assert_distinct_in_range(rows: np.ndarray, m: int, k: int, iters: int) -> None:
    assert rows.shape == (iters, k) and rows.dtype == np.intp
    assert ((rows >= 0) & (rows < m)).all()
    ordered = np.sort(rows, axis=1)
    assert (ordered[:, 1:] != ordered[:, :-1]).all()


@settings(max_examples=200, deadline=None)
@given(
    k=st.sampled_from([2, 4]),
    extra=st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 5)),
    iters=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=2, extra=0, iters=50, seed=0)
@example(k=4, extra=2**32 - 5, iters=50, seed=0)
def test_draws_are_distinct_ints_in_range(k: int, extra: int, iters: int, seed: int) -> None:
    m = k + extra
    assert_distinct_in_range(_draws(np.random.default_rng(seed), m, k, iters), m, k, iters)


def one_draw_per_iteration(rng: np.random.Generator, m: int, k: int, iters: int) -> np.ndarray:
    """The frozen reference loops' draws: one single-row call per iteration."""
    return np.concatenate([_draws(rng, m, k, 1) for _ in range(iters)])


@pytest.mark.parametrize("advanced", [False, True])
@pytest.mark.parametrize("iters", [1, 1000])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 17, 60, 61, 1000, 99_999, 2**31 + 1])
def test_pair_draws_match_one_choice_per_draw(m: int, iters: int, advanced: bool) -> None:
    # One block of pair draws equals one single-row _draws call (one
    # choice of a pair) per draw, generator state included. An advanced
    # generator holds half of a 64-bit output in its buffer.
    want_rng, got_rng = np.random.default_rng(m), np.random.default_rng(m)
    if advanced:
        for r in (want_rng, got_rng):
            r.integers(0, 2**32, dtype=np.uint32)
    want = one_draw_per_iteration(want_rng, m, 2, iters)
    got = _draws(got_rng, m, 2, iters)
    assert_distinct_in_range(got, m, 2, iters)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_pair_draws_with_another_bit_generator() -> None:
    want_rng = np.random.Generator(np.random.MT19937(3))
    got_rng = np.random.Generator(np.random.MT19937(3))
    assert np.array_equal(_draws(got_rng, 40, 2, 200), one_draw_per_iteration(want_rng, 40, 2, 200))
    got, want = (r.bit_generator.state["state"] for r in (got_rng, want_rng))
    assert np.array_equal(got["key"], want["key"]) and got["pos"] == want["pos"]


def assert_blocks_continue_one_stream(k: int, sizes: tuple[int, ...]) -> None:
    whole_rng, block_rng = np.random.default_rng(21), np.random.default_rng(21)
    whole = _draws(whole_rng, 30, k, sum(sizes))
    blocks = np.concatenate([_draws(block_rng, 30, k, n) for n in sizes])
    assert np.array_equal(blocks, whole)
    assert block_rng.bit_generator.state == whole_rng.bit_generator.state


def test_pair_draws_continue_the_stream_across_blocks() -> None:
    # fit_vps draws a round in chunks; reading them in order is one stream.
    assert_blocks_continue_one_stream(2, (1, 2, 97, 600))


def test_samples_of_four_continue_the_stream_across_blocks() -> None:
    # estimate_homography draws in blocks that double from one sample.
    assert_blocks_continue_one_stream(4, (1, 2, 4, 8, 16, 669))


@pytest.mark.parametrize("m, k", [(5, 2), (6, 4)])
def test_draws_cover_every_subset_evenly(m: int, k: int) -> None:
    # Floyd's rule makes every k-subset equally likely; with 30,000 rows
    # each subset's count lies within 5 standard deviations of its mean.
    rows = np.sort(_draws(np.random.default_rng(8), m, k, 30_000), axis=1)
    _, counts = np.unique(rows, axis=0, return_counts=True)
    p = 1.0 / math.comb(m, k)
    assert len(counts) == math.comb(m, k)
    assert np.abs(counts - 30_000 * p).max() < 5.0 * math.sqrt(30_000 * p * (1.0 - p))


def test_draws_repeat_for_the_same_seed() -> None:
    first, again = (_draws(np.random.default_rng(5), 1000, 4, 500) for _ in range(2))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, _draws(np.random.default_rng(6), 1000, 4, 500))


# ------------------------------------------------------------ candidate scoring


def unit_crosses(lines):
    """Every pair's cross product, scaled as _best_candidate scales it, and
    the pairs on one supporting line left out."""
    hom = _homogeneous_lines(_rows(lines))
    i, j = np.triu_indices(len(lines), 1)
    v = np.cross(hom[i], hom[j])
    norm = np.sqrt(np.vecdot(v, v))[:, None]
    keep = norm[:, 0] >= 1e-12
    v, norm = v[keep], norm[keep]
    return np.where(np.abs(norm - 1.0) > 1e-12, v / norm, v)


def frozen_best_candidate(v, sub, params, best_len):
    """_best_candidate as one _d_vp_many matrix and a full strict-> scan."""
    mids, e1, e2, lengths = sub
    norm = np.sqrt(np.vecdot(v, v))[:, None]
    index = np.flatnonzero(norm[:, 0] >= 1e-12)
    vecs = np.where(np.abs(norm[index] - 1.0) > 1e-12, v[index] / norm[index], v[index])
    inl = _d_vp_many(mids, e1, e2, vecs[:, None, :]) < params.t_vp
    best = None
    for k in np.flatnonzero(inl.sum(axis=1) >= params.min_support):
        support_len = float(lengths[inl[k]].sum())
        if support_len > best_len:
            best, best_len = int(index[k]), support_len
    return best, best_len


def gate_lines(rng, vec, t, count, center, tol):
    """``count`` segments near ``center`` whose d_vp against the unit row
    ``vec`` (finite or ideal) is within ``tol`` of t, a third of them below
    it. Each try scans one segment's offset from its joining line over the
    coordinates' own resolution and keeps the d_vp closest to t on the side
    it wants."""
    lines: list[LineSegment] = []
    while len(lines) < count:
        want_below = len(lines) % 3 == 0
        m = center + rng.uniform(-60.0, 60.0, 2)
        toward = vec[:2] - m * vec[2]  # from m to the VP, up to sign and scale
        u = toward / np.hypot(*toward)
        offsets = t + np.spacing(np.abs(m).max() + 60.0) * np.arange(-40.0, 41.0) / 4.0
        half = rng.uniform(5.0, 30.0) * u + offsets[:, None] * np.array([-u[1], u[0]])
        rows = np.concatenate([m - half, m + half], axis=1)
        d = _d_vp_many(*_line_arrays(rows)[:3], vec)
        side = np.flatnonzero((d < t) == want_below)
        if side.size:
            k = side[np.argmin(np.abs(d[side] - t))]
            if abs(d[k] - t) <= tol:
                lines.append(LineSegment(tuple(rows[k, :2]), tuple(rows[k, 2:])))
    return lines


def gate_scene(kind: str, seed: int, t: float = 1.5):
    """Two anchor lines, whose crossing is a candidate; lines planted within
    a few ulp of t_vp of it; a line centred on the crossing (its joining
    line is degenerate: d_vp +inf); a copy of an anchor (a pair on one
    supporting line) and clutter."""
    rng = np.random.default_rng(seed)
    center = np.array([1e6, 1e6]) if kind == "far" else np.array([128.0, 128.0])
    if kind == "ideal":  # parallel anchors (one direction, in bits): their crossing is at infinity
        anchors = [LineSegment(center + (-40.0, -50.0), center + (40.0, 10.0)),
                   LineSegment(center + (-60.0, 20.0), center + (20.0, 80.0))]
    else:
        anchors = [LineSegment(center + (-50.0, -40.0), center + (60.0, 30.0)),
                   LineSegment(center + (-40.0, 55.0), center + (45.0, -35.0))]
    vec = unit_crosses(anchors)[0]
    # At 128 px an ideal VP's d_vp moves in steps of 32 ulp; at 1e6 px
    # coordinates are 1e-10 px apart.
    tol = {"finite": 4.0 * np.spacing(t), "ideal": 64.0 * np.spacing(t), "far": 1e-8}[kind]
    lines = anchors + gate_lines(rng, vec, t, 9, center, tol) + [anchors[0]]
    if kind != "ideal":
        crossing = vec[:2] / vec[2]
        lines.append(LineSegment(tuple(crossing - (1.0, 0.5)), tuple(crossing + (1.0, 0.5))))
    for _ in range(4):
        m = center + rng.uniform(-80.0, 80.0, 2)
        a = rng.uniform(0.0, math.pi)
        d = rng.uniform(8.0, 30.0) * np.array([math.cos(a), math.sin(a)])
        lines.append(LineSegment(tuple(m - d), tuple(m + d)))
    return lines, vec


GATE_KINDS = ["finite", "ideal", "far"]


def counting_d_vp(monkeypatch) -> list[int]:
    """Count the entries _d_vp_many re-scores for the vp module."""
    entries: list[int] = []

    def wrapper(mids, e1, e2, v, **kwargs):
        entries.append(len(mids))
        return _d_vp_many(mids, e1, e2, v, **kwargs)

    monkeypatch.setattr(vp_module, "_d_vp_many", wrapper)
    return entries


@pytest.mark.parametrize("kind", GATE_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inlier_matrix_matches_d_vp_at_the_gate(monkeypatch, kind, seed) -> None:
    lines, vec = gate_scene(kind, seed)
    sub = _line_arrays(_rows(lines))
    vecs = unit_crosses(lines)
    assert any(np.array_equal(v, vec) for v in vecs)
    want = _d_vp_many(*sub[:3], vecs[:, None, :]) < 1.5
    rescored = counting_d_vp(monkeypatch)
    got = _inlier_matrix(vecs, sub, _score_columns(sub), 1.5)
    assert got.dtype == bool and np.array_equal(got, want)
    assert sum(rescored) >= 9  # the planted lines of the anchors' crossing at least


@pytest.mark.parametrize("kind", GATE_KINDS)
@pytest.mark.parametrize("best_len", [0.0, None])
def test_best_candidate_matches_a_full_scan(kind, best_len) -> None:
    lines, _ = gate_scene(kind, 3)
    sub = _line_arrays(_rows(lines))
    hom = _homogeneous_lines(_rows(lines))
    i, j = np.triu_indices(len(lines), 1)
    v = np.cross(hom[i], hom[j])
    v = np.concatenate([v, v[::-1]])  # every candidate twice: ties go to the first
    params = VpParams(min_support=3)
    if best_len is None:  # a record just below the winner's: only it can beat it
        best_len = np.nextafter(frozen_best_candidate(v, sub, params, 0.0)[1], 0.0)
    want = frozen_best_candidate(v, sub, params, best_len)
    assert want[0] is not None
    assert _best_candidate(v, sub, _score_columns(sub), params, best_len) == want
    assert _best_candidate(v, sub, _score_columns(sub), params, want[1]) == (None, want[1])


def test_best_candidate_with_no_candidates() -> None:
    lines, _ = gate_scene("finite", 4)
    sub = _line_arrays(_rows(lines))
    columns = _score_columns(sub)
    params = VpParams()
    assert _best_candidate(np.empty((0, 3)), sub, columns, params, 2.0) == (None, 2.0)
    assert _best_candidate(np.zeros((3, 3)), sub, columns, params, 2.0) == (None, 2.0)


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_fit_vps_matches_reference_at_the_gate(monkeypatch, kind) -> None:
    lines, _ = gate_scene(kind, 5)
    monkeypatch.setattr("linefields.vp._SCORE_ELEMENTS", 3 * len(lines))  # chunks of 3 candidates
    assert_same_fit(lines, VpParams(seed=7, min_support=4, ransac_iters=400))


# ------------------------------------------------------------ refine_vp


def oracle_signed_dvp(mids, e1, e2, v):
    """geometry._d_vp_many(..., signed=True), frozen."""
    la = mids[:, 1] * v[..., 2] - v[..., 1]
    lb = v[..., 0] - mids[:, 0] * v[..., 2]
    lc = mids[:, 0] * v[..., 1] - mids[:, 1] * v[..., 0]
    norm = np.hypot(la, lb)
    d1 = la * e1[:, 0] + lb * e1[:, 1] + lc
    d2 = la * e2[:, 0] + lb * e2[:, 1] + lc
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 * (d1 - d2) / norm
    return np.where(norm < 1e-12, np.inf, d)


def oracle_tangent_basis(v):
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(v)))] = 1.0
    e1 = np.cross(v, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(v, e1)
    e2 /= np.linalg.norm(e2)
    return e1, e2


@settings(max_examples=300, deadline=None)
@given(
    axis=st.integers(0, 2),
    ideal=st.booleans(),
    mags=st.lists(st.floats(1e-3, 1e6), min_size=3, max_size=3),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
    small=st.floats(0.0, 1e-3),
)
@example(axis=0, ideal=True, mags=[1.0, 1.0, 1.0], signs=[-1.0, 1.0, 1.0], small=0.0)  # argmin 0
@example(axis=1, ideal=True, mags=[1.0, 1.0, 1.0], signs=[1.0, -1.0, 1.0], small=0.0)  # argmin 1
def test_tangent_basis_matches_np_cross(axis, ideal, mags, signs, small) -> None:
    """The written-out cross products give np.cross's bits, for finite and
    ideal VPs, whichever axis is the smallest entry (ties to the first),
    raw or normalised as refine_vp iterates them."""
    v = np.array(mags) * signs
    v[axis] = signs[axis] * small  # -0.0 when small is 0 and the sign negative
    if ideal:
        v[2] = 0.0
    for vec in (v, VanishingPoint(v).v):
        got, want = [e[0] for e in _tangent_basis(vec[None])], oracle_tangent_basis(vec)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


def oracle_refine_vp(v, inliers, seen: Counter, max_iter=100, tol=1e-12):
    """refine_vp without the shared damping ladder: per iteration, one
    np.linalg.solve per damping level and one trial vector and cost per
    row, the doubled level-0 step first; the lowest-cost downhill row is
    taken. Returns (vector, cost, converged)."""
    mids = np.array([[seg.midpoint.x, seg.midpoint.y] for seg in inliers])
    e1p = np.array([[seg.p1.x, seg.p1.y] for seg in inliers])
    e2p = np.array([[seg.p2.x, seg.p2.y] for seg in inliers])
    sqw = np.sqrt(np.array([seg.length for seg in inliers]))

    def residuals(vec):
        return sqw * oracle_signed_dvp(mids, e1p, e2p, vec)

    cur = np.array(v.v, dtype=float)
    res = residuals(cur)
    cost = float(res @ res)
    if not math.isfinite(cost):
        seen["nonfinite_start"] += 1
        return cur, cost, False

    mu = 1e-3
    converged = False
    # Homogeneous midpoints: the joining line of midpoint m and v is m x v.
    mh = np.column_stack([mids, np.ones(len(mids))])
    span = e1p - e2p
    for _ in range(max_iter):
        b1, b2 = oracle_tangent_basis(cur)

        def at(a, b):
            w = cur + a * b1 + b * b2
            return w / np.linalg.norm(w)

        # r = w (q . span) / (2 |q|) for q the first two entries of m x v:
        # dr/dq = w (span - (q^ . span) q^) / (2 |q|), and moving v along a
        # tangent t moves q by the first two entries of m x t.
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.cross(mh, cur)[:, :2]
            norm = np.hypot(q[:, 0], q[:, 1])
            qhat = q / norm[:, None]
            along = qhat[:, 0] * span[:, 0] + qhat[:, 1] * span[:, 1]
            drdq = 0.5 * sqw[:, None] * (span - along[:, None] * qhat) / norm[:, None]
            jac = np.empty((len(inliers), 2))
            for col, tangent in enumerate((b1, b2)):
                dq = np.cross(mh, tangent)[:, :2]
                jac[:, col] = drdq[:, 0] * dq[:, 0] + drdq[:, 1] * dq[:, 1]
        if not np.all(np.isfinite(jac)):
            seen["nonfinite_jacobian"] += 1
            break
        g = jac.T @ res
        if float(np.linalg.norm(g)) < 1e-14:
            seen["zero_gradient"] += 1
            converged = True
            break
        jtj = jac.T @ jac
        damp_scale = np.maximum(np.diag(jtj), 1e-12)
        # The doubled level-0 step first, then every level; keep the
        # lowest cost below the start seen so far (the first on ties).
        best = None
        best_cost = cost
        level_mu = mu
        for level in range(12):
            try:
                delta = np.linalg.solve(jtj + level_mu * np.diag(damp_scale), -g)
            except np.linalg.LinAlgError:
                seen["singular"] += 1
                level_mu *= 10.0
                continue
            for name, d in (("doubled", 2.0 * delta), (f"level_{level}", delta))[level > 0:]:
                trial = at(float(d[0]), float(d[1]))
                trial_res = residuals(trial)
                trial_cost = float(trial_res @ trial_res)
                if math.isfinite(trial_cost) and trial_cost < best_cost:
                    best = (name, d, trial, trial_res, level_mu)
                    best_cost = trial_cost
            level_mu *= 10.0
        if best is None:
            seen["no_downhill"] += 1
            converged = True
            break
        name, delta, cur, res, level_mu = best
        seen[name] += 1
        improvement = cost - best_cost
        cost = best_cost
        mu = max(level_mu / 3.0, 1e-12)
        if float(np.linalg.norm(delta)) < tol or improvement < tol * max(cost, 1.0):
            seen["small_step"] += 1
            converged = True
            break
    return cur, cost, converged


def assert_same_refine(v, inliers) -> Counter:
    seen: Counter = Counter()
    want_v, want_cost, want_conv = oracle_refine_vp(v, inliers, seen)
    got, got_cost, got_conv = refine_vp(v, inliers, full_output=True)
    assert np.array_equal(got.v, VanishingPoint(want_v).v)
    assert got_cost.hex() == want_cost.hex()
    assert got_conv == want_conv
    return seen


def pencil_with_outliers(seed, vp, n, noise, outliers, jitter):
    """``n`` lines through ``vp`` (with endpoint noise) plus ``outliers``
    random ones, and a start ``jitter`` off ``vp`` along the unit sphere."""
    rng = np.random.default_rng(seed)
    lines = concurrent_lines(rng, vp, n, noise=noise)
    for _ in range(outliers):
        m = rng.uniform(30.0, 226.0, 2)
        a = rng.uniform(0.0, math.pi)
        d = rng.uniform(10.0, 40.0) * np.array([math.cos(a), math.sin(a)])
        lines.append(LineSegment(m - d, m + d))
    unit = vp / np.linalg.norm(vp)
    start = VanishingPoint(unit + jitter * rng.normal(size=3))
    return start, lines


VP_KINDS = {
    "finite_near": np.array([400.0, 120.0, 1.0]),
    "finite_far": np.array([-5000.0, 3000.0, 1.0]),
    "ideal": np.array([0.3, 1.0, 0.0]),
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(VP_KINDS)),
    n=st.integers(2, 25),
    noise=st.sampled_from([0.0, 0.3, 1.5]),
    outliers=st.integers(0, 4),
    jitter=st.sampled_from([0.0, 1e-4, 1e-2]),
)
@example(seed=0, kind="ideal", n=2, noise=0.0, outliers=0, jitter=1e-2)
@example(seed=113, kind="ideal", n=10, noise=1.5, outliers=1, jitter=1e-2)  # hits max_iter
def test_refine_vp_matches_level_by_level_loop(seed, kind, n, noise, outliers, jitter) -> None:
    start, lines = pencil_with_outliers(seed, VP_KINDS[kind], n, noise, outliers, jitter)
    assert_same_refine(start, lines)


def test_refine_vp_no_downhill_level() -> None:
    # Noisy lines settle where no damping level improves the cost.
    start, lines = pencil_with_outliers(14, VP_KINDS["finite_near"], 10, 0.3, 1, 1e-2)
    seen = assert_same_refine(start, lines)
    assert seen["no_downhill"] == 1


def test_refine_vp_nonfinite_start() -> None:
    # The start lies on a midpoint: d_vp and so the cost are +inf.
    lines = [LineSegment((-1.0, -1.0), (1.0, 1.0)), LineSegment((5.0, 0.0), (9.0, 3.0))]
    start = VanishingPoint(np.array([0.0, 0.0, 1.0]))
    seen = assert_same_refine(start, lines)
    assert seen["nonfinite_start"] == 1
    out, cost, converged = refine_vp(start, lines, full_output=True)
    assert math.isinf(cost) and not converged and np.array_equal(out.v, start.v)


def test_refine_vp_with_a_singular_level(monkeypatch: pytest.MonkeyPatch) -> None:
    start, lines = pencil_with_outliers(1, VP_KINDS["finite_near"], 10, 0.0, 1, 1e-2)
    first_ladder = []
    real = np.linalg.solve

    def record(lhs, rhs):
        first_ladder.append(np.copy(lhs))
        return real(lhs, rhs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", record)
        seen = Counter()
        oracle_refine_vp(start, lines, seen, max_iter=1)
    assert seen["level_0"] == 1 and len(first_ladder) == 12  # every level is solved
    clean = refine_vp(start, lines)

    def solve(lhs, rhs):
        # A stack holding the poisoned matrix raises, as LAPACK does.
        stack = lhs if np.ndim(lhs) == 3 else lhs[None]
        if any(np.array_equal(mat, first_ladder[0]) for mat in stack):
            raise np.linalg.LinAlgError("Singular matrix")
        return real(lhs, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    seen = assert_same_refine(start, lines)
    assert seen["singular"] == 1 and seen["level_1"] >= 1
    assert not np.array_equal(refine_vp(start, lines).v, clean.v)  # the failure changed its path


# ------------------------------------------------------------ _refine_vps

# Models with a fixed path, for the batches below: a start on a midpoint
# (cost +inf, never iterates), noisy lines that end where no damping level
# goes downhill, and an exact pencil whose gradient vanishes at once.
SPECIAL_MODELS = {
    "nonfinite_start": lambda: (
        VanishingPoint(np.array([0.0, 0.0, 1.0])),
        [LineSegment((-1.0, -1.0), (1.0, 1.0)), LineSegment((5.0, 0.0), (9.0, 3.0))],
    ),
    "no_downhill": lambda: pencil_with_outliers(14, VP_KINDS["finite_near"], 10, 0.3, 1, 1e-2),
    "first_iteration": lambda: pencil_with_outliers(0, VP_KINDS["finite_far"], 2, 0.0, 0, 0.0),
}


def assert_batch_matches_alone(models) -> Counter:
    """_refine_vps on all models at once gives each one the VP bits, cost
    bits and flag of oracle_refine_vp run on that model alone."""
    starts = np.array([start.v for start, _ in models])
    lines = [seg for _, group in models for seg in group]
    ends = np.cumsum([len(group) for _, group in models]).tolist()
    members = [range(e - len(group), e) for e, (_, group) in zip(ends, models)]
    got_v, got_cost, got_conv = _refine_vps(starts, _line_arrays(_rows(lines)), members)
    seen: Counter = Counter()
    for k, (start, group) in enumerate(models):
        want_v, want_cost, want_conv = oracle_refine_vp(start, group, seen)
        assert got_v[k].tobytes() == want_v.tobytes()
        assert float(got_cost[k]).hex() == float(want_cost).hex()
        assert bool(got_conv[k]) == want_conv
    return seen


def test_special_models_take_their_paths() -> None:
    seen = assert_batch_matches_alone([SPECIAL_MODELS[name]() for name in sorted(SPECIAL_MODELS)])
    assert seen["nonfinite_start"] == 1 and seen["no_downhill"] == 1 and seen["zero_gradient"] == 1
    _, lines = SPECIAL_MODELS["first_iteration"]()
    assert len(lines) == 2
    calls = Counter()
    oracle_refine_vp(*SPECIAL_MODELS["first_iteration"](), calls, max_iter=1)
    assert calls == Counter(zero_gradient=1)  # it stops in its first iteration


random_model = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(VP_KINDS)),
    st.integers(2, 36),
    st.sampled_from([0.0, 0.3, 1.5]),
    st.integers(0, 4),
    st.sampled_from([0.0, 1e-4, 1e-2]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(SPECIAL_MODELS)) | random_model, min_size=1, max_size=8))
@example([(113, "ideal", 10, 1.5, 1, 1e-2)])  # hits max_iter
@example(["first_iteration", (7, "ideal", 30, 1.5, 4, 1e-2), "nonfinite_start", "no_downhill",
          (8, "finite_far", 2, 0.3, 0, 1e-4), (9, "finite_near", 36, 0.0, 4, 0.0)])
def test_batch_matches_each_model_alone(specs) -> None:
    """Ragged groups of 2-40 lines: zero padding or a shared reduction
    would change some model's bits."""
    models = [
        SPECIAL_MODELS[s]() if isinstance(s, str) else pencil_with_outliers(s[0], VP_KINDS[s[1]], *s[2:])
        for s in specs
    ]
    assert_batch_matches_alone(models)


def test_batch_of_no_models() -> None:
    vecs, costs, converged = _refine_vps(np.empty((0, 3)), _line_arrays(np.empty((0, 4))), [])
    assert vecs.shape == (0, 3) and costs.shape == (0,) and converged.shape == (0,)


def test_models_with_under_two_lines_stay_where_they_are() -> None:
    start, lines = pencil_with_outliers(3, VP_KINDS["finite_near"], 12, 0.3, 1, 1e-2)
    lonely = VanishingPoint(np.array([0.3, 1.0, 0.0]))
    vecs, _, converged = _refine_vps(
        np.array([lonely.v, start.v, lonely.v]), _line_arrays(_rows(lines)), [[0], range(len(lines)), []]
    )
    assert vecs[0].tobytes() == vecs[2].tobytes() == lonely.v.tobytes()
    assert not converged[0] and not converged[2]
    want_v, _, want_conv = oracle_refine_vp(start, lines, Counter())
    assert vecs[1].tobytes() == want_v.tobytes() and converged[1] == want_conv


def frozen_refine_joint(lines, fp, params, vp_params, seen: Counter):
    """refine_joint as one refine_vp call per model, on LineSegments of its
    assigned lines; line refinement is the library's, so both use one gate."""
    n = len(lines)
    vps, assignment = fit_vps(lines, vp_params)
    rows = _rows(lines)
    for _ in range(params.k_alternations):
        line_vps = [vps[j] if j is not None else None for j in assignment]
        rows, _, _ = _refine_lines(rows, fp, line_vps, params)
        if vps:
            for j in range(len(vps)):
                members = [i for i in range(n) if assignment[i] == j]
                if len(members) >= 2:
                    vps[j] = refine_vp(vps[j], _segments(rows[members]))
                else:
                    seen["vp_left_alone"] += 1
            mids, e1, e2, _ = _line_arrays(rows)
            dists = _d_vp_many(mids, e1, e2, np.array([v.v for v in vps])[:, None, :])
            closest = np.argmin(dists, axis=0)
            close = dists[closest, np.arange(n)] < vp_params.t_vp
            seen["unassigned"] += int((~close).sum())
            assignment = [int(j) if c else None for j, c in zip(closest, close)]
    return _segments(rows), vps, assignment


def pencils_scene(seed: int):
    """Three perturbed pencils of 8 lines (two finite VPs, one far) and 6 clutter lines."""
    rng = np.random.default_rng(seed)
    gt = []
    for vp_xy in ((1800.0, 128.0), (-900.0, 50.0), (128.0, 3000.0)):
        gt += pencil_segments(rng, vp_xy=vp_xy, size=160, n=8, half_range=(6.0, 10.0))
    for _ in range(6):
        m = rng.uniform(30.0, 130.0, 2)
        a = rng.uniform(0.0, math.pi)
        d = rng.uniform(5.0, 12.0) * np.array([math.cos(a), math.sin(a)])
        gt.append(LineSegment(m - d, m + d))
    fp = render_fields(gt, 160, 160)
    return [perturb_segment(s, rng) for s in gt], fp


@pytest.mark.parametrize("seed, vp_params", [
    (61, VpParams()),
    (62, VpParams(seed=3)),
    (61, VpParams(t_vp=0.1, min_support=2)),  # 8 models, some left with under 2 lines
])
def test_refine_joint_matches_a_per_model_loop(seed, vp_params) -> None:
    lines, fp = pencils_scene(seed)
    params = RefineParams(k_alternations=3)
    seen: Counter = Counter()
    want = frozen_refine_joint(lines, fp, params, vp_params, seen)
    got = refine_joint(lines, fp, params, vp_params)
    assert _rows(got[0]).tobytes() == _rows(want[0]).tobytes()
    assert [v.v.tobytes() for v in got[1]] == [v.v.tobytes() for v in want[1]]
    assert got[2] == want[2]
    assert len(want[1]) >= 2 and seen["unassigned"] > 0
    assert (seen["vp_left_alone"] > 0) == (vp_params.t_vp < 1.0)
