"""Homography estimation against the versions it replaced.

``oracle_homography_from_lines`` builds each normalized line vector with
its own ``np.cross`` and ``np.linalg.norm`` call and the DLT matrix two
rows per pair. The stacked version takes one ``np.cross`` per side, norms
through ``np.vecdot`` (the dot kernel ``np.linalg.norm`` uses on a single
vector; ``norm(axis=1)`` differs in the last bit) and fills the DLT
matrix with slices. H must come out bit for bit the same, and degenerate
samples must fail with the same message.

``frozen_estimate_homography`` is the RANSAC loop that fitted and tested
one minimal sample per iteration, with the one-sample DLT, inlier test
and Homography storage rule it called; it draws each sample with
``_draws(rng, n, 4, 1)``. ``estimate_homography`` draws the same samples
in blocks, fits a block with one stacked DLT, tests it with one stacked
inlier pass and replays the adaptive stop in draw order. It must return
the same H bits and inlier mask, or fail with the same message.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefields import (
    EvalParams,
    Homography,
    LineSegment,
    apply_homography,
    estimate_homography,
    homography_from_lines,
    orthogonal_distance,
)
from linefields import evaluate
from linefields.vp import _draws


# Frozen copies of the segment-set helpers the references called: the
# (n, 2, 2) endpoint stack, per-segment supporting lines and the
# orthogonal distance kernel on endpoint pairs.


def segments_to_array(lines) -> np.ndarray:
    if len(lines) == 0:
        return np.zeros((0, 2, 2))
    return np.stack([seg.as_array() for seg in lines])


def homogeneous_lines(lines) -> np.ndarray:
    out = []
    for s in lines:
        a, b = s.p1.y - s.p2.y, s.p2.x - s.p1.x
        c = s.p1.x * s.p2.y - s.p2.x * s.p1.y
        n = math.hypot(a, b)
        out.append([a / n, b / n, c / n])
    return np.array(out)


def orthogonal_many(a_pts, b_pts, a_lines, b_lines) -> np.ndarray:
    def to_lines(pts, lines):
        a, b, c = (lines[..., None, k] for k in range(3))
        d = np.abs(pts[..., 0] * a + pts[..., 1] * b + c)
        return d[..., 0] + d[..., 1]

    return 0.25 * (to_lines(a_pts, b_lines) + to_lines(b_pts, a_lines))


def oracle_normalization(pts: np.ndarray) -> np.ndarray:
    centroid = pts.mean(axis=0)
    spread = float(np.mean(np.linalg.norm(pts - centroid, axis=1)))
    scale = math.sqrt(2.0) / max(spread, 1e-12)
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def oracle_stored(m: np.ndarray) -> np.ndarray:
    """The matrix Homography stores for m, or ValueError as it raised."""
    m = np.array(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("homography matrix must be finite")
    if abs(m[2, 2]) > 1e-12:
        m = m / m[2, 2]
    with np.errstate(over="ignore"):
        if abs(np.linalg.det(m)) <= 1e-12:
            raise ValueError("homography matrix is singular")
    return m


def oracle_line_vec(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    v = np.cross(np.append(p, 1.0), np.append(q, 1.0))
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise ValueError("coincident endpoints after normalization")
    return v / n


def oracle_homography_from_lines(pairs) -> np.ndarray:
    if len(pairs) < 4:
        raise ValueError("homography estimation needs at least 4 line pairs")
    a_pts = segments_to_array([p[0] for p in pairs]).reshape(-1, 2)
    b_pts = segments_to_array([p[1] for p in pairs]).reshape(-1, 2)
    t_a = oracle_normalization(a_pts)
    t_b = oracle_normalization(b_pts)

    def norm_lines(pts: np.ndarray, t: np.ndarray) -> np.ndarray:
        ph = np.hstack([pts, np.ones((len(pts), 1))]) @ t.T
        out = []
        for k in range(0, len(ph), 2):
            out.append(oracle_line_vec(ph[k, :2] / ph[k, 2], ph[k + 1, :2] / ph[k + 1, 2]))
        return np.stack(out)

    la = norm_lines(a_pts, t_a)
    lb = norm_lines(b_pts, t_b)
    if np.linalg.matrix_rank(la, tol=1e-9) < 3 or np.linalg.matrix_rank(lb, tol=1e-9) < 3:
        raise ValueError("degenerate configuration: lines span fewer than 3 dimensions")

    rows = []
    for x, xp in zip(la, lb):
        rows.append(np.concatenate([np.zeros(3), -xp[2] * x, xp[1] * x]))
        rows.append(np.concatenate([xp[2] * x, np.zeros(3), -xp[0] * x]))
    amat = np.stack(rows)
    _, s, vt = np.linalg.svd(amat)
    if s[-2] < 1e-9 * max(s[0], 1e-300):
        raise ValueError("degenerate configuration: multiple homographies fit")
    g = vt[-1].reshape(3, 3)
    if abs(np.linalg.det(g)) < 1e-12:
        raise ValueError("degenerate configuration: singular line map")
    h_norm = np.linalg.inv(g).T
    return oracle_stored(np.linalg.inv(t_b) @ h_norm @ t_a)


# The one-sample loop: its DLT (one sample's arrays, slices instead of
# per-line calls), its inlier test (one model) and its consensus pre-check.


def frozen_line_vecs(pts: np.ndarray, t: np.ndarray) -> np.ndarray:
    ph = np.hstack([pts, np.ones((len(pts), 1))]) @ t.T
    v = np.cross(ph[0::2], ph[1::2])
    n = np.sqrt(np.vecdot(v, v))
    if np.any(n < 1e-12):
        raise ValueError("coincident endpoints after normalization")
    return v / n[:, None]


def frozen_homography_from_lines(pairs) -> np.ndarray:
    a_pts = segments_to_array([p[0] for p in pairs]).reshape(-1, 2)
    b_pts = segments_to_array([p[1] for p in pairs]).reshape(-1, 2)
    t_a = oracle_normalization(a_pts)
    t_b = oracle_normalization(b_pts)
    la = frozen_line_vecs(a_pts, t_a)
    lb = frozen_line_vecs(b_pts, t_b)
    if np.linalg.matrix_rank(la, tol=1e-9) < 3 or np.linalg.matrix_rank(lb, tol=1e-9) < 3:
        raise ValueError("degenerate configuration: lines span fewer than 3 dimensions")
    amat = np.zeros((2 * len(la), 9))
    amat[0::2, 3:6] = -lb[:, 2:] * la
    amat[0::2, 6:] = lb[:, 1:2] * la
    amat[1::2, :3] = lb[:, 2:] * la
    amat[1::2, 6:] = -lb[:, :1] * la
    _, s, vt = np.linalg.svd(amat)
    if s[-2] < 1e-9 * max(s[0], 1e-300):
        raise ValueError("degenerate configuration: multiple homographies fit")
    g = vt[-1].reshape(3, 3)
    if abs(np.linalg.det(g)) < 1e-12:
        raise ValueError("degenerate configuration: singular line map")
    h_norm = np.linalg.inv(g).T
    return oracle_stored(np.linalg.inv(t_b) @ h_norm @ t_a)


def frozen_lines_span_plane(segs) -> bool:
    pts = segments_to_array(segs).reshape(-1, 2)
    ph = np.hstack([pts, np.ones((len(pts), 1))]) @ oracle_normalization(pts).T
    vecs = np.cross(ph[0::2], ph[1::2])
    norms = np.linalg.norm(vecs, axis=1)
    keep = norms >= 1e-12
    return np.linalg.matrix_rank(vecs[keep] / norms[keep, None], tol=1e-12) == 3


def frozen_inlier_mask(m, a_pts, b_pts, b_lines, threshold) -> np.ndarray:
    ends = a_pts.reshape(-1, 4)
    x, y = ends[:, 0::2], ends[:, 1::2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
        u = (m[0, 0] * x + m[0, 1] * y + m[0, 2]) / w
        v = (m[1, 0] * x + m[1, 1] * y + m[1, 2]) / w
    rows = np.stack([u, v], axis=-1).reshape(-1, 4)
    ok = np.all(np.abs(w) > 1e-12, axis=1) & np.all(np.isfinite(rows), axis=1)
    ok &= (rows[:, 0] != rows[:, 2]) | (rows[:, 1] != rows[:, 3])
    u, v = rows[:, 0::2], rows[:, 1::2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        la, lb = v[:, 0] - v[:, 1], u[:, 1] - u[:, 0]
        lc = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        norm = np.hypot(la, lb)
        a_lines = np.stack([la / norm, lb / norm, lc / norm], axis=1)
        dist = orthogonal_many(rows.reshape(-1, 2, 2), b_pts, a_lines, b_lines)
    return ok & (dist < threshold)


def frozen_estimate_homography(pairs, params: EvalParams):
    """(stored H, mask, iterations run, set of DLT errors seen)."""
    n = len(pairs)
    if n < 4:
        raise ValueError("homography estimation needs at least 4 candidate pairs")
    lines_a = [p[0] for p in pairs]
    lines_b = [p[1] for p in pairs]
    if not (frozen_lines_span_plane(lines_a) and frozen_lines_span_plane(lines_b)):
        raise ValueError("no homography model found consensus")
    rng = np.random.default_rng(params.seed)
    a_pts, b_pts = segments_to_array(lines_a), segments_to_array(lines_b)
    b_lines = homogeneous_lines(lines_b)

    def inlier_mask(m):
        return frozen_inlier_mask(m, a_pts, b_pts, b_lines, params.hest_inlier_threshold)

    seen = set()
    best_h = best_mask = None
    best_count = 0
    max_iters = params.hest_iters
    it = 0
    while it < max_iters:
        it += 1
        sample = _draws(rng, n, 4, 1)[0]
        try:
            h = frozen_homography_from_lines([pairs[int(i)] for i in sample])
        except ValueError as err:
            seen.add(str(err))
            continue
        mask = inlier_mask(h)
        count = int(mask.sum())
        if count > best_count:
            best_h, best_mask, best_count = h, mask, count
            if count == n:
                break
            w = count / n
            denom = math.log1p(-min(w**4, 1.0 - 1e-12))
            needed = int(math.ceil(math.log(0.01) / denom)) if denom < 0.0 else max_iters
            max_iters = min(max_iters, max(needed, it))
    if best_h is None or best_count < 4:
        raise ValueError("no homography model found consensus")
    for _ in range(10):
        try:
            refit = frozen_homography_from_lines([pairs[i] for i in np.flatnonzero(best_mask)])
        except ValueError:
            break
        mask = inlier_mask(refit)
        count = int(mask.sum())
        if count > best_count:
            best_h, best_mask, best_count = refit, mask, count
        else:
            if count == best_count:
                best_h, best_mask = refit, mask
            break
    return best_h, best_mask, it, seen


def outcome(fn, pairs):
    try:
        result = fn(pairs)
    except ValueError as err:
        return str(err)
    return result.m if isinstance(result, Homography) else result


def assert_same(pairs):
    new = outcome(homography_from_lines, pairs)
    old = outcome(oracle_homography_from_lines, pairs)
    if isinstance(old, str):
        assert new == old
    else:
        assert isinstance(new, np.ndarray) and np.array_equal(new, old)
    return old


def assert_same_estimate(pairs, params: EvalParams):
    """The frozen loop's (iterations, errors seen), or its error message."""
    try:
        h_old, mask_old, iters, seen = frozen_estimate_homography(pairs, params)
    except ValueError as err:
        with pytest.raises(ValueError) as caught:
            estimate_homography(pairs, params)
        assert str(caught.value) == str(err)
        return str(err)
    h_new, mask_new = estimate_homography(pairs, params)
    assert np.array_equal(h_new.m, h_old)
    assert mask_new.dtype == bool and np.array_equal(mask_new, mask_old)
    return iters, seen


H_WARP = Homography(np.array([[1.02, 0.05, 3.0], [-0.04, 0.97, -2.0], [2e-4, -1e-4, 1.0]]))


def random_segments(rng, n: int, lo: float = 0.0, hi: float = 256.0) -> list[LineSegment]:
    return [LineSegment(tuple(p[0]), tuple(p[1])) for p in rng.uniform(lo, hi, (n, 2, 2))]


def warped(seg: LineSegment, jitter: np.ndarray) -> LineSegment:
    b = apply_homography(H_WARP, seg)
    return LineSegment(tuple(b.p1 + jitter[0]), tuple(b.p2 + jitter[1]))


def mixed_pairs(rng, n: int, inliers: int, noise: float):
    """``inliers`` pairs under H_WARP with Gaussian endpoint noise, the rest
    random pairs at least 10 px from it, in random order."""
    pairs = [(a, warped(a, rng.normal(0.0, noise, (2, 2)))) for a in random_segments(rng, inliers)]
    while len(pairs) < n:
        a, b = random_segments(rng, 2)
        if orthogonal_distance(apply_homography(H_WARP, a), b) > 10.0:
            pairs.append((a, b))
    return [pairs[i] for i in rng.permutation(n)]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 0.3, 20.0]),
)
def test_bitwise_equal_on_random_samples(n, seed, noise) -> None:
    rng = np.random.default_rng(seed)
    pairs = [(a, warped(a, rng.normal(0.0, noise, (2, 2)))) for a in random_segments(rng, n)]
    assert isinstance(assert_same(pairs), np.ndarray)


def test_coincident_endpoints_after_normalization() -> None:
    rng = np.random.default_rng(3)
    segs = random_segments(rng, 5, 0.0, 1e13)
    segs.append(LineSegment((5e12, 5e12), (5e12 + 1e-3, 5e12)))
    pairs = [(s, s) for s in segs]
    assert assert_same(pairs) == "coincident endpoints after normalization"
    flipped = [(b, a) for a, b in pairs]
    assert assert_same(flipped) == "coincident endpoints after normalization"


def pencil(center, n: int, lo: float = 0.1, hi: float = 3.0) -> list[LineSegment]:
    cx, cy = center
    return [
        LineSegment((cx + 10 * math.cos(a), cy + 10 * math.sin(a)),
                    (cx + 50 * math.cos(a), cy + 50 * math.sin(a)))
        for a in np.linspace(lo, hi, n)
    ]


def test_pencil_and_parallel_samples() -> None:
    parallel = [LineSegment((5.0, 10.0 + 20.0 * k), (100.0, 10.0 + 20.0 * k)) for k in range(6)]
    rank = "degenerate configuration: lines span fewer than 3 dimensions"
    for segs in (pencil((64.0, 64.0), 7), parallel):
        pairs = [(s, apply_homography(H_WARP, s)) for s in segs]
        assert assert_same(pairs) == rank
        assert assert_same([(b, a) for a, b in pairs]) == rank


def test_repeated_pair_fits_many_homographies() -> None:
    rng = np.random.default_rng(60)
    pairs = [(s, apply_homography(H_WARP, s)) for s in random_segments(rng, 3, 10.0, 120.0)]
    msg = "degenerate configuration: multiple homographies fit"
    assert assert_same([pairs[0], *pairs]) == msg


def test_concurrent_b_lines_give_a_singular_line_map() -> None:
    rng = np.random.default_rng(5)
    a = random_segments(rng, 4)
    b = pencil((128.0, 128.0), 3) + random_segments(rng, 1)
    assert assert_same(list(zip(a, b))) == "degenerate configuration: singular line map"


def test_coordinates_near_the_float_limit_have_no_rank() -> None:
    # The Hartley centroid overflows and the line vectors come out NaN. The
    # per-sample SVD raised LinAlgError ("SVD did not converge") with
    # overflow warnings; the stacked DLT counts the sample as rank-deficient
    # and stays silent.
    segs = [
        LineSegment((1.7e308, 1.7e308), (1.6e308, -1.7e308)),
        LineSegment((1.5e308, 1.0), (1.2e308, 5.0)),
        LineSegment((-1.7e308, 3.0), (1.0, 1.7e308)),
        LineSegment((0.0, 0.0), (1.0e308, 1.3e308)),
    ]
    with pytest.raises(ValueError, match="^degenerate configuration: lines span fewer"):
        homography_from_lines([(s, s) for s in segs])


def test_too_few_pairs() -> None:
    seg = LineSegment((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="at least 4 line pairs"):
        homography_from_lines([(seg, seg)] * 3)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 60),
    share=st.floats(0.05, 0.6),
    noise=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    iters=st.integers(1, 200),
    ransac_seed=st.integers(0, 2**31),
)
def test_batched_ransac_matches_frozen_loop(n, share, noise, seed, iters, ransac_seed) -> None:
    pairs = mixed_pairs(np.random.default_rng(seed), n, round(share * n), noise)
    assert_same_estimate(pairs, EvalParams(hest_iters=iters, seed=ransac_seed))


def degenerate_pairs(seed: int):
    """General pairs mixed with samples that fail every DLT gate: a pencil on
    both sides (rank), a duplicated pair (several homographies), b-lines
    concurrent where their a-lines are not (singular line map), and, with
    coordinates near 1e13, a segment too short to survive normalization."""
    rng = np.random.default_rng(seed)
    general = [(a, apply_homography(H_WARP, a)) for a in random_segments(rng, 4)]
    lines = pencil((64.0, 64.0), 12)
    both = list(zip(lines, lines[::-1]))
    only_b = list(zip(random_segments(rng, 6), pencil((200.0, 40.0), 6, 0.2, 2.9)))
    huge = random_segments(rng, 4, 0.0, 1e13)
    tiny = LineSegment((5e12, 5e12), (5e12 + 1e-3, 5e12))
    far = [(s, s) for s in huge + [tiny]]
    pairs = general + both + only_b + [general[0], general[1]] + far
    return [pairs[i] for i in rng.permutation(len(pairs))]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ransac_seed=st.integers(0, 2**31))
def test_degenerate_samples_match_frozen_loop(seed, ransac_seed) -> None:
    assert_same_estimate(degenerate_pairs(seed), EvalParams(hest_iters=300, seed=ransac_seed))


def test_degenerate_fixture_fails_every_gate() -> None:
    # Which gates one run reaches depends on its draws, so the fixture is
    # judged over eight RANSAC seeds, each run checked against the frozen loop.
    seen = set()
    for seed in range(8):
        seen |= assert_same_estimate(degenerate_pairs(1), EvalParams(hest_iters=300, seed=seed))[1]
    assert seen == set(evaluate._DLT_ERRORS)


def fitted_samples(pairs, params: EvalParams):
    """assert_same_estimate's result, and the (samples, pairs) shape of
    every _dlt call the batched estimate makes."""
    shapes = []
    dlt = evaluate._dlt

    def counting(a, b):
        shapes.append(a.shape[:2])
        return dlt(a, b)

    with mock.patch.object(evaluate, "_dlt", counting):
        return assert_same_estimate(pairs, params), shapes


@settings(max_examples=30, deadline=None)
@given(n=st.integers(6, 40), seed=st.integers(0, 2**32 - 1), ransac_seed=st.integers(0, 2**31))
def test_all_inlier_set_stops_after_one_model(n, seed, ransac_seed) -> None:
    rng = np.random.default_rng(seed)
    pairs = [(a, apply_homography(H_WARP, a)) for a in random_segments(rng, n)]
    result, shapes = fitted_samples(pairs, EvalParams(seed=ransac_seed))
    if result == (1, set()):  # the frozen loop stopped after its first sample
        # One minimal sample, then least-squares refits on all n pairs.
        assert shapes[0] == (1, 4) and all(shape == (1, n) for shape in shapes[1:])


def test_first_sample_holding_every_pair_ends_the_loop() -> None:
    pairs = [(a, apply_homography(H_WARP, a)) for a in random_segments(np.random.default_rng(0), 12)]
    result, shapes = fitted_samples(pairs, EvalParams())
    assert result == (1, set())
    assert shapes[0] == (1, 4) and all(shape == (1, 12) for shape in shapes[1:])


def block_ends(n: int, elements: int, limit: int) -> list[int]:
    """Iteration counts at which estimate_homography's blocks end."""
    ends, size, cap = [], 1, max(1, elements // n)
    total = 0
    while total < limit:
        total += size
        ends.append(total)
        size = min(2 * size, cap)
    return ends


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 30),
    elements=st.sampled_from([1, 64, 200, evaluate._HEST_ELEMENTS]),
    which=st.integers(0, 6),
    offset=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_iteration_cap_around_block_ends(n, elements, which, offset, seed) -> None:
    """Sets with few inliers run to hest_iters, which falls just before, on
    or just past the end of a block."""
    end = block_ends(n, elements, 200)[which]
    iters = max(1, end + offset)
    pairs = mixed_pairs(np.random.default_rng(seed), n, 2, 0.0)
    with mock.patch.object(evaluate, "_HEST_ELEMENTS", elements):
        assert_same_estimate(pairs, EvalParams(hest_iters=iters, seed=seed % 1000))


def test_two_hundred_pairs_at_fifteen_percent_inliers() -> None:
    """The adaptive bound asks for 9,095 iterations: 30 of 200 pairs."""
    pairs = mixed_pairs(np.random.default_rng(2024), 200, 30, 0.3)
    iters, _ = assert_same_estimate(pairs, EvalParams())
    assert iters == 9095
