"""homography_from_lines against the per-line version it replaced.

``oracle_homography_from_lines`` builds each normalized line vector with
its own ``np.cross`` and ``np.linalg.norm`` call and the DLT matrix two
rows per pair. The stacked version takes one ``np.cross`` per side, norms
through ``np.vecdot`` (the dot kernel ``np.linalg.norm`` uses on a single
vector; ``norm(axis=1)`` differs in the last bit) and fills the DLT
matrix with slices. H must come out bit for bit the same, and degenerate
samples must fail with the same message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefields import Homography, LineSegment, apply_homography, homography_from_lines
from linefields.evaluate import _normalization
from linefields.geometry import segments_to_array


def oracle_line_vec(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    v = np.cross(np.append(p, 1.0), np.append(q, 1.0))
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise ValueError("coincident endpoints after normalization")
    return v / n


def oracle_homography_from_lines(pairs) -> Homography:
    if len(pairs) < 4:
        raise ValueError("homography estimation needs at least 4 line pairs")
    a_pts = segments_to_array([p[0] for p in pairs]).reshape(-1, 2)
    b_pts = segments_to_array([p[1] for p in pairs]).reshape(-1, 2)
    t_a = _normalization(a_pts)
    t_b = _normalization(b_pts)

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
    return Homography(np.linalg.inv(t_b) @ h_norm @ t_a)


def outcome(fn, pairs):
    try:
        return fn(pairs).m
    except ValueError as err:
        return str(err)


def assert_same(pairs):
    new = outcome(homography_from_lines, pairs)
    old = outcome(oracle_homography_from_lines, pairs)
    if isinstance(old, str):
        assert new == old
    else:
        assert isinstance(new, np.ndarray) and np.array_equal(new, old)
    return old


H_WARP = Homography(np.array([[1.02, 0.05, 3.0], [-0.04, 0.97, -2.0], [2e-4, -1e-4, 1.0]]))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 0.3, 20.0]),
)
def test_bitwise_equal_on_random_samples(n, seed, noise) -> None:
    rng = np.random.default_rng(seed)
    pairs = []
    for p in rng.uniform(0.0, 256.0, (n, 2, 2)):
        a = LineSegment(tuple(p[0]), tuple(p[1]))
        b = apply_homography(H_WARP, a)
        jitter = rng.normal(0.0, noise, (2, 2))
        pairs.append((a, LineSegment(tuple(b.p1 + jitter[0]), tuple(b.p2 + jitter[1]))))
    assert isinstance(assert_same(pairs), np.ndarray)


def test_coincident_endpoints_after_normalization() -> None:
    rng = np.random.default_rng(3)
    segs = [LineSegment(tuple(p[0]), tuple(p[1])) for p in rng.uniform(0, 1e13, (5, 2, 2))]
    segs.append(LineSegment((5e12, 5e12), (5e12 + 1e-3, 5e12)))
    pairs = [(s, s) for s in segs]
    assert assert_same(pairs) == "coincident endpoints after normalization"
    flipped = [(b, a) for a, b in pairs]
    assert assert_same(flipped) == "coincident endpoints after normalization"


def test_pencil_and_parallel_samples() -> None:
    pencil = [
        LineSegment((64.0 + 10 * math.cos(a), 64.0 + 10 * math.sin(a)),
                    (64.0 + 50 * math.cos(a), 64.0 + 50 * math.sin(a)))
        for a in np.linspace(0.1, 3.0, 7)
    ]
    parallel = [LineSegment((5.0, 10.0 + 20.0 * k), (100.0, 10.0 + 20.0 * k)) for k in range(6)]
    rank = "degenerate configuration: lines span fewer than 3 dimensions"
    for segs in (pencil, parallel):
        pairs = [(s, apply_homography(H_WARP, s)) for s in segs]
        assert assert_same(pairs) == rank
        assert assert_same([(b, a) for a, b in pairs]) == rank


def test_repeated_pair_fits_many_homographies() -> None:
    rng = np.random.default_rng(60)
    segs = [LineSegment(tuple(p[0]), tuple(p[1])) for p in rng.uniform(10, 120, (3, 2, 2))]
    pairs = [(s, apply_homography(H_WARP, s)) for s in segs]
    msg = "degenerate configuration: multiple homographies fit"
    assert assert_same([pairs[0], *pairs]) == msg


def test_too_few_pairs() -> None:
    seg = LineSegment((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="at least 4 line pairs"):
        homography_from_lines([(seg, seg)] * 3)
