"""match_one_to_one against the argsort scan it replaced.

``oracle_greedy_pairs`` walks the stable argsort of the whole distance
matrix in Python and claims every pair whose row and column are still
free, stopping after min(na, nb) claims. The new matcher ranks no entry:
it claims pairs in rounds (every free pair below +inf that is the first
minimum of its row and its column, NaN read as +inf), finishes with the
scan on the free entries once a round claims few pairs, and returns them
by (value, NaN last, flat index). Both must claim the same pairs in the
same order on any matrix: exact ties, +-inf and NaN entries included,
and rows and columns that hold only +inf and NaN.

``oracle_structural_matrix`` is the structural distance before it was
spelled out per endpoint pair: one (na, nb, 2, 2, 2) difference tensor
and ``np.linalg.norm``. Both must agree bit for bit.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from linefields import Homography, LineMatch, LineSegment, match_one_to_one
from linefields import evaluate
from linefields.evaluate import _greedy_pairs, _structural_matrix
from linefields.geometry import apply_homography


# Frozen copies of the segment-set helpers the oracle called: the
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


def oracle_greedy_pairs(dist):
    na, nb = dist.shape
    order = np.argsort(dist, axis=None, kind="stable")
    used_a = np.zeros(na, dtype=bool)
    used_b = np.zeros(nb, dtype=bool)
    pairs = []
    limit = min(na, nb)
    for flat in order:
        i, j = divmod(int(flat), nb)
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = True
        used_b[j] = True
        pairs.append((i, j))
        if len(pairs) == limit:
            break
    return pairs


def oracle_structural_matrix(a, b):
    d = np.linalg.norm(a[:, None, :, None, :] - b[None, :, None, :, :], axis=-1)
    same = 0.5 * (d[:, :, 0, 0] + d[:, :, 1, 1])
    swapped = 0.5 * (d[:, :, 0, 1] + d[:, :, 1, 0])
    return np.minimum(same, swapped)


def oracle_match_one_to_one(lines_a, lines_b, h_gt, distance="structural"):
    if len(lines_a) == 0 or len(lines_b) == 0:
        return []
    h_inv = h_gt.inverse()
    warped_b = [apply_homography(h_inv, seg) for seg in lines_b]
    a_pts = segments_to_array(lines_a)
    b_pts = segments_to_array(warped_b)
    if distance == "structural":
        dist = oracle_structural_matrix(a_pts, b_pts)
    else:
        a_lines, b_lines = homogeneous_lines(lines_a), homogeneous_lines(warped_b)
        dist = orthogonal_many(a_pts[:, None], b_pts, a_lines[:, None], b_lines)
    return [LineMatch(i, j, float(dist[i, j])) for i, j in oracle_greedy_pairs(dist)]


def assert_pairs_match(dist):
    i, j = _greedy_pairs(dist)
    assert list(zip(i.tolist(), j.tolist())) == oracle_greedy_pairs(dist)


shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(dist=hnp.arrays(np.float64, shapes, elements=st.integers(0, 4).map(float)))
def test_integer_matrices_with_ties(dist):
    assert_pairs_match(dist)


special = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, 1.0, -1.0, 1e300])


@settings(max_examples=300, deadline=None)
@given(
    dist=hnp.arrays(
        np.float64,
        shapes,
        elements=st.one_of(special, st.floats(allow_nan=True, allow_infinity=True)),
    )
)
def test_matrices_with_inf_and_nan(dist):
    assert_pairs_match(dist)


@settings(max_examples=300, deadline=None)
@given(
    dist=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 30)),
                    elements=st.integers(0, 3).map(float)),
    fill=st.sampled_from([math.inf, math.nan, "mixed"]),
    data=st.data(),
)
def test_rows_and_columns_without_a_finite_entry(dist, fill, data):
    """Ties everywhere, and some rows and columns that hold only +inf, only
    NaN, or both: their first minima are no pairs to claim in a round, and
    the scan on the free entries must order them inf before NaN, ties by
    index."""
    na, nb = dist.shape
    rows = data.draw(st.lists(st.integers(0, na - 1), max_size=na))
    cols = data.draw(st.lists(st.integers(0, nb - 1), max_size=nb))
    for index in ([rows, slice(None)], [slice(None), cols]):
        part = dist[tuple(index)]
        if fill == "mixed":
            dist[tuple(index)] = np.where(np.arange(part.size).reshape(part.shape) % 3, math.inf, math.nan)
        else:
            dist[tuple(index)] = fill
    assert_pairs_match(dist)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 40), (40, 3), (60, 60)])
@pytest.mark.parametrize("seed", range(4))
def test_shapes(shape, seed):
    rng = np.random.default_rng(seed)
    assert_pairs_match(rng.random(shape))
    assert_pairs_match(rng.integers(0, 3, shape).astype(float))
    dist = rng.random(shape)
    dist[rng.random(shape) < 0.3] = rng.choice([math.inf, -math.inf, math.nan])
    assert_pairs_match(dist)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_one_claim_per_round(n):
    """dist[i, j] = i n + j for j >= i: each round finds one mutual pair."""
    i, j = np.mgrid[0:n, 0:n]
    dist = np.where(j >= i, i * n + j, n * n + i).astype(float)
    assert_pairs_match(dist)
    assert_pairs_match(dist.T)


def test_long_chain_takes_one_round():
    """The n = 1000 chain: a round claims one pair, then the scan finishes,
    so the rank matrix is cut down once (four np.delete calls)."""
    n = 1000
    i, j = np.mgrid[0:n, 0:n]
    dist = np.where(j >= i, i * n + j, n * n + i).astype(float)
    for d in (dist, dist.T):
        with mock.patch.object(evaluate.np, "delete", wraps=np.delete) as delete:
            assert_pairs_match(d)
        assert delete.call_count == 4


@settings(max_examples=200, deadline=None)
@given(
    na=st.integers(1, 9),
    nb=st.integers(1, 9),
    data=st.data(),
)
def test_structural_matrix_matches_oracle(na, nb, data):
    """Bit for bit, except the sign of a NaN: when both operands of an add
    are NaN, which one numpy returns depends on its loop (a vector body or
    a scalar tail), and neither sorting nor printing reads the sign."""
    coords = st.one_of(special, st.floats(-1e6, 1e6), st.floats(allow_nan=True))
    a = data.draw(hnp.arrays(np.float64, (na, 2, 2), elements=coords))
    b = data.draw(hnp.arrays(np.float64, (nb, 2, 2), elements=coords))
    with np.errstate(all="ignore"):
        got = _structural_matrix(a.reshape(-1, 4), b.reshape(-1, 4))  # endpoint rows
        want = oracle_structural_matrix(a, b)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def random_lines(rng, n, size=100.0):
    out = []
    while len(out) < n:
        x1, y1, x2, y2 = rng.uniform(0.0, size, 4)
        if math.hypot(x2 - x1, y2 - y1) > 1.0:
            out.append(LineSegment((x1, y1), (x2, y2)))
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    na=st.integers(0, 30),
    nb=st.integers(0, 30),
    kind=st.sampled_from(["structural", "orthogonal"]),
    shared=st.booleans(),
)
def test_match_one_to_one_matches_oracle(seed, na, nb, kind, shared):
    rng = np.random.default_rng(seed)
    a = random_lines(rng, na)
    # Shared lines give exact zero-distance ties across pairs.
    b = (a[:nb] + random_lines(rng, max(nb - na, 0))) if shared else random_lines(rng, nb)
    rng.shuffle(b)
    h = Homography(np.array([[1.0, 0.02, 3.0], [-0.01, 1.0, -2.0], [1e-5, 0.0, 1.0]]))
    h = h if not shared else Homography.identity()
    assert match_one_to_one(a, b, h, distance=kind) == oracle_match_one_to_one(a, b, h, kind)
