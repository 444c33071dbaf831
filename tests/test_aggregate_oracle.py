"""aggregate_median against the n x n loop it replaced.

``oracle_aggregate_median`` scores every candidate against every sample
over the whole grid: for each j, |x - x_j| mod pi folded to [0, pi/2] is
added to every candidate's cost. The new function computes each pair
distance once, adds it to both candidates in their own j order, skips the
exact +0.0 self term and works on chunks of pixel rows. None of that may
change a bit: on any stack, ties and duplicate samples included, both
must return the same DF and AF grids.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefields import FieldPair, ScalarField, aggregate_median
from linefields import pseudo_gt


def oracle_aggregate_median(pairs):
    df_stack = np.stack([fp.df.data for fp in pairs])
    n = df_stack.shape[0]
    df_med = np.sort(df_stack, axis=0)[(n - 1) // 2]
    af_stack = np.sort(np.stack([fp.af.data for fp in pairs]), axis=0)
    cost = np.zeros_like(af_stack)
    for j in range(n):
        diff = np.abs(af_stack - af_stack[j]) % math.pi
        cost += np.minimum(diff, math.pi - diff)
    best = cost.min(axis=0)
    candidates = np.where(cost == best, af_stack, np.inf)
    af_med = candidates.min(axis=0)
    return df_med, af_med


def assert_matches_oracle(pairs):
    got = aggregate_median(pairs)
    want_df, want_af = oracle_aggregate_median(pairs)
    assert got.df.data.tobytes() == want_df.tobytes()
    assert got.af.data.tobytes() == want_af.tobytes()
    return got


BELOW_PI = np.nextafter(math.pi, 0.0)
CHUNKS = [1, pseudo_gt._AGG_ELEMENTS]


@st.composite
def stacks(draw):
    """1-12 pairs whose values come from small pools, so that samples
    repeat exactly and summed costs tie."""
    n = draw(st.integers(1, 12))
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    af_pool = np.concatenate(
        [[0.0, BELOW_PI, 0.5 * math.pi, 1e-17, 3.0], rng.uniform(0.0, math.pi, 3)]
    )
    af_pool = af_pool[: draw(st.integers(1, len(af_pool)))]
    df_pool = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 1e300])
    af = af_pool[rng.integers(0, len(af_pool), (n, h, w))]
    df = df_pool[rng.integers(0, len(df_pool), (n, h, w))]
    return [FieldPair(ScalarField(d), ScalarField(a), 5.0) for d, a in zip(df, af)]


@settings(max_examples=300, deadline=None)
@given(pairs=stacks(), chunk=st.sampled_from(CHUNKS))
def test_tie_heavy_stacks_match_oracle(pairs, chunk):
    with mock.patch.object(pseudo_gt, "_AGG_ELEMENTS", chunk):
        assert_matches_oracle(pairs)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
def test_random_fields_match_oracle(n, chunk):
    """Fields of several row chunks, with values outside [0, pi) too."""
    rng = np.random.default_rng(n)
    h, w = 70, 40
    pairs = [
        FieldPair(
            ScalarField(rng.uniform(0.0, 10.0, (h, w))),
            ScalarField(np.where(rng.random((h, w)) < 0.2, -2.0, rng.uniform(0.0, math.pi, (h, w)))),
            5.0,
        )
        for _ in range(n)
    ]
    with mock.patch.object(pseudo_gt, "_AGG_ELEMENTS", chunk):
        got = assert_matches_oracle(pairs)
    assert got.af.data.shape == (h, w)
