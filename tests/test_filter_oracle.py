"""filter_lines against the per-line loop it replaced.

``oracle_filter_lines`` clips, samples and scores one candidate at a time,
with the frozen scalar clip of the warp/clip oracle and two lookups per
line through the frozen bilinear lookup of the refinement oracle.
filter_lines clips all lines in one kernel call with the same arithmetic,
then samples every surviving line in one (lines, n_samples)
pass and takes each line's agree fraction row by row. The per-sample
arithmetic is the same, so on any input the two must keep the same
candidates, in the same order: lines inside the field, lines clipped at
its border, and lines that lie wholly outside it. The oracle writes out the
filter's constants (50 samples, eta_df 1.5, eta_theta 20 deg, inlier
fraction 0.5) as literals rather than reading the module's.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from linefields import LineSegment, filter_lines, render_fields

from test_refine_oracle import oracle_bilinear_many
from test_warp_clip_oracle import oracle_clip_segment_to_rect
from util_synth import random_segments


def oracle_filter_lines(lines, fp, seen=None):
    seen = Counter() if seen is None else seen
    h, head_w = fp.height, fp.width
    xmin, ymin = 0.5, 0.5
    xmax, ymax = head_w - 0.5, h - 0.5
    ts = np.linspace(0.0, 1.0, 50)
    kept = []
    for seg in lines:
        clipped = oracle_clip_segment_to_rect(seg, xmin, ymin, xmax, ymax)
        if clipped is None:
            seen["outside"] += 1
            continue
        if clipped != seg:
            seen["clipped"] += 1
        xs = clipped.p1.x + ts * (clipped.p2.x - clipped.p1.x)
        ys = clipped.p1.y + ts * (clipped.p2.y - clipped.p1.y)
        df_s = oracle_bilinear_many(fp.df.data, xs - 0.5, ys - 0.5, circular=False)
        af_s = oracle_bilinear_many(fp.af.data, xs - 0.5, ys - 0.5, circular=True)
        diff = np.mod(np.abs(af_s - seg.angle), math.pi)
        circ = np.minimum(diff, math.pi - diff)
        agrees = (df_s < 1.5) & (circ < math.pi / 9.0)
        if float(agrees.mean()) >= 0.5:
            seen["kept"] += 1
            kept.append(seg)
        else:
            seen["dropped"] += 1
    return kept


SIZE = 72
FIELDS = []
for _seed in range(3):
    _rng = np.random.default_rng(_seed)
    _gt = random_segments(_rng, size=SIZE, k_range=(3, 6), min_length=15, max_length=50,
                          min_separation=6, margin=2)
    FIELDS.append((_gt, render_fields(_gt, SIZE, SIZE, r=4.0)))


def candidates(rng, gt, n):
    """Jittered and stretched copies of the GT lines (many cross the
    border), plus random lines, some of them wholly outside the field."""
    out = []
    for _ in range(n):
        kind = rng.integers(3)
        if kind == 0:
            s = gt[rng.integers(len(gt))]
            stretch = rng.uniform(1.0, 3.0)
            mx, my = 0.5 * (s.p1.x + s.p2.x), 0.5 * (s.p1.y + s.p2.y)
            p1 = (mx + stretch * (s.p1.x - mx), my + stretch * (s.p1.y - my))
            p2 = (mx + stretch * (s.p2.x - mx), my + stretch * (s.p2.y - my))
            jit = rng.uniform(-2.0, 2.0, 4)
            out.append(LineSegment((p1[0] + jit[0], p1[1] + jit[1]), (p2[0] + jit[2], p2[1] + jit[3])))
        else:
            lo, hi = (-30.0, SIZE + 30.0) if kind == 1 else (SIZE + 1.0, SIZE + 40.0)
            x1, y1, x2, y2 = rng.uniform(lo, hi, 4)
            if (x1, y1) != (x2, y2):
                out.append(LineSegment((x1, y1), (x2, y2)))
    return out


@settings(max_examples=120, deadline=None)
@given(
    field=st.integers(0, len(FIELDS) - 1),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
)
def test_kept_lines_match_oracle(field, seed, n):
    gt, fp = FIELDS[field]
    lines = candidates(np.random.default_rng(seed), gt, n) + list(gt)
    got = filter_lines(lines, fp)
    want = oracle_filter_lines(lines, fp)
    assert [id(s) for s in got] == [id(s) for s in want]


def test_fixed_scenes_cover_every_branch():
    """Inside, clipped and outside lines, kept and dropped, on fields of
    random segments and on a grid one pixel wide."""
    seen = Counter()
    for i, (gt, fp) in enumerate(FIELDS):
        lines = candidates(np.random.default_rng(100 + i), gt, 300)
        assert filter_lines(lines, fp) == oracle_filter_lines(lines, fp, seen=seen)
    for branch in ("outside", "clipped", "kept", "dropped"):
        assert seen[branch] > 0, branch
    thin = render_fields([LineSegment((0.5, 2.0), (0.5, 30.0))], 1, 40, r=3.0)
    lines = [LineSegment((0.5, -5.0), (0.5, 50.0)), LineSegment((0.0, 3.0), (9.0, 3.0))]
    assert filter_lines(lines, thin) == oracle_filter_lines(lines, thin)


def test_no_survivors():
    gt, fp = FIELDS[0]
    outside = [LineSegment((SIZE + 5.0, 1.0), (SIZE + 9.0, 30.0))]
    assert filter_lines([], fp) == oracle_filter_lines([], fp) == []
    assert filter_lines(outside, fp) == oracle_filter_lines(outside, fp) == []
