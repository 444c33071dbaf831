"""Batched line refinement: every line refines as it would alone.

The batched solver keeps one damping, VP and stopping state per line
and builds every per-line number from elementwise operations or row-wise
reductions. So refining any subset of lines, in any order, must give each
line bit for bit what refining it alone gives, including its cost and
converged flag, and a singular system on one line must leave the others
untouched. Lines go in and come out as (n, 4) endpoint rows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefields import LineSegment, RefineParams, VanishingPoint, d_vp, line_cost, render_fields
from linefields.geometry import _rows
from linefields.refine import _MAX_BOOSTS, _refine_lines

from util_synth import pencil_segments, perturb_segment

PARAMS = RefineParams()


def vp_along(seg: LineSegment, turn: float) -> VanishingPoint:
    """A point 600 px from the midpoint, ``turn`` radians off the segment's direction."""
    a = seg.oriented_angle + turn
    mx, my = seg.midpoint
    return VanishingPoint(np.array([mx + 600.0 * math.cos(a), my + 600.0 * math.sin(a), 1.0]))


def make_pool():
    rng = np.random.default_rng(61)
    gt = pencil_segments(rng, vp_xy=(700.0, 60.0), size=128, n=6, half_range=(10.0, 16.0))
    gt.append(LineSegment((30.5, 2.5), (90.5, 2.5)))  # close to the top border
    fp = render_fields(gt, 128, 128)
    pert = [perturb_segment(s, rng) for s in gt]
    lines = pert + [
        LineSegment((0.1, 60.0), (40.0, 60.0)),  # unevaluable: endpoint outside the field
        LineSegment((70.0, 0.52), (110.0, 0.52)),  # probes cross the border at once
    ]
    vps: list[VanishingPoint | None] = [None] * len(lines)
    vps[0] = vp_along(pert[0], 0.0)  # near
    vps[1] = vp_along(pert[1], 0.001)  # near, pulls the line off its field minimum
    vps[2] = vp_along(pert[2], 0.5)  # far from the line, used all the same
    vps[6] = vp_along(pert[6], 0.0)  # near, next to the border
    return fp, lines, vps


FP, LINES, VPS = make_pool()
ROWS = _rows(LINES)


def refine_rows(rows):
    return _refine_lines(ROWS[rows], FP, [VPS[k] for k in rows], PARAMS)


ALONE = [refine_rows([k]) for k in range(len(LINES))]


def assert_as_alone(k: int, got: np.ndarray, cost: float, converged: bool, alone=None) -> None:
    want, want_cost, want_conv = alone or ALONE[k]
    assert got.tobytes() == want[0].tobytes()
    assert cost == want_cost[0]
    assert converged == want_conv[0]


def test_pool_covers_every_kind_of_line() -> None:
    near = [v is not None and d_vp(l, v) < 1.5 for l, v in zip(LINES, VPS)]
    assert near[:4] == [True, True, False, False] and near[6]
    assert d_vp(LINES[2], VPS[2]) > 1.5
    refined = [out[0][0] for out in ALONE]
    without_vp = _refine_lines(ROWS[[2]], FP, [None], PARAMS)[0][0]
    assert (refined[2][:2] != without_vp[:2]).any()  # the far VP still pulls its line
    # An unevaluable line comes back unchanged, bit for bit.
    assert refined[7].tobytes() == ROWS[7].tobytes()
    assert math.isinf(ALONE[7][1][0]) and not ALONE[7][2][0]
    assert tuple(refined[8][:2]) == LINES[8].p1 and not ALONE[8][2][0]
    assert sum(bool(out[2][0]) for out in ALONE) >= 5


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(len(LINES))), size=st.integers(1, len(LINES)))
def test_any_subset_in_any_order_refines_as_alone(order: list[int], size: int) -> None:
    rows = order[:size]
    out, costs, converged = refine_rows(rows)
    for slot, k in enumerate(rows):
        assert_as_alone(k, out[slot], costs[slot], converged[slot])
    if 7 in rows:
        assert out[rows.index(7)].tobytes() == ROWS[7].tobytes()


def recording_solve(monkeypatch: pytest.MonkeyPatch, poisoned):
    """Make every stacked np.linalg.solve raise, as a singular stack would,
    and single solves raise when ``poisoned(lhs, rhs)``; count both."""
    real = np.linalg.solve
    calls = {"stacked": 0, "poisoned": 0, "single": []}

    def solve(lhs, rhs):
        if np.ndim(lhs) == 3:
            calls["stacked"] += 1
            raise np.linalg.LinAlgError("singular matrix in the stack")
        calls["single"].append((np.copy(lhs), np.copy(rhs)))
        if poisoned(lhs, rhs):
            calls["poisoned"] += 1
            raise np.linalg.LinAlgError("singular matrix")
        return real(lhs, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    return calls


CHOSEN = 4
BATCH = [0, 1, 2, 3, 4, 5]


def test_singular_stack_falls_back_to_single_solves(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = recording_solve(monkeypatch, lambda lhs, rhs: False)
    out, costs, converged = refine_rows(BATCH)
    assert calls["stacked"] > 0
    for slot, k in enumerate(BATCH):
        assert_as_alone(k, out[slot], costs[slot], converged[slot])


def test_singular_line_boosts_once_while_the_others_step(monkeypatch: pytest.MonkeyPatch) -> None:
    first = recording_solve(monkeypatch, lambda lhs, rhs: False)
    refine_rows([CHOSEN])
    rhs0 = first["single"][0][1]
    # The system of the chosen line's first accepted step: the lowest
    # damping level tried with its first gradient whose failure changes the
    # line's path. Lower levels were rejected anyway, higher ones unused.
    for lhs1 in [lhs for lhs, rhs in first["single"] if np.array_equal(rhs, rhs0)]:

        def poisoned(lhs, rhs, lhs1=lhs1):
            return np.array_equal(lhs, lhs1) and np.array_equal(rhs, rhs0)

        recording_solve(monkeypatch, poisoned)
        alone = refine_rows([CHOSEN])
        if (alone[0][0][:2] != ALONE[CHOSEN][0][0][:2]).any():
            break
    calls = recording_solve(monkeypatch, poisoned)
    out, costs, converged = refine_rows(BATCH)
    assert calls["poisoned"] == 1
    for slot, k in enumerate(BATCH):
        if k != CHOSEN:
            assert_as_alone(k, out[slot], costs[slot], converged[slot])
    slot = BATCH.index(CHOSEN)
    assert_as_alone(CHOSEN, out[slot], costs[slot], converged[slot], alone=alone)
    assert (out[slot][:2] != ALONE[CHOSEN][0][0][:2]).any()  # the boost changed its path
    assert costs[slot] < line_cost(LINES[CHOSEN], FP, VPS[CHOSEN])  # and it still stepped


def test_always_singular_line_gives_up_after_every_boost(monkeypatch: pytest.MonkeyPatch) -> None:
    first = recording_solve(monkeypatch, lambda lhs, rhs: False)
    refine_rows([CHOSEN])
    _, rhs0 = first["single"][0]
    # The gradient stays put while the line cannot move: every boost fails.
    calls = recording_solve(monkeypatch, lambda lhs, rhs: np.array_equal(rhs, rhs0))
    out, costs, converged = refine_rows(BATCH)
    assert calls["poisoned"] == _MAX_BOOSTS
    slot = BATCH.index(CHOSEN)
    assert converged[slot]  # no downhill step at any damping level
    assert costs[slot] == line_cost(LINES[CHOSEN], FP, VPS[CHOSEN])
    assert tuple(out[slot][:2]) == pytest.approx(LINES[CHOSEN].p1, abs=1e-9)
    for slot, k in enumerate(BATCH):
        if k != CHOSEN:
            assert_as_alone(k, out[slot], costs[slot], converged[slot])
