"""The package's log-gamma table and assignment solver against scipy.

The runtime needs only numpy. ``detector._log_gamma_upto`` keeps a table
of log Gamma at the integers for the NFA test, filled from
``math.lgamma``; it must lie within 1e-15 relative of
``scipy.special.gammaln``, which the NFA tests' tolerance rests on.
``evaluate._min_cost_assignment`` is a port of the solver of
``scipy.optimize.linear_sum_assignment``: every pairing must be equal
(ties included), and every refusal must carry scipy's message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import gammaln

from linefields import detector
from linefields.detector import _log_gamma_upto
from linefields.evaluate import _min_cost_assignment

# ------------------------------------------------------------ log-gamma

LGAMMA_RTOL = 1e-15


def test_log_gamma_table_matches_scipy_up_to_2_pow_20() -> None:
    n = 1 << 20
    table = _log_gamma_upto(n)
    assert len(table) > n
    assert table[0] == math.inf
    x = np.arange(1, n + 1)
    assert np.array_equal(table[1 : n + 1], [math.lgamma(v) for v in x.tolist()])
    want = gammaln(x.astype(np.float64))
    assert np.all(np.abs(table[1 : n + 1] - want) <= LGAMMA_RTOL * np.abs(want))


@pytest.mark.parametrize("x", [1, 2, 3, 12, 13, 999, 1000, 10**8, 10**8 + 1])
def test_lgamma_at_branch_edges_matches_scipy(x: int) -> None:
    # cephes lgam, which gammaln runs, changes formula at these integers;
    # 10**8 lies past the table test's reach.
    want = float(gammaln(float(x)))
    assert abs(math.lgamma(x) - want) <= LGAMMA_RTOL * abs(want)


def test_log_gamma_table_grows_by_chunks_of_the_same_values(monkeypatch) -> None:
    monkeypatch.setattr(detector, "_LOG_GAMMA", np.array([math.inf]))
    table = _log_gamma_upto(3000)
    m = len(table)
    assert m > 3000
    grown = _log_gamma_upto(m)
    assert len(grown) >= 2 * m
    assert np.array_equal(grown[:m], table)
    assert _log_gamma_upto(len(grown) - 1) is grown


# ------------------------------------------------------------ assignment


def assert_same_assignment(m: np.ndarray) -> None:
    try:
        want = linear_sum_assignment(m)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _min_cost_assignment(m)
        assert str(info.value) == str(exc)
        return
    rows, cols = _min_cost_assignment(m)
    assert rows.dtype.kind == cols.dtype.kind == "i"
    assert rows.tolist() == want[0].tolist()
    assert cols.tolist() == want[1].tolist()


@st.composite
def cost_matrices(draw) -> np.ndarray:
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["floats", "ties", "inf", "infeasible", "invalid"]))
    if kind == "floats":
        entry = st.floats(-1e3, 1e3)
    else:
        entry = st.integers(-2, 3).map(float)  # small integers tie often
    if kind != "ties":
        entry = st.one_of(entry, st.just(math.inf))
    m = np.array(
        draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
        dtype=np.float64,
    ).reshape(rows, cols)
    if kind == "infeasible":
        m[draw(st.integers(0, rows - 1))] = math.inf
    if kind == "invalid":
        bad = draw(st.sampled_from([math.nan, -math.inf]))
        m[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = bad
    return m


@settings(max_examples=600, deadline=None)
@given(m=cost_matrices())
def test_assignment_matches_scipy_in_both_orientations(m: np.ndarray) -> None:
    assert_same_assignment(m)
    assert_same_assignment(m.T)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 5), (5, 2)])
def test_constant_matrix_pairs_along_the_diagonal(shape) -> None:
    rows, cols = _min_cost_assignment(np.full(shape, 7.0))
    k = min(shape)
    assert rows.tolist() == list(range(k))
    assert cols.tolist() == list(range(k))


INVALID = "matrix contains invalid numeric entries"
INFEASIBLE = "cost matrix is infeasible"


@pytest.mark.parametrize(
    "m, message",
    [
        (np.array([[1.0, math.nan], [0.0, 2.0]]), INVALID),
        (np.array([[1.0], [-math.inf], [0.0]]), INVALID),
        (np.array([[1.0, 2.0], [math.inf, math.inf]]), INFEASIBLE),
        (np.array([[1.0, math.inf], [2.0, math.inf]]), INFEASIBLE),
    ],
)
def test_refusals_carry_scipy_messages(m: np.ndarray, message: str) -> None:
    with pytest.raises(ValueError, match=message):
        linear_sum_assignment(m)
    with pytest.raises(ValueError, match=message):
        _min_cost_assignment(m)
