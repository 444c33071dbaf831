"""``tools/refine_scan.py``: its seed ranges and the counts its wrappers take."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from linefields import LineSegment, RefineParams, cli, refine, render_fields, vp
from linefields.geometry import _rows

from util_synth import concurrent_lines

TOOL = Path(__file__).resolve().parents[1] / "tools" / "refine_scan.py"
_spec = importlib.util.spec_from_file_location("refine_scan", TOOL)
refine_scan = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = refine_scan  # dataclasses look their module up there
_spec.loader.exec_module(refine_scan)


def test_parse_seeds() -> None:
    assert refine_scan.parse_seeds("101-103,8101") == [101, 102, 103, 8101]
    with pytest.raises(ValueError):
        refine_scan.parse_seeds("x")


def test_counting_counts_iterations_and_restores_names() -> None:
    gt = LineSegment((20.5, 30.5), (80.5, 30.5))
    fp = render_fields([gt], 100, 64)
    rows = _rows([LineSegment((20.5, 31.5), (80.5, 31.5))])
    before = (refine._batch_costs, refine._refine_lines, cli._refine_lines, vp._damping_ladder)
    counts = refine_scan.Counts()
    with refine_scan.counting(cli, refine, vp, counts):
        _, cost, _ = refine._refine_lines(rows, fp, [None], RefineParams(max_iter=2))
    assert (refine._batch_costs, refine._refine_lines, cli._refine_lines, vp._damping_ladder) == before
    assert counts.line_calls == 1 and counts.line_iterations == 2 and counts.max_iter_calls == 1
    assert counts.final_cost == float(cost[0]) and np.isfinite(cost[0])


def test_counting_times_the_layers_and_restores_them() -> None:
    names = [(refine, "_refine_vps"), (vp, "_refine_vps"), (vp, "_best_candidate"),
             (refine, "fit_vps"), (cli, "fit_vps")]
    before = [getattr(mod, name) for mod, name in names]
    lines = concurrent_lines(np.random.default_rng(3), np.array([400.0, 120.0, 1.0]), 8)
    counts = refine_scan.Counts()
    with refine_scan.counting(cli, refine, vp, counts):
        models, _ = refine.fit_vps(lines)
    assert [getattr(mod, name) for mod, name in names] == before
    assert len(models) == 1
    assert counts.fit_vps_s >= counts.best_candidate_s > 0.0 and counts.fit_vps_s >= counts.refine_vps_s > 0.0
    assert counts.refine_lines_s == 0.0 and counts.vp_model_iterations > 0
    counts.scenes = 2
    row = counts.row("8101", time=True).split()
    header = (refine_scan.HEADER + refine_scan.TIME_HEADER).split()
    assert len(row) == len(header) + 2  # "failed" reads "0 of N"
    assert float(row[-1]) == round(counts.fit_vps_s * 1e3 / 2, 2)
