"""``tools/refine_scan.py``: its seed ranges and the counts its wrappers take."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from linefields import LineSegment, RefineParams, cli, refine, render_fields, vp
from linefields.geometry import _rows

from util_synth import concurrent_lines, pencil_segments, perturb_segment

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "refine_scan.py"
_spec = importlib.util.spec_from_file_location("refine_scan", TOOL)
refine_scan = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = refine_scan  # dataclasses look their module up there
_spec.loader.exec_module(refine_scan)


def test_parse_seeds() -> None:
    assert refine_scan.parse_seeds("101-103,8101") == [101, 102, 103, 8101]
    with pytest.raises(ValueError):
        refine_scan.parse_seeds("x")


def test_counting_counts_iterations_and_restores_names(monkeypatch) -> None:
    gt = LineSegment((20.5, 30.5), (80.5, 30.5))
    fp = render_fields([gt], 100, 64)
    rows = _rows([LineSegment((20.5, 31.5), (80.5, 31.5))])
    names = [(refine, "_batch_costs"), (refine, "_refine_lines"), (cli, "_refine_lines"),
             (vp, "_damping_ladder"), (refine, "refine_joint"), (cli, "refine_joint")]
    before = [getattr(mod, name) for mod, name in names]
    counts = refine_scan.Counts()
    monkeypatch.setattr(refine, "_MAX_ITER", 2)
    with refine_scan.counting(cli, refine, vp, counts):
        _, cost, _ = refine._refine_lines(rows, fp, [None], RefineParams())
    assert [getattr(mod, name) for mod, name in names] == before
    assert counts.line_calls == 1 and counts.line_iterations == 2 and counts.max_iter_calls == 1
    assert counts.final_cost == float(cost[0]) and np.isfinite(cost[0])
    assert counts.joint_rounds == 0  # not called from refine_joint


def test_counting_counts_joint_rounds() -> None:
    # A round of refine_joint is one _refine_lines call of one iteration.
    rng = np.random.default_rng(51)
    gt = pencil_segments(rng, vp_xy=(1800.0, 128.0), size=256, n=10, half_range=(8.0, 12.0))
    fp = render_fields(gt, 256, 256)
    pert = [perturb_segment(seg, rng) for seg in gt]
    counts = refine_scan.Counts()
    with refine_scan.counting(cli, refine, vp, counts):
        cli.refine_joint(pert, fp, RefineParams())
    rounds = refine._K_ALTERNATIONS
    assert counts.joint_rounds == counts.line_calls == counts.line_iterations == rounds
    counts.scenes = 2
    row = counts.row("51").split()
    header = refine_scan.HEADER.split()
    assert float(row[header.index("it/scene")]) == float(row[header.index("rnd/scene")]) == rounds / 2


def test_metrics_are_perfbench_pool_metrics(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    counts = refine_scan.Counts()
    assert all(np.isnan(v) for v in counts.metrics().values())
    scenes = [
        {"repeatability": 1.0, "loc_error_px": 0.1, "refine_err_before": 1.0, "refine_err_after": 0.2,
         "vp_auc": 0.9},
        {"repeatability": 0.5, "loc_error_px": 0.3, "refine_err_before": 3.0, "refine_err_after": 0.4,
         "vp_auc": 0.7},
    ]
    other = refine_scan.Counts(accuracy=scenes[1:])
    counts.accuracy.append(scenes[0])
    counts.add(other)  # the total row pools the scenes of every seed
    want = run.accuracy_metrics("vp_refine", scenes)
    assert counts.metrics() == {"refine_err_ratio": want["refine_err_ratio"], "vp_auc": want["vp_auc"]}
    assert counts.metrics()["refine_err_ratio"] == pytest.approx(0.15)


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
