"""Self-tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402
from linefields import cli  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_of_nested_spans():
    # a: 0..10 holds b: 1..4 (which holds c: 2..3) and d: 5..9
    tracer = spans.Tracer(FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    assert dict(tracer.self_s) == {"c": 1, "b": 2, "d": 4, "a": 3}


def test_repeated_span_names_accumulate():
    tracer = spans.Tracer(FakeClock([0, 1, 3, 4, 6, 10]))
    with tracer.span("outer"):
        with tracer.span("x"):
            pass
        with tracer.span("x"):
            pass
    # outer: 0..10 holding x: 1..3 and x: 4..6
    assert tracer.self_s["x"] == 4
    assert tracer.self_s["outer"] == 6


def test_speedometer_scales_by_the_kernel_around_each_interval():
    kernel = iter([0.1, 0.1, 0.2]).__next__  # nominal is 0.05 s
    speed = calibrate.Speedometer(kernel)
    assert speed.scale(2.0) == 1.0  # kernel at half speed: 2 s is 1 nominal s
    assert speed.scale(3.0) == pytest.approx(3.0 * 0.05 / 0.15)
    assert speed.samples == [0.1, 0.1, 0.2]


def test_install_restores_module_attributes():
    originals = {
        (m, a): getattr(importlib.import_module(m), a) for m, a, *_ in spans.LAYERS
    }
    tracer = spans.Tracer()
    with tracer.install():
        for (m, a), fn in originals.items():
            assert getattr(importlib.import_module(m), a) is not fn
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn
    with pytest.raises(RuntimeError):
        with tracer.install():
            raise RuntimeError("boom")
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn


def test_boundary_missing_from_the_program_reports_zero():
    # A later change may inline or rename a callee; its entry then matches
    # nothing, and the run goes on with that span empty.
    table = [
        ("linefields.cli", "render_fields", "span", "fields.render", None),
        ("linefields.cli", "no_such_function", "span", "refine.line", None),
        ("linefields.no_such_module", "f", "count", "vp.candidates", None),
    ]
    original = cli.render_fields
    tracer = spans.Tracer()
    with tracer.install(table):
        assert cli.render_fields is not original
    assert cli.render_fields is original
    assert tracer.missing == ["linefields.cli.no_such_function", "linefields.no_such_module.f"]
    values = spans.layer_metrics(tracer, 1)
    assert values["refine.line_s"] == 0.0 and values["vp.candidates"] == 0.0


def test_span_never_entered_reports_zero():
    values = spans.layer_metrics(spans.Tracer(), scenes=3)
    assert set(values) == set(spans.PER_LAYER)
    assert all(v == 0.0 for v in values.values())
    assert spans.layer_metrics(spans.Tracer(), scenes=0)["refine.line_s"] == 0.0


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(scenes.GENERATORS))
def test_generators_repeat_exactly_per_seed(workload, tmp_path):
    a = scenes.make_scenes(workload, 7, 2, tmp_path / "a")
    b = scenes.make_scenes(workload, 7, 2, tmp_path / "b")
    c = scenes.make_scenes(workload, 8, 2, tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert [s.commands for s in a] == [s.commands for s in b]


def test_generated_scenes_get_distinct_program_seeds(tmp_path):
    pool = scenes.make_scenes("pseudo_gt", 7, 3, tmp_path)
    seeds = [argv[argv.index("--seed") + 1] for argv in (s.commands[0] for s in pool)]
    assert len(set(seeds)) == 3


def test_band_scores_split_missed_pixels_from_error():
    df_gt = scenes.np.array([[0.0, 1.0, 2.0, 9.0]])
    df = scenes.np.array([[0.5, 1.0, 5.0, 0.0]])  # the third band pixel is missed
    coverage, mae = scenes.band_scores(df, df_gt, r=5.0)
    assert coverage == pytest.approx(2 / 3)
    assert mae == pytest.approx(0.25)


def test_traced_run_matches_untraced_run(tmp_path):
    scene = scenes.warmup_scene(tmp_path)
    runner = run.Runner(cli)
    _, plain, _, ok = runner.scene(scene)
    tracer = spans.Tracer()
    with tracer.install():
        _, traced, _, _ = runner.scene(scene, tracer)
    assert ok and runner.failed == 0
    assert traced == plain
    values = spans.layer_metrics(tracer, 1)
    assert values["fields.render_calls"] >= 2  # gen-fields and every gen-gt warp
    assert values["refine.line_calls"] > 0
    assert values["evaluate.hest_models"] > 0
    assert 0.0 < values["detector.filter_kept"] <= 1.0


def test_failed_call_is_counted_not_raised(tmp_path):
    runner = run.Runner(cli)
    scene = scenes.Scene(tmp_path, [["detect", "--fields", "missing.dlsf", "--out", "o.csv"]], ["o.csv"])
    _, _, _, ok = runner.scene(scene)
    assert not ok
    assert (runner.attempted, runner.failed) == (1, 1)
