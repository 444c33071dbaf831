"""linefields benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload vp_refine --seed 1 --seconds 30 --trace 0

One process runs one workload. Set-up writes a pool of generated scenes
(input files only) and warms every subcommand on a tiny scene; it is
repeated and its median reported. The timed loop then runs the pool's
scenes one after another through ``linefields.cli.main(argv)``, at least
one full pass and until ``--seconds`` of scene time have passed, hashing
every output file and checking accuracy against the generators' ground
truth. ``--trace 1`` runs every scene twice, untraced then traced, fails
loudly if the two differ, and reports per-layer self time and counters
instead of the end-to-end metrics. The last stdout line is the result
JSON; the lines before it are a readable report.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# Distinct scenes per pool: one pass takes 20-30 s on a 2-core box.
POOL = {"vp_refine": 9, "pseudo_gt": 9, "two_view": 10}
# Sanity floors on the accuracy metrics; a run below one is not correct.
FLOORS = {
    "vp_refine": {"repeatability": 0.9, "refine_err_ratio": 0.8, "vp_auc": 0.5},
    "pseudo_gt": {"repeatability": 0.3, "pgt_df_mae_px": 1.5, "pgt_coverage": 0.5},
    "two_view": {"repeatability": 0.4, "hest_ok_frac": 0.5},
}
# Metrics not produced by a workload are printed as this neutral value,
# because every result carries every metric and none may be 0.
NOT_MEASURED = 1.0

END_TO_END = {
    "setup_s": "s",
    "scenes_per_s": "1/s",
    "scene_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "repeatability": "ratio",
    "loc_error_px": "px",
    "refine_err_ratio": "ratio",
    "vp_auc": "ratio",
    "hest_ok_frac": "ratio",
    "pgt_df_mae_px": "px",
    "pgt_coverage": "ratio",
}
LOWER_IS_BETTER = {"refine_err_ratio", "loc_error_px", "pgt_df_mae_px"}
HEST_OK_PX = 2.0  # an `eval hest` corner error below this counts as a success


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        blas = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        blas = nproc
    return {"nproc": nproc, "openblas_threads": max(1, min(blas, nproc))}


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "linefields").glob("*.py")))


class Runner:
    """Runs scenes through the CLI, timing calls and hashing outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str], tracer=None) -> tuple[bool, str]:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{argv[0].replace('-', '_')}") if tracer else contextlib.nullcontext()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception:  # a crash in one call is a failed call, not a failed run
            rc = -1
            err.write(traceback.format_exc())
        if rc != 0:
            sys.stderr.write(f"call failed ({rc}): linefields {' '.join(argv)}\n{err.getvalue()}")
        return rc == 0, out.getvalue()

    def scene(self, scene, tracer=None, count=True) -> tuple[float, str, list[str], bool]:
        """Run one scene; returns (seconds, digest, stdout per call, all ok)."""
        for name in scene.outputs:
            (scene.directory / name).unlink(missing_ok=True)
        cwd = os.getcwd()
        os.chdir(scene.directory)
        outs, ok_all = [], True
        try:
            start = time.perf_counter()
            for argv in scene.commands:
                ok, out = self.call(argv, tracer)
                outs.append(out)
                ok_all &= ok
                if count:
                    self.attempted += 1
                    self.failed += not ok
            elapsed = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        digest = hashlib.sha256()
        for name in scene.outputs:
            path = scene.directory / name
            digest.update(name.encode() + b"\0" + (path.read_bytes() if path.exists() else b"<missing>"))
        for out in outs:
            digest.update(out.encode() + b"\0")
        return elapsed, digest.hexdigest(), outs, ok_all


def parse_value(outs: list[str], key: str) -> float:
    for out in outs:
        for line in out.splitlines():
            name, _, value = line.partition(" ")
            if name == key:
                return float(value)
    raise ValueError(f"no '{key}' in the CLI output")


def scene_accuracy(scenes_mod, workload: str, scene, outs: list[str]) -> dict[str, float]:
    """Accuracy of one completed scene from its stdout and output files."""
    acc = {"repeatability": parse_value(outs, "repeatability")}
    le = parse_value(outs, "localization_error")
    # On pseudo_gt the detections are fragments of long edges, and the
    # error of the matched fragments swings with the seed far beyond any
    # useful bound; there it is printed, and the pgt_ metrics gate accuracy.
    acc["le_fragments_px" if workload == "pseudo_gt" else "loc_error_px"] = le
    if workload == "vp_refine":
        gt, pert = scene.truth["gt"], scene.truth["pert"]
        refined = scenes_mod.read_segments(scene.directory / "refined.csv")
        acc["refine_err_before"] = float(scenes_mod.structural_errors(pert, gt).mean())
        acc["refine_err_after"] = float(scenes_mod.structural_errors(refined, gt).mean())
        acc["vp_auc"] = parse_value(outs, "auc")
    elif workload == "pseudo_gt":
        df = scenes_mod.read_field_df(scene.directory / "pgt.dlsf")
        acc["pgt_coverage"], acc["pgt_df_mae_px"] = scenes_mod.band_scores(df, scene.truth["df_gt"])
    elif workload == "two_view":
        acc["corner_err_px"] = parse_value(outs, "corner_error")
        acc["hest_ok"] = float(acc["corner_err_px"] < HEST_OK_PX)
    return acc


def accuracy_metrics(workload: str, per_scene: list[dict]) -> dict[str, float]:
    """Pool means of bounded scores, pool medians of heavy-tailed errors."""
    med = lambda key: statistics.median(a[key] for a in per_scene)  # noqa: E731
    mean = lambda key: statistics.fmean(a[key] for a in per_scene)  # noqa: E731
    m = {"repeatability": mean("repeatability")}
    if workload != "pseudo_gt":
        m["loc_error_px"] = med("loc_error_px")
    if workload == "vp_refine":
        m["refine_err_ratio"] = mean("refine_err_after") / mean("refine_err_before")
        m["vp_auc"] = mean("vp_auc")
    elif workload == "pseudo_gt":
        m["pgt_df_mae_px"] = mean("pgt_df_mae_px")
        m["pgt_coverage"] = mean("pgt_coverage")
    else:
        m["hest_ok_frac"] = mean("hest_ok")
    return m


def floor_failures(workload: str, acc: dict[str, float]) -> list[str]:
    bad = []
    for key, limit in FLOORS[workload].items():
        value = acc[key]
        if not math.isfinite(value) or (value > limit if key in LOWER_IS_BETTER else value < limit):
            bad.append(f"{key} = {value!r} is past its floor {limit}")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    os.environ["OPENBLAS_NUM_THREADS"] = str(env["openblas_threads"])
    if not (SRC / "linefields" / "__init__.py").is_file():
        print(f"error: no linefields sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from linefields import cli

    if Path(cli.__file__).resolve().parent != SRC / "linefields":
        print(f"error: imported linefields from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    env.update(
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        src_linefields_lines=src_line_count(),
    )

    work = ROOT / ".perfbench_tmp" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, env, import_s, work, cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run(args, env, import_s, work, cli) -> int:
    import calibrate
    import scenes
    import spans

    runner = Runner(cli)
    # Times are scaled to nominal machine speed by a reference kernel timed
    # around every interval (calibrate.py); the report also gives wall times.
    speed = calibrate.Speedometer()
    setups = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = scenes.make_scenes(args.workload, args.seed, POOL[args.workload], work / f"setup{i}")
        warm = scenes.warmup_scene(work / f"warm{i}")
        runner.scene(warm, count=False)
        setups.append(speed.scale(time.perf_counter() - start))
    setup_s = import_s * calibrate.NOMINAL_S / speed.samples[0] + statistics.median(setups)

    digests: dict[int, str] = {}
    mismatches: list[str] = []
    accuracy: dict[int, dict] = {}
    wall_s: list[float] = []  # untraced scenes, wall seconds
    plain_s: list[float] = []  # the same, at nominal speed
    traced_s: list[float] = []  # traced scenes, wall seconds
    tracer = spans.Tracer()
    timed = 0.0
    i = 0
    while i < len(pool) or timed < args.seconds:
        k = i % len(pool)
        scene = pool[k]
        elapsed, digest, outs, ok = runner.scene(scene)
        wall_s.append(elapsed)
        plain_s.append(speed.scale(elapsed))
        timed += elapsed
        if args.trace:
            with tracer.install():
                elapsed, traced_digest, _, _ = runner.scene(scene, tracer)
            traced_s.append(elapsed)
            timed += elapsed
            if traced_digest != digest:
                mismatches.append(f"scene {k}: traced outputs differ from untraced outputs")
        if digests.setdefault(k, digest) != digest:
            mismatches.append(f"scene {k}: outputs differ from its first run")
        if ok and k not in accuracy:
            try:
                accuracy[k] = scene_accuracy(scenes, args.workload, scene, outs)
            except (ValueError, OSError) as exc:
                mismatches.append(f"scene {k}: unreadable output: {exc}")
        i += 1

    problems = list(mismatches)
    acc = accuracy_metrics(args.workload, list(accuracy.values())) if accuracy else {}
    if acc:
        problems += floor_failures(args.workload, acc)
    else:
        problems.append("no scene completed")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = spans.layer_metrics(tracer, len(traced_s))
        metrics["trace.overhead_frac"] = sum(traced_s) / sum(wall_s) - 1.0
        units = {**spans.PER_LAYER, "trace.overhead_frac": "ratio"}
        print(f"traced scenes {len(traced_s)}  (per-layer values are per-scene means)")
        for name in tracer.missing:
            print(f"  not wrapped, reported as 0: {name}")
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": setup_s,
            "scenes_per_s": len(plain_s) / sum(plain_s),
            "scene_s_p50": statistics.median(plain_s),
            "peak_rss_mb": peak_kib / 1024.0,
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
            **acc,
        }
        for name in END_TO_END:
            metrics.setdefault(name, NOT_MEASURED)
        units = END_TO_END
        print(f"scenes {len(plain_s)}  pool {len(pool)}  setup runs {SETUP_REPEATS}  import {import_s:.3f} s")
        print("scene seconds, nominal " + " ".join(f"{t:.3f}" for t in plain_s))
        print("scene seconds, wall    " + " ".join(f"{t:.3f}" for t in wall_s))
        print("setup seconds, nominal " + " ".join(f"{t:.3f}" for t in setups))
        print("reference kernel ms    " + " ".join(f"{t * 1000:.1f}" for t in speed.samples))
        kernel_ms = statistics.median(speed.samples) * 1000.0
        print(f"wall: scenes_per_s {len(wall_s) / sum(wall_s):.6g}  scene_s_p50 {statistics.median(wall_s):.6g}"
              f"  reference kernel median {kernel_ms:.1f} ms (nominal {calibrate.NOMINAL_S * 1000:.0f} ms)")
        for k, a in sorted(accuracy.items()):
            print(f"scene {k} " + " ".join(f"{name} {v:.4g}" for name, v in a.items()))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
