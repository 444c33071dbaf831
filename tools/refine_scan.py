"""Line and VP refinement counts on the ``vp_refine`` scene pools, per pool seed.

    python3 tools/refine_scan.py --seeds 101-120
    python3 tools/refine_scan.py --seeds 101-120 --src ../parent/src
    python3 tools/refine_scan.py --seeds 101-110,8101-8103 --json scan.json
    python3 tools/refine_scan.py --seeds 8101-8103 --time

For each ``--seeds`` entry it builds that seed's ``vp_refine`` pool
(``perfbench/scenes.py``, size from ``perfbench/run.py``), runs every
scene's commands in-process through ``linefields.cli.main`` and counts,
by wrapping library functions for the run (nothing under ``src/``
changes):

- ``_refine_lines`` calls, their iterations ((``_batch_costs`` calls - 1)
  / 2 per call) and the calls that ran ``max_iter`` iterations;
- the summed final cost of each call (its finite costs), averaged per call;
- VP damping ladders: ``_damping_ladder`` calls made from ``vp.py``
  (line refinement binds its own name) and the model-iterations they held;
- failed CLI calls;
- wall time (``perf_counter``) inside ``_refine_lines``, ``_refine_vps``,
  ``_best_candidate`` and ``fit_vps``. ``fit_vps`` holds its own
  ``_best_candidate`` calls and, through ``refine_vp``, some of the
  ``_refine_vps`` time; ``--time`` prints each as ms per scene, so one
  layer can be compared between two trees without a tracer.

``--src`` names the source tree whose ``linefields`` runs (default: this
checkout's ``src``), so one checkout can scan another's program on the
same scenes. It prints one row per seed and a total row; ``--json`` also
writes them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Counts:
    line_calls: int = 0
    line_iterations: int = 0
    max_iter_calls: int = 0
    final_cost: float = 0.0  # summed over calls
    vp_ladders: int = 0
    vp_model_iterations: int = 0
    failed: int = 0
    attempted: int = 0
    scenes: int = 0
    refine_lines_s: float = 0.0
    refine_vps_s: float = 0.0
    best_candidate_s: float = 0.0
    fit_vps_s: float = 0.0

    def add(self, other: Counts) -> None:
        for name, value in asdict(other).items():
            setattr(self, name, getattr(self, name) + value)

    def row(self, label: str, time: bool = False) -> str:
        calls = max(self.line_calls, 1)
        row = (
            f"{label:>7} {self.line_calls:6d} {self.line_iterations / calls:9.2f} "
            f"{self.max_iter_calls:8d} {self.final_cost / calls:12.5f} {self.vp_ladders:8d} "
            f"{self.vp_model_iterations:9d} {self.failed:4d} of {self.attempted}"
        )
        if time:
            ms = 1e3 / max(self.scenes, 1)
            row += "".join(f" {getattr(self, name) * ms:8.2f}" for name in TIMED)
        return row


HEADER = "   seed  calls  it/call max_iter  cost/call   vp_lad  vp_model failed"
# The Counts fields that sum the seconds spent in _refine_lines, _refine_vps,
# _best_candidate and fit_vps.
TIMED = ("refine_lines_s", "refine_vps_s", "best_candidate_s", "fit_vps_s")
TIME_HEADER = "".join(f" {name:>8}" for name in ("lines_ms", "vp_lm_ms", "best_ms", "fit_ms"))


def parse_seeds(text: str) -> list[int]:
    """``101-120,8101`` -> [101, ..., 120, 8101]."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def timed(field: str, fn, counts: Counts):
    """``fn``, adding its wall time to ``field`` of ``counts``."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            setattr(counts, field, getattr(counts, field) + time.perf_counter() - start)

    return wrapper


@contextlib.contextmanager
def counting(cli, refine, vp, counts: Counts):
    """Count and time into ``counts`` while inside; restores every wrapped name."""
    batch_costs, refine_lines, ladder = refine._batch_costs, refine._refine_lines, vp._damping_ladder
    cost_calls = [0]

    def costs(*args, **kwargs):
        cost_calls[0] += 1
        return batch_costs(*args, **kwargs)

    def lines(rows, fp, vps, params, *rest, **kwargs):
        before = cost_calls[0]
        out = refine_lines(rows, fp, vps, params, *rest, **kwargs)
        iterations = (cost_calls[0] - before - 1) // 2
        counts.line_calls += 1
        counts.line_iterations += iterations
        counts.max_iter_calls += iterations == params.max_iter
        counts.final_cost += float(np.sum(out[1][np.isfinite(out[1])]))
        return out

    def vp_ladder(hess, damp, g, *args, **kwargs):
        counts.vp_ladders += 1
        counts.vp_model_iterations += len(g)
        return ladder(hess, damp, g, *args, **kwargs)

    lines = timed("refine_lines_s", lines, counts)
    refine_vps = timed("refine_vps_s", vp._refine_vps, counts)
    fit = timed("fit_vps_s", vp.fit_vps, counts)
    saved = [(refine, "_batch_costs", costs), (refine, "_refine_lines", lines),
             (cli, "_refine_lines", lines), (vp, "_damping_ladder", vp_ladder),
             (refine, "_refine_vps", refine_vps), (vp, "_refine_vps", refine_vps),
             (vp, "_best_candidate", timed("best_candidate_s", vp._best_candidate, counts)),
             (refine, "fit_vps", fit), (cli, "fit_vps", fit)]
    originals = [(mod, name, getattr(mod, name)) for mod, name, _ in saved]
    try:
        for mod, name, wrapper in saved:
            setattr(mod, name, wrapper)
        yield counts
    finally:
        for mod, name, original in originals:
            setattr(mod, name, original)


def scan(seeds: list[int], src: Path) -> dict[int, Counts]:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import run
    import scenes

    from linefields import cli, refine, vp

    if Path(cli.__file__).resolve().parent != (src / "linefields").resolve():
        raise SystemExit(f"error: imported linefields from {cli.__file__}, not {src}")
    runner = run.Runner(cli)
    result: dict[int, Counts] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            counts = Counts()
            failed, attempted = runner.failed, runner.attempted
            pool = scenes.make_scenes("vp_refine", seed, run.POOL["vp_refine"], Path(tmp) / str(seed))
            with counting(cli, refine, vp, counts):
                for scene in pool:
                    runner.scene(scene)
            counts.scenes = len(pool)
            counts.failed, counts.attempted = runner.failed - failed, runner.attempted - attempted
            result[seed] = counts
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="pool seeds, e.g. 101-120 or 101,8101-8103")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to run")
    parser.add_argument("--json", type=Path, help="also write the rows here")
    parser.add_argument("--time", action="store_true", help="also print ms per scene in each timed function")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds: {exc}")
    result = scan(seeds, args.src.resolve())
    total = Counts()
    print(HEADER + (TIME_HEADER if args.time else ""))
    for seed, counts in result.items():
        total.add(counts)
        print(counts.row(str(seed), args.time))
    print(total.row("total", args.time))
    if args.json:
        record = {"src": str(args.src), "seeds": {s: asdict(c) for s, c in result.items()}}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
