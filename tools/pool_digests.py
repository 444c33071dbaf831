"""sha256 digests of every output of the benchmark's scene pools, and their diff.

    python3 tools/pool_digests.py --seed 4242 --out change.json
    python3 tools/pool_digests.py --seed 4242 --src ../parent/src --out parent.json
    python3 tools/pool_digests.py --compare parent.json change.json

The first two forms build the pool of every benchmark workload for one
``--seed`` (``perfbench/scenes.py``, sizes from ``perfbench/run.py``), run
each scene's commands in-process through ``linefields.cli.main`` and write
one sha256 per output file and per command's stdout as JSON, with each
workload's failed and attempted CLI calls. ``--src``
names the source tree whose ``linefields`` runs (default: this checkout's
``src``), so one checkout can digest another's program on the same scenes.
``--compare`` lists, per workload, the outputs whose digests differ and in
how many scenes, then one ``workload: d of n differ`` total per workload
digested and, where both files record them, its failed calls before and
after. It exits 1 when any digest differs or B fails more calls of a
workload than A, and 2 when the two files digest different seeds.
Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest_pools(seed: int, src: Path) -> tuple[dict[str, str], dict[str, list[int]]]:
    """``workload/sceneNN/output`` -> sha256 for every pool scene, and
    ``workload`` -> [failed, attempted] CLI calls."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import run
    import scenes

    from linefields import cli

    if Path(cli.__file__).resolve().parent != (src / "linefields").resolve():
        raise SystemExit(f"error: imported linefields from {cli.__file__}, not {src}")
    runner = run.Runner(cli)
    digests: dict[str, str] = {}
    calls: dict[str, list[int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, count in sorted(run.POOL.items()):
            failed, attempted = runner.failed, runner.attempted
            for k, scene in enumerate(scenes.make_scenes(workload, seed, count, Path(tmp) / workload)):
                _, _, outs, _ = runner.scene(scene)
                key = f"{workload}/scene{k:02d}"
                for name in scene.outputs:
                    path = scene.directory / name
                    data = path.read_bytes() if path.exists() else b"<missing>"
                    digests[f"{key}/{name}"] = hashlib.sha256(data).hexdigest()
                for i, (argv, out) in enumerate(zip(scene.commands, outs)):
                    label = " ".join(argv[:2]) if argv[0] == "eval" else argv[0]
                    digests[f"{key}/stdout {i} {label}"] = hashlib.sha256(out.encode()).hexdigest()
            calls[workload] = [runner.failed - failed, runner.attempted - attempted]
    return digests, calls


def compare(a_path: Path, b_path: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
    if a["seed"] != b["seed"]:
        print(f"error: seeds differ ({a['seed']} and {b['seed']})", file=sys.stderr)
        return 2
    calls_a, calls_b = a.get("calls", {}), b.get("calls", {})
    a, b = a["digests"], b["digests"]
    differ = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
    scenes = {k.rsplit("/", 1)[0] for k in a.keys() | b.keys()}
    per_output = Counter((k.split("/")[0], k.split("/", 2)[2]) for k in differ)
    total = Counter(k.split("/")[0] for k in scenes)
    for (workload, output), n in sorted(per_output.items()):
        print(f"{workload}  {output}: differs in {n} of {total[workload]} scenes")
    only = sorted(a.keys() ^ b.keys())
    for k in only:
        print(f"only in {a_path if k in a else b_path}: {k}")
    digested = Counter(k.split("/")[0] for k in a.keys() | b.keys())
    differing = Counter(k.split("/")[0] for k in differ)
    for workload, n in sorted(digested.items()):
        print(f"{workload}: {differing[workload]} of {n} differ")
    more_failed = False
    for workload in sorted(calls_a.keys() & calls_b.keys()):
        (fa, na), (fb, nb) = calls_a[workload], calls_b[workload]
        print(f"{workload}: failed calls {fa} of {na} -> {fb} of {nb}")
        more_failed |= fb > fa
    print(f"{len(differ)} of {len(a.keys() | b.keys())} digests differ")
    return 1 if differ or more_failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, help="pool seed, as perfbench/run.py --seed")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to run")
    parser.add_argument("--out", type=Path, help="where to write the digests")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seed is None or args.out is None:
        parser.error("give --seed and --out, or --compare A B")
    digests, calls = digest_pools(args.seed, args.src.resolve())
    record = {"seed": args.seed, "digests": digests, "calls": calls}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
