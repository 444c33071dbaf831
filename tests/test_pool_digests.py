"""``tools/pool_digests.py --compare`` on small hand-made digest files."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pool_digests.py"
_spec = importlib.util.spec_from_file_location("pool_digests", TOOL)
pool_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pool_digests)

DIGESTS = {
    "pseudo_gt/scene00/lines.csv": "aa",
    "pseudo_gt/scene00/stdout 0 gen-gt": "bb",
    "pseudo_gt/scene01/lines.csv": "cc",
    "two_view/scene00/lines_a.csv": "dd",
}


def write(path: Path, seed: int, digests: dict[str, str], calls: dict | None = None) -> Path:
    record = {"seed": seed, "digests": digests}
    if calls is not None:
        record["calls"] = calls
    path.write_text(json.dumps(record))
    return path


def test_equal_files_exit_0(tmp_path, capsys) -> None:
    a = write(tmp_path / "a.json", 7, DIGESTS)
    b = write(tmp_path / "b.json", 7, DIGESTS)
    assert pool_digests.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == (
        "pseudo_gt: 0 of 3 differ\ntwo_view: 0 of 1 differ\n0 of 4 digests differ\n"
    )


def test_one_changed_digest_exits_1_and_names_its_output(tmp_path, capsys) -> None:
    a = write(tmp_path / "a.json", 7, DIGESTS)
    b = write(tmp_path / "b.json", 7, {**DIGESTS, "pseudo_gt/scene01/lines.csv": "ee"})
    assert pool_digests.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "pseudo_gt  lines.csv: differs in 1 of 2 scenes\n"
        "pseudo_gt: 1 of 3 differ\ntwo_view: 0 of 1 differ\n1 of 4 digests differ\n"
    )


def test_different_seeds_exit_2_with_one_error_line(tmp_path, capsys) -> None:
    a = write(tmp_path / "a.json", 7, DIGESTS)
    b = write(tmp_path / "b.json", 8, DIGESTS)
    assert pool_digests.main(["--compare", str(a), str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seeds differ (7 and 8)\n"


def test_failed_calls_are_printed_per_workload(tmp_path, capsys) -> None:
    calls = {"pseudo_gt": [0, 4], "two_view": [1, 5]}
    a = write(tmp_path / "a.json", 7, DIGESTS, calls)
    b = write(tmp_path / "b.json", 7, DIGESTS, {**calls, "two_view": [0, 5]})
    assert pool_digests.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == (
        "pseudo_gt: 0 of 3 differ\ntwo_view: 0 of 1 differ\n"
        "pseudo_gt: failed calls 0 of 4 -> 0 of 4\ntwo_view: failed calls 1 of 5 -> 0 of 5\n"
        "0 of 4 digests differ\n"
    )


def test_more_failed_calls_exit_1_with_equal_digests(tmp_path, capsys) -> None:
    a = write(tmp_path / "a.json", 7, DIGESTS, {"pseudo_gt": [0, 4]})
    b = write(tmp_path / "b.json", 7, DIGESTS, {"pseudo_gt": [1, 4]})
    assert pool_digests.main(["--compare", str(a), str(b)]) == 1
    assert "pseudo_gt: failed calls 0 of 4 -> 1 of 4\n" in capsys.readouterr().out
