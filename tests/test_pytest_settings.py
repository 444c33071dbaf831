"""The suite's pytest settings (pyproject.toml) report a failing hypothesis
test as one failure and keep running the tests after it.

Warnings are errors in this suite. Writing a failure report, hypothesis
triggers a DeprecationWarning from mypy_extensions; raised as an error, it
made pytest stop with INTERNALERROR and never run the rest of the suite.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_leaves_the_rest_running(tmp_path: Path) -> None:
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_pair.py"),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
