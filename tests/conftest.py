"""Run the suite from a checkout without installing the package.

``pythonpath = ["src"]`` in pyproject.toml puts ``src`` on the test
process's path; this puts it on PYTHONPATH too, so the CLI processes that
tests start (``python -m linefields``) import the same code.
"""

from __future__ import annotations

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
