"""Exported names resolve, each in one module, and README's module table
names only exported ones.

A pruned function must leave no stale entry in an ``__all__`` list and no
row in the README's module table. The package star-imports every module,
so a name in two modules' ``__all__`` would silently take the later
module's object.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import linefields

MODULES = ["geometry", "fields", "pseudo_gt", "detector", "vp", "refine", "evaluate", "io", "cli"]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", ["linefields", *(f"linefields.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name: str) -> None:
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_package_name_is_in_exactly_one_module() -> None:
    owners = {name: [] for name in linefields.__all__}
    for m in MODULES:
        for name in importlib.import_module(f"linefields.{m}").__all__:
            owners.setdefault(name, []).append(m)
    assert {name: found for name, found in owners.items() if len(found) != 1} == {}


def readme_module_table() -> dict[str, list[str]]:
    """Module name -> names quoted in its row of README's module table."""
    rows = {}
    for line in README.read_text().splitlines():
        row = re.fullmatch(r"\|\s*`(\w+)`\s*\|(.*)\|", line.strip())
        if row:
            rows[row.group(1)] = re.findall(r"`(\w+)`", row.group(2))
    return rows


def test_readme_module_table_names_are_exported() -> None:
    table = readme_module_table()
    assert set(table) == set(MODULES) - {"cli"}
    for module_name, names in table.items():
        module = importlib.import_module(f"linefields.{module_name}")
        assert [n for n in names if n not in module.__all__] == [], module_name
        assert [n for n in names if n not in linefields.__all__] == [], module_name
