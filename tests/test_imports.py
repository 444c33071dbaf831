"""No module of the package imports a name it does not use.

No linter runs on this code, so this is the check: every name an import
binds in ``src/linefields`` must be read in its module or listed in its
``__all__``; an ``__all__`` built by an expression rather than written as
a literal list marks no name as read. An import on a line marked
``# noqa: F401`` is kept on purpose and exempt. Every module-level
private name (a ``_x`` function, class or constant) must be read
somewhere in the package, so a refactor leaves none stranded. The names
the benchmark's tracer wraps must exist. Importing the package and its
CLI loads no scipy module. No module calls numpy's ``choice``: both
RANSACs draw their minimal samples through ``vp._draws``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "linefields"
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                marked = {node.lineno, alias.lineno}
                if any("# noqa: F401" in lines[k - 1] for k in marked):
                    continue
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            try:
                read |= set(ast.literal_eval(node.value))
            except ValueError:  # a built __all__ marks no name as read
                pass
    return sorted(name for name in bound if name not in read)


def test_checker_finds_an_unused_import() -> None:
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "from pathlib import (\n"
        "    Path,\n"
        "    PurePath,  # noqa: F401\n"
        ")\n"
        "__all__ = ['loads']\n"
        "print(dumps)\n"
    )
    assert unused_imports(source) == ["Path", "os"]
    built = (
        "import json\n"
        "from json import dumps\n"
        "from json import *  # noqa: F401\n"
        "__all__ = [name for name in json.__all__ if name != 'load']\n"
    )
    assert unused_imports(built) == ["dumps"]


def test_package_has_no_unused_imports() -> None:
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every module-level private name that no module
    of ``sources`` (module name -> source) reads."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_checker_finds_an_unread_private_name() -> None:
    sources = {
        "a": (
            "_USED = 1\n"
            "_LEFT: int = 2\n"
            "def _helper(): return _USED\n"
            "class _Stranded: pass\n"
            "def public(): return _helper()\n"
        ),
        "b": "from . import a\nfrom .a import _helper\n_helper()\nprint(a._LEFT)\n",
    }
    assert unread_private_names(sources) == ["a._Stranded"]


def test_package_has_no_unread_private_names() -> None:
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def choice_calls(source: str) -> list[int]:
    """Line numbers of the ``.choice(...)`` calls in ``source``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choice"
    )


def test_checker_finds_a_choice_call() -> None:
    source = "import numpy as np\nrng = np.random.default_rng(0)\nchoice = 1\nx = rng.choice(5, 2)\n"
    assert choice_calls(source) == [4]


def test_package_calls_no_choice() -> None:
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := choice_calls(path.read_text()))
    }
    assert found == {}


def test_benchmark_tracer_boundaries_exist() -> None:
    # perfbench/spans.py wraps each (module, attribute) of LAYERS. A name
    # the program drops reads 0 in the benchmark and fails its self-test
    # (perfbench/test_perfbench.py, outside this suite), so it fails here.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, *_ in spans.LAYERS
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_package_imports_no_scipy() -> None:
    # The runtime needs numpy only; scipy is a test-time reference. A
    # fresh interpreter shows what importing the package and its CLI loads.
    code = (
        "import sys\n"
        "import linefields, linefields.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"
