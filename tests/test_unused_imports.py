"""Every name that a module of src/etopo imports is referenced in it.

A removal that leaves its import behind fails here. The modules are parsed,
not imported. __init__.py is skipped: its imports are the package's
exports. A module may keep an unreferenced import only as a re-export that
the benchmark harness under perfbench/ imports from that module.
"""

import ast
from pathlib import Path

import pytest

from test_benchmark_names import imported_names

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "etopo"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unreferenced_imports(source):
    """The names that source binds by an import statement and never reads,
    sorted. `from __future__` imports bind no name."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def harness_reexports(module):
    """The names that the harness imports from etopo.<module>."""
    prefix = f"etopo.{module}."
    return {dotted[len(prefix):] for _, dotted in imported_names()
            if dotted.startswith(prefix) and "." not in dotted[len(prefix):]}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_referenced(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    leftovers = set(unreferenced_imports(source)) - harness_reexports(module)
    assert not leftovers, f"etopo.{module} imports {sorted(leftovers)} and never uses them"


def test_the_guard_finds_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Optional\n"
        "from .errors import NotFoundError as Missing\n"
        "def f(xs: Iterable[int]) -> int:\n"
        "    return len(os.path.sep)\n"
    )
    assert unreferenced_imports(source) == ["Missing", "Optional"]
