"""Every ``repro`` name the example and benchmark scripts import exists.

The scripts are not run (they simulate for minutes); their import
statements are read with ``ast`` and each named ``repro`` module is
imported and checked for the names taken from it, so deleting a public
name fails here instead of when a user runs the script.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib
from typing import List, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    p for d in ("examples", "benchmarks") for p in (ROOT / d).glob("*.py")
)


def repro_imports(path: pathlib.Path) -> List[Tuple[int, str, List[str]]]:
    """``(line, module, names)`` for each absolute import of a ``repro``
    module; ``names`` is empty for a plain ``import repro.x``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] == "repro":
                found.append((node.lineno, module, [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    found.append((node.lineno, alias.name, []))
    return found


def test_scripts_are_found_and_import_repro():
    assert any(p.parent.name == "examples" for p in SCRIPTS)
    assert any(p.parent.name == "benchmarks" for p in SCRIPTS)
    assert sum(len(repro_imports(p)) for p in SCRIPTS) > len(SCRIPTS)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_repro_imports_resolve(path):
    for line, module, names in repro_imports(path):
        where = f"{path.parent.name}/{path.name}:{line}"
        mod = importlib.import_module(module)
        for name in names:
            if name == "*" or hasattr(mod, name):
                continue
            # ``from pkg import submodule`` works for a not-yet-imported
            # submodule too.
            is_submodule = hasattr(mod, "__path__") and (
                importlib.util.find_spec(f"{module}.{name}") is not None
            )
            assert is_submodule, f"{where}: {module} has no name {name!r}"
