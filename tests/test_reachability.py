"""Every public def in ``src/repro`` has a consumer outside the tests.

A function, class or method that only its own test calls is code no
scenario, benchmark or tool reaches. This test reads the source with
``ast`` and counts a def as used only when its name appears as an
``ast.Name`` or ``ast.Attribute`` in a non-test file under ``src/repro``,
``benchmarks/``, ``examples/``, ``perfbench/`` or ``tools/``. Import
statements and ``__all__`` lists are not references, so a re-export alone
does not keep a def alive. Two things do: being in ``repro.__all__`` (the
public API, top-level defs only), and appearing as a whole word in a CI
workflow (which drives the package from inline scripts). There is no
allowlist: a def that loses its last consumer is deleted, or it gains one.

Two scans apply the rule: one to public top-level functions and classes,
one to the public methods and properties of public top-level classes.
Both match by name only, not by type: a method whose name some live code
reads on any object counts as reached. So a dead method that shares its
name with a live one (``JobEvent.to_json`` next to the other
``to_json`` methods, say) still passes.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Iterator, List, Set, Tuple

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CONSUMER_DIRS = ("src/repro", "benchmarks", "examples", "perfbench", "tools")


def _is_test_file(path: pathlib.Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py"


def _sources(directory: pathlib.Path) -> Iterator[pathlib.Path]:
    for path in sorted(directory.rglob("*.py")):
        if not _is_test_file(path):
            yield path


def public_defs() -> List[Tuple[str, str]]:
    """``(name, "path:line")`` for each public top-level function and class."""
    defs: List[Tuple[str, str]] = []
    for path in _sources(PACKAGE):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                defs.append((node.name, f"{path.relative_to(ROOT)}:{node.lineno}"))
    return defs


def public_methods() -> List[Tuple[str, str]]:
    """``("Class.name", "path:line")`` for each public method and property
    of a public top-level class."""
    methods: List[Tuple[str, str]] = []
    for path in _sources(PACKAGE):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not node.name.startswith("_"):
                    methods.append((
                        f"{cls.name}.{node.name}",
                        f"{path.relative_to(ROOT)}:{node.lineno}",
                    ))
    return methods


def referenced_names() -> Set[str]:
    """Every identifier read as a name or an attribute by non-test code."""
    names: Set[str] = set()
    for directory in CONSUMER_DIRS:
        for path in _sources(ROOT / directory):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def workflow_text() -> str:
    return "\n".join(
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / ".github" / "workflows").glob("*.yml"))
    )


def test_scan_sees_the_package():
    defs = {name for name, _ in public_defs()}
    assert {"run_experiment", "DropTailQueue"} <= defs
    methods = {name for name, _ in public_methods()}
    assert {"Simulator.run", "RunStore.ls", "TcpSender.in_flight"} <= methods
    assert {"run_experiment", "run", "ls", "in_flight"} <= referenced_names()


def test_every_public_def_is_reached():
    referenced = referenced_names()
    exported = set(repro.__all__)
    workflows = workflow_text()
    unused = sorted(
        f"{where} {name}"
        for name, where in public_defs()
        if name not in referenced
        and name not in exported
        and not re.search(rf"\b{re.escape(name)}\b", workflows)
    )
    assert not unused, (
        "public defs with no consumer outside the tests; delete them or "
        "give them one:\n  " + "\n  ".join(unused)
    )


def test_every_public_method_is_reached():
    referenced = referenced_names()
    workflows = workflow_text()
    unused = sorted(
        f"{where} {qualname}"
        for qualname, where in public_methods()
        if (name := qualname.split(".")[1]) not in referenced
        and not re.search(rf"\b{re.escape(name)}\b", workflows)
    )
    assert not unused, (
        "public methods with no consumer outside the tests; delete them or "
        "give them one:\n  " + "\n  ".join(unused)
    )
