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
name with a live one (one more ``to_json`` next to the live ones, say)
still passes.

A third scan applies it to keyword parameters. A parameter whose default
is a literal number or bool, and that no non-test call ever passes, is a
second code path nothing drives: it becomes a constant or goes. The scan
covers public top-level functions and the public methods and
``__init__``s of public top-level classes. ``None`` defaults are
injection seams (``rng=``, ``run_fn=``, ``total_packets=``) and are out
of it. A call passes a parameter by keyword, by position, or through a
``*``/``**`` splat that could reach it. The same two exemptions hold: a
function or class in ``repro.__all__`` is the public API, so its call
signature is too, and a CI workflow's inline script that calls the name
with the keyword counts as a caller.

A fourth scan applies it to constants. A public UPPER_CASE name bound
at module level in ``src/repro`` must be *loaded* (read as a name or an
attribute) by some non-test code. Its own assignment is a store, not a
load, and ``__all__`` strings and re-export imports are not references,
so a constant that only its definition and its package's export list
mention is dead. The same two exemptions hold: names in
``repro.__all__``, and whole-word mentions in a CI workflow.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


def public_constants() -> List[Tuple[str, str]]:
    """``(name, "path:line")`` for each public UPPER_CASE name bound by a
    module-level assignment (plain or annotated)."""
    constants: List[Tuple[str, str]] = []
    for path in _sources(PACKAGE):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(
                    r"[A-Z][A-Z0-9_]*", target.id
                ):
                    constants.append(
                        (target.id, f"{path.relative_to(ROOT)}:{node.lineno}")
                    )
    return constants


def _is_literal(node: ast.expr) -> bool:
    """A number or bool literal, possibly negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (bool, int, float)
    )


def _knobs_of(
    fn: ast.FunctionDef, callee: str, skip: int, where: str
) -> Iterator[Tuple[str, str, Optional[int], str]]:
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    for index, (arg, default) in enumerate(zip(positional, defaults)):
        if index >= skip and default is not None and _is_literal(default):
            yield callee, arg.arg, index - skip, where
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and _is_literal(default):
            yield callee, arg.arg, None, where


def keyword_knobs() -> List[Tuple[str, str, Optional[int], str]]:
    """``(callee, parameter, position, "path:line")`` for each parameter
    with a literal number or bool default.

    ``callee`` is the name a call uses: the function's, the method's, or
    the class's for ``__init__``. ``position`` is the parameter's index
    among a call's positional arguments, ``None`` if keyword-only.
    """
    knobs: List[Tuple[str, str, Optional[int], str]] = []
    for path in _sources(PACKAGE):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                knobs.extend(_knobs_of(node, node.name, 0, where))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list
                    )
                    at = f"{path.relative_to(ROOT)}:{fn.lineno}"
                    if fn.name == "__init__":
                        knobs.extend(_knobs_of(fn, node.name, 1, at))
                    elif not fn.name.startswith("_"):
                        knobs.extend(_knobs_of(fn, fn.name, 0 if static else 1, at))
    return knobs


def calls_by_name() -> Dict[str, List[ast.Call]]:
    """Every call in non-test code, keyed by the called name."""
    calls: Dict[str, List[ast.Call]] = {}
    for directory in CONSUMER_DIRS:
        for path in _sources(ROOT / directory):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append(node)
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append(node)
    return calls


def passes(call: ast.Call, parameter: str, position: Optional[int]) -> bool:
    """Whether ``call`` passes ``parameter`` (or could, through a splat)."""
    for keyword in call.keywords:
        if keyword.arg is None or keyword.arg == parameter:
            return True
    if position is None:
        return False
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or index == position:
            return True
    return False


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


def loaded_names() -> Set[str]:
    """Every identifier non-test code loads as a name or an attribute
    (assignment targets are stores and do not count)."""
    names: Set[str] = set()
    for directory in CONSUMER_DIRS:
        for path in _sources(ROOT / directory):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
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
    knobs = {(callee, name) for callee, name, _, _ in keyword_knobs()}
    assert {
        ("build_dumbbell", "delayed_ack"),  # function
        ("TcpReceiver", "delayed_ack"),     # __init__
        ("run_jobs", "fresh"),              # public API function
    } <= knobs
    assert any(
        passes(call, "delayed_ack", 3)
        for call in calls_by_name()["build_dumbbell"]
    )
    constants = {name for name, _ in public_constants()}
    assert {"TOPICS", "DEFAULT_STORE", "CRASH_RETRIES"} <= constants
    assert {"TOPICS", "CRASH_RETRIES"} <= loaded_names()


def test_passes_counts_keywords_positions_and_splats():
    def call(source: str) -> ast.Call:
        node = ast.parse(source, mode="eval").body
        assert isinstance(node, ast.Call)
        return node

    assert passes(call("f(a, knob=1)"), "knob", 3)
    assert passes(call("f(a, b)"), "knob", 1)
    assert not passes(call("f(a, b)"), "knob", 2)
    assert not passes(call("f(a, other=1)"), "knob", None)
    assert passes(call("f(a, *rest)"), "knob", 4)
    assert passes(call("f(a, **options)"), "knob", None)


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


def test_every_keyword_parameter_is_passed():
    calls = calls_by_name()
    exported = set(repro.__all__)
    workflows = workflow_text()
    unused = sorted(
        f"{where} {callee}({name}=)"
        for callee, name, position, where in keyword_knobs()
        if callee not in exported
        and not any(passes(call, name, position) for call in calls.get(callee, ()))
        and not re.search(
            rf"\b{re.escape(callee)}\((?:[^()]|\([^()]*\))*\b{re.escape(name)}\s*=",
            workflows,
        )
    )
    assert not unused, (
        "keyword parameters that no non-test call passes; make each a "
        "constant or give it a caller:\n  " + "\n  ".join(unused)
    )


def test_every_public_constant_is_loaded():
    loaded = loaded_names()
    exported = set(repro.__all__)
    workflows = workflow_text()
    unused = sorted(
        f"{where} {name}"
        for name, where in public_constants()
        if name not in loaded
        and name not in exported
        and not re.search(rf"\b{re.escape(name)}\b", workflows)
    )
    assert not unused, (
        "public constants that no non-test code loads; delete them or "
        "give them a reader:\n  " + "\n  ".join(unused)
    )
