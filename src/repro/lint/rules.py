"""Domain-specific AST lint rules for simulation code.

Each rule has a stable code (``RPR001``...) and targets a class of
mistake that silently corrupts at-scale measurements:

========  =============================================================
RPR001    Wall-clock call (``time.time``, ``time.perf_counter``,
          ``datetime.now``, ...) — simulation code must read the
          virtual clock (``sim.now``), never the host clock.
RPR002    Unseeded randomness — module-level ``random.*`` functions use
          the shared global RNG, and a bare ``random.Random()`` seeds
          from the OS; both make runs irreproducible.
RPR003    Float ``==`` / ``!=`` on a simulated-time expression —
          accumulated float error makes exact time comparison a latent
          heisenbug; use an ordering guard or a ``None`` sentinel.
RPR004    Iteration over a ``set``/``dict`` expression whose loop body
          schedules events — set/dict iteration order then feeds event
          ordering (hash-seed dependent for str/object keys).
RPR005    Mutable default argument — shared state across calls.
RPR006    ``schedule``/``schedule_at`` callback arity mismatch — the
          callback cannot accept the supplied ``*args`` and would raise
          ``TypeError`` mid-simulation, possibly hours in.
========  =============================================================

The checker is heuristic by design (no type inference); anything it
cannot resolve it stays silent about, and intentional violations carry
an inline ``# repro-lint: disable=RPRxxx`` with a justification (see
:mod:`repro.lint.runner`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

ALL_CODES = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006")

RULE_SUMMARIES: Dict[str, str] = {
    "RPR001": "wall-clock call in simulation code",
    "RPR002": "unseeded random number generator",
    "RPR003": "float equality on simulated-time expression",
    "RPR004": "unordered set/dict iteration feeds event scheduling",
    "RPR005": "mutable default argument",
    "RPR006": "schedule() callback arity mismatch",
}


@dataclass(frozen=True)
class Finding:
    """One lint violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


#: ``module.attr`` suffixes treated as wall-clock reads (RPR001).
_WALL_CLOCK_SUFFIXES = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Module-level ``random.*`` functions that use the global RNG (RPR002).
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed",
}

#: Identifier shapes that denote simulated-time quantities (RPR003).
_TIME_NAME_RE = re.compile(
    r"(?:^|_)(?:now|time|deadline|delay|sojourn|expiry|rto|timeout)(?:_|$)|_at$|_next$"
)

#: Builtin constructors whose results are unordered or freshly mutable.
_SET_CONSTRUCTORS = {"set", "frozenset"}
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "deque", "defaultdict", "Counter", "OrderedDict"}


def _dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ``("a", "b", "c")``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    """The final identifier of a Name/Attribute expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_time_expr(node: ast.AST) -> bool:
    """Heuristic: does this expression denote a simulated-time value?"""
    ident = _terminal_identifier(node)
    if ident is not None:
        return bool(_TIME_NAME_RE.search(ident))
    if isinstance(node, ast.BinOp):
        return _is_time_expr(node.left) or _is_time_expr(node.right)
    return False


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _callback_arity(fn: _FunctionNode, drop_self: bool) -> Tuple[int, Optional[int]]:
    """(min_positional, max_positional or None for *args) of ``fn``."""
    args = fn.args
    positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
    if drop_self and positional:
        positional = positional[1:]
    max_args: Optional[int] = len(positional)
    min_args = len(positional) - len(args.defaults)
    if args.vararg is not None:
        max_args = None
    return max(0, min_args), max_args


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor applying every rule to one module."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        # Enclosing class/function stacks for RPR006 callback resolution.
        self._class_stack: List[ast.ClassDef] = []
        self._scope_stack: List[ast.AST] = []

    # -- plumbing ------------------------------------------------------

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    def check(self, tree: ast.Module) -> List[Finding]:
        self._scope_stack = [tree]
        self.visit(tree)
        return self.findings

    # -- scope tracking ------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self._check_mutable_defaults(node)
        self._scope_stack.append(node)
        self.generic_visit(node)
        self._scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_mutable_defaults(node)
        self.generic_visit(node)

    # -- RPR005: mutable defaults --------------------------------------

    def _check_mutable_defaults(self, node: _FunctionNode) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                           ast.DictComp, ast.SetComp))
            if not mutable and isinstance(default, ast.Call):
                func_ident = _terminal_identifier(default.func)
                mutable = func_ident in _MUTABLE_CONSTRUCTORS
            if mutable:
                self._report(
                    default,
                    "RPR005",
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                )

    # -- RPR001 / RPR002 / RPR006: calls -------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            self._check_wall_clock(node, dotted)
            self._check_unseeded_random(node, dotted)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("schedule", "schedule_at")
        ):
            self._check_schedule_arity(node)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, dotted: Tuple[str, ...]) -> None:
        if len(dotted) >= 2 and dotted[-2:] in _WALL_CLOCK_SUFFIXES:
            self._report(
                node,
                "RPR001",
                f"wall-clock call {'.'.join(dotted)}() in simulation code; "
                "use the simulator's virtual clock (sim.now)",
            )

    def _check_unseeded_random(self, node: ast.Call, dotted: Tuple[str, ...]) -> None:
        # Global-RNG module functions: random.random(), np.random.randint(),
        # ... — matches any chain ending ``random.<fn>`` so the numpy
        # global generator is caught too.
        if len(dotted) >= 2 and dotted[-2] == "random" and dotted[-1] in _GLOBAL_RANDOM_FNS:
            self._report(
                node,
                "RPR002",
                f"{'.'.join(dotted)}() uses the process-global RNG; "
                "thread a seeded random.Random instance through instead",
            )
            return
        # Unseeded constructor: random.Random() / Random() with no args.
        if dotted[-1] == "Random" and not node.args and not node.keywords:
            self._report(
                node,
                "RPR002",
                "random.Random() without a seed draws entropy from the OS; "
                "pass an explicit seed",
            )

    def _check_schedule_arity(self, node: ast.Call) -> None:
        if len(node.args) < 2:
            return  # schedule(delay) alone is a TypeError anyway; not ours
        if any(isinstance(a, ast.Starred) for a in node.args):
            return
        callback = node.args[1]
        supplied = len(node.args) - 2
        resolved = self._resolve_callback(callback)
        if resolved is None:
            return
        fn, drop_self = resolved
        # A required keyword-only parameter can never be bound by
        # schedule's positional fan-out.
        required_kwonly = sum(
            1
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is None
        )
        min_args, max_args = _callback_arity(fn, drop_self)
        label = getattr(fn, "name", "<lambda>")
        if required_kwonly:
            self._report(
                node,
                "RPR006",
                f"callback {label}() has required keyword-only parameters; "
                "schedule() passes arguments positionally",
            )
            return
        if supplied < min_args or (max_args is not None and supplied > max_args):
            expected = (
                f"{min_args}" if max_args == min_args
                else f"{min_args}..{'*' if max_args is None else max_args}"
            )
            self._report(
                node,
                "RPR006",
                f"callback {label}() takes {expected} positional argument(s) "
                f"but schedule() supplies {supplied}",
            )

    def _resolve_callback(self, node: ast.AST) -> Optional[Tuple[_FunctionNode, bool]]:
        """Find the def for a callback expression, or None if unresolvable.

        Returns ``(function_node, drop_self)``. Only two shapes resolve:
        a bare name visible in an enclosing scope, and ``self.method`` on
        the lexically-enclosing class. Anything else is skipped.
        """
        if isinstance(node, ast.Lambda):
            return node, False
        if isinstance(node, ast.Name):
            for scope in reversed(self._scope_stack):
                body = scope.body if isinstance(scope, (ast.Module, ast.FunctionDef,
                                                        ast.AsyncFunctionDef)) else []
                for stmt in body:
                    if (
                        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name == node.id
                    ):
                        return stmt, False
            return None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self._class_stack
        ):
            for stmt in self._class_stack[-1].body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == node.attr
                ):
                    return stmt, True
        return None

    # -- RPR003: float equality on simulated time ----------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_none(lhs) or _is_none(rhs):
                continue
            if _is_time_expr(lhs) or _is_time_expr(rhs):
                self._report(
                    node,
                    "RPR003",
                    "exact float comparison on a simulated-time expression; "
                    "use an ordering guard (<=) or a None sentinel",
                )
                break
        self.generic_visit(node)

    # -- RPR004: unordered iteration feeding scheduling ----------------

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iteration(node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_unordered_iteration(node)
        self.generic_visit(node)

    def _check_unordered_iteration(self, node: Union[ast.For, ast.AsyncFor]) -> None:
        if not self._is_unordered_expr(node.iter):
            return
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("schedule", "schedule_at")
                ):
                    self._report(
                        node,
                        "RPR004",
                        "iterating an unordered set/dict while scheduling events "
                        "makes event order hash-dependent; sort first",
                    )
                    return

    @staticmethod
    def _is_unordered_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func_ident = _terminal_identifier(node.func)
            if func_ident in _SET_CONSTRUCTORS:
                return True
            # dict views: .keys() / .values() / .items()
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("keys", "values", "items")
                and not node.args
            ):
                return True
        return False


def check_module(path: str, tree: ast.Module) -> List[Finding]:
    """Run every rule over one parsed module."""
    return _RuleVisitor(path).check(tree)


__all__ = ["ALL_CODES", "RULE_SUMMARIES", "Finding", "check_module"]
