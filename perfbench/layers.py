"""Per-layer attribution for the traced pass.

A traced pass runs a workload under :mod:`cProfile` and folds every
profiled function into one layer of the simulator by the module that
defines it. The map is explicit: a module under ``src/repro`` that a
workload executes but that no rule names raises :class:`LayerMapError`,
so new code can never vanish into an "other" bucket. Everything that is
not ``src/repro`` code (C built-ins, the standard library, the
benchmark's own thin wrappers, dataclass-generated ``__init__``
methods) is the ``builtins`` layer.

The thin timing wrappers around public entry points (``build_dumbbell``,
``RunStore.put``/``RunStore.fetch``) live here too; they are installed
only for the traced pass and always removed afterwards.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (module prefix, layer), first match wins; a prefix matches the module
#: itself and its submodules.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "engine"),
    # The simulator's opt-in invariant checker, consulted by Simulator().
    ("repro.lint.sanitizer", "engine"),
    ("repro.sim.link", "link"),
    ("repro.sim.queue", "queue"),
    ("repro.sim.netem", "netem"),
    ("repro.sim.packet", "packet"),
    ("repro.sim.topology", "experiment"),
    ("repro.tcp.connection", "connection"),
    ("repro.tcp.rangeset", "rangeset"),
    ("repro.tcp.rate_sample", "rate_sample"),
    ("repro.tcp.rtt", "rtt"),
    ("repro.tcp.cca", "cca"),
    ("repro.obs", "obs"),
    ("repro.instrumentation", "obs"),
    ("repro.core", "experiment"),
    ("repro.units", "experiment"),
    ("repro.runstore", "runstore"),
)

#: Every layer the traced pass reports, in print order.
LAYERS: Tuple[str, ...] = (
    "engine", "connection", "rangeset", "rate_sample", "rtt", "cca",
    "link", "queue", "netem", "packet", "obs", "experiment", "runstore",
    "builtins",
)

#: Modules whose calls count as BBR work inside the ``cca`` layer.
BBR_MODULES = ("repro.tcp.cca.bbr", "repro.tcp.cca.bbr2", "repro.tcp.cca.filters")


class LayerMapError(RuntimeError):
    """A profiled ``src/repro`` module has no layer."""


def module_of(filename: str, src_root: str) -> str:
    """Dotted module name of ``filename`` under ``src_root``, or ``""``."""
    if not filename.endswith(".py"):
        return ""
    path = os.path.abspath(filename)
    root = os.path.abspath(src_root) + os.sep
    if not path.startswith(root):
        return ""
    parts = path[len(root):-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to (``builtins`` for non-repro)."""
    if not module:
        return "builtins"
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    raise LayerMapError(f"module {module!r} has no layer in perfbench.layers.MODULE_LAYERS")


def is_bbr(module: str) -> bool:
    return any(module == m or module.startswith(m + ".") for m in BBR_MODULES)


class LayerProfile:
    """Self time and call counts folded by layer from one profile."""

    def __init__(self, self_s: Dict[str, float], calls: Dict[str, int], bbr_calls: int):
        self.self_s = self_s
        self.calls = calls
        self.bbr_calls = bbr_calls

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    @classmethod
    def from_stats(cls, stats: Dict[Tuple[str, int, str], Tuple[Any, ...]], src_root: str) -> "LayerProfile":
        """Fold a ``pstats.Stats(...).stats`` table; raises on unmapped modules."""
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        bbr_calls = 0
        unmapped: List[str] = []
        for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in stats.items():
            module = module_of(filename, src_root)
            try:
                layer = layer_of(module)
            except LayerMapError:
                unmapped.append(module)
                continue
            self_s[layer] += tt
            calls[layer] += nc
            if layer == "cca" and is_bbr(module):
                bbr_calls += nc
        if unmapped:
            names = ", ".join(sorted(set(unmapped)))
            raise LayerMapError(f"profiled modules with no layer: {names}")
        return cls(self_s, calls, bbr_calls)


def profile_call(fn: Callable[[], Any], src_root: str) -> Tuple[Any, LayerProfile, float]:
    """Run ``fn`` under cProfile; returns (result, layer profile, wall seconds)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    return result, LayerProfile.from_stats(stats, src_root), wall


class EntryTimers:
    """Accumulated wall time and captured objects from the thin wrappers."""

    def __init__(self) -> None:
        self.build_s = 0.0
        self.put_s = 0.0
        self.get_s = 0.0
        #: Every dumbbell built while the wrappers were installed.
        self.dumbbells: List[Any] = []


@contextlib.contextmanager
def entry_wrappers(timers: EntryTimers) -> Iterator[EntryTimers]:
    """Wrap ``build_dumbbell`` and the run store's write/read path.

    ``run_experiment`` resolves ``build_dumbbell`` through its module
    globals, and ``RunStore.get`` and ``run_jobs`` both read through
    ``RunStore.fetch``, so patching those three names sees every call.
    The originals are restored on exit, even on error.
    """
    from repro.core import experiment
    from repro.runstore.store import RunStore

    orig_build = experiment.build_dumbbell
    orig_put = RunStore.put
    orig_fetch = RunStore.fetch

    def build_dumbbell(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        dumbbell = orig_build(*args, **kwargs)
        timers.build_s += time.perf_counter() - start
        timers.dumbbells.append(dumbbell)
        return dumbbell

    def put(self: RunStore, *args: Any, **kwargs: Any) -> None:
        start = time.perf_counter()
        try:
            orig_put(self, *args, **kwargs)
        finally:
            timers.put_s += time.perf_counter() - start

    def fetch(self: RunStore, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return orig_fetch(self, *args, **kwargs)
        finally:
            timers.get_s += time.perf_counter() - start

    experiment.build_dumbbell = build_dumbbell  # type: ignore[assignment]
    RunStore.put = put  # type: ignore[method-assign]
    RunStore.fetch = fetch  # type: ignore[method-assign]
    try:
        yield timers
    finally:
        experiment.build_dumbbell = orig_build  # type: ignore[assignment]
        RunStore.put = orig_put  # type: ignore[method-assign]
        RunStore.fetch = orig_fetch  # type: ignore[method-assign]
