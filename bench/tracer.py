"""Per-layer tracing of ``inertia_bounds``, installed from outside the package.

Spans sit at layer boundaries.  Each public function defined in a layer
module is replaced by a timing wrapper in every other package module
that bound it by name (``from .inertia import graph_inertia`` in
``theorems`` and ``verify``) and in the package namespace, so calls that
cross a layer go through the wrapper while calls inside the defining
module do not: ``graph_inertia``'s self time includes the congruence it
runs.  The row function is also wrapped in its own module, because
``run_verification`` reaches it from there.  Spans are aggregated in
memory per function rather than stored one by one.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from dataclasses import dataclass

PACKAGE = "inertia_bounds"
LAYERS = ("graphs", "inertia", "matching", "cycles", "theorems", "verify")
# a call of this function is one report row
ROW_FUNCTION = "verify.analyze_graph"


@dataclass
class FunctionStats:
    calls: int = 0
    repeats: int = 0  # calls inside a row on a graph this function already saw in that row
    total_s: float = 0.0  # outermost calls only, so recursion is not counted twice
    self_s: float = 0.0  # duration minus the time spent in wrapped callees
    depth: int = 0


class Tracer:
    """Context manager: wraps the layer functions on entry, restores them on exit."""

    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self.rows = 0
        self._in_row = 0
        self._seen: dict[str, set] = {}
        self._child_time: list[float] = []  # one entry per open span
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def __enter__(self) -> "Tracer":
        from inertia_bounds.graphs import Graph

        prefix = PACKAGE + "."
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(prefix)]
        wrappers: dict[int, tuple[object, object, bool]] = {}
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, Graph), name == ROW_FUNCTION)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj and (entry[2] or obj.__module__ != module.__name__):
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        return self

    def __exit__(self, *exc: object) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn, graph_type: type):
        stats = self.stats.setdefault(name, FunctionStats())
        seen = self._seen.setdefault(name, set())
        child_time = self._child_time
        is_row = name == ROW_FUNCTION
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_row:
                self.rows += 1
                self._in_row += 1
                for graphs in self._seen.values():
                    graphs.clear()
            if self._in_row and args and isinstance(args[0], graph_type):
                if args[0] in seen:
                    stats.repeats += 1
                else:
                    seen.add(args[0])
            stats.calls += 1
            stats.depth += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.self_s += elapsed - child_time.pop()
                stats.depth -= 1
                if not stats.depth:
                    stats.total_s += elapsed
                if child_time:
                    child_time[-1] += elapsed
                if is_row:
                    self._in_row -= 1

        return wrapper

    def counts(self) -> dict[str, tuple[int, int]]:
        """Exact (calls, repeats) per called function, plus the row count."""
        out = {name: (s.calls, s.repeats) for name, s in self.stats.items() if s.calls}
        out["rows"] = (self.rows, 0)
        return out
