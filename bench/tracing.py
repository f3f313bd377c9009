"""Per-layer spans and counts for galeproj, recorded from outside the program.

`Tracer.install()` replaces every public function of the layer modules,
and `HPolytope.__init__`, with a wrapper that records a span (name,
start, end, parent) and per-call counts; `uninstall()` puts the originals
back.  Several modules bind functions by name (`from .polytopes import
minkowski_sum_vertices`), so every galeproj module attribute that holds an
original function is rebound, or calls through it would go unseen.

The layers are galeproj's modules.  A span's self time is its duration
minus the time its child spans cover.

`PieceTimer` is the only wrapper timing runs use: it records when the
outermost calls of a few named functions start and end, nothing more.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "serialize",
    "pipeline",
    "linalg",
    "lp",
    "polytopes",
    "gale",
    "projections",
    "complexes",
    "obstructions",
)


def _lp_feasible(counts, name, args, kwargs, result):
    constraints = args[0] if args else kwargs["constraints"]
    counts[f"{name}.rows"] += len(constraints)
    counts[f"{name}.feasible"] += result.feasible


def _vertex_test(counts, name, args, kwargs, result):
    counts[f"{name}.accepted"] += bool(result)


def _power_join(counts, name, args, kwargs, result):
    counts[f"{name}.facets"] += len(result.facets)


def _chromatic_number(counts, name, args, kwargs, result):
    G = args[0] if args else kwargs["G"]
    key = f"{name}.vertices_max"
    counts[key] = max(counts[key], len(G.vertices))


# Counts read from a call's arguments or result, beyond the call count.
PROBES = {
    "lp.lp_feasible": _lp_feasible,
    "polytopes.minkowski_vertex_test": _vertex_test,
    "complexes.power_join": _power_join,
    "obstructions.chromatic_number": _chromatic_number,
}


class Tracer:
    """Spans and counts of galeproj calls while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        probe = PROBES.get(name)
        calls_key = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts[calls_key] += 1
            if probe is not None:
                probe(counts, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"galeproj.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        self._patches = _rebind(wrapped)
        hpolytope = sys.modules["galeproj.polytopes"].HPolytope
        init = hpolytope.__init__
        hpolytope.__init__ = self._wrap("polytopes.HPolytope.init", init)
        self._patches.append((hpolytope, "__init__", init))

    def uninstall(self) -> None:
        _restore(self._patches)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out


class PieceTimer:
    """Times at which outermost calls of some galeproj functions, named
    `<module>.<function>`, start and end, and nothing else: a timer cheap
    enough for timing runs.  `marks` holds the times in order."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.marks: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("piece timer already installed")
        marks = self.marks
        depth = [0]

        def timer(original):
            @functools.wraps(original)
            def timed(*args, **kwargs):
                if not depth[0]:
                    marks.append(perf_counter())
                depth[0] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if not depth[0]:
                        marks.append(perf_counter())

            return timed

        wrapped = {}
        for name in self.names:
            layer, attr = name.split(".")
            original = getattr(sys.modules[f"galeproj.{layer}"], attr)
            wrapped[id(original)] = (original, timer(original))
        self._patches = _rebind(wrapped)

    def uninstall(self) -> None:
        _restore(self._patches)


def _rebind(wrapped: dict) -> list[tuple[object, str, object]]:
    """Point every galeproj module attribute that holds an original function
    at its wrapper; `wrapped` maps id(original) to (original, wrapper).
    Returns the (module, attribute, original) patches."""
    patches = []
    for modname, module in list(sys.modules.items()):
        if modname != "galeproj" and not modname.startswith("galeproj."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
                patches.append((module, attr, obj))
    return patches


def _restore(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def layer_metric(name: str, counts: Counter, self_s: dict[str, float]) -> float:
    """Value of a per-layer metric named `<module>.<function>.<stat>`."""
    fn, stat = name.rsplit(".", 1)
    if stat == "self_s":
        return self_s.get(fn, 0.0)
    calls = counts[f"{fn}.calls"]
    ratios = {"rows_mean": "rows", "feasible_ratio": "feasible", "accept_ratio": "accepted"}
    if stat in ratios:
        return counts[f"{fn}.{ratios[stat]}"] / calls if calls else 0.0
    if stat in ("calls", "facets", "vertices_max"):
        return counts[f"{fn}.{stat}"]
    raise ValueError(f"unknown per-layer stat in {name!r}")
