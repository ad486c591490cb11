"""Per-layer tracing for the benchmark, from outside the package.

Every public function defined in a ``flowpoly.<layer>`` module is wrapped,
and the wrapper is bound in place of the original in *every* loaded
``flowpoly.*`` namespace that holds it.  ``cli``, ``lidskii`` and
``unified`` import ``kostant`` and ``volume`` by name, and the package
attribute ``flowpoly.kostant`` is the function rather than the submodule,
so wrapping only the defining module would silently miss calls.

A call opens a span; a generator's span covers every resume of it, so the
time its consumer spends between items is the consumer's.  A span's self
time is its duration minus the time of the spans it caused.  Calls,
yielded items and times are aggregated per (function, calling layer)
while the run goes, so memory stays flat however many spans there are.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# Arithmetic helpers called inside the innermost loops.  A wrapper there
# would cost more than the call itself, so their time stays with the
# calling layer.
PRIMITIVES = {
    "flowpoly.combinat": {
        "binomial",
        "multichoose",
        "multinomial",
        "exact_div",
        "prefix_sums",
        "dominates",
    },
    "flowpoly.graphs": {"alpha_coordinates"},
}

ROOT = "bench"


class Stat:
    __slots__ = ("name", "layer", "parent", "calls", "items", "active", "child")

    def __init__(self, name: str, layer: str, parent: str):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.calls = 0
        self.items = 0
        self.active = 0.0
        self.child = 0.0


class Tracer:
    """Spans and counts for one traced pass; `enabled` gates every wrapper."""

    def __init__(self) -> None:
        self.enabled = False
        self.stack: list[list] = []  # open frames: [Stat, child seconds]
        self.stats: dict[tuple[str, str], Stat] = {}
        self.kostant_nonzero = 0
        self.kostant_keys: set = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in all loaded flowpoly namespaces."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "flowpoly" or name.startswith("flowpoly."))
        ]
        wrappers: dict[int, object] = {}
        for mod in modules:
            if mod.__name__ == "flowpoly":
                continue
            layer = mod.__name__.split(".", 1)[1]
            skip = PRIMITIVES.get(mod.__name__, set())
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    wrappers[id(fn)] = self._wrap(fn, layer, f"{layer}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _stat(self, name: str, layer: str) -> Stat:
        parent = self.stack[-1][0].layer if self.stack else ROOT
        st = self.stats.get((name, parent))
        if st is None:
            st = self.stats[(name, parent)] = Stat(name, layer, parent)
        return st

    def _wrap(self, fn, layer: str, name: str):
        stack = self.stack
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # recursion through the module global stays inside one span
                if not self.enabled or (stack and stack[-1][0].name == name):
                    return fn(*args, **kwargs)
                st = self._stat(name, layer)
                st.calls += 1
                return self._consume(fn(*args, **kwargs), st)

            return gen_wrapper

        on_result = None
        if name == "kostant.kostant":
            sig = inspect.signature(fn)
            on_result = lambda args, kwargs, result: self._kostant_result(
                *sig.bind(*args, **kwargs).args, result
            )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (stack and stack[-1][0].name == name):
                return fn(*args, **kwargs)
            st = self._stat(name, layer)
            st.calls += 1
            frame = [st, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                st.active += elapsed
                st.child += frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _consume(self, gen, st: Stat):
        stack = self.stack
        try:
            while True:
                frame = [st, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - t0
                    stack.pop()
                    st.active += elapsed
                    st.child += frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                st.items += 1
                yield item
        finally:
            gen.close()

    def _kostant_result(self, g, v, result: int) -> None:
        self.kostant_keys.add((g.num_vertices, g.edges, tuple(v)))
        if result:
            self.kostant_nonzero += 1

    # -- results -----------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(
            st.calls
            for st in self.stats.values()
            if st.name == name and parent in (None, st.parent)
        )

    def layer_totals(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for st in self.stats.values():
            row = out.setdefault(st.layer, {"calls": 0, "items": 0, "self_s": 0.0})
            row["calls"] += st.calls
            row["items"] += st.items
            row["self_s"] += st.active - st.child
        return out

    def counts(self) -> dict[str, int]:
        """Every exact count of the pass, keyed for an equality check."""
        out = {}
        for (name, parent), st in sorted(self.stats.items()):
            out[f"{name}<{parent}.calls"] = st.calls
            out[f"{name}<{parent}.items"] = st.items
        out["kostant.nonzero"] = self.kostant_nonzero
        out["kostant.distinct"] = len(self.kostant_keys)
        return out
