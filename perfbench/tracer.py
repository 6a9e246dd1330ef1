"""Timing and counting wrappers for the pnfield layers, installed from outside
the package.

A layer is a module of pnfield.  Every public function of a layer module, and
every public method of FieldCtx and SmallField, is replaced by a wrapper that
records calls, total time and self time under the name
``<module>.<function>``; ``FieldCtx.is_normal`` is split by its ``method``
argument.  Module functions are also rebound wherever another pnfield module
imported them by name, so internal calls go through the wrapper too.

Self time is a span's duration minus the time covered by the spans it
caused, so the self times of all names add up to the time covered by
outermost spans.  Total time counts only the outermost activation of a
recursive name.

The trivial per-coordinate helpers in COUNT_ONLY are counted but not timed:
timing tens of millions of sub-microsecond calls would swamp the run.  Their
time stays in the self time of the span that called them.  The hot element
operations in LEAVES are timed without a frame of their own, which costs a
third of a full span.  They call no span; a leaf called inside another (pow
and add while the trace basis is first built) is subtracted from the outer
leaf's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("numtheory", "smallfield", "polyfq", "field", "characters", "counting", "subsets", "claims")

COUNT_ONLY = frozenset({
    "smallfield.add",
    "smallfield.mul",
    "smallfield.neg",
    "smallfield.sub",
    "smallfield.digits",
    "smallfield.from_digits",
    "field.decode",
    "field.encode",
    "field.embed_base",
})

LEAVES = frozenset({"field.add", "field.mul", "field.pow", "field.trace"})


class Tracer:
    """In-memory aggregate of calls, total and self time per wrapped name."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self._stack: list[list[int]] = [[0]]  # the root frame sums outermost spans
        self._leaf_nested = [0, 0]

    def covered_ns(self) -> int:
        """Time covered by outermost spans so far."""
        return self._stack[0][0]

    def _span(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] -= 1
                stat[0] += 1
                stat[2] += dt - frame[0]
                if not depth[0]:
                    stat[1] += dt
                stack[-1][0] += dt

        return wrapper

    def _leaf(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        nested = self._leaf_nested  # [outer leaf active, time of leaves inside it]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if nested[0]:
                t0 = clock()
                result = fn(*args, **kwargs)
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt
                nested[1] += dt
                return result
            nested[0], nested[1] = 1, 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested[0] = 0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - nested[1]
                stack[-1][0] += dt

        return wrapper

    def _counter(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        if name in LEAVES:
            return self._leaf(name, fn)
        if name == "field.is_normal":
            by_method = {m: self._span(f"field.is_normal.{m}", fn) for m in ("divisor", "rank")}

            @functools.wraps(fn)
            def is_normal(ctx, a, method="divisor"):
                return by_method.get(method, fn)(ctx, a, method)

            return is_normal
        return self._span(name, fn)

    def install(self):
        """Wrap every layer; call once, after pnfield is imported."""
        mods = {layer: importlib.import_module(f"pnfield.{layer}") for layer in LAYERS}
        replaced = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for cls, layer in ((mods["field"].FieldCtx, "field"), (mods["smallfield"].SmallField, "smallfield")):
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    setattr(cls, attr, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "pnfield" and not modname.startswith("pnfield."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def table(self) -> dict[str, list]:
        """{name: [calls, total_s, self_s]} for every name called at least once."""
        return {
            name: [calls, total / 1e9, own / 1e9]
            for name, (calls, total, own) in sorted(self.stats.items())
            if calls
        }
