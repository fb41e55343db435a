"""Per-layer spans recorded from outside the package.

``LayerTrace.install`` replaces the public functions of the package's
layer modules with timing wrappers, in every ``symplectic_ice`` module
that holds a reference to them (so ``functional.partition_function`` and
``cli.partition_function`` are wrapped as well as
``lattice.partition_function``), plus two methods looked up on their
classes.  ``uninstall`` puts the originals back.

Each wrapper records, while the trace is active, the number of calls,
the total duration and the self time: the duration minus the part of it
covered by the spans of wrapped functions it called.  Generator functions
are timed per step, so the time a consumer spends between two items is
not charged to the generator.  Spans live in memory and are written out
by the caller when the run ends.

A few per-vertex helpers are left unwrapped (``SKIP``): wrapping a
function that costs a microsecond would mostly measure the wrapper, and
their time stays in the self time of the vertex-weight lookup or of the
engine that calls them.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import sys
import time

PACKAGE = "symplectic_ice"
LAYER_MODULES = ("rationals", "weights", "diagram", "lattice", "relations",
                 "functional", "dynamics", "cli")

#: Methods traced as spans, as (module, class, method).
METHODS = (("diagram", "WiringDiagram", "evaluate_all"),
           ("dynamics", "Sampler", "sample"))

#: Per-vertex helpers that are not wrapped (see module docstring).
SKIP = {"rationals.rat", "rationals.zprime", "weights.rank", "weights.cap_map",
        "weights.new_cap_map", "weights.cap_weight", "weights.admissible_pattern"}

#: Result -> count recorded with a span (for rates such as samples per second).
RESULT_COUNTS = {"dynamics.run_sampler": lambda summary: summary.num_samples}


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0

    def as_dict(self):
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "items": self.items}


class LayerTrace:
    def __init__(self):
        self.spans: dict = {}
        self.active = False
        self._stack: list = []      # child time accumulated by each open span
        self._patches: list = []    # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, stats: SpanStats, t0: float):
        d = time.perf_counter() - t0
        child = self._stack.pop()
        stats.total += d
        stats.self_time += d - child
        if self._stack:
            self._stack[-1] += d

    def _wrap_function(self, name: str, fn):
        stats = self.spans.setdefault(name, SpanStats())
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stats.calls += 1
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(stats, t0)
            if count is not None:
                stats.items += count(result)
            return result
        return span

    def _wrap_generator(self, name: str, fn):
        stats = self.spans.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def span(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.active:
                yield from it
                return
            stats.calls += 1
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(stats, t0)
                stats.items += 1
                yield item
        return span

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_function(name, fn)

    # -- installation -----------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        out = []
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in sorted(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                out.append((name, mod, attr, obj))
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
            out.append((f"{short}.{cls_name}.{meth}", cls, meth, vars(cls)[meth]))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("trace already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, owner, attr, original in self.targets():
            wrapper = self.wrap(name, original)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def group(self, patterns) -> SpanStats:
        """Sum of the spans whose names match any of the fnmatch patterns."""
        total = SpanStats()
        for name, stats in self.spans.items():
            if any(fnmatch.fnmatchcase(name, p) for p in patterns):
                total.calls += stats.calls
                total.total += stats.total
                total.self_time += stats.self_time
                total.items += stats.items
        return total

    def snapshot(self) -> dict:
        return {name: s.as_dict() for name, s in sorted(self.spans.items()) if s.calls}
