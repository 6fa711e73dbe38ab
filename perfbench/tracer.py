"""Per-layer spans for a traced benchmark child, installed from outside skv.

Every public function and method of the traced skv modules (plus the
arithmetic dunders named in DUNDERS) is replaced by a wrapper that records
calls, inclusive time and self time.  Self time is a span's duration minus
the time its child spans cover; calls run on one thread, so child spans
nest inside their parent and their durations add up.

A function can be bound under several names: ``from .linalg import mat_det``
binds it in ``rednorm`` and ``engine`` too, and ``__radd__ = __add__`` binds
it twice in one class.  ``install`` rebinds every name in every traced
module and class that refers to an original, so no call escapes its span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

#: skv modules whose public callables are traced; each is a layer.
MODULES = ("cyclotomic", "characters", "grouprings", "rednorm", "linalg",
           "engine", "lvalues", "arithdata", "groups", "verify", "cli")

#: Dunder methods traced besides the public names.
DUNDERS = frozenset({"__init__", "__mul__", "__add__", "__eq__"})


class Tracer:
    """Span accounting keyed by ``<module>.<qualname>``."""

    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self._children: list[float] = []
        self._rep_seen: set = set()
        self.rep_hits = 0

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                covered = children.pop()
                stats[0] += 1
                stats[1] += span
                stats[2] += span - covered
                if children:
                    children[-1] += span

        return traced

    def count_rep_repeats(self, fn):
        """Count repeat ``(table, chi_index)`` calls of
        ``rednorm.monomial_representation`` (hits of its per-table cache)."""

        @functools.wraps(fn)
        def counted(table, chi_index):
            key = (table, chi_index)
            if key in self._rep_seen:
                self.rep_hits += 1
            else:
                self._rep_seen.add(key)
            return fn(table, chi_index)

        return counted

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "rep_hits": self.rep_hits}


def _public(name: str) -> bool:
    return not name.startswith("_") or name in DUNDERS


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every module in MODULES in place."""
    modules = [importlib.import_module(f"skv.{m}") for m in MODULES]
    # id(original) -> wrapper; each wrapper holds its original, so ids stay
    # unique while the mapping is in use
    replaced: dict[int, object] = {}

    def swap(fn, name):
        wrapper = tracer.wrap(name, fn)
        if name == "rednorm.monomial_representation":
            wrapper = tracer.count_rep_repeats(wrapper)
        replaced[id(fn)] = wrapper

    classes = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ \
                    or name.startswith("_"):
                continue
            if inspect.isclass(obj):
                classes.append(obj)
                for attr, val in list(vars(obj).items()):
                    if not _public(attr):
                        continue
                    qual = f"{short}.{name}.{attr}"
                    if isinstance(val, (staticmethod, classmethod)):
                        swap(val.__func__, qual)
                    elif isinstance(val, property) and val.fget is not None:
                        swap(val.fget, qual)
                    elif inspect.isfunction(val):
                        swap(val, qual)
            elif callable(obj):
                swap(obj, f"{short}.{name}")

    def rebound(val):
        if isinstance(val, staticmethod) and id(val.__func__) in replaced:
            return staticmethod(replaced[id(val.__func__)])
        if isinstance(val, classmethod) and id(val.__func__) in replaced:
            return classmethod(replaced[id(val.__func__)])
        if isinstance(val, property) and id(val.fget) in replaced:
            return val.getter(replaced[id(val.fget)])
        return replaced.get(id(val))

    for mod in modules:
        for name, val in list(vars(mod).items()):
            new = rebound(val)
            if new is not None:
                setattr(mod, name, new)
    for cls in classes:
        for attr, val in list(vars(cls).items()):
            new = rebound(val)
            if new is not None:
                setattr(cls, attr, new)
