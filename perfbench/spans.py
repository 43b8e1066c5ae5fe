"""Span recorder that wraps the library's public functions from outside.

Nothing is added inside ``wkbrec``: :class:`Tracer` replaces every public
function (and every public method of a public class) of the listed modules
by a timing wrapper, at *every* module that binds it.  ``wkb`` reaches
``root_frames``, ``direct_solve`` and the third-order steps through names it
imported, so patching only the home module would miss those calls.  The
originals are put back by :meth:`Tracer.uninstall`.

Spans are aggregated in memory per name as (calls, inclusive seconds, self
seconds); self time is a span's duration minus the time covered by the spans
it directly encloses, so the self times of all names plus the time outside
any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import time


class Tracer:
    """Patch ``modules`` (name -> module) and record spans while installed.

    ``also_bind`` lists extra namespaces (such as the package ``__init__``)
    that re-export the same objects.  ``observers`` maps a span name to a
    callable receiving the call's ``(args, kwargs)`` before it runs; it is
    how counters that need argument values are recorded at the boundary.
    """

    def __init__(self, modules: dict, also_bind=(), observers=None):
        self.modules = dict(modules)
        self.also_bind = tuple(also_bind)
        self.observers = dict(observers or {})
        self.stats: dict[str, list] = {}
        self.top_level_s = 0.0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}
        self.top_level_s = 0.0

    def _wrap(self, name: str, fn):
        stack = self._stack
        observer = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observer is not None:
                observer(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_level_s += dt

        return wrapper

    def _targets(self):
        """(span name, owner, attribute, function) for each public callable."""
        for short, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{short}.{attr}", module, attr, obj
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{short}.{attr}.{meth}", obj, meth, fn

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = list(self.modules.values()) + list(self.also_bind)
        for name, owner, attr, fn in list(self._targets()):
            wrapper = self._wrap(name, fn)
            self._patch(owner, attr, wrapper)
            if owner in namespaces:
                # rebind every other module that imported the same function
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is fn and not (ns is owner and other == attr):
                            self._patch(ns, other, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- queries over the aggregated spans --------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(self, prefix: str) -> float:
        """Self time of every span whose name starts with ``prefix + '.'``."""
        return sum(e[2] for n, e in self.stats.items() if n.startswith(prefix + "."))

    def span_calls(self) -> int:
        return sum(e[0] for e in self.stats.values())
