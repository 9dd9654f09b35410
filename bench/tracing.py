"""Spans around the calls into each levy_info module, recorded from outside.

``Tracer.install`` replaces every function a layer module exports (its
``__all__``) or lends to another module (``from .noise import psi_unchecked``)
with a wrapper that records a span: (id, parent id, layer, start, end).  The
wrapper is rebound under every name that holds the original, in every
levy_info module including the package's re-exports, because the modules
bind imported names at import time and a call such as
``li.innovations_ensemble`` would otherwise bypass it.

Callables handed to ``rng.map_ordered`` run on pool threads.  They are
wrapped too, as spans of the module that defined them, and adopt the span
that called ``map_ordered`` as their parent, so chunk work is charged to
``simulate`` rather than lost.  Self time of a span is its duration minus the
union of its children's intervals; with threads the per-layer self times can
add up to more than the wall time.

Spans stay in memory; ``Tracer.reset`` hands them over at the end of each
operation.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("rng", "noise", "prior", "simulate", "filtering", "innovations", "experiments", "stats", "cli")

# Entry points of the simulation layer that return the increments they drew.
_VARIATE_SOURCES = {"increment_draws", "representation_draws"}
# Called straight from a study, each of these draws one Monte Carlo ensemble.
_ENSEMBLE_SOURCES = {"simulate_ensemble", "representation_draws", "increment_draws"}
_STUDIES = {
    "convergence_study",
    "factorization_study",
    "esscher_consistency_study",
    "representation_equivalence_study",
    "bridge_study",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, layer, name, start, end)
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []  # (namespace, name, original)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, name: str, adopt=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            caller = stack[-1] if stack else adopt
            sid = next(tracer._ids)
            stack.append((sid, layer))
            if name == "map_ordered":
                chunk = tracer._wrap(args[0], _layer_of(args[0]), "chunk", adopt=(sid, layer))
                args = (chunk,) + args[1:]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, caller and caller[0], layer, name, start, end))
            tracer._count(name, caller, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, caller, result) -> None:
        counts = self.counts
        if name == "stream":
            counts["rng.streams"] += 1
        elif name in _VARIATE_SOURCES:
            counts["simulate.variates"] += int(np.size(result))
        if name in _STUDIES:
            counts["experiments.study_rows"] += len(result.rows)
        if name in _ENSEMBLE_SOURCES and caller is not None and caller[1] == "experiments":
            counts["experiments.ensembles"] += 1

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public and cross-module functions of every layer module."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        layer_modules = {m.__name__.rpartition(".")[2]: m for m in modules}
        originals = {}
        for layer in LAYERS:
            mod = layer_modules[layer]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    originals[id(fn)] = (fn, layer, name)
        for mod in modules:  # functions one module imports from another
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ != mod.__name__:
                    layer = _layer_of(fn)
                    if layer in LAYERS and id(fn) not in originals:
                        originals[id(fn)] = (fn, layer, name)
        wrappers = {key: self._wrap(fn, layer, name) for key, (fn, layer, name) in originals.items()}
        for mod in modules:
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._restore.append((namespace, name, value))
                    namespace[name] = wrapper

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._restore):
            namespace[name] = original
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def reset(self):
        """Hand over and forget the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2]


def self_times(spans) -> dict:
    """Layer -> summed self time: each span minus the union of its children."""
    children = defaultdict(list)
    for sid, parent, _layer, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = dict.fromkeys(LAYERS, 0.0)
    for sid, _parent, layer, _name, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[layer] = totals.get(layer, 0.0) + (end - start - covered)
    return totals


def call_counts(spans) -> Counter:
    return Counter(layer for _sid, _parent, layer, _name, _start, _end in spans)
