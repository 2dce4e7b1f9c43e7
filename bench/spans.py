"""Outside-in layer spans for the traced benchmark run.

Every public function of the poslinops layer modules is replaced, in every
``poslinops.*`` namespace that binds it, by a wrapper that records a span.
Function-local ``from .x import y`` imports look the name up at call time,
so they pick up the wrapper as well.  The test functions handed out by
``corpus_lookup`` and the provider built by ``finite_difference_derivs`` are
wrapped on the way out, so evaluations of f and of its derivatives are spans
of their own.  Nothing inside ``src/`` changes.

A span's self time is its duration minus the durations of the spans it
directly caused; summed over all spans it telescopes to the time spent
inside the outermost spans.
"""

from __future__ import annotations

from collections import Counter, defaultdict
import dataclasses
import functools
import importlib
import inspect
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("basis", "operators", "moduli", "bounds", "taylor", "weighted",
          "corpus", "cli")


class Tracer:
    """Span and counter store for one traced run.

    ``self_s[key]`` is the self time and ``calls[key]`` the call count of the
    function ``key`` ("layer.name"); ``count`` holds the other counters.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.count = defaultdict(float)
        self._stack = []
        self._seen = set()
        self.last_matrix_width = 0

    def new_task(self):
        """Start a task: repeats are only counted within one task."""
        self._seen.clear()

    def note_repeat(self, counter, key):
        """Count one build under ``counter`` and whether ``key`` was seen before."""
        self.count[counter + ".builds"] += 1
        if key in self._seen:
            self.count[counter + ".repeats"] += 1
        else:
            self._seen.add(key)

    def peak(self, name, value):
        self.count[name] = max(self.count[name], value)

    def wrap(self, key, fn, before=None, after=None, memory=False):
        """Return ``fn`` wrapped in a span named ``key``.

        ``before(args, kwargs)`` runs ahead of the span; ``after(args,
        kwargs, out)`` runs after it and returns the value handed to the
        caller.  With ``memory`` the span's peak traced allocation goes to
        ``count[key + ".peak_mb"]``.
        """
        stack, self_s, calls = self._stack, self.self_s, self.calls
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            if memory:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if memory:
                    self.peak(key + ".peak_mb",
                              tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                dt = perf_counter() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                out = after(args, kwargs, out)
            return out

        return wrapper


def _digest(a):
    a = np.ascontiguousarray(a, dtype=float)
    return a.shape, hash(a.tobytes())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hooks(tracer):
    """Counting hooks and return-value wrappers keyed by function key.

    Arguments are read by position as the package passes them, or by name.
    """
    t = tracer

    def matrix_before(kind):
        def hook(args, kwargs):
            degree = _arg(args, kwargs, 0, "m" if kind == "bernstein" else "n")
            points = _arg(args, kwargs, 1, "xs" if kind == "bernstein" else "ys")
            policy = args[2] if len(args) > 2 else kwargs.get("policy")
            t.note_repeat("operators.weight_matrix",
                          (kind, degree, _digest(points), policy))
        return hook

    def matrix_after(args, kwargs, out):
        t.last_matrix_width = out.shape[1]
        return out

    def eval_grid_before(args, kwargs):
        f, tx, ty = (_arg(args, kwargs, i, name)
                     for i, name in enumerate(("f", "tx", "ty")))
        t.count["operators.eval_grid.points"] += len(tx) * len(ty)
        t.note_repeat("operators.eval_grid", (id(f), _digest(tx), _digest(ty)))

    def apply_on_grid_after(args, kwargs, out):
        # (WX @ F) @ WY.T with WX (Gx, m+1), F (m+1, K), WY (Gy, K); WY is
        # the last weight matrix apply_on_grid built.
        m = _arg(args, kwargs, 2, "m")
        gx, gy = out.shape
        k = t.last_matrix_width
        t.count["operators.contraction_gflop"] += (
            2.0 * gx * (m + 1) * k + 2.0 * gx * k * gy) / 1e9
        return out

    def szasz_after(args, kwargs, out):
        t.peak("basis.szasz_K_max", len(out))
        return out

    def count_points(args, kwargs, out):
        t.count["corpus.f_eval.points"] += np.size(out)
        return out

    wrapped_entries = {}

    def corpus_after(args, kwargs, entry):
        name = _arg(args, kwargs, 0, "name")
        if name not in wrapped_entries:
            fn = entry.function
            fn = dataclasses.replace(
                fn, eval=t.wrap("corpus.f_eval", fn.eval, after=count_points))
            deriv = entry.derivative_provider
            if deriv is not None:
                deriv = dataclasses.replace(
                    deriv, eval=t.wrap("corpus.deriv_eval", deriv.eval))
            wrapped_entries[name] = dataclasses.replace(
                entry, function=fn, derivative_provider=deriv)
        return wrapped_entries[name]

    def fd_after(args, kwargs, provider):
        return dataclasses.replace(
            provider, eval=t.wrap("taylor.fd_deriv", provider.eval))

    return {
        "basis.szasz_weights": {"after": szasz_after},
        "operators.bernstein_weight_matrix": {
            "before": matrix_before("bernstein"), "after": matrix_after},
        "operators.szasz_weight_matrix": {
            "before": matrix_before("szasz"), "after": matrix_after},
        "operators.eval_grid": {"before": eval_grid_before},
        "operators.apply_on_grid": {"after": apply_on_grid_after},
        "corpus.corpus_lookup": {"after": corpus_after},
        "taylor.finite_difference_derivs": {"after": fd_after},
    }


# Peak allocation is traced only in a separate pass: tracemalloc also traces
# every Python object allocation, which would distort the self times.
MEMORY_SPANS = ("operators.apply", "bounds.sup_distance_power_operator")


def instrument(tracer, memory=False):
    """Wrap every public layer function in spans; return a callable undoing it.

    With ``memory`` the MEMORY_SPANS also record their peak traced allocation.
    """
    originals = {}
    for layer in LAYERS:
        mod = importlib.import_module("poslinops." + layer)
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                originals[f"{layer}.{name}"] = obj
    hooks = _hooks(tracer)
    if memory:
        for key in MEMORY_SPANS:
            hooks.setdefault(key, {})["memory"] = True
    wrappers = {fn: tracer.wrap(key, fn, **hooks.get(key, {}))
                for key, fn in originals.items()}

    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "poslinops" and not modname.startswith("poslinops."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
                patched.append((mod, name, obj))

    def restore():
        for mod, name, obj in patched:
            setattr(mod, name, obj)

    return restore
