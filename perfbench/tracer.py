"""Runtime span tracing around chainring's public functions.

``install`` replaces every public function and public method of each layer
module with a wrapper, under every name the object is bound to in any
chainring module (``gaussian_binomial`` is bound in ``qseries``, ``modcount``
and the package itself).  No source file changes: the wrappers live only in
the traced interpreter.

Each wrapper opens a span (name, start, end, parent).  A span is folded into
per-function totals the moment it closes: its self time is its duration
minus the durations of its child spans.  Folding as spans close keeps memory
flat on the million-call workloads, where storing every span would cost more
than the caches being measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "render", "approx", "qseries", "modcount", "density", "simulate", "coding")


class Tracer:
    """Per-function call counts, self times and escaping exceptions."""

    def __init__(self):
        self.stack = []  # open spans: [function key, layer, start, child time]
        self.calls = {}  # function key -> calls
        self.self_s = {}  # function key -> self seconds
        self.total_s = {}  # function key -> inclusive seconds
        self.layer_calls = dict.fromkeys(LAYERS, 0)  # entries from another layer or the benchmark
        self.layer_errors = dict.fromkeys(LAYERS, 0)  # exceptions leaving the layer
        self.yielded = {}  # generator function key -> items yielded
        self._restore = []

    def _wrap(self, fn, layer, key):
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # a generator does its work while the caller iterates, inside the
            # caller's span; only the items it yields are counted here
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer._count_call(key, layer)
                return tracer._count_items(key, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count_call(key, layer)
            span = [key, layer, clock(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][1] != layer:
                    tracer.layer_errors[layer] += 1
                raise
            finally:
                duration = clock() - span[2]
                stack.pop()
                tracer.self_s[key] = tracer.self_s.get(key, 0.0) + duration - span[3]
                tracer.total_s[key] = tracer.total_s.get(key, 0.0) + duration
                if stack:
                    stack[-1][3] += duration

        return wrapper

    def _count_call(self, key, layer):
        self.calls[key] = self.calls.get(key, 0) + 1
        if not self.stack or self.stack[-1][1] != layer:
            self.layer_calls[layer] += 1

    def _count_items(self, key, iterator):
        for item in iterator:
            self.yielded[key] = self.yielded.get(key, 0) + 1
            yield item

    def install(self, package):
        """Wrap the public callables of every layer module of ``package``."""
        modules = [package] + [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        replacements = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(member):
                            continue
                        self._restore.append((obj, attr, member))
                        setattr(obj, attr, self._wrap(member, layer, f"{layer}.{attr}"))
                elif callable(obj) and not inspect.isclass(obj) and getattr(obj, "__module__", None) == module.__name__:
                    replacements[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, value in self.self_s.items():
            out[key.split(".", 1)[0]] += value
        return out
