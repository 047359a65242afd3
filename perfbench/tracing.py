"""Per-layer tracing of the qfi_probe package, installed from outside.

Every public function defined in a layer module (`qfi_probe.<layer>`) is
found by its `__module__` and replaced, wherever it is bound in a
`qfi_probe.*` namespace, by a timing wrapper. Functions that do not exist
simply leave their layer at zero, so the tracer keeps working when the
package is refactored. `LayerTracer.installed()` restores every binding
on exit.

Self time of a call is its duration minus the time spent in wrapped calls
it made. Besides calls and self time the tracer keeps four counts that are
read from argument and result shapes, so they also hold for batched
signatures:

* matrices validated: calls into qstate `validate*` functions, one per
  matrix in the first argument (a stack of N matrices counts N);
* states produced: results of probe_models `*state*` functions, one per
  matrix returned;
* integrated time: the largest `times` / `t_end` argument of an outermost
  lindblad call (integration always starts at t = 0);
* refinement evaluations: matrices passed as `rho` to qfi_engine functions
  while `find_max` is running, and how many `find_max` calls made any.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "qfi_probe"
LAYERS = ("qstate", "probe_models", "lindblad", "qfi_engine", "scan_repro", "cli")

_MARK = "_perfbench_layer"


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


def _matrix_count(value) -> int:
    """Number of square matrices in a matrix or a stack of matrices."""
    shape = np.shape(getattr(value, "matrix", value))
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _max_time(value) -> float:
    return float(np.max(value)) if np.size(value) else 0.0


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _layer_of(obj) -> str | None:
    if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
        return None
    module = getattr(obj, "__module__", "") or ""
    prefix, _, layer = module.partition(".")
    return layer if prefix == PACKAGE and layer in LAYERS else None


def _end_time_argument(fn) -> tuple[int, str] | None:
    """Position and name of a function's `times` or `t_end` parameter."""
    params = list(inspect.signature(fn).parameters)
    for key in ("times", "t_end"):
        if key in params:
            return params.index(key), key
    return None


def leftover_wrappers() -> list[str]:
    """Bindings in qfi_probe.* namespaces that still hold a tracer wrapper."""
    return [
        f"{module.__name__}.{name}"
        for module in _package_modules()
        for name, obj in vars(module).items()
        if hasattr(obj, _MARK)
    ]


class LayerTracer:
    """Wraps the package's public functions and accumulates per-layer stats.

    While `paused` is true the wrappers pass calls straight through, so the
    benchmark can run its own correctness checks without charging them to
    the layers.
    """

    def __init__(self):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.top_level_s = 0.0
        self.matrices_validated = 0
        self.states_produced = 0
        self.integrated_time = 0.0
        self.refine_evals = 0
        self.find_max_calls = 0
        self.find_max_refined = 0
        self.paused = False
        self._stack: list[list[float]] = []
        self._lindblad_depth = 0
        self._find_max_evals: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block, then restore
        every original binding, also when the block raises."""
        wrappers: dict[object, object] = {}
        try:
            for module in _package_modules():
                for name, obj in list(vars(module).items()):
                    layer = _layer_of(obj)
                    if layer is None:
                        continue
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj, layer)
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
            yield self
        finally:
            while self._patched:
                module, name, obj = self._patched.pop()
                setattr(module, name, obj)

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _observer(self, fn, layer: str):
        """The count hook for one function, or None for plain timing."""
        name = fn.__name__
        params = list(inspect.signature(fn).parameters)[:1]
        if layer == "qstate" and name.startswith("validate"):
            def validated(args, kwargs, result):
                arg = args[0] if args else next(iter(kwargs.values()), None)
                self.matrices_validated += _matrix_count(arg)
            return validated
        if layer == "probe_models" and "state" in name:
            def produced(args, kwargs, result):
                self.states_produced += _matrix_count(result)
            return produced
        if layer == "qfi_engine" and params == ["rho"]:
            def evaluated(args, kwargs, result):
                if self._find_max_evals:
                    rho = args[0] if args else kwargs["rho"]
                    count = _matrix_count(rho)
                    self._find_max_evals[-1] += count
                    self.refine_evals += count
            return evaluated
        return None

    def _wrap(self, fn, layer: str):
        stats = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(fn, layer)
        time_arg = _end_time_argument(fn) if layer == "lindblad" else None
        is_find_max = layer == "scan_repro" and fn.__name__ == "find_max"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if layer == "lindblad":
                if self._lindblad_depth == 0 and time_arg is not None:
                    index, key = time_arg
                    value = args[index] if len(args) > index else kwargs.get(key)
                    if value is not None:
                        self.integrated_time += _max_time(value)
                self._lindblad_depth += 1
            if is_find_max:
                self._find_max_evals.append(0)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
                if layer == "lindblad":
                    self._lindblad_depth -= 1
                if is_find_max:
                    self.find_max_calls += 1
                    self.find_max_refined += self._find_max_evals.pop() > 0
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, layer)
        return wrapper
