"""Per-layer counters from wrappers placed around r2rcontrol's functions.

A ``Tracer`` used as a context manager replaces each traced function by a
wrapper that counts calls and adds up inclusive wall time, and puts the
originals back on exit.  A module-level function is replaced under every
name that binds it in any ``r2rcontrol`` module, so ``from .rng import
make_rng`` in ``processes`` is traced as well.  A target that no longer
exists (say, a private class a refactor removed) is left out of
``values``, and its metrics are reported as absent instead of failing
the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import sys
import time

import numpy as np

# (metric prefix, module, attribute path): counted as <prefix>.calls, <prefix>.s
FUNCTIONS = (
    ("processes.step", "r2rcontrol.processes", "ProcessModel.step"),
    ("processes.commit", "r2rcontrol.processes", "ProcessModel.commit"),
    ("processes.simulate_path", "r2rcontrol.processes", "simulate_path"),
    ("rng.make_rng", "r2rcontrol.rng", "make_rng"),
    ("rng.derive_int_seed", "r2rcontrol.rng", "derive_int_seed"),
    ("controllers.action_optimize", "r2rcontrol.controllers", "rl_alg1_action_optimize"),
    ("controllers.pooled_solve", "r2rcontrol.controllers", "_PooledFit.solve"),
    ("estimation.fit_pgs_params", "r2rcontrol.estimation", "fit_pgs_params"),
    ("ratio_normal.bvn_upper_orthant", "r2rcontrol.ratio_normal", "bvn_upper_orthant"),
    ("theory.theorem2_bound_check", "r2rcontrol.theory", "theorem2_bound_check"),
    ("theory.theorem1_rate_check", "r2rcontrol.theory", "theorem1_rate_check"),
    ("harness.run_replication", "r2rcontrol.harness", "run_replication"),
)


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``controllers``; counts ``minimize``."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def minimize(self, *args, **kwargs):
        self._tracer.add("controllers.optimizer_starts", 1)
        return self._module.minimize(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.values: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._writer_depth = 0

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    # installing -----------------------------------------------------------

    def __enter__(self):
        for prefix, module, attr in FUNCTIONS:
            self._trace(prefix, module, attr)
        if self._trace("ratio_normal.cdf", "r2rcontrol.ratio_normal", "RatioDistribution.cdf",
                       after=lambda args, out: self.add("ratio_normal.cdf.points", np.size(args[1]))):
            self.add("ratio_normal.cdf.points", 0)
        ctl = importlib.import_module("r2rcontrol.controllers")
        for cls in _classes(ctl):
            if "run_path" in vars(cls):
                self._trace("controllers.run_path", ctl.__name__, f"{cls.__name__}.run_path",
                            after=self._count_inner)
                self.add("controllers.inner_iterations", 0)
            for name in ("learn_offline", "learn"):
                if name in vars(cls):
                    self._trace("controllers.learn_offline", ctl.__name__, f"{cls.__name__}.{name}")
        if hasattr(getattr(ctl, "optimize", None), "minimize"):
            self._set(ctl, "optimize", _OptimizeProxy(ctl.optimize, self))
            self.add("controllers.optimizer_starts", 0)
        harness = importlib.import_module("r2rcontrol.harness")
        self.add("harness.writers.s", 0.0)
        self.add("harness.writers.bytes", 0)
        for name, fn in vars(harness).copy().items():
            if name.startswith("write_") and inspect.isfunction(fn):
                self._set(harness, name, self._writer(fn))
        self._set(pathlib.Path, "write_text", self._writer(pathlib.Path.write_text, count_bytes=True))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _trace(self, prefix: str, module: str, attr: str, after=None) -> bool:
        """Wrap one function or method; return False when it does not exist."""
        try:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            return False
        self.add(f"{prefix}.calls", 0)
        self.add(f"{prefix}.s", 0.0)
        wrapped = self._timed(original, prefix, after)
        if path:  # a method: replace it on its class
            self._set(owner, name, wrapped)
            return True
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "r2rcontrol":
                continue
            for bound, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, bound, wrapped)
        return True

    # wrappers -------------------------------------------------------------

    def _timed(self, fn, prefix: str, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.add(f"{prefix}.s", time.perf_counter() - t0)
                tracer.add(f"{prefix}.calls", 1)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _writer(self, fn, count_bytes: bool = False):
        """Time artifact writing once at the outermost writer; count bytes written."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_bytes:
                data = args[1] if len(args) > 1 else kwargs["data"]
                tracer.add("harness.writers.bytes", len(data.encode()))
            tracer._writer_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._writer_depth -= 1
                if tracer._writer_depth == 0:
                    tracer.add("harness.writers.s", time.perf_counter() - t0)

        return wrapper

    def _count_inner(self, args, out) -> None:
        diag = getattr(args[0], "diagnostics", None) or {}
        self.add("controllers.inner_iterations", sum(diag.get("inner_iterations", ())))


def _classes(module):
    return [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__]
