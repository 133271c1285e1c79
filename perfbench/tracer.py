"""Per-layer timing of fkpplab from outside the package.

Modules import functions from each other by name (`studies` holds its own
reference to `solver.run`, `solver` to `grids.solve_tridiagonal`, `barriers`
to `kinetics.semiflow`), so a wrapper set only on the defining module would
miss those calls.  `Tracer.install` therefore replaces the function on every
loaded fkpplab module that refers to it, and methods on their class.

A traced name that a refactor removed is skipped and reports zero calls.
Extra counters read call arguments by position or keyword; when they no
longer fit, the counter is left unchanged rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time

import numpy as np

# Errors a counter hook may raise when a traced signature has changed.
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError,
                ValueError)


class Layer:
    """Calls, inclusive seconds and named counters of one traced function."""

    def __init__(self, keep_samples=False):
        self.calls = 0
        self.seconds = 0.0
        self.samples = [] if keep_samples else None
        self.counts = {}
        self.distinct = set()

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def summary(self):
        out = {"calls": self.calls, "s": self.seconds, **self.counts}
        if self.samples:
            us = np.asarray(self.samples) * 1e6
            out["us_p50"] = float(np.percentile(us, 50))
            out["us_p99"] = float(np.percentile(us, 99))
        if self.distinct:
            out["distinct_points"] = len(self.distinct)
        return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_cells(tracer, layer, args, kwargs, result, before):
    layer.add("cells", int(np.size(_arg(args, kwargs, 0, "fld").values)))


def _count_rows(tracer, layer, args, kwargs, result, before):
    layer.add("rows", int(np.size(_arg(args, kwargs, 3, "rhs"))))


def _count_semiflow_points(tracer, layer, args, kwargs, result, before):
    s = float(_arg(args, kwargs, 0, "s"))
    xi = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "xi"), dtype=float))
    layer.add("points", int(xi.size))
    layer.distinct.update((s, float(v)) for v in np.unique(xi))


def _count_distance_points(tracer, layer, args, kwargs, result, before):
    body = args[0]
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    dim = body.dim
    per_point = dim if dim > 1 and x.ndim and x.shape[-1] == dim else 1
    layer.add("points", int(x.size // per_point))


def _count_file_bytes(pos, name):
    def hook(tracer, layer, args, kwargs, result, before):
        layer.add("bytes", os.path.getsize(_arg(args, kwargs, pos, name)))
    return hook


def _calls_of(*layers):
    """Pre-hook: total calls of the given layers when the call starts."""
    def pre(tracer):
        return sum(tracer.layer(n).calls for n in layers)
    return pre


def _hit_or_miss(*layers):
    """A cache lookup missed when it called any of the given layers."""
    def hook(tracer, layer, args, kwargs, result, before):
        missed = sum(tracer.layer(n).calls for n in layers) > before
        layer.add("misses" if missed else "hits", 1)
    return hook


def _k_tried(tracer, layer, args, kwargs, result, before):
    """Drift candidates tried: barrier evaluations per checkpoint time."""
    evals = tracer.layer("barriers.generation_sub").calls - before
    layer.add("k_tried", evals / len(_arg(args, kwargs, 3, "checkpoints")))


# (layer name, module, attribute or Class.method, keep per-call samples,
#  pre-hook, post-hook).  Each layer is named after the module that defines it.
SPECS = (
    ("solver.run", "solver", "run", False, None, None),
    ("solver.step", "solver", "step", True, None, _count_cells),
    ("solver.reaction_substep", "solver", "reaction_substep", False, None, None),
    ("solver.diffusion_substep", "solver", "diffusion_substep", False, None,
     None),
    ("solver.front_position", "solver", "front_position", False, None, None),
    ("solver.build_initial", "solver", "build_initial", False, None, None),
    ("solver.dump_checkpoint", "solver", "dump_checkpoint", False, None,
     _count_file_bytes(2, "path")),
    ("grids.solve_tridiagonal", "grids", "solve_tridiagonal", True, None,
     _count_rows),
    ("grids.interpolate", "grids", "interpolate", False, None, None),
    ("kinetics.semiflow", "kinetics", "semiflow", False, None,
     _count_semiflow_points),
    ("barriers.generation_sub", "barriers", "generation_sub", False, None, None),
    ("barriers.global_super", "barriers", "global_super", False, None, None),
    ("barriers.motion_sub", "barriers", "motion_sub", False, None, None),
    ("barriers.discrete_residual", "barriers", "discrete_residual", False,
     None, None),
    ("geometry.signed_distance", "geometry", "ConvexBody.signed_distance",
     False, None, _count_distance_points),
    ("waves.solve_wave", "waves", "solve_wave", False, None, None),
    ("waves.solve_sign_changing_wave", "waves", "solve_sign_changing_wave",
     False, None, None),
    ("reporting.write_csv", "reporting", "ExperimentReport.write_csv", False,
     None, _count_file_bytes(1, "path")),
    ("studies.cached_run", "studies", "cached_run", False,
     _calls_of("solver.run"), _hit_or_miss("solver.run")),
    ("studies.cached_wave", "studies", "cached_wave", False,
     _calls_of("waves.solve_wave", "waves.solve_sign_changing_wave"),
     _hit_or_miss("waves.solve_wave", "waves.solve_sign_changing_wave")),
    ("studies.fit_generation_drift", "studies", "fit_generation_drift", False,
     _calls_of("barriers.generation_sub"), _k_tried),
)


class Tracer:
    def __init__(self):
        self.layers = {}

    def layer(self, name):
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    def install(self, package="fkpplab"):
        """Wrap every traced function that exists, wherever it is bound."""
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{package}.{info.name}")
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for name, module, attr, keep, pre, post in SPECS:
            layer = self.layers.setdefault(name, Layer(keep))
            owner = sys.modules.get(f"{package}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = inspect.getattr_static(owner, leaf, None) if owner else None
            if not inspect.isfunction(fn):
                continue
            wrapped = self._wrap(fn, layer, pre, post)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def _wrap(self, fn, layer, pre, post):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(self) if pre else None
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            layer.calls += 1
            layer.seconds += dt
            if layer.samples is not None:
                layer.samples.append(dt)
            if post:
                try:
                    post(self, layer, args, kwargs, result, before)
                except _HOOK_ERRORS:
                    pass
            return result

        return traced

    def summary(self):
        return {name: layer.summary() for name, layer in self.layers.items()}


def layer_metrics(layers, overhead_s):
    """The benchmark's per-layer metrics from a traced run's layer summary."""
    def get(name, key="calls"):
        return layers.get(name, {}).get(key, 0)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("solver.run.calls", get("solver.run"), "count")
    put("solver.run.s", get("solver.run", "s"), "s")
    put("solver.step.calls", get("solver.step"), "count")
    put("solver.step.s", get("solver.step", "s"), "s")
    put("solver.step.us_p50", get("solver.step", "us_p50"), "us")
    put("solver.step.us_p99", get("solver.step", "us_p99"), "us")
    put("solver.reaction_substep.s", get("solver.reaction_substep", "s"), "s")
    put("solver.diffusion_substep.s", get("solver.diffusion_substep", "s"), "s")
    step_s = get("solver.step", "s")
    put("solver.cell_updates_per_s",
        get("solver.step", "cells") / step_s if step_s else 0.0, "1/s")
    for stat, unit in (("calls", "count"), ("s", "s"), ("us_p50", "us"),
                       ("us_p99", "us"), ("rows", "count")):
        put(f"grids.solve_tridiagonal.{stat}",
            get("grids.solve_tridiagonal", stat), unit)
    for name in ("solver.front_position", "grids.interpolate",
                 "waves.solve_wave", "waves.solve_sign_changing_wave"):
        put(f"{name}.calls", get(name), "count")
        put(f"{name}.s", get(name, "s"), "s")
    points = get("kinetics.semiflow", "points")
    distinct = get("kinetics.semiflow", "distinct_points")
    put("kinetics.semiflow.calls", get("kinetics.semiflow"), "count")
    put("kinetics.semiflow.s", get("kinetics.semiflow", "s"), "s")
    put("kinetics.semiflow.points", points, "count")
    put("kinetics.semiflow.distinct_points", distinct, "count")
    put("kinetics.semiflow.useful_ratio",
        distinct / points if points else 0.0, "ratio")
    fit = "studies.fit_generation_drift"
    tried = get(fit, "k_tried")
    put(f"{fit}.s", get(fit, "s"), "s")
    put(f"{fit}.k_tried", tried, "count")
    put(f"{fit}.k_useful_ratio", get(fit) / tried if tried else 0.0, "ratio")
    for name in ("generation_sub", "global_super", "motion_sub",
                 "discrete_residual"):
        put(f"barriers.{name}.s", get(f"barriers.{name}", "s"), "s")
    put("geometry.signed_distance.calls", get("geometry.signed_distance"),
        "count")
    put("geometry.signed_distance.points",
        get("geometry.signed_distance", "points"), "count")
    put("geometry.signed_distance.s", get("geometry.signed_distance", "s"), "s")
    put("solver.build_initial.s", get("solver.build_initial", "s"), "s")
    for name in ("solver.dump_checkpoint", "reporting.write_csv"):
        put(f"{name}.s", get(name, "s"), "s")
        put(f"{name}.bytes", get(name, "bytes"), "B")
    for name in ("studies.cached_run", "studies.cached_wave"):
        put(f"{name}.hits", get(name, "hits"), "count")
        put(f"{name}.misses", get(name, "misses"), "count")
    put("trace.overhead_s", overhead_s, "s")
    return m
