"""Span tracer that wraps ppcf's public callables from outside the package.

A span is opened around every call of a wrapped function or method and closed
when it returns or raises.  Spans nest on one stack per process, so a span's
self time is its duration minus the durations of the spans opened directly
inside it.  Nothing under ``src/`` is changed: module-level functions are
replaced at every place they are looked up (``from .model import
build_quadrature`` binds the name in each importing module), and methods are
replaced on their class.

Pool workers forked while the tracer is installed inherit the wrappers.  The
tracer resets itself in the child, and each time a root span ends there it
appends its totals to a spool file that the parent merges afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter
from pathlib import Path

MODULES = ("fields", "process", "model", "nuisance", "crossfit", "inference", "harness", "cli")

# Methods wrapped on their class: ``__init__`` gives the span ``module.Class``,
# any other method ``module.Class.method``.
METHODS = {
    ("fields", "GridField"): ("evaluate_points",),
    ("nuisance", "NuisanceFit"): ("__init__", "eta_at", "eta_all"),
    ("crossfit", "EtaAggregate"): ("eta_at", "eta_all"),
}

# (span, open ancestor) -> counter: counts spans opened while the ancestor is open.
UNDER = {
    "nuisance.NuisanceFit.eta_all": (("model.profile_maximize", "model.profile_maximize.score_evals"),),
    "nuisance.NuisanceFit.eta_at": (("model.profile_maximize", "model.profile_maximize.value_evals"),),
}


class Tracer:
    """Per-process span stack with per-name call counts, self time and counters."""

    def __init__(self, clock=time.perf_counter, spool_dir=None):
        self._clock = clock
        self.spool_dir = spool_dir
        self._active = False
        self._in_child = False
        self.reset()

    def reset(self) -> None:
        self._stack = []            # open frames: [name, start, time covered by children]
        self._open = Counter()      # names of the open frames
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.root_s = 0.0           # summed duration of spans opened with an empty stack

    def enter(self, name: str) -> None:
        for ancestor, counter in UNDER.get(name, ()):
            if self._open[ancestor]:
                self.counts[counter] += 1
        self._open[name] += 1
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self._clock() - start
        self._open[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration
            if self._in_child:
                self._spool()

    # -- fork support ------------------------------------------------------

    def activate(self) -> None:
        """Start following forks: a forked child keeps only its own spans."""
        if not self._active:
            self._active = True
            os.register_at_fork(after_in_child=self._after_fork)

    def deactivate(self) -> None:
        self._active = False

    def _after_fork(self) -> None:
        if self._active:
            self._in_child = True
            self.reset()

    def _spool(self) -> None:
        path = Path(self.spool_dir) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps(self.snapshot()) + "\n")
        self.reset()

    # -- totals ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "root_s": self.root_s}


class Totals:
    """Sum of tracer snapshots, e.g. those spooled by every pool worker."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.root_s = 0.0

    def add(self, snap: dict) -> None:
        self.calls.update(snap["calls"])
        self.self_s.update(snap["self_s"])
        self.counts.update(snap["counts"])
        self.root_s += snap["root_s"]

    @classmethod
    def from_spool(cls, spool_dir) -> "Totals":
        totals = cls()
        for path in sorted(Path(spool_dir).glob("spans-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    totals.add(json.loads(line))
        return totals


def traced(tracer: Tracer, name: str, fn, observe=None):
    """``fn`` inside a span; ``observe(counts, args, kwargs, result, exc)`` updates counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(tracer.counts, args, kwargs, None, exc)
                raise
            if observe is not None:
                observe(tracer.counts, args, kwargs, result, None)
            return result
        finally:
            tracer.exit()

    return wrapper


def install(tracer: Tracer):
    """Wrap ppcf's public functions and the METHODS; returns what ``uninstall`` restores."""
    mods = {short: importlib.import_module(f"ppcf.{short}") for short in MODULES}
    patched = []
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapper = traced(tracer, name, fn, OBSERVERS.get(name))
            for other in mods.values():
                for other_attr, value in list(vars(other).items()):
                    if value is fn:
                        patched.append((other, other_attr, fn))
                        setattr(other, other_attr, wrapper)
    for (short, cls_name), methods in METHODS.items():
        cls = getattr(mods[short], cls_name)
        for meth in methods:
            name = f"{short}.{cls_name}" if meth == "__init__" else f"{short}.{cls_name}.{meth}"
            fn = vars(cls)[meth]
            patched.append((cls, meth, fn))
            setattr(cls, meth, traced(tracer, name, fn, OBSERVERS.get(name)))
    tracer.activate()
    return patched


def uninstall(tracer: Tracer, patched) -> None:
    tracer.deactivate()
    for owner, attr, fn in reversed(patched):
        setattr(owner, attr, fn)


# -- counters taken from arguments and results --------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _evaluate_points(counts, args, kwargs, result, exc):
    if exc is None:
        counts["fields.evaluate_points.points"] += len(result)


def _build_quadrature(counts, args, kwargs, result, exc):
    if exc is None:
        counts["model.build_quadrature.nodes"] += result.m()


def _pcf_correction(counts, args, kwargs, result, exc):
    """Pair-kernel evaluations, computed from the quadrature sizes of the call."""
    quad = _arg(args, kwargs, 0, "quad")
    pcf = _arg(args, kwargs, 2, "pcf")
    if pcf.truncation_radius(quad.window) <= 0.0:
        return
    g = quad.grid_n
    n_data = quad.m() - g * g
    counts["inference.pcf_correction.pair_evals"] += n_data * g * g + n_data * n_data + (2 * g - 1) ** 2


def _estimate_pcf(counts, args, kwargs, result, exc):
    if exc is None:
        counts["inference.estimate_pcf.returned"] += 1
        counts["inference.estimate_pcf.poisson_fallbacks"] += result.family == "poisson"


def _cross_fit(counts, args, kwargs, result, exc):
    if exc is None:
        counts["crossfit.folds_attempted"] += len(result.per_fold)
        counts["crossfit.folds_ok"] += sum(f.converged for f in result.per_fold)
    else:
        # cross_fit raises only when fewer than half the folds converged; with
        # the two folds every workload uses, that means none did
        counts["crossfit.folds_attempted"] += _arg(args, kwargs, 2, "cfg").n_folds


OBSERVERS = {
    "fields.GridField.evaluate_points": _evaluate_points,
    "model.build_quadrature": _build_quadrature,
    "inference.pcf_correction": _pcf_correction,
    "inference.estimate_pcf": _estimate_pcf,
    "crossfit.cross_fit": _cross_fit,
}
