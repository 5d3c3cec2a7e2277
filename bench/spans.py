"""Span tracer used only by the traced run (``--trace 1``).

``Tracer.install`` replaces each traced library function, in every
``netreg`` module that holds a reference to it, with a wrapper that opens a
span on entry and closes it on exit; ``numpy.linalg.solve`` and
``numpy.linalg.eigh`` are wrapped the same way as the ``kernel`` layer.
Because the wrappers sit in every module namespace, calls made inside the
library (``gap`` calling ``project``, ``ratios`` calling ``h_apply``) are
caught, not only the calls the benchmark makes itself.

Spans are kept in memory as flat arrays (name, parent, start, end).  A
span's self time is its duration minus the durations of its direct
children.  Kernel calls also add the work computed from their argument
shapes (flops and bytes, labelled ``computed``: they ignore cache misses).
"""

import functools
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (metric prefix, module, attribute).  ``regulation.project`` is suffixed
# with the regulation kind of each call.
LIBRARY_LAYERS = (
    ("network.build_network", "netreg.network", "build_network"),
    ("network.h_apply", "netreg.network", "h_apply"),
    ("market.ratios", "netreg.market", "ratios"),
    ("market.a_statistic", "netreg.market", "a_statistic"),
    ("pareto.solve_eta_for_tau", "netreg.pareto", "solve_eta_for_tau"),
    ("regulation.project", "netreg.regulation", "project"),
    ("regulation.pareto_certificate", "netreg.regulation", "pareto_certificate"),
    ("regulation.classify_limit", "netreg.regulation", "classify_limit"),
    ("regulation.gap", "netreg.regulation", "gap"),
    ("scenario.parse_scenario", "netreg.scenario", "parse_scenario"),
    ("sweeps.run_sweep", "netreg.sweeps", "run_sweep"),
    ("sweeps.emit_csv", "netreg.sweeps", "emit_csv"),
)
PROJECT_KINDS = ("uniform", "average_price", "price_difference", "box", "halfspaces")

SPAN_NAMES = (
    *(name for name, _, _ in LIBRARY_LAYERS if name != "regulation.project"),
    *(f"regulation.project.{kind}" for kind in PROJECT_KINDS),
    "kernel.solve",
    "kernel.eigh",
)
# work counters reported next to the span metrics, with their units
WORK_COUNTERS = {
    "kernel.solve.gflop_computed": "GFLOP",
    "kernel.solve.mb_computed": "MB",
    "kernel.eigh.gflop_computed": "GFLOP",
    "kernel.eigh.mb_computed": "MB",
    "sweeps.emit_csv.bytes": "bytes",
}


def _batch(a):
    return int(np.prod(a.shape[:-2], dtype=np.int64))


def solve_work(a, b, *_, **__):
    """(flops, bytes) of an LU solve: 2/3 n^3 + 2 n^2 k flops; A read and
    its factor written, B read and X written, 8 bytes per double."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[-1]
    k = 1 if b.ndim == a.ndim - 1 else b.shape[-1]
    return _batch(a) * (2.0 / 3.0 * n**3 + 2.0 * n * n * k), _batch(a) * 8.0 * (2 * n * n + 2 * n * k)


def eigh_work(a, *_, **__):
    """(flops, bytes) of a symmetric eigendecomposition with vectors: about
    9 n^3 flops (Golub & Van Loan, symmetric QR with vectors); the matrix is
    read and the eigenvectors written."""
    a = np.asarray(a)
    n = a.shape[-1]
    return _batch(a) * 9.0 * n**3, _batch(a) * 8.0 * (2 * n * n + n)


class Tracer:
    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._names = list(SPAN_NAMES)
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.work = dict.fromkeys(WORK_COUNTERS, 0.0)
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self._start)
        self._name.append(ident)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around benchmark code, e.g. one job; parent of library spans."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _counted(self, fn, prefix, work):
        """Adds computed work outside the kernel's span, so it is not kernel time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            flops, nbytes = work(*args, **kwargs)
            self.work[f"{prefix}.gflop_computed"] += flops / 1e9
            self.work[f"{prefix}.mb_computed"] += nbytes / 1e6
            return fn(*args, **kwargs)

        return wrapper

    def _emit_counted(self, emit_csv):
        @functools.wraps(emit_csv)
        def wrapper(rows, destination):
            seekable = hasattr(destination, "tell")
            before = destination.tell() if seekable else 0
            emit_csv(rows, destination)
            after = destination.tell() if seekable else os.path.getsize(destination)
            self.work["sweeps.emit_csv.bytes"] += after - before

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, module, attr, replacement):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        """Wrap every traced function in every netreg module holding it."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "netreg" or name.startswith("netreg."))
        ]
        for metric, module_name, attr in LIBRARY_LAYERS:
            original = getattr(sys.modules[module_name], attr)
            if metric == "regulation.project":
                def name_of(args, kwargs):
                    k = kwargs["k"] if "k" in kwargs else args[1]
                    return f"regulation.project.{k.kind}"
            else:
                def name_of(args, kwargs, metric=metric):
                    return metric
            wrapper = self._spanned(original, name_of)
            if metric == "sweeps.emit_csv":
                wrapper = self._emit_counted(wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for attr, work in (("solve", solve_work), ("eigh", eigh_work)):
            metric = f"kernel.{attr}"
            spanned = self._spanned(getattr(np.linalg, attr), lambda args, kwargs, metric=metric: metric)
            self._patch(np.linalg, attr, self._counted(spanned, metric, work))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- aggregation ---------------------------------------------------------

    def summary(self):
        """``{name: (calls, total_s, self_s)}`` for every span name."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        children = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(children, parents[nested], duration[nested])
        own = duration - children
        size = len(self._names)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=duration, minlength=size)
        self_time = np.bincount(names, weights=own, minlength=size)
        return {
            name: (int(calls[i]), float(total[i]), float(self_time[i]))
            for i, name in enumerate(self._names)
        }
