"""Per-layer spans for the traced run, recorded by rebinding names the program calls.

Nothing under ``src/`` changes: the tracer replaces module attributes
(``latticedirac.lab._run_levels``, ``latticedirac.operators.dft``,
``numpy.fft.fftn``, ...) with wrappers that record a span, and puts the
originals back on `Tracer.uninstall`.  A name is rebound where the caller
looks it up, so each call is recorded once: ``lab.sample_potential`` times
the fine-mesh sampling in the lab, ``operators.sample_potential`` the
sampling inside each level solve.

FFT spans are counted at the ``numpy.fft``/``scipy.fft`` entry points, so
their counts survive a change that stops going through ``dft``/``idft``.
Work per transform call: ``n`` is the transform size (product of the
transformed axis lengths), ``batch`` the number of such transforms in the
array; ``points = n * batch``, ``flops = 5 * n * log2(n) * batch`` and
``bytes`` is input plus output array bytes.

Spans are ``[id, name, parent id, sweep index, start, end, attrs]`` and stay
in memory until the run writes them out.  A worker thread of the across-h
pool has no open span of its own, so its spans take the innermost span open
in the main thread (``lab.levels``) as parent.
"""

from __future__ import annotations

import importlib
import itertools
import math
import threading
import time

import numpy as np

# (module, attribute, span name); the lab-level names are the sweep's children.
LAB_WRAPS = (
    ("latticedirac.lab", "_solve_with_potential", "lab.reference"),
    ("latticedirac.lab", "_run_levels", "lab.levels"),
    ("latticedirac.lab", "sample", "grid.sample"),
    ("latticedirac.lab", "project", "grid.project"),
    ("latticedirac.lab", "l2_error_vs_continuum", "grid.l2_error"),
    ("latticedirac.lab", "sample_potential", "operators.sample_potential"),
    ("latticedirac.lab", "block_average", "operators.block_average"),
    ("latticedirac.lab", "resolvent_with_potential", "operators.level_solve"),
    ("latticedirac.lab", "weighted_ft_error", "fourier.weighted_ft_error"),
    ("latticedirac.cli", "_emit_report", "cli.emit"),
)

INNER_WRAPS = (
    ("latticedirac.fourier", "_tail_integral", "fourier.tail_integral"),
    ("latticedirac.fourier", "sample", "grid.sample"),
    ("latticedirac.operators", "dft", "fourier.dft"),
    ("latticedirac.operators", "idft", "fourier.idft"),
    ("latticedirac.operators", "_gmres", "operators.gmres"),
    ("latticedirac.operators", "sample_potential", "operators.sample_potential"),
    ("latticedirac.operators", "zeta_discrete", "symbols.zeta_discrete"),
)

# complex transforms and their default axes (None: every axis)
FFT_DEFAULT_AXES = {"fft": (-1,), "ifft": (-1,), "fft2": (-2, -1), "ifft2": (-2, -1),
                    "fftn": None, "ifftn": None}
SHIFT_NAMES = ("fftshift", "ifftshift")
FFT_MODULES = ("numpy.fft", "scipy.fft")


def _fft_work(default_axes):
    """Attribute function for one transform entry point: points, bytes, flops."""

    def work(args, kwargs, result) -> dict:
        axes = kwargs.get("axes", kwargs.get("axis", args[2] if len(args) > 2 else default_axes))
        if axes is None:
            axes = range(result.ndim)
        elif isinstance(axes, int):
            axes = (axes,)
        n = math.prod(result.shape[ax] for ax in axes)
        batch = result.size // n
        return {
            "points": result.size,
            "bytes": np.asarray(args[0]).nbytes + result.nbytes,
            "flops": 5.0 * n * math.log2(n) * batch if n > 1 else 0.0,
        }

    return work


def _project_cells(args, kwargs, result) -> dict:
    mesh = args[1]  # project(phi, mesh)
    return {"cells": mesh.N**mesh.d}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.sweep = -1
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._root: list | None = None

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs_fn=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            span = [next(tracer._ids), name, parent, tracer.sweep, time.perf_counter(), None, None]
            tracer.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if attrs_fn is not None:
                span[6] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def _rebind(self, module, attr, name, attrs_fn=None):
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, self._wrap(fn, name, attrs_fn))

    def install(self):
        """Rebind every traced name; the program must already be imported."""
        for modname, attr, name in LAB_WRAPS + INNER_WRAPS:
            attrs_fn = _project_cells if name == "grid.project" else None
            self._rebind(importlib.import_module(modname), attr, name, attrs_fn)
        for modname in FFT_MODULES:
            module = importlib.import_module(modname)
            for attr, default_axes in FFT_DEFAULT_AXES.items():
                self._rebind(module, attr, "fourier.fft", _fft_work(default_axes))
            for attr in SHIFT_NAMES:
                self._rebind(module, attr, "fourier.fft.shift")

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def begin_sweep(self, index: int):
        """Open the root span of one traced sweep."""
        self.sweep = index
        self.enabled = True
        self._root = [next(self._ids), "sweep", None, index, time.perf_counter(), None, None]
        self.spans.append(self._root)
        self._main_stack.append(self._root[0])

    def end_sweep(self):
        self._root[5] = time.perf_counter()
        self._main_stack.pop()
        self.enabled = False

    def records(self) -> list[dict]:
        keys = ("id", "name", "parent", "sweep", "start", "end", "attrs")
        return [dict(zip(keys, span)) for span in self.spans]


def _union(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def sweep_metrics(spans: list[list], sweep: int) -> dict[str, float]:
    """Per-layer numbers of one traced sweep; see ``README.md`` for what each should move."""
    mine = [s for s in spans if s[3] == sweep]
    root = next(s for s in mine if s[1] == "sweep")
    by_id = {s[0]: s for s in mine}
    children: dict[int, list] = {}
    for s in mine:
        if s[2] is not None:
            children.setdefault(s[2], []).append(s)

    def dur(s):
        return s[5] - s[4]

    def total(group, key):  # a span whose call raised has no attributes
        return sum(s[6][key] for s in group if s[6])

    def named(name):
        return [s for s in mine if s[1] == name]

    def busy(name):
        return sum(dur(s) for s in named(name))

    def self_time(s):
        return dur(s) - _union((c[4], c[5]) for c in children.get(s[0], ()))

    def under(s, ancestor_name):
        while s[2] is not None:
            s = by_id[s[2]]
            if s[1] == ancestor_name:
                return True
        return False

    sweep_s = dur(root)
    attributed = _union((c[4], c[5]) for c in children.get(root[0], ()))
    ffts = named("fourier.fft")
    ref_transforms = [s for s in mine if s[1] in ("fourier.fft", "fourier.fft.shift")
                      and under(s, "lab.reference")]
    return {
        "lab.sweep_s": sweep_s,
        "lab.attributed_frac": attributed / sweep_s,
        "lab.unattributed_s": sweep_s - attributed,
        "lab.reference.busy_s": busy("lab.reference"),
        "lab.levels.busy_s": busy("lab.levels"),
        "fourier.fft.calls": len(ffts),
        "fourier.fft.points": total(ffts, "points"),
        "fourier.fft.bytes_computed": total(ffts, "bytes"),
        "fourier.fft.flops_computed": total(ffts, "flops"),
        "fourier.fft.busy_s": busy("fourier.fft"),
        "fourier.fft.shift.calls": len(named("fourier.fft.shift")),
        "fourier.fft.shift.busy_s": busy("fourier.fft.shift"),
        "fourier.dft.calls": len(named("fourier.dft")),
        "fourier.dft.busy_s": busy("fourier.dft"),
        "fourier.idft.calls": len(named("fourier.idft")),
        "fourier.idft.busy_s": busy("fourier.idft"),
        "fourier.tail_integral.busy_s": busy("fourier.tail_integral"),
        "fourier.weighted_ft_error.busy_s": busy("fourier.weighted_ft_error"),
        "operators.reference_solve.fft_calls": sum(1 for s in ref_transforms if s[1] == "fourier.fft"),
        "operators.reference_solve.self_s": busy("lab.reference") - sum(dur(s) for s in ref_transforms),
        "operators.gmres.calls": len(named("operators.gmres")),
        "operators.gmres.busy_s": busy("operators.gmres"),
        "operators.gmres.self_s": sum(self_time(s) for s in named("operators.gmres")),
        "operators.level_solve.calls": len(named("operators.level_solve")),
        "operators.level_solve.busy_s": busy("operators.level_solve"),
        "operators.sample_potential.busy_s": busy("operators.sample_potential"),
        "operators.block_average.busy_s": busy("operators.block_average"),
        "grid.project.busy_s": busy("grid.project"),
        "grid.project.cells": total(named("grid.project"), "cells"),
        "grid.l2_error.busy_s": busy("grid.l2_error"),
        "grid.sample.busy_s": busy("grid.sample"),
        "symbols.zeta_discrete.busy_s": busy("symbols.zeta_discrete"),
    }
