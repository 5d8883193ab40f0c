"""Span tracer for the traced benchmark run.

The tracer wraps functions at the module attributes through which the
tflp layers call each other (``tflp.processes.fftconvolve``,
``tflp.analytics.bessel_k``, ``scipy.integrate.quad``, ...).  Each call
records one span (name, start, end, parent) in memory and adds to its
layer's call count, work counts and self time.  Self time is a span's
duration minus the time its child spans cover.

A wrapper whose target attribute no longer exists is reported loudly
(stderr and ``trace.missing_wrappers``), so that a refactor cannot turn
a layer's numbers into silent zeros.  No library source is modified:
the wrappers are installed for a traced round and removed after it.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import threading
from time import perf_counter

import numpy as np


def _points(args, kwargs, result):
    """Grid points of the operator's input function ``f``."""
    f = kwargs["f"] if "f" in kwargs else args[0]
    return {"points": f.grid.n_cells + 1}


def _sample_cells(args, kwargs, result):
    return {"cells": int(np.size(result))}


def _elems(args, kwargs, result):
    return {"elems": int(np.size(result))}


def _conv(args, kwargs, result):
    a, b = args[0], args[1]
    return {"elems": int(np.size(a) + np.size(b)),
            "bytes_computed": int(np.asarray(result).nbytes)}


def _quad(args, kwargs, result):
    return {"abserr_max": float(result[1])}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _lags(fn):
    """Lags read and lags convolved by one path simulation, computed
    from ``truncation_width`` and the observation grid."""
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        from tflp.processes import truncation_width
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        grid, refine = a["obs_grid"], a["refine"]
        R = a["trunc_width"] if a["trunc_width"] > 0 else truncation_width(a["params"])
        n_hist = math.ceil(R / (grid.dx / refine))
        return {"lags_read": grid.n_cells + 1,
                "lags_convolved": n_hist + grid.n_cells * refine}
    return count


# (span name, module, attribute, counter or None); the counter receives
# (args, kwargs, result) and returns work counts to add to the span's layer
WRAPPERS = [
    ("driver.sample", "tflp.driver", "sample_increments", _sample_cells),
    ("driver.sample", "tflp.processes", "sample_increments", _sample_cells),
    ("driver.sample", "tflp.integration", "sample_increments", _sample_cells),
    ("driver.sample", "tflp.cli", "sample_increments", _sample_cells),
    ("incgamma", "tflp.processes", "lower_gamma", _elems),
    ("incgamma", "tflp.processes", "upper_gamma", _elems),
    ("incgamma", "tflp.calculus", "lower_gamma", _elems),
    ("incgamma", "tflp.calculus", "upper_gamma", _elems),
    ("incgamma", "tflp.integration", "lower_gamma", _elems),
    ("incgamma", "tflp.integration", "upper_gamma", _elems),
    ("incgamma", "tflp.driver", "_upper_gamma", _elems),
    ("processes.simulate", "tflp.processes", "simulate_tflp1", "lags"),
    ("processes.simulate", "tflp.processes", "simulate_tflp2", "lags"),
    ("processes.simulate", "tflp.processes", "simulate_smooth_regime", "lags"),
    ("processes.simulate", "tflp.cli", "simulate_tflp1", "lags"),
    ("processes.simulate", "tflp.cli", "simulate_tflp2", "lags"),
    ("processes.conv", "tflp.processes", "fftconvolve", _conv),
    ("analytics.cov1", "tflp.analytics", "cov_tflp1", None),
    ("analytics.cov2", "tflp.analytics", "cov_tflp2", None),
    ("analytics.acvf1", "tflp.analytics", "acvf_tfln1", None),
    ("analytics.acvf2", "tflp.analytics", "acvf_tfln2", None),
    ("analytics.quad", "scipy.integrate", "quad", _quad),
    ("analytics.estimators", "tflp.analytics", "empirical_acvf", None),
    ("analytics.estimators", "tflp.analytics", "periodogram", None),
    ("analytics.estimators", "tflp.analytics", "fit_semi_lrd", None),
    ("analytics.estimators", "tflp.analytics", "structure_exponent", None),
    ("special.bessel", "tflp.analytics", "bessel_k", None),
    ("special.bessel", "tflp.analytics", "bessel_k_scaled", None),
    ("calculus.ops", "tflp.calculus", "frac_integral_minus", _points),
    ("calculus.ops", "tflp.calculus", "frac_integral_plus", _points),
    ("calculus.ops", "tflp.calculus", "frac_derivative_minus", _points),
    ("calculus.ops", "tflp.calculus", "frac_derivative_plus", _points),
    ("calculus.ops", "tflp.calculus", "fourier_multiplier", _points),
    ("calculus.ops", "tflp.calculus", "sobolev_norm", _points),
    ("calculus.ops", "tflp.integration", "frac_integral_minus", _points),
    ("calculus.ops", "tflp.integration", "frac_derivative_minus", _points),
    ("calculus.ops", "tflp.cli", "frac_integral_minus", _points),
    ("calculus.ops", "tflp.cli", "frac_derivative_minus", _points),
    ("calculus.ops", "tflp.cli", "fourier_multiplier", _points),
    ("integration.transform", "tflp.integration", "transform_integrand", None),
    ("integration.transform", "tflp.cli", "transform_integrand", None),
    ("cli.write_csv", "tflp.cli", "write_csv", _csv_bytes),
    ("cli.read_csv", "tflp.cli", "read_csv", None),
    ("cli.manifest", "tflp.cli", "write_manifest", None),
]

ROOT = "bench.round"


class Layer:
    """Aggregate of one span name: calls, self and inclusive time, counts."""

    __slots__ = ("calls", "self_s", "incl_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.counts = {}


class Tracer:
    """Installs the wrappers for one traced round and collects its spans."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.layers = {}
        self.missing = []          # "module.attr" targets that do not exist
        self.wrapper_calls = {}    # "module.attr" -> calls seen
        self._patched = []
        self._root_entry = None
        self._round = None
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans ----------------------------------------------------------
    def _stack(self):
        loc = self._local
        if getattr(loc, "round", None) is not self._round:
            # a thread started inside the round hangs off the root span
            loc.round, loc.stack = self._round, [self._root_entry]
        return loc.stack

    def _enter(self, name, start):
        st = self._stack()
        idx = len(self.spans)
        self.spans.append([name, start, None, st[-1][0]])
        st.append([idx, 0.0])

    def _exit(self, name, end, counts):
        st = self._stack()
        idx, child = st.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        with self._lock:
            st[-1][1] += dur
            lay = self.layers.get(name)
            if lay is None:
                lay = self.layers[name] = Layer()
            lay.calls += 1
            lay.self_s += dur - child
            lay.incl_s += dur
            for k, v in counts.items():
                if k.endswith("_max"):
                    lay.counts[k] = max(lay.counts.get(k, v), v)
                else:
                    lay.counts[k] = lay.counts.get(k, 0) + v

    def begin_round(self):
        self.spans = [[ROOT, perf_counter(), None, None]]
        self.layers = {}
        self._root_entry = [0, 0.0]
        self._round = object()

    def end_round(self):
        root = self.spans[0]
        root[2] = perf_counter()
        lay = self.layers[ROOT] = Layer()
        lay.calls = 1
        lay.incl_s = root[2] - root[1]
        lay.self_s = lay.incl_s - self._root_entry[1]

    # -- wrappers -------------------------------------------------------
    def install(self):
        for name, mod_name, attr, counter in WRAPPERS:
            target = f"{mod_name}.{attr}"
            try:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
            except (ImportError, AttributeError):
                if target not in self.missing:
                    self.missing.append(target)
                    print(f"TRACE WARNING: wrapper target {target} no longer "
                          f"exists; layer {name} is not measured through it",
                          file=sys.stderr)
                continue
            if counter == "lags":
                counter = _lags(orig)
            setattr(mod, attr, self._wrap(name, target, orig, counter))
            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def _wrap(self, name, target, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name, perf_counter())
            counts = {}
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                tracer.wrapper_calls[target] = tracer.wrapper_calls.get(target, 0) + 1
                tracer._exit(name, perf_counter(), counts)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ---------------------------------------------------------
    def write_spans(self, path):
        """Write the last round's spans, one per line: index, name,
        start, end (seconds from the round start), parent index."""
        t0 = self.spans[0][1]
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, s, e, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{s - t0:.9f}\t{e - t0:.9f}\t"
                         f"{'' if i == 0 else parent}\n")

    def round_metrics(self):
        """Per-layer metrics of the round just traced.  Counts (``*.calls``,
        ``*.elems``, ``*.cells``, bytes, the lag ratio) are exact."""
        L = self.layers
        empty = Layer()

        def lay(n):
            return L.get(n, empty)

        def per_point(n, scale):
            x = lay(n)
            return x.incl_s / x.calls * scale if x.calls else 0.0

        sim = lay("processes.simulate").counts
        conv = lay("processes.conv")
        read, convolved = sim.get("lags_read", 0), sim.get("lags_convolved", 0)
        curves = ("analytics.cov1", "analytics.cov2", "analytics.acvf1", "analytics.acvf2")
        return {
            "driver.sample.calls": lay("driver.sample").calls,
            "driver.sample.cells": lay("driver.sample").counts.get("cells", 0),
            "driver.sample.self_s": lay("driver.sample").self_s,
            "incgamma.calls": lay("incgamma").calls,
            "incgamma.elems": lay("incgamma").counts.get("elems", 0),
            "incgamma.self_s": lay("incgamma").self_s,
            "processes.simulate.calls": lay("processes.simulate").calls,
            "processes.simulate.self_s": lay("processes.simulate").self_s,
            "processes.conv.calls": conv.calls,
            "processes.conv.elems": conv.counts.get("elems", 0),
            "processes.conv.bytes_computed": conv.counts.get("bytes_computed", 0),
            "processes.conv.self_s": conv.self_s,
            "processes.lags_read_frac": read / convolved if convolved else 0.0,
            "analytics.cov1.us_per_point": per_point("analytics.cov1", 1e6),
            "analytics.cov2.ms_per_point": per_point("analytics.cov2", 1e3),
            "analytics.acvf1.us_per_point": per_point("analytics.acvf1", 1e6),
            "analytics.acvf2.ms_per_point": per_point("analytics.acvf2", 1e3),
            "analytics.curves.self_s": sum(lay(n).self_s for n in curves),
            "analytics.quad.calls": lay("analytics.quad").calls,
            "analytics.quad.self_s": lay("analytics.quad").self_s,
            "analytics.quad.abserr_max": lay("analytics.quad").counts.get("abserr_max", 0.0),
            "analytics.estimators.self_s": lay("analytics.estimators").self_s,
            "special.bessel.calls": lay("special.bessel").calls,
            "special.bessel.self_s": lay("special.bessel").self_s,
            "calculus.ops.calls": lay("calculus.ops").calls,
            "calculus.ops.points": lay("calculus.ops").counts.get("points", 0),
            "calculus.ops.self_s": lay("calculus.ops").self_s,
            "integration.transform.calls": lay("integration.transform").calls,
            "integration.transform.self_s": lay("integration.transform").self_s,
            "cli.write_csv.bytes": lay("cli.write_csv").counts.get("bytes", 0),
            "cli.write_csv.self_s": lay("cli.write_csv").self_s,
            "cli.read_csv.self_s": lay("cli.read_csv").self_s,
            "cli.manifest.self_s": lay("cli.manifest").self_s,
            "trace.run_s": lay(ROOT).incl_s,
            "trace.unattributed_s": lay(ROOT).self_s,
        }
