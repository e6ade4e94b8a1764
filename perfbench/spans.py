"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces every public function of the program's modules
(and ``StructureConstants.from_entries``) by a wrapper that records a span:
its duration, and the duration of the spans it caused.  Every module
attribute that refers to a wrapped function is replaced, so names bound by
``from ... import`` (in ``cli``, ``curvature``, ``volume`` and the package
itself) are traced too.  A layer's self time is the duration of its spans
minus the part covered by their child spans.

Counts are taken at the same boundaries: phi-evaluator calls through the
families ``phi_family`` returns, integrand evaluations inside
``adaptive_gauss_legendre``, and S evaluations made inside a
finite-difference E.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("algebra", "metrics", "curvature", "volume", "catalog", "cli")


def _arg(args, kwargs, pos, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _s_name(args, kwargs):
    if _arg(args, kwargs, 5, "mode", "formal") == "validated":
        return "curvature.s_validated"
    if _arg(args, kwargs, 4, "path", "closed_form") == "generic":
        return "curvature.s_generic"
    return "curvature.s_closed"


def _e_name(args, kwargs):
    if _arg(args, kwargs, 4, "path", "closed_form") == "finite_difference":
        return "curvature.e_fd"
    return "curvature.e_closed"


def _main_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv", None) or sys.argv[1:]
    return "cli.scan_main" if argv and argv[0] == "scan" else "cli.main"


class Tracer:
    def __init__(self):
        self.stack = []                         # [child seconds, span name]
        self.durations = defaultdict(lambda: array("d"))
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def _span(self, layer, fn, name_of):
        stack, durations = self.stack, self.durations
        self_s, calls, counts = self.self_s, self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            if name.startswith("curvature.s_") and any(f[1] == "curvature.e_fd" for f in stack):
                counts["s_in_e_fd"] += 1
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s[layer] += dur - frame[0]
                calls[layer] += 1
                durations[name].append(dur)
        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def _special(self, qualname, fn):
        """Adapters that take counts inside a public function's arguments or result."""
        if qualname == "metrics.phi_family":
            def phi_family(name):
                fam = fn(name)
                return dataclasses.replace(fam, **{
                    k: self._counting("phi_evals", getattr(fam, k))
                    for k in ("phi", "dphi", "d2phi", "d3phi")})
            return phi_family
        if qualname == "volume.adaptive_gauss_legendre":
            def adaptive_gauss_legendre(f, *args, **kwargs):
                return fn(self._counting("integrand_evals", f), *args, **kwargs)
            return adaptive_gauss_legendre
        return fn

    def install(self):
        """Wrap the public functions of every layer module; returns self."""
        import homfinsler.cli  # noqa: F401  (not imported by the package itself)

        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"homfinsler.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                qualname = f"{layer}.{attr}"
                name_of = {"curvature.s_curvature": _s_name,
                           "curvature.s_curvature_via_tensors": lambda a, k: "curvature.s_tensors",
                           "curvature.mean_berwald": _e_name,
                           "cli.main": _main_name}.get(qualname, lambda a, k, q=qualname: q)
                replaced[id(obj)] = (obj, self._span(layer, self._special(qualname, obj), name_of))
        for name, mod in list(sys.modules.items()):
            if name == "homfinsler" or name.startswith("homfinsler."):
                for attr, obj in list(vars(mod).items()):
                    hit = replaced.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, attr, hit[1])
        sc = sys.modules["homfinsler.algebra"].StructureConstants
        from_entries = sc.from_entries.__func__
        sc.from_entries = classmethod(self._span(
            "algebra", from_entries, lambda a, k: "algebra.from_entries"))
        return self

    def reset(self):
        """Forget everything recorded so far (the set-up calls)."""
        for table in (self.durations, self.self_s, self.calls, self.counts):
            table.clear()

    def p50(self, name: str, scale: float) -> float:
        d = self.durations.get(name)
        return float(np.median(np.frombuffer(d, dtype=float))) * scale if d else 0.0
