"""Traced mode: wrap the library's public functions from outside.

Each module binds its imports with ``from .x import y``, so a wrapper is
installed under every name, in every ``pwlcones`` module, that refers to the
wrapped function.  A wrapper records a span (name, start, end, parent span,
operation index) and the counts its hook derives from the arguments and the
result.  Spans stay in memory and are written when the run ends; self time
is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

MODULES = ("pwlcones", "pwlcones.auxiliary", "pwlcones.halfmaps", "pwlcones.cones",
           "pwlcones.synthesis", "pwlcones.simulate", "pwlcones.model", "pwlcones.cli")


def _slope_hook(tr, args, kwargs, result):
    tau = args[1] if len(args) > 1 else kwargs["tau"]
    n = int(np.size(tau))
    scalar = np.ndim(tau) == 0
    tr.counts["halfmaps.slope.scalar_calls" if scalar else "halfmaps.slope.vector_elements"] += (
        1 if scalar else n)
    if tr.active["solve_invariant_cones"]:
        tr.counts["cones.newton_slope_evals" if scalar else "cones.grid_elements"] += (
            1 if scalar else n)


def _entry_slope_hook(tr, args, kwargs, result):
    _slope_hook(tr, args, kwargs, result)
    if tr.active["invert_entry_slope"]:
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        if np.ndim(tau) == 0:
            tr.counts["halfmaps.invert_entry_slope.bisect_evals"] += 1
        else:
            tr.counts["halfmaps.invert_entry_slope.scan_elements"] += int(np.size(tau))


def _counting_misses(tr, cached):
    """``cached`` (an lru_cache function) with its misses counted per call;
    cache_clear between calls resets cache_info, so totals cannot be used."""
    @functools.wraps(cached)
    def counted(*args, **kwargs):
        before = cached.cache_info().misses
        result = cached(*args, **kwargs)
        tr.counts["auxiliary.tau_hat.misses"] += cached.cache_info().misses - before
        return result
    return counted


def _count(key, fn=lambda args, kwargs, result: 1):
    def hook(tr, args, kwargs, result):
        tr.counts[key] += fn(args, kwargs, result)
    return hook


# (module, attribute, span name, hook).  Names follow "<module>.<function>".
TARGETS = (
    ("pwlcones.auxiliary", "phi_scaled", "auxiliary.phi_scaled",
     _count("auxiliary.phi_scaled.elements", lambda a, k, r: int(np.size(a[1])))),
    ("pwlcones.auxiliary", "tau_hat", "auxiliary.tau_hat", None),
    ("pwlcones.auxiliary", "log_g", "auxiliary.log_g", None),
    ("pwlcones.halfmaps", "entry_slope", "halfmaps.entry_slope", _entry_slope_hook),
    ("pwlcones.halfmaps", "exit_slope", "halfmaps.exit_slope", _slope_hook),
    ("pwlcones.halfmaps", "entry_slope_deriv", "halfmaps.entry_slope_deriv",
     _count("halfmaps.slope_deriv.calls")),
    ("pwlcones.halfmaps", "exit_slope_deriv", "halfmaps.exit_slope_deriv",
     _count("halfmaps.slope_deriv.calls")),
    ("pwlcones.halfmaps", "invert_entry_slope", "halfmaps.invert_entry_slope", None),
    ("pwlcones.halfmaps", "half_map", "halfmaps.half_map", None),
    ("pwlcones.halfmaps", "zone_flow", "halfmaps.zone_flow", None),
    ("pwlcones.halfmaps", "x1_at", "halfmaps.x1_at", None),
    ("pwlcones.cones", "analyze_system", "cones.analyze_system", None),
    ("pwlcones.cones", "solve_invariant_cones", "cones.solve_invariant_cones",
     _count("cones.cones_found", lambda a, k, r: len(r.cones))),
    ("pwlcones.synthesis", "synthesize", "synthesis.synthesize", None),
    ("pwlcones.simulate", "trace_orbit", "simulate.trace_orbit",
     lambda tr, a, k, r: tr.counts.update({"simulate.trace_orbit.crossings": len(r.crossings),
                                           "simulate.trace_orbit.samples": len(r.samples)})),
    ("pwlcones.simulate", "rk4_flow", "simulate.rk4_flow",
     _count("simulate.rk4_flow.steps", lambda a, k, r: len(r[0]) - 1)),
    ("pwlcones.simulate", "write_trace_csv", "simulate.write_trace_csv",
     _count("simulate.write_trace_csv.bytes", lambda a, k, r: os.path.getsize(a[1]))),
    ("pwlcones.model", "load_system", "model.load_system", None),
    ("pwlcones.model", "canonicalize", "model.canonicalize", None),
    ("pwlcones.model", "system_to_json", "model.system_to_json", None),
)

class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name_col = array("i")
        self.parent = array("q")
        self.op_col = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn, hook=None, active_key=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        tr = self
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.start)
            tr.name_col.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op_col.append(tr.op)
            tr.start.append(0)
            tr.end.append(0)
            tr.stack.append(idx)
            if active_key:
                tr.active[active_key] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tr.stack.pop()
                if active_key:
                    tr.active[active_key] -= 1
                tr.start[idx] = t0
                tr.end[idx] = t1
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for modname, attr, name, hook in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            inner = _counting_misses(self, original) if attr == "tau_hat" else original
            wrapped = self.span(name, inner, hook, active_key=attr)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        model = importlib.import_module("pwlcones.model")
        raw = vars(model.PwlSystem)["from_eigen"]
        model.PwlSystem.from_eigen = classmethod(self.span("model.from_eigen", raw.__func__))
        self._undo.append((model.PwlSystem, "from_eigen", raw))
        cli = importlib.import_module("pwlcones.cli")
        main = cli.main
        by_command: dict = {}

        def traced_main(argv=None):
            # one span name per subcommand: cli.synthesize, cli.analyze, ...
            if argv[0] not in by_command:
                by_command[argv[0]] = self.span(f"cli.{argv[0]}", main)
            return by_command[argv[0]](argv)

        cli.main = traced_main
        self._undo.append((cli, "main", main))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "parent": parent,
            "op": np.frombuffer(self.op_col, dtype=np.int64),
            "start_ns": start,
            "end_ns": end,
            "self_ns": dur - child,
        }

    def layer_metrics(self, names, ops: int) -> dict:
        """The per-layer metrics ``names``, per attempted operation.

        ``<span>.ms`` is the total time of a span name and ``<span>.calls``
        its number of calls; other names are counts kept by the hooks,
        except the ratios and self times derived below."""
        cols = self.arrays()
        dur = cols["end_ns"] - cols["start_ns"]
        total_ms, self_ms, calls = {}, {}, {}
        for name, nid in self.name_ids.items():
            mask = cols["name"] == nid
            total_ms[name] = float(dur[mask].sum()) / 1e6
            self_ms[name] = float(cols["self_ns"][mask].sum()) / 1e6
            calls[name] = int(mask.sum())
        c = self.counts
        per = 1.0 / ops
        derived = {
            "cones.analyze_system.self_ms": self_ms.get("cones.analyze_system", 0.0) * per,
            "cones.newton_slope_evals_per_cone":
                c["cones.newton_slope_evals"] / max(1, c["cones.cones_found"]),
            "simulate.trace_orbit.ms_per_crossing":
                total_ms.get("simulate.trace_orbit", 0.0)
                / max(1, c["simulate.trace_orbit.crossings"]),
            "simulate.rk4_flow.ns_per_step":
                total_ms.get("simulate.rk4_flow", 0.0) * 1e6
                / max(1, c["simulate.rk4_flow.steps"]),
            "cli.self_ms": sum(v for k, v in self_ms.items() if k.startswith("cli.")) * per,
        }
        out = {}
        for key in names:
            span, _, kind = key.rpartition(".")
            if key in derived:
                out[key] = derived[key]
            elif kind == "ms":
                out[key] = total_ms.get(span, 0.0) * per
            elif kind == "calls" and span in calls:
                out[key] = calls[span] * per
            else:
                out[key] = c[key] * per
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
