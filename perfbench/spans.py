"""Span tracer that wraps dpsched's public functions from outside the package.

`Tracer.recording()` replaces each traced function at every dpsched module
that binds it (for example `threshold_to_policy` in `model`, `policies`,
`pareto` and the package itself, or scipy's `lu_factor` as bound in `mrp`),
opens a root span named `op`, and restores the original bindings on exit.
Spans (name, start, end, parent) are kept in memory in flat arrays and
written out once, by `save`, when the run ends.
"""
from __future__ import annotations

import functools
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from dpsched.errors import IterationLimit, SingularChain

# (module that defines or binds the function, attribute name, span name)
FUNCTIONS = (
    ("dpsched.model", "threshold_to_policy", "model.threshold_to_policy"),
    ("dpsched.model", "feasibility_mask", "model.feasibility_mask"),
    ("dpsched.policies", "neighbors_increase_threshold", "policies.neighbors_increase_threshold"),
    ("dpsched.mrp", "evaluate", "mrp.evaluate"),
    ("dpsched.mrp", "build_transition_enumerative", "mrp.build_transition_enumerative"),
    ("dpsched.mrp", "lu_factor", "mrp.lu_factor"),
    ("dpsched.mrp", "lu_solve", "mrp.lu_solve"),
    ("dpsched.pareto", "algorithm1", "pareto.algorithm1"),
    ("dpsched.pareto", "lower_convex_hull", "pareto.lower_convex_hull"),
    ("dpsched.lp", "build_lp", "lp.build_lp"),
    ("dpsched.lp", "solve_simplex", "lp.solve_simplex"),
    ("dpsched.sim", "simulate", "sim.simulate"),
)
GENERATORS = (
    ("dpsched.policies", "enumerate_deterministic", "policies.enumerate_deterministic"),
)
# Constructors are wrapped on the class, which covers every call site.
CONSTRUCTORS = (("dpsched.model", "Policy", "model.Policy"),)

SPAN_NAMES = tuple(n for *_, n in FUNCTIONS + GENERATORS + CONSTRUCTORS)


class Tracer:
    """Spans and layer counters of the operations run under `recording()`."""

    def __init__(self):
        self.names = ["op"] + list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._cached_depth = 0
        self.yielded = 0
        self.cached_evaluates = 0
        self.cached_builds = 0
        self.singular = 0
        self.iteration_limits = 0
        self.pivots: list[int] = []
        self.slots = 0
        self.walk_vertices = 0

    # -- spans ------------------------------------------------------------
    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------
    def _wrap_function(self, span: str, fn):
        sid = self._ids[span]
        key = span.replace(".", "_")
        on_call = getattr(self, "_before_" + key, None)
        on_error = getattr(self, "_error_" + key, None)
        on_return = getattr(self, "_after_" + key, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = on_call(args, kwargs) if on_call else False
            idx = self._open(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                self._close(idx)
                if nested:
                    self._cached_depth -= 1
            if on_return:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, span: str, fn):
        sid = self._ids[span]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(sid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.yielded += 1
                yield item

        return wrapper

    # -- layer counters ---------------------------------------------------
    def _before_mrp_evaluate(self, args, kwargs) -> bool:
        cache = args[2] if len(args) > 2 else kwargs.get("cache")
        if cache is None:
            return False
        self.cached_evaluates += 1
        self._cached_depth += 1
        return True

    def _error_mrp_evaluate(self, exc):
        if isinstance(exc, SingularChain):
            self.singular += 1

    def _before_mrp_build_transition_enumerative(self, args, kwargs) -> bool:
        if self._cached_depth:
            self.cached_builds += 1
        return False

    def _error_lp_solve_simplex(self, exc):
        if isinstance(exc, IterationLimit):
            self.iteration_limits += 1

    def _after_lp_solve_simplex(self, args, kwargs, sol):
        self.pivots.append(sol.iterations)

    def _after_sim_simulate(self, args, kwargs, result):
        self.slots += result.slots

    def _after_pareto_algorithm1(self, args, kwargs, curve):
        self.walk_vertices += len(curve.vertices)

    # -- installation -----------------------------------------------------
    def _bindings(self):
        """(namespace, attribute, original, wrapper) for every binding."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "dpsched" or n.startswith("dpsched.")]
        out = []
        for wrap, table in ((self._wrap_function, FUNCTIONS),
                            (self._wrap_generator, GENERATORS)):
            for mod_name, attr, span in table:
                fn = getattr(sys.modules[mod_name], attr)
                wrapper = wrap(span, fn)
                for mod in mods:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            out.append((mod, name, fn, wrapper))
        for mod_name, attr, span in CONSTRUCTORS:
            cls = getattr(sys.modules[mod_name], attr)
            init = cls.__init__
            out.append((cls, "__init__", init, self._wrap_function(span, init)))
        return out

    @contextmanager
    def recording(self):
        """Trace everything called inside the block as one `op` span."""
        bindings = self._bindings()
        for owner, name, _, wrapper in bindings:
            setattr(owner, name, wrapper)
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            for owner, name, original, _ in bindings:
                setattr(owner, name, original)

    # -- results ----------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: call count, total self time and span time (s)."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = name_id == i
            out[name] = {
                "calls": int(sel.sum()),
                "self_s": float(self_time[sel].sum()),
                "span_s": float(dur[sel].sum()),
            }
        return out

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round (see BENCHMARK.json)."""
        s = self.summary()
        op_s = s["op"]["span_s"]
        m = {}
        for name in SPAN_NAMES:
            count = self.yielded if name == "policies.enumerate_deterministic" else s[name]["calls"]
            suffix = "yielded" if name == "policies.enumerate_deterministic" else "calls"
            m[f"{name}.{suffix}"] = (count / rounds, "count")
            m[f"{name}.self_share"] = (s[name]["self_s"] / op_s, "share")
        builds = s["mrp.build_transition_enumerative"]["calls"]
        m["mrp.cache.hit_ratio"] = (
            1.0 - self.cached_builds / self.cached_evaluates if self.cached_evaluates else 0.0,
            "share",
        )
        m["mrp.singular.share"] = (self.singular / builds if builds else 0.0, "share")
        m["pareto.walk.vertices"] = (self.walk_vertices / rounds, "count")
        m["lp.pivots.p50"] = (float(statistics.median(self.pivots)) if self.pivots else 0.0, "count")
        m["lp.pivots.max"] = (float(max(self.pivots, default=0)), "count")
        m["lp.iteration_limit.count"] = (self.iteration_limits / rounds, "count")
        m["sim.slots"] = (self.slots / rounds, "count")
        return m

    def save(self, path) -> None:
        """Write every span: names[name_id[i]], parent index, start and end
        (perf_counter seconds)."""
        name_id, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)

    def _arrays(self):
        # copies, so the arrays stay resizable for later spans
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int64),
                np.array(self.start), np.array(self.end))
