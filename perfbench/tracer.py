"""Outside-in tracing of holocheck's public functions.

While a :class:`Tracer` is active, every public function of the traced
modules is replaced wherever a holocheck module namespace binds it.  The
bindings are found by identity, so a call that ``checklist`` makes into
``tensor_core`` through its own imported name is seen as well.  Each call
records one span (name, start, end, parent); self time is a span's duration
minus the durations of its direct children.  Nothing under ``src/`` is
edited, and leaving the ``with`` block restores every original binding.

Metric-model evaluations are counted, not timed: the traced
``warped_metric`` returns a model whose ``components`` and
``exact_partials`` bump counters before delegating.  A partials evaluation
made while a ``transport`` span is open is one right-hand-side evaluation
of the integrator (every RHS computes one set of Christoffel symbols).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("tensor_core", "transport", "quotient", "foliation", "checklist",
          "report", "cli")
# Transport entry points that take a ``curve``; their segments are counted.
CURVE_FUNCS = ("transport_matrix", "parallel_transport", "transport_frame_trace")
# Geodesic entry points; their accepted steps and escapes are counted.
GEODESIC_FUNCS = ("integrate_geodesic", "integrate_geodesic_coords")
METRIC_FACTORY = "tensor_core.warped_metric"


class Tracer:
    """Spans and counters for one traced pass; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._transport_depth = 0
        self._curve_depth = 0
        self._geodesic_depth = 0
        self.metric_evals = 0
        self.partials_evals = 0
        self.transport_rhs = 0
        self.curve_rhs = 0
        self.segments = 0
        self.escapes = 0
        self.escape_rhs = 0
        self.accepted_steps = 0

    # -- installing and removing the wrappers --------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"holocheck.{layer}")
            if mod is None:  # a later change may fold a module away
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "holocheck"
                                   or mod_name.startswith("holocheck.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()
        return False

    def _wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        in_transport = layer == "transport"
        curve_sig = inspect.signature(fn) if fn.__name__ in CURVE_FUNCS else None
        geodesic = fn.__name__ in GEODESIC_FUNCS
        counting_factory = name == METRIC_FACTORY
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(idx)
            outer_curve = curve_sig is not None and self._curve_depth == 0
            if outer_curve:
                curve = curve_sig.bind(*args, **kwargs).arguments["curve"]
                self.segments += len(curve.segments)
            outer_geodesic = geodesic and self._geodesic_depth == 0
            rhs_before = self.transport_rhs
            self._transport_depth += in_transport
            self._curve_depth += curve_sig is not None
            self._geodesic_depth += geodesic
            self.span_start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self._stack.pop()
                self._transport_depth -= in_transport
                self._curve_depth -= curve_sig is not None
                self._geodesic_depth -= geodesic
            if outer_geodesic:
                self._count_geodesic(result, self.transport_rhs - rhs_before)
            if counting_factory:
                result = self._counting_metric(result)
            return result

        return traced

    def _count_geodesic(self, result, rhs: int):
        # integrate_geodesic returns a Trajectory; the coords variant returns
        # (ts, xs, vs, termination).
        if hasattr(result, "termination"):
            term, steps = result.termination, len(result.samples) - 1
        else:
            term, steps = result[-1], len(result[0]) - 1
        self.accepted_steps += steps
        if term.escaped:
            self.escapes += 1
            self.escape_rhs += rhs

    def _counting_metric(self, m):
        components, partials = m.components, m.exact_partials

        def counted_components(c):
            self.metric_evals += 1
            return components(c)

        def counted_partials(c):
            self.partials_evals += 1
            if self._transport_depth:
                self.transport_rhs += 1
                if self._curve_depth:
                    self.curve_rhs += 1
            return partials(c)

        return dataclasses.replace(
            m, components=counted_components,
            exact_partials=None if partials is None else counted_partials)

    # -- reading the spans ----------------------------------------------------

    def table(self) -> dict:
        """Per traced name: calls, inclusive seconds and self seconds."""
        if not self.span_start:
            return {}
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selft = np.bincount(names, weights=own, minlength=k)
        return {self.names[i]: {"layer": self.layers[i], "calls": int(calls[i]),
                                "total_s": float(total[i]), "self_s": float(selft[i])}
                for i in range(k) if calls[i]}

    def top_level_s(self) -> float:
        """Time inside spans that have no traced parent."""
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        return float(dur[parents < 0].sum())


# (metric name, unit) in the order they are printed.
PER_LAYER = (
    ("tensor_core.self_s", "s"),
    ("tensor_core.riemann_at.calls", "count"),
    ("tensor_core.riemann_at.us", "us"),
    ("tensor_core.christoffel_at.us", "us"),
    ("tensor_core.covariant_metric_derivative_at.us", "us"),
    ("tensor_core.conformal_deviation_at.us", "us"),
    ("tensor_core.sectional_curvature.us", "us"),
    ("tensor_core.metric_evals", "count"),
    ("tensor_core.partials_evals", "count"),
    ("transport.self_s", "s"),
    ("transport.rhs_evals", "count"),
    ("transport.us_per_rhs", "us"),
    ("transport.rhs_per_segment", "rhs/segment"),
    ("transport.transport_matrix.ms", "ms"),
    ("transport.rhs_per_escape", "rhs/escape"),
    ("transport.accepted_steps", "count"),
    ("transport.integrate_geodesic.ms", "ms"),
    ("transport.escape_t_err", "t"),
    ("quotient.self_s", "s"),
    ("quotient.eigen_basis.calls", "count"),
    ("quotient.pullback_metric_residual.us", "us"),
    ("quotient.holonomy_of_loop.ms", "ms"),
    ("foliation.self_s", "s"),
    ("foliation.product_split_check.ms", "ms"),
    ("foliation.leaf_second_check.ms", "ms"),
    ("checklist.self_s", "s"),
    ("checklist.run_checklist.s", "s"),
    ("report.emit_report.ms", "ms"),
    ("report.json_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.outside_s", "s"),
)

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer_metrics(tr: Tracer, traced_s: float, untraced_s: float,
                      stats: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``traced_s`` is the traced pass's wall time, ``untraced_s`` the median
    untraced pass, and ``stats`` the workload's own per-pass figures
    (``escape_t_err``, ``json_bytes``).  A name with no calls reads 0.
    """
    table = tr.table()

    def self_s(layer):
        return sum((row["self_s"] for row in table.values()
                    if row["layer"] == layer), 0.0)

    def mean(name, unit):
        row = table.get(name)
        if row is None:
            return 0.0
        return row["total_s"] / row["calls"] * _SCALE[unit]

    def calls(name):
        row = table.get(name)
        return 0 if row is None else row["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "transport.rhs_evals": tr.transport_rhs,
        "transport.us_per_rhs": ratio(self_s("transport") * 1e6, tr.transport_rhs),
        "transport.rhs_per_segment": ratio(tr.curve_rhs, tr.segments),
        "transport.rhs_per_escape": ratio(tr.escape_rhs, tr.escapes),
        "transport.accepted_steps": tr.accepted_steps,
        "transport.escape_t_err": stats.get("escape_t_err", 0.0),
        "tensor_core.metric_evals": tr.metric_evals,
        "tensor_core.partials_evals": tr.partials_evals,
        "report.json_bytes": stats.get("json_bytes", 0),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.outside_s": traced_s - tr.top_level_s(),
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".self_s"):
            value = self_s(name.split(".")[0])
        elif name.endswith(".calls"):
            value = calls(name[:-len(".calls")])
        else:
            base, suffix = name.rsplit(".", 1)
            value = mean(base, suffix)
        out[name] = {"value": value, "unit": unit}
    return out
