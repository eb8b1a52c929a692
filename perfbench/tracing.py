"""Spans around hmfx's public functions, for the benchmark's traced run.

``Tracer.install`` replaces every function listed in ``TARGETS`` with a
timing wrapper wherever an ``hmfx`` module binds it, found by object
identity, so ``from .x import y`` bindings are traced too; methods are
replaced on their class, and the third-party entry points on their scipy
module.  The program's own code is not changed.

Each span records its name, start, end, parent span, op id, whether the
call returned, and counters read from the call's arguments or result.
Spans stay in memory until the pass writes them out.  The time spent in
the wrappers' own bookkeeping is accumulated in ``Tracer.overhead_s``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from workloads import FP_GRIDS

SPAN_KEYS = ("id", "name", "start", "end", "parent", "op", "ok", "counters")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _points(a) -> int:
    """Number of evaluation points in an array of shape (..., d)."""
    shape = np.shape(a)
    return math.prod(shape[:-1]) if shape else 1


def _points_arg(pos, name):
    return lambda args, kwargs, result: {"points": _points(_arg(args, kwargs, pos, name))}


def _radii_arg(args, kwargs, result):
    return {"points": int(np.size(_arg(args, kwargs, 1, "r")))}


def _quadrature_points(n_radial_default):
    """Nodes of a radial rule times a sphere rule (default sphere 16 x 32)."""
    def count(args, kwargs, result):
        n_radial = _arg(args, kwargs, 3, "n_radial", n_radial_default)
        sphere = _arg(args, kwargs, 4, "sphere")
        nodes = 16 * 32 if sphere is None else sphere.n_theta * sphere.n_phi
        return {"points": n_radial * nodes}
    return count


def _extend_counts(args, kwargs, result):
    quad, points = args[0], _points(_arg(args, kwargs, 2, "points"))
    return {"points": points,
            "kernel_nodes": points * quad.rho.size * quad.sphere.n_theta * quad.sphere.n_phi}


def _file_bytes(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _ivp_counts(args, kwargs, result):
    return {} if result is None else {"nfev": int(result.nfev), "steps": len(result.t) - 1}


def _gl_counts(args, kwargs, result):
    return {} if result is None else {"iterations": result[1].iterations}


def _lu_counts(args, kwargs, result):
    # SuperLU's own count of stored L+U entries; reading result.L and
    # result.U would copy both factors
    return {} if result is None else {"lu_nnz": int(result.nnz)}


def _operator_counts(args, kwargs, result):
    return {"n_unknown": getattr(args[0], "n_unknown", 0)}


def _picard_counts(args, kwargs, result):
    if result is None:
        return {}
    return {"picard_steps": len(result.step_norms),
            "contraction_ratio_max": max(result.contraction_ratios, default=0.0)}


def _count_evaluations(args, kwargs, counters):
    """sup_deviation: count the points its ``evaluate`` callable receives."""
    evaluate = _arg(args, kwargs, 0, "evaluate")
    counters["points"] = 0

    def counted(pts):
        counters["points"] += _points(pts)
        return evaluate(pts)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, {**kwargs, "evaluate": counted}


# (span name, module, attribute, counters from (args, kwargs, result) or None,
#  argument hook).  An attribute "Class.method" is replaced on the class.
TARGETS = (
    ("cli.main", "hmfx.cli", "main", None, None),
    ("corotational.solve_corot", "hmfx.corotational", "solve_corot", None, None),
    ("corotational.shoot_hm", "hmfx.corotational", "shoot_hm", None, None),
    ("corotational.solve_ivp", "scipy.integrate", "solve_ivp", _ivp_counts, None),
    ("corotational.solve_gl_corot", "hmfx.corotational", "solve_gl_corot", _gl_counts, None),
    ("corotational.gl_residual", "hmfx.corotational", "gl_residual", None, None),
    ("corotational.spsolve", "scipy.sparse.linalg", "spsolve", None, None),
    ("corotational.angle_at", "hmfx.corotational", "ShootingResult.angle_at", _radii_arg, None),
    ("corotational.angle_slope_at", "hmfx.corotational", "ShootingResult.angle_slope_at",
     _radii_arg, None),
    ("solutions.evaluate", "hmfx.solutions", "SelfSimilarSolution.evaluate",
     _points_arg(1, "points"), None),
    ("solutions.gradient", "hmfx.solutions", "SelfSimilarSolution.gradient",
     _points_arg(1, "points"), None),
    ("solutions.time_derivative", "hmfx.solutions", "SelfSimilarSolution.time_derivative",
     _points_arg(1, "points"), None),
    ("diagnostics.monotonicity_table", "hmfx.diagnostics", "monotonicity_table", None, None),
    ("diagnostics.gaussian_integral", "hmfx.diagnostics", "gaussian_integral",
     _quadrature_points(32), None),
    ("diagnostics.pointwise_energy", "hmfx.diagnostics", "pointwise_energy",
     _points_arg(1, "points"), None),
    ("diagnostics.eps_regularity_scan", "hmfx.diagnostics", "eps_regularity_scan", None, None),
    ("diagnostics.bochner_check", "hmfx.diagnostics", "bochner_check", None, None),
    ("diagnostics.pohozaev_residual", "hmfx.diagnostics", "pohozaev_residual", None, None),
    ("fields.ball_average", "hmfx.fields", "ball_average", _quadrature_points(24), None),
    ("fields.save_profile_csv", "hmfx.fields", "save_profile_csv", _file_bytes, None),
    ("fields.save_field_csv", "hmfx.fields", "save_field_csv", _file_bytes, None),
    ("fields.x_norm", "hmfx.fields", "x_norm", None, None),
    ("fields.gradient", "hmfx.fields", "gradient", None, None),
    ("boundary.eval", "hmfx.boundary", "BoundaryMap.__call__", _points_arg(1, "dirs"), None),
    ("weighted.extend", "hmfx.weighted", "CaloricQuadrature.extend", _extend_counts, None),
    ("weighted.weighted_laplacian_field", "hmfx.weighted", "weighted_laplacian_field",
     None, None),
    ("asymptotics.sup_deviation", "hmfx.asymptotics", "sup_deviation", None,
     _count_evaluations),
    ("asymptotics.rate_classify", "hmfx.asymptotics", "rate_classify", None, None),
    ("asymptotics.hmf_coefficients", "hmfx.asymptotics", "hmf_coefficients", None, None),
    ("asymptotics.gl_coefficients", "hmfx.asymptotics", "gl_coefficients", None, None),
    ("fixedpoint.operator_build", "hmfx.fixedpoint", "LinearizedOperator.__init__",
     _operator_counts, None),
    ("fixedpoint.splu", "scipy.sparse.linalg", "splu", _lu_counts, None),
    ("fixedpoint.spilu", "scipy.sparse.linalg", "spilu", _lu_counts, None),
    ("fixedpoint.operator_solve", "hmfx.fixedpoint", "LinearizedOperator.solve", None, None),
    ("fixedpoint.lgmres", "scipy.sparse.linalg", "lgmres", None, None),
    ("fixedpoint.picard_iterate", "hmfx.fixedpoint", "picard_iterate", _picard_counts, None),
    ("fixedpoint.caloric_corotational_field", "hmfx.fixedpoint",
     "caloric_corotational_field", None, None),
    ("fixedpoint.assemble_rhs", "hmfx.fixedpoint", "assemble_rhs", None, None),
    ("fixedpoint.static_residual", "hmfx.fixedpoint", "static_residual", None, None),
    ("fixedpoint.verify_decay", "hmfx.fixedpoint", "verify_decay", None, None),
)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []
        self.overhead_s = 0.0
        self.op = None
        self._open_root = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None, hook=None):
        """``fn`` wrapped so that each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            stack = tracer._stack()
            counters = {}
            if hook is not None:
                args, kwargs = hook(args, kwargs, counters)
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(None)
                # a thread's first span hangs under the open op root (sweep workers)
                parent = stack[-1] if stack else tracer._open_root
                if parent is None:
                    tracer._open_root = sid
            stack.append(sid)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if count is not None:
                    counters.update(count(args, kwargs, result if ok else None))
                with tracer._lock:
                    tracer.spans[sid] = {"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": tracer.op,
                                         "ok": ok, "counters": counters}
                    if tracer._open_root == sid:
                        tracer._open_root = None
                    tracer.overhead_s += (start - t_in) + (time.perf_counter() - end)

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; ``hmfx.cli`` must already be imported."""
        hmfx_modules = [m for n, m in sorted(sys.modules.items())
                        if m is not None and (n == "hmfx" or n.startswith("hmfx."))]
        for name, module_name, attr, count, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], count, hook))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, count, hook)
            owners = [module] + [m for m in hmfx_modules if m is not module]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end"] - s["start"] - covered)
    return out


# plain (span name, stats) metrics; see BENCHMARK.json for their units
SPAN_STATS = (
    ("cli.main", ("calls", "self_s")),
    ("corotational.solve_corot", ("calls", "s")),
    ("corotational.shoot_hm", ("calls", "self_s")),
    ("corotational.solve_ivp", ("calls", "s", "nfev", "steps")),
    ("corotational.solve_gl_corot", ("calls", "s", "self_s")),
    ("corotational.gl_residual", ("calls",)),
    ("corotational.spsolve", ("calls", "s")),
    ("corotational.angle_at", ("calls", "points", "s")),
    ("corotational.angle_slope_at", ("calls", "points", "s")),
    ("solutions.evaluate", ("calls", "points", "self_s")),
    ("solutions.gradient", ("calls", "points", "self_s")),
    ("solutions.time_derivative", ("calls", "points", "self_s")),
    ("diagnostics.monotonicity_table", ("calls", "s")),
    ("diagnostics.gaussian_integral", ("calls", "points", "self_s")),
    ("diagnostics.pointwise_energy", ("calls", "points", "self_s")),
    ("diagnostics.eps_regularity_scan", ("s",)),
    ("diagnostics.bochner_check", ("s",)),
    ("diagnostics.pohozaev_residual", ("s",)),
    ("fields.ball_average", ("calls", "points", "self_s")),
    ("fields.save_profile_csv", ("s",)),
    ("fields.save_field_csv", ("s",)),
    ("fields.x_norm", ("calls", "s")),
    ("fields.gradient", ("s",)),
    ("boundary.eval", ("calls", "points", "self_s")),
    ("weighted.extend", ("calls", "points", "kernel_nodes", "self_s")),
    ("weighted.weighted_laplacian_field", ("calls", "s")),
    ("asymptotics.sup_deviation", ("calls", "points", "self_s")),
    ("asymptotics.rate_classify", ("s",)),
    ("asymptotics.hmf_coefficients", ("s",)),
    ("asymptotics.gl_coefficients", ("s",)),
    ("fixedpoint.caloric_corotational_field", ("s",)),
    ("fixedpoint.assemble_rhs", ("s",)),
    ("fixedpoint.static_residual", ("s",)),
    ("fixedpoint.verify_decay", ("s",)),
)
GRID_STATS = ("op_s", "n_unknown", "build_s", "assembly_s", "factor_s", "lu_nnz",
              "solve_calls", "solve_s", "picard_steps", "contraction_ratio_max")
DERIVED = ("corotational.shots_per_solve", "corotational.gl_newton_iters",
           "fields.csv_bytes", "weighted.kernel_nodes_per_s")


def grid_name(nt: int, nph: int) -> str:
    return f"{nt}x{nph}"


def metric_names() -> list:
    """Every per-layer metric, in report order."""
    names = [f"{span}.{stat}" for span, stats in SPAN_STATS for stat in stats]
    names += list(DERIVED)
    names += [f"fixedpoint.{grid_name(*g)}.{stat}" for g in FP_GRIDS for stat in GRID_STATS]
    return names + ["trace.overhead_s"]


def metric_unit(name: str) -> tuple:
    """(unit, better) of a per-layer metric."""
    stat = name.rsplit(".", 1)[1]
    if name == "weighted.kernel_nodes_per_s":
        return "1/s", "higher"
    if stat.endswith("_s") or stat == "s":
        return "s", "lower"
    if stat in ("shots_per_solve", "contraction_ratio_max"):
        return "ratio", "lower"
    if stat == "csv_bytes":
        return "bytes", "lower"
    return "count", "lower"


def layer_metrics(spans, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass; a layer that did not run reads 0."""
    selfs = self_times(spans)
    acc = defaultdict(float)
    for s, self_s in zip(spans, selfs):
        name = s["name"]
        acc[(name, "calls")] += 1
        acc[(name, "s")] += s["end"] - s["start"]
        acc[(name, "self_s")] += self_s
        for key, value in s["counters"].items():
            acc[(name, key)] += value
    out = {f"{span}.{stat}": acc[(span, stat)]
           for span, stats in SPAN_STATS for stat in stats}
    solves = acc[("corotational.solve_corot", "calls")]
    out["corotational.shots_per_solve"] = (
        acc[("corotational.shoot_hm", "calls")] / solves if solves else 0.0)
    out["corotational.gl_newton_iters"] = acc[("corotational.solve_gl_corot", "iterations")]
    out["fields.csv_bytes"] = (acc[("fields.save_profile_csv", "bytes")]
                               + acc[("fields.save_field_csv", "bytes")])
    extend_s = acc[("weighted.extend", "s")]
    out["weighted.kernel_nodes_per_s"] = (
        acc[("weighted.extend", "kernel_nodes")] / extend_s if extend_s else 0.0)
    for nt, nph in FP_GRIDS:
        g = grid_name(nt, nph)
        op_spans = [s for s in spans if s["op"] == f"fixed-point-{g}"]

        def total(span_names, field=None):
            return sum((s["end"] - s["start"]) if field is None
                       else s["counters"].get(field, 0)
                       for s in op_spans if s["name"] in span_names)

        factor_s = total(("fixedpoint.splu", "fixedpoint.spilu"))
        build_s = total(("fixedpoint.operator_build",))
        ratios = [s["counters"].get("contraction_ratio_max", 0.0) for s in op_spans
                  if s["name"] == "fixedpoint.picard_iterate"]
        grid = {
            "op_s": total(("cli.main",)),
            "n_unknown": max((s["counters"].get("n_unknown", 0) for s in op_spans
                              if s["name"] == "fixedpoint.operator_build"), default=0),
            "build_s": build_s,
            "assembly_s": build_s - factor_s,
            "factor_s": factor_s,
            "lu_nnz": total(("fixedpoint.splu", "fixedpoint.spilu"), "lu_nnz"),
            "solve_calls": sum(1 for s in op_spans if s["name"] == "fixedpoint.operator_solve"),
            "solve_s": total(("fixedpoint.operator_solve",)),
            "picard_steps": total(("fixedpoint.picard_iterate",), "picard_steps"),
            "contraction_ratio_max": max(ratios, default=0.0),
        }
        for stat in GRID_STATS:
            out[f"fixedpoint.{g}.{stat}"] = grid[stat]
    out["trace.overhead_s"] = overhead_s
    return {name: float(out[name]) for name in metric_names()}
