"""Benchmark workloads: op lists drawn from a seed, time limits, output checks.

The seed draws only the continuous inputs (limit angles, homotopy
parameters); op kinds and grid sizes are fixed per workload.  The drawn
values reach the program only as ``--set KEY=VALUE`` arguments of
``hmfx.cli.main``.

Each op has a time limit.  An op that exceeds it, or fails in any other
way, is charged its limit in the pass's wall time, so that a later change
turning a failure into a success shows as a gain.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass

WHY = {
    "equivariant": "shot-heavy route that produces profiles: drives corotational "
                   "shooting and GL Newton, never fixedpoint, weighted or diagnostics",
    "diagnose": "reads one solved profile thousands of times; the equator op uses "
                "the closed form and bypasses the shooting interpolant",
    "full-system": "non-equivariant route: caloric quadrature on boundary data and "
                   "fixed-point solves scaled through the direct-solve threshold",
}
WORKLOADS = tuple(WHY)

# the fixed-point sphere grids (n_theta, n_phi); 16x32 crosses the
# direct-solve threshold of the fixed-point operator
FP_GRIDS = ((8, 16), (12, 24), (16, 32))


@dataclass(frozen=True)
class Op:
    """One ``hmfx`` CLI invocation with its time limit and output check."""

    id: str
    command: str
    sets: tuple
    limit_s: float

    def argv(self, out: pathlib.Path) -> list:
        argv = [self.command, "--out", str(out)]
        if self.command == "sweep":
            argv += ["--jobs", "1"]
        for item in self.sets:
            argv += ["--set", item]
        return argv

    @property
    def values(self) -> dict:
        return dict(item.split("=", 1) for item in self.sets)


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def build_ops(workload: str, seed: int) -> list:
    """The op list of ``workload``; the same seed gives the same list."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "equivariant":
        # the criterion-3 shooting settings.  Shooting cost grows with the
        # limit angle, so each n takes an antithetic pair h, 0.4 - h with h
        # in [0.05, 0.2]; independent draws spread the pass time widely.
        for n in (3, 4, 5, 6):
            h = rng.uniform(0.05, 0.2)
            for k, angle in enumerate((h, 0.4 - h)):
                ops.append(Op(f"solve-corot-n{n}-{k}", "solve-corot",
                              (f"run.n={n}", f"run.h_inf={angle:.6f}",
                               "grid.r_max=60", "tol.shoot=1e-5"), 20.0))
        ops.append(Op("sweep-solve-gl", "sweep",
                      ("run.sweep_command=solve-gl", "run.K_ladder=1,10,100",
                       "run.h_inf=0.1"), 10.0))
    elif workload == "diagnose":
        h = _draw(rng, 0.1, 0.3)
        ops.append(Op("diagnose-corot", "diagnose",
                      (f"run.boundary=corotational({h})",), 90.0))
        ops.append(Op("diagnose-equator", "diagnose",
                      ("run.boundary=equator",), 20.0))
    else:
        for name, limit in (("lipschitz-wedge", 80.0), ("identity-sphere", 45.0)):
            ops.append(Op(f"caloric-{name}", "caloric",
                          (f"run.boundary={name}", "caloric.radii=4,12,33"), limit))
        for (nt, nph), limit in zip(FP_GRIDS, (15.0, 75.0, 60.0)):
            # past the direct-solve threshold the outcome flips with sigma
            # (exit 3 at 0.9, success at 0.846), so the seed must not draw
            # it there; 0.9 keeps the known defect visible
            sigma = "0.9" if (nt, nph) == FP_GRIDS[-1] else _draw(rng, 0.8, 0.95)
            ops.append(Op(f"fixed-point-{nt}x{nph}", "fixed-point",
                          (f"run.sigma={sigma}",
                           f"grid.fp_n_theta={nt}", f"grid.fp_n_phi={nph}"), limit))
        ops.append(Op("asymptotics-lipschitz-wedge", "asymptotics",
                      ("run.boundary=lipschitz-wedge",), 10.0))
    return ops


# ---------------------------------------------------------------------------
# output checks
#
# Thresholds come from the CLI's tolerances (read through the op's own
# configuration) and from the acceptance criteria, not from what passes
# today.  Each check returns a list of problems; empty means the op passed.


def _tolerance(op: Op, key: str) -> float:
    from hmfx.config import RunConfig

    return RunConfig(op.values).get_tolerance(key)


def _check_solve_corot(op: Op, summary: dict, out: pathlib.Path) -> list:
    n = int(op.values["run.n"])
    h = float(op.values["run.h_inf"])
    problems = []
    if not abs(summary["h_inf_attained"] - h) <= _tolerance(op, "tol.shoot"):
        problems.append(f"attained limit angle {summary['h_inf_attained']!r} misses {h}")
    expected = -0.5 * (n - 1) * math.sin(2.0 * h)
    if not abs(summary["farfield_coefficient"] - expected) <= 0.02 * abs(expected):
        problems.append(f"far-field coefficient {summary['farfield_coefficient']!r} "
                        f"not within 2% of {expected!r}")
    return problems


def _check_sweep_gl(op: Op, summary: dict, out: pathlib.Path) -> list:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    ladder = op.values["run.K_ladder"].split(",")
    problems = []
    if len(manifest["children"]) != len(ladder) or manifest["failures"]:
        problems.append(f"sweep finished {len(manifest['children'])} of {len(ladder)} children")
    tol = _tolerance(op, "tol.newton")
    for child in manifest["children"]:
        if not child["residual_sup"] <= tol:
            problems.append(f"{child['tag']}: residual {child['residual_sup']!r} above {tol}")
    return problems


def _check_diagnose(op: Op, summary: dict, out: pathlib.Path) -> list:
    problems = []
    if summary["checks"] != 8:
        problems.append(f"{summary['checks']} checks instead of 8")
    if summary["all_pass"] is not True:
        verdicts = json.loads((out / "verdicts.json").read_text(encoding="utf-8"))
        failed = [v["check"] for v in verdicts["verdicts"] if not v["pass"]]
        problems.append(f"failed checks: {failed}")
    return problems


def _check_caloric(op: Op, summary: dict, out: pathlib.Path) -> list:
    problems = []
    if op.values["run.boundary"] == "lipschitz-wedge":
        slope = summary["decay_slope"]
        if summary["rate_verdict"] != "lipschitz-rate" or slope is None \
                or not abs(slope + 1.0) <= 0.15:
            problems.append(f"wedge rate {summary['rate_verdict']} with slope {slope!r}")
    elif summary["rate_verdict"] != "smooth-rate":
        problems.append(f"smooth data classified {summary['rate_verdict']}")
    if summary["max_principle_ok"] is not True:
        problems.append("maximum principle violated")
    if not summary["homogeneity_error"] <= 1e-8:
        problems.append(f"homogeneity error {summary['homogeneity_error']!r} above 1e-8")
    return problems


def _check_fixed_point(op: Op, summary: dict, out: pathlib.Path) -> list:
    problems = []
    if summary["converged"] is not True:
        problems.append("Picard iteration did not converge")
    bound = _tolerance(op, "tol.static_residual_per_K") * summary["K"]
    if not summary["static_residual"] <= bound:
        problems.append(f"static residual {summary['static_residual']!r} above {bound!r}")
    ratios = summary["contraction_ratios"]
    if not all(q < 1.0 for q in ratios):
        problems.append(f"non-contractive step in {ratios}")
    return problems


def _check_asymptotics(op: Op, summary: dict, out: pathlib.Path) -> list:
    from hmfx.config import RunConfig

    k = RunConfig(op.values).get_int("run.k_order")
    sups = summary["coefficient_sups"]
    rows = (out / "coefficients.csv").read_text(encoding="utf-8").splitlines()[1:]
    problems = []
    if summary["order"] != k or len(sups) != k or len(rows) != k + 1:
        problems.append(f"series of order {summary['order']} with {len(sups)} sups "
                        f"and {len(rows)} rows, expected order {k}")
    if not all(math.isfinite(s) for s in sups):
        problems.append(f"non-finite coefficient sups {sups}")
    return problems


_CHECKS = {
    "solve-corot": _check_solve_corot,
    "sweep": _check_sweep_gl,
    "diagnose": _check_diagnose,
    "caloric": _check_caloric,
    "fixed-point": _check_fixed_point,
    "asymptotics": _check_asymptotics,
}


def check_output(op: Op, out: pathlib.Path) -> list:
    """Problems with the output of a successful (exit 0) op."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if summary.get("status") != "ok" or summary.get("command") != op.command:
        return [f"summary status {summary.get('status')!r} for {summary.get('command')!r}"]
    try:
        return _CHECKS[op.command](op, summary, out)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return [f"malformed output: {exc!r}"]


def check_solver_failure(op: Op, out: pathlib.Path) -> list:
    """Problems with an exit-3 op: the summary must document the solver error."""
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"no readable summary: {exc!r}"]
    if summary.get("status") != "solver-error" or not summary.get("error"):
        return [f"exit 3 without a solver-error summary: {summary!r}"]
    return []
