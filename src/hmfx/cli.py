"""Command-line surface: configuration, orchestration, artifact output.

Every command reads a flat key = value config, writes CSV artifacts plus a
JSON run summary (stable key order, atomic rename), and exits with the
fixed contract: 0 success, 2 config error, 3 solver error, 4 partial
sweep.  CSV output is deterministic: fixed iteration orders, no
time-seeded randomness, LF line endings, repr-exact floats.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import pathlib
import time

import numpy as np

from . import asymptotics, diagnostics, fixedpoint, solutions, weighted
from .boundary import builtin_boundary
from .config import RunConfig
from .corotational import MIN_TRUNCATION_RADIUS, solve_corot, solve_gl_corot
from .errors import (ConfigError, GridError, HmfxError, NonconvergenceError,
                     NotAttainedError, PartialResultError)
from .fields import save_field_csv, save_profile_csv
from .grids import RadialGrid, SphereGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4


def _write_json(path: pathlib.Path, payload: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: pathlib.Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])


def _checked_float(cfg: RunConfig, key: str, ok, requirement: str) -> float:
    """``key`` as a number, a config error unless ``ok(value)``."""
    value = cfg.get_float(key)
    if not ok(value):
        raise ConfigError(f"{key} must {requirement}, got {value:g}")
    return value


def _checked_tolerance(cfg: RunConfig, key: str) -> float:
    """Tolerance ``key`` scaled by the profile, a config error unless positive."""
    _checked_float(cfg, key, lambda tol: tol > 0.0, "be positive")
    return cfg.get_tolerance(key)


def _truncation_radius(cfg: RunConfig) -> float:
    """``grid.r_max``, a config error below the shooting minimum."""
    return _checked_float(cfg, "grid.r_max", lambda r: r >= MIN_TRUNCATION_RADIUS,
                          f"be at least {MIN_TRUNCATION_RADIUS:g}")


def _three_dimensional(cfg: RunConfig, command: str) -> int:
    """``run.n``, a config error unless 3: ``command`` works in R^3 only."""
    n = cfg.get_int("run.n")
    if n != 3:
        raise ConfigError(f"run.n must be 3 for {command}, got {n}")
    return n


def _fp_grids(cfg: RunConfig) -> tuple[RadialGrid, SphereGrid]:
    """The fixed-point product grid; a value its constructor rejects is a
    config error naming the keys."""
    try:
        radial = RadialGrid.graded(cfg.get_float("grid.fp_r_max"),
                                   cfg.get_float("grid.fp_inner_spacing"))
    except GridError as exc:
        raise ConfigError(f"grid.fp_r_max, grid.fp_inner_spacing: {exc}") from exc
    try:
        sphere = SphereGrid(cfg.get_int("grid.fp_n_theta"),
                            cfg.get_int("grid.fp_n_phi"))
    except GridError as exc:
        raise ConfigError(f"grid.fp_n_theta, grid.fp_n_phi: {exc}") from exc
    return radial, sphere


# ---------------------------------------------------------------------------
# commands


def cmd_solve_corot(cfg: RunConfig, out: pathlib.Path) -> dict:
    n = cfg.get_int("run.n")
    h_inf = cfg.get_float("run.h_inf")
    r_max = _truncation_radius(cfg)
    result = solve_corot(n, h_inf, r_max=r_max,
                         tol=_checked_tolerance(cfg, "tol.shoot"))
    save_profile_csv(result.profile, out / "profile.csv")
    return {
        "n": n, "h_inf_requested": h_inf, "h_inf_attained": result.h_inf,
        "center_slope": result.slope, "farfield_coefficient": result.farfield_coeff,
        "residual_sup": result.residual_sup, "shots": result.shots,
        "integrator_steps": result.steps,
        "rhs_evaluations": result.rhs_evaluations, "artifacts": ["profile.csv"],
    }


def cmd_solve_gl(cfg: RunConfig, out: pathlib.Path) -> dict:
    n = cfg.get_int("run.n")
    K = _checked_float(cfg, "run.K", lambda K: K > 0.0, "be positive")
    h_inf = cfg.get_float("run.h_inf")
    profile, info = solve_gl_corot(
        n, K, np.sin(h_inf), np.cos(h_inf), r_max=cfg.get_float("grid.r_max"),
        tol=_checked_tolerance(cfg, "tol.newton"))
    save_profile_csv(profile, out / "profile.csv")
    return {
        "n": n, "K": K, "h_inf": h_inf, "iterations": info.iterations,
        "residual_sup": info.residual_sup, "max_modulus": info.max_modulus,
        "artifacts": ["profile.csv"],
    }


def cmd_fixed_point(cfg: RunConfig, out: pathlib.Path) -> dict:
    n = _three_dimensional(cfg, "fixed-point")
    sigma = _checked_float(cfg, "run.sigma", lambda s: 0.0 <= s <= 1.0,
                           "lie in [0, 1]")
    K = _checked_float(cfg, "run.K", lambda K: K > 0.0, "be positive")
    tol = _checked_tolerance(cfg, "tol.picard")
    radial, sphere = _fp_grids(cfg)
    u0 = builtin_boundary(cfg.get_str("run.boundary"), n)
    path = fixedpoint.path_map(u0, sigma)
    if path.is_corotational and path.m == 4:
        U0 = fixedpoint.caloric_corotational_field(path, radial, sphere)
    else:
        U0 = weighted.caloric_extension(path, radial, sphere)
    state = fixedpoint.picard_iterate(U0, K, sigma=sigma, tol=tol)
    if not state.converged:
        last = (f"{state.contraction_ratios[-1]:.4g}"
                if state.contraction_ratios else "n/a")
        raise NonconvergenceError(
            f"Picard iteration did not converge in {len(state.step_norms)} "
            f"steps (last contraction ratio {last})", last_iterate=state)
    save_field_csv(state.V, out / "correction.csv")
    _write_csv(out / "iterations.csv", ["step", "step_norm", "contraction_ratio"],
               [(i, s, state.contraction_ratios[i - 1] if i >= 1 else "")
                for i, s in enumerate(state.step_norms)])
    decay = fixedpoint.verify_decay(state.V)
    return {
        "sigma": sigma, "K": K, "boundary": u0.name,
        "iterations": len(state.step_norms),
        "contraction_ratios": list(state.contraction_ratios),
        "linear_iterations": list(state.linear_iterations),
        "x_norm": state.x_norm_V, "static_residual": state.static_residual,
        "barrier_ratio": state.barrier_ratio, "converged": state.converged,
        "sup_fV": decay.sup_fV, "sup_f32_gradV": decay.sup_f32_gradV,
        "value_slope": decay.value_slope, "gradient_slope": decay.gradient_slope,
        "artifacts": ["correction.csv", "iterations.csv"],
    }


def _caloric_values(cfg: RunConfig) -> tuple[np.ndarray, list[float]]:
    """The deviation radii and rescaling times of ``caloric``, checked
    before any quadrature: the extension needs t > 0, and the decay fit
    takes logarithms of the radii."""
    radii = cfg.get_floats("caloric.radii")
    if not radii or not all(r > 0.0 for r in radii):
        raise ConfigError(
            f"caloric.radii must be a non-empty list of positive radii, got {radii}")
    times = cfg.get_floats("caloric.times")
    if not all(t > 0.0 for t in times):
        raise ConfigError(f"caloric.times must all be positive, got {times}")
    return np.asarray(radii), times


def cmd_caloric(cfg: RunConfig, out: pathlib.Path) -> dict:
    n = _three_dimensional(cfg, "caloric")
    radii, times = _caloric_values(cfg)
    u0 = builtin_boundary(cfg.get_str("run.boundary"), n)
    quad = weighted.CaloricQuadrature()
    sup_u0 = float(np.linalg.norm(u0.sphere_samples(SphereGrid(24, 48)),
                                  axis=-1).max())

    devs = asymptotics.sup_deviation(
        lambda pts: quad.extend(u0, pts, t=1.0), u0, radii)
    max_prin = 0.0
    for r in (0.0, 1.0, 5.0):
        pt = np.array([[0.0, 0.0, r]])
        max_prin = max(max_prin, float(
            np.linalg.norm(quad.extend(u0, pt, t=1.0), axis=-1).max()))
    # 0-homogeneity: the rescaled extension is time-independent
    base = quad.extend(u0, np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 7.0]]), t=1.0)
    homo_err = 0.0
    for t in times:
        scaled = quad.extend(
            u0, np.sqrt(t) * np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 7.0]]), t=t)
        homo_err = max(homo_err, float(np.abs(scaled - base).max()))
    cls = asymptotics.rate_classify(radii, devs)
    _write_csv(out / "deviation.csv", ["r", "sup_deviation"],
               list(zip(radii.tolist(), devs.tolist())))
    return {
        "boundary": u0.name, "smoothness": u0.smoothness,
        "max_principle_bound": sup_u0, "max_observed": max_prin,
        "max_principle_ok": max_prin <= sup_u0 + 1e-6,
        "decay_slope": cls.slope, "rate_verdict": cls.verdict,
        "homogeneity_error": homo_err, "times": times,
        "artifacts": ["deviation.csv"],
    }


def cmd_asymptotics(cfg: RunConfig, out: pathlib.Path) -> dict:
    n = cfg.get_int("run.n")
    u0 = builtin_boundary(cfg.get_str("run.boundary"), n)
    if not u0.is_corotational:
        # the sphere-grid recursion samples S^2; only the scalar route takes any n
        _three_dimensional(cfg, "asymptotics on non-corotational data")
    k = cfg.get_int("run.k_order")
    flavor = cfg.get_str("run.flavor")
    if flavor == "hmf":
        series = asymptotics.hmf_coefficients(u0, k, n=n)
    elif flavor == "gl":
        K = _checked_float(cfg, "run.K", lambda K: K > 0.0, "be positive")
        series = asymptotics.gl_coefficients(u0, K, k, n=n)
    else:
        raise ConfigError(f"unknown series flavor {flavor!r}")
    sups = series.sup_norms()
    floor = cfg.get_tolerance("tol.coefficient_floor")
    if series.is_equivariant:
        rows = [(i, p, q, series.ledger[i])
                for i, (p, q) in enumerate(series.coefficients)]
        _write_csv(out / "coefficients.csv", ["order", "p", "q", "ledger"], rows)
    else:
        rows = [(i, float(np.linalg.norm(u, axis=-1).max()),
                 float(np.abs(series.ledger[i]).max()))
                for i, u in enumerate(series.coefficients)]
        _write_csv(out / "coefficients.csv",
                   ["order", "sup_norm", "ledger_sup"], rows)
    return {
        "boundary": u0.name, "flavor": flavor, "order": k,
        "coefficient_sups": sups,
        "all_below_floor": bool(all(s < floor for s in sups)),
        "artifacts": ["coefficients.csv"],
    }


def _diag_radii(cfg: RunConfig) -> tuple[list[float], list[float]]:
    """The probe and table radii of ``diagnose``, checked before any solve.

    The tables are centred at t0 = 1, so ``monotonicity_table``'s bound
    ``MAX_RADIUS * sqrt(t0)`` on the table radii is ``MAX_RADIUS`` here.
    """
    probes = cfg.get_floats("diag.probe_radii")
    if not probes or min(probes) <= 0.0:
        raise ConfigError(
            f"diag.probe_radii must be a non-empty list of positive radii, got {probes}")
    mono = cfg.get_floats("diag.mono_radii")
    bound = diagnostics.MAX_RADIUS
    if (not mono or mono[0] <= 0.0 or mono[-1] >= bound
            or any(b <= a for a, b in zip(mono, mono[1:]))):
        raise ConfigError(
            "diag.mono_radii must be a non-empty, strictly increasing list "
            f"inside (0, {bound:g}), got {mono}")
    return probes, mono


def _resolve_solution(cfg: RunConfig, probes: list[float],
                      mono: list[float]) -> solutions.SelfSimilarSolution:
    r_max = _truncation_radius(cfg)
    spec = cfg.get_str("run.boundary")
    u0 = builtin_boundary(spec, _three_dimensional(cfg, "diagnose"))
    if spec == "constant":
        return solutions.constant_solution()
    if not u0.is_corotational:
        raise ConfigError("diagnostics need corotational or constant data")
    if abs(u0.h_inf - np.pi / 2.0) < 1e-12:
        return solutions.equator_solution()
    # shoot past the farthest profile radius |x| / sqrt(t) that diagnose
    # reads: kernel slices reach |x0| + 2 (the cutoff radius) at
    # t = 1 - 4 R^2, for the table radii and the scan radius 1/4, and the
    # Pohozaev slab reaches the first probe + 2 at t = 1/2
    R_max = max(mono[-1], 0.25)
    reach = max((max(probes) + 2.0) / np.sqrt(1.0 - 4.0 * R_max**2),
                np.sqrt(2.0) * (probes[0] + 2.0))
    r_max = max(r_max, float(reach))
    result = solve_corot(3, u0.h_inf, r_max=r_max,
                         tol=_checked_tolerance(cfg, "tol.shoot"))
    return solutions.from_shooting(result)


def cmd_diagnose(cfg: RunConfig, out: pathlib.Path) -> dict:
    probe_radii, mono_radii = _diag_radii(cfg)
    sol = _resolve_solution(cfg, probe_radii, mono_radii)
    slack = cfg.get_tolerance("tol.slack")
    eps0 = cfg.get_tolerance("tol.eps0")
    bound_c = cfg.get_float("tol.C")
    verdicts = []
    rows = []
    for rho in probe_radii:
        x0 = np.array([rho, 0.0, 0.0])
        table = diagnostics.monotonicity_table(sol, (x0, 1.0), mono_radii,
                                               slack=slack)
        for R, phi, psi in zip(table.radii, table.phi_values, table.psi_values):
            rows.append((rho, float(R), float(phi), float(psi)))
        verdicts.append({"check": "phi-monotonicity", "probe": rho,
                         "value": table.max_phi_violation,
                         "tolerance": table.budget,
                         "pass": not table.phi_flagged})
    scan = diagnostics.eps_regularity_scan(
        sol, [np.array([r, 0.0, 0.0]) for r in probe_radii], eps0=eps0,
        C=bound_c)
    for v in scan:
        verdicts.append({"check": "eps-regularity",
                         "probe": float(np.linalg.norm(v.center)),
                         "value": v.psi_value, "tolerance": eps0,
                         "pass": (not v.flagged) and bool(v.verified)})
    boch = diagnostics.bochner_check(
        sol, np.array([[r, 0.0, 0.0] for r in probe_radii]), C=bound_c)
    verdicts.append({"check": "bochner-ratio", "value": boch.max_ratio,
                     "tolerance": bound_c, "pass": bool(boch.passed)})
    poho = diagnostics.pohozaev_residual(sol, np.array([probe_radii[0], 0.0, 0.0]))
    verdicts.append({"check": "pohozaev-residual", "value": poho.residual,
                     "tolerance": 1e-2, "pass": poho.residual <= 1e-2})
    _write_csv(out / "monotonicity.csv", ["probe", "R", "phi", "psi"], rows)
    _write_json(out / "verdicts.json", {"verdicts": verdicts})
    return {
        "solution": sol.name,
        "checks": len(verdicts),
        "all_pass": bool(all(v["pass"] for v in verdicts)),
        "artifacts": ["monotonicity.csv", "verdicts.json"],
    }


def cmd_sweep(cfg: RunConfig, out: pathlib.Path, jobs: int = 1) -> dict:
    child_cmd = cfg.get_str("run.sweep_command")
    if child_cmd not in _COMMANDS or child_cmd == "sweep":
        raise ConfigError(f"cannot sweep over command {child_cmd!r}")
    ladder = cfg.get_floats("run.K_ladder")
    children = []
    for K in ladder:
        values = dict(cfg.values)
        values["run.K"] = f"{K:g}"
        children.append((f"K={K:g}", RunConfig(values, cfg.tolerance_profile)))

    def run_child(tag_child):
        tag, child = tag_child
        child_out = out / tag.replace("=", "_")
        child_out.mkdir(parents=True, exist_ok=True)
        summary = _COMMANDS[child_cmd](child, child_out)
        summary["tag"] = tag
        _write_json(child_out / "summary.json",
                    {"status": "ok", "command": child_cmd, **summary})
        return tag, summary

    results, failures = {}, {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, jobs)) as ex:
        futures = {ex.submit(run_child, tc): tc[0] for tc in children}
        for fut in concurrent.futures.as_completed(futures):
            tag = futures[fut]
            try:
                results[tag] = fut.result()[1]
            except HmfxError as exc:
                failures[tag] = exc
    # a configuration every child rejects is a config error, not a partial result
    if failures and not results and all(
            isinstance(e, ConfigError) for e in failures.values()):
        raise failures[min(failures)]
    manifest = {
        "command": child_cmd,
        "children": [{"tag": t, **results[t]} for t in sorted(results)],
        "failures": {t: str(failures[t]) for t in sorted(failures)},
    }
    _write_json(out / "manifest.json", manifest)
    if failures:
        raise PartialResultError(
            f"{len(failures)} of {len(children)} sweep children failed",
            completed=manifest)
    return {"children": len(children), "artifacts": ["manifest.json"]}


_COMMANDS = {
    "solve-corot": cmd_solve_corot,
    "solve-gl": cmd_solve_gl,
    "fixed-point": cmd_fixed_point,
    "caloric": cmd_caloric,
    "asymptotics": cmd_asymptotics,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hmfx",
        description="Expanding self-similar harmonic map flow laboratory")
    parser.add_argument("command", choices=sorted(_COMMANDS) + ["sweep"])
    parser.add_argument("--config", type=pathlib.Path, default=None)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--tolerance-profile", default="default",
                        choices=["strict", "default", "loose"])
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a flat config key (section.key=value)")
    args = parser.parse_args(argv)

    out_root = args.out or pathlib.Path(os.environ.get("HMFX_OUT", "hmfx-out"))
    out = out_root
    started = time.time()
    try:
        if args.config is not None:
            cfg = RunConfig.load(args.config, args.tolerance_profile)
        else:
            cfg = RunConfig({}, args.tolerance_profile)
        if args.set:
            values = dict(cfg.values)
            for item in args.set:
                if "=" not in item:
                    raise ConfigError(f"bad --set override {item!r}")
                key, value = item.split("=", 1)
                values[key.strip()] = value.strip()
            cfg = RunConfig(values, args.tolerance_profile)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "sweep":
            summary = cmd_sweep(cfg, out, jobs=args.jobs)
        else:
            summary = _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        _safe_summary(out, {"status": "config-error", "error": str(exc),
                            "command": args.command})
        print(f"config error: {exc}")
        return EXIT_CONFIG
    except PartialResultError as exc:
        _safe_summary(out, {"status": "partial", "error": str(exc),
                            "command": args.command})
        print(f"partial result: {exc}")
        return EXIT_PARTIAL
    except NotAttainedError as exc:
        _safe_summary(out, {"status": "solver-error", "error": str(exc),
                            "reachable_range": list(exc.reachable),
                            "command": args.command})
        print(f"solver error: {exc} (reachable range {exc.reachable})")
        return EXIT_SOLVER
    except HmfxError as exc:
        _safe_summary(out, {"status": "solver-error", "error": str(exc),
                            "command": args.command})
        print(f"solver error: {exc}")
        return EXIT_SOLVER
    payload = {
        "status": "ok",
        "command": args.command,
        "tolerance_profile": args.tolerance_profile,
        "config": cfg.echo(),
        "wall_clock_seconds": round(time.time() - started, 3),
        **summary,
    }
    _write_json(out / "summary.json", payload)
    return EXIT_OK


def _safe_summary(out: pathlib.Path, payload: dict) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "summary.json", payload)
    except OSError:
        pass


if __name__ == "__main__":
    raise SystemExit(main())
