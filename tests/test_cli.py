import dataclasses
import json

import numpy as np
import pytest
import scipy.integrate

from hmfx import cli, corotational, fixedpoint
from hmfx.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main)
from hmfx.config import RunConfig


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    summary = {}
    if (out / "summary.json").exists():
        summary = json.loads((out / "summary.json").read_text())
    return code, out, summary


class TestExitCodes:
    def test_ok(self, tmp_path):
        code, out, summary = run(tmp_path, "solve-corot", "--set",
                                 "run.h_inf=0.1")
        assert code == EXIT_OK
        assert summary["status"] == "ok"
        assert (out / "profile.csv").exists()

    def test_config_error_on_bad_file(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not a key value pair\n")
        code, _, summary = run(tmp_path, "solve-corot", "--config", str(bad))
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"

    def test_config_error_on_bad_override(self, tmp_path):
        code, _, summary = run(tmp_path, "solve-corot", "--set", "garbage")
        assert code == EXIT_CONFIG

    def test_unknown_override_key_is_config_error(self, tmp_path):
        code, _, summary = run(tmp_path, "solve-corot", "--set",
                               "run.h_inf=0.2", "--set", "run.h_iff=3")
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert "'run.h_iff'" in summary["error"]

    def test_unknown_config_file_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nh_inf = 0.2\n[grid]\ninner_spacing = 0.5\n")
        code, _, summary = run(tmp_path, "solve-corot", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert "'grid.inner_spacing'" in summary["error"]

    @pytest.mark.parametrize("args, key", [
        (("fixed-point", "--set", "run.K=0"), "run.K"),
        (("fixed-point", "--set", "run.sigma=1.5"), "run.sigma"),
        (("fixed-point", "--set", "run.sigma=-0.1"), "run.sigma"),
        (("solve-gl", "--set", "run.h_inf=0.1", "--set", "run.K=-1"), "run.K"),
        (("sweep", "--set", "run.sweep_command=solve-gl",
          "--set", "run.h_inf=0.1", "--set", "run.K_ladder=0,-1"), "run.K"),
    ])
    def test_out_of_range_penalty_or_homotopy_is_config_error(
            self, tmp_path, monkeypatch, args, key):
        def no_solve(*a, **k):
            raise AssertionError("solved before checking the configuration")

        monkeypatch.setattr(cli, "solve_gl_corot", no_solve)
        monkeypatch.setattr(fixedpoint, "picard_iterate", no_solve)
        code, _, summary = run(tmp_path, *args)
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert key in summary["error"]

    @pytest.mark.parametrize("args, key", [
        (("solve-corot", "--set", "run.h_inf=0.1", "--set", "tol.shoot=-1"),
         "tol.shoot"),
        (("solve-corot", "--set", "run.h_inf=0.1", "--set", "tol.shoot=0"),
         "tol.shoot"),
        (("solve-corot", "--set", "run.h_inf=0.1", "--set", "grid.r_max=10"),
         "grid.r_max"),
        (("solve-gl", "--set", "run.h_inf=0.1", "--set", "tol.newton=-1e-9"),
         "tol.newton"),
        (("fixed-point", "--set", "tol.picard=-1"), "tol.picard"),
        (("fixed-point", "--set", "grid.fp_n_theta=7"), "grid.fp_n_theta"),
        (("fixed-point", "--set", "grid.fp_n_phi=17"), "grid.fp_n_phi"),
        (("fixed-point", "--set", "grid.fp_r_max=-16"), "grid.fp_r_max"),
        (("fixed-point", "--set", "grid.fp_inner_spacing=0"),
         "grid.fp_inner_spacing"),
        (("sweep", "--set", "run.sweep_command=solve-corot",
          "--set", "run.h_inf=0.1", "--set", "grid.r_max=10"), "grid.r_max"),
        (("sweep", "--set", "run.sweep_command=fixed-point",
          "--set", "grid.fp_n_theta=7"), "grid.fp_n_theta"),
    ])
    def test_bad_shooting_or_grid_value_is_config_error(
            self, tmp_path, monkeypatch, args, key):
        def no_solve(*a, **k):
            raise AssertionError("solved before checking the configuration")

        for name in ("solve_corot", "solve_gl_corot"):
            monkeypatch.setattr(cli, name, no_solve)
        for name in ("caloric_corotational_field", "picard_iterate"):
            monkeypatch.setattr(fixedpoint, name, no_solve)
        code, _, summary = run(tmp_path, *args)
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert key in summary["error"]

    @pytest.mark.parametrize("args", [
        ("fixed-point",),
        ("caloric",),
        ("diagnose", "--set", "run.boundary=corotational(0.2)"),
        ("asymptotics", "--set", "run.boundary=lipschitz-wedge"),
    ])
    def test_dimension_other_than_three_is_config_error(self, tmp_path, monkeypatch,
                                                        args):
        # these routes work on R^3 (asymptotics: on S^2 samples) only
        def no_solve(*a, **k):
            raise AssertionError("solved before checking run.n")

        monkeypatch.setattr(cli, "solve_corot", no_solve)
        monkeypatch.setattr(cli.weighted.CaloricQuadrature, "extend", no_solve)
        monkeypatch.setattr(cli.asymptotics, "hmf_coefficients", no_solve)
        for name in ("caloric_corotational_field", "picard_iterate"):
            monkeypatch.setattr(fixedpoint, name, no_solve)
        code, _, summary = run(tmp_path, *args, "--set", "run.n=4")
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert "run.n must be 3" in summary["error"]

    def test_nonpositive_gl_penalty_in_asymptotics_is_config_error(self, tmp_path):
        code, _, summary = run(tmp_path, "asymptotics", "--set", "run.flavor=gl",
                               "--set", "run.K=0")
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert "run.K must be positive" in summary["error"]

    @pytest.mark.parametrize("key, value", [
        ("caloric.radii", ""),
        ("caloric.radii", "0,12,33"),
        ("caloric.radii", "-4,12,33"),
        ("caloric.radii", "4,nan"),
        ("caloric.times", "0"),
        ("caloric.times", "1,-0.25"),
    ])
    def test_bad_caloric_values_are_config_errors(self, tmp_path, monkeypatch,
                                                  key, value):
        def no_quadrature(*a, **k):
            raise AssertionError("caloric ran a quadrature before checking its values")

        monkeypatch.setattr(cli.weighted.CaloricQuadrature, "extend", no_quadrature)
        code, _, summary = run(tmp_path, "caloric", "--set",
                               "run.boundary=lipschitz-wedge", "--set",
                               f"{key}={value}")
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert key in summary["error"]

    def test_solver_error_reports_reachable_range(self, tmp_path):
        code, _, summary = run(tmp_path, "solve-corot", "--set",
                               "run.h_inf=3.0")
        assert code == EXIT_SOLVER
        assert summary["status"] == "solver-error"
        lo, hi = summary["reachable_range"]
        assert lo < hi < 3.0

    def test_integration_failure_is_solver_error(self, tmp_path, monkeypatch):
        odeint = scipy.integrate.odeint
        monkeypatch.setattr(scipy.integrate, "odeint",
                            lambda *args, **kwargs: odeint(*args, **kwargs, mxstep=2))
        code, _, summary = run(tmp_path, "solve-corot", "--set",
                               "run.h_inf=0.1")
        assert code == EXIT_SOLVER
        assert "LSODA failed" in summary["error"]


class TestFixedPointData:
    def test_wedge_data_converges(self, tmp_path):
        # the fold maps into the closed northern hemisphere, so the geodesic
        # homotopy to the north pole is defined and the generic caloric
        # extension feeds the Picard iteration
        code, _, summary = run(tmp_path, "fixed-point",
                               "--set", "run.boundary=lipschitz-wedge",
                               "--set", "run.sigma=0.9")
        assert code == EXIT_OK
        assert summary["converged"] is True
        bound = RunConfig({}).get_tolerance("tol.static_residual_per_K") * summary["K"]
        assert summary["static_residual"] <= bound

    def test_unconverged_picard_is_solver_error(self, tmp_path, monkeypatch):
        # sigma = 0.5 needs six Picard steps; a cap of two leaves it unconverged
        picard = fixedpoint.picard_iterate
        monkeypatch.setattr(fixedpoint, "picard_iterate",
                            lambda *a, **k: picard(*a, **{**k, "max_iters": 2}))
        code, _, summary = run(tmp_path, "fixed-point",
                               "--set", "run.boundary=lipschitz-wedge",
                               "--set", "run.sigma=0.5")
        assert code == EXIT_SOLVER
        assert summary["status"] == "solver-error"
        assert "did not converge in 2 steps" in summary["error"]
        assert "last contraction ratio 0." in summary["error"]

    def test_data_not_homotopic_to_a_constant_is_config_error(self, tmp_path):
        code, _, summary = run(tmp_path, "fixed-point",
                               "--set", "run.boundary=identity-sphere",
                               "--set", "run.sigma=0.9")
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert "'identity-sphere' is not homotopic to a constant" in summary["error"]


class TestSummaries:
    def test_config_echoed_verbatim(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nh_inf = 0.1\n[grid]\nr_max = 30\n")
        code, _, summary = run(tmp_path, "solve-corot", "--config", str(cfg))
        assert code == EXIT_OK
        assert summary["config"] == {"grid.r_max": "30", "run.h_inf": "0.1"}

    def test_json_keys_sorted(self, tmp_path):
        code, out, _ = run(tmp_path, "solve-corot", "--set", "run.h_inf=0.1")
        text = (out / "summary.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    def test_solve_corot_reports_search_cost(self, tmp_path, monkeypatch):
        shoot = corotational.shoot_hm
        calls = []

        def counted(*args, **kwargs):
            calls.append(shoot(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(corotational, "shoot_hm", counted)
        code, _, summary = run(tmp_path, "solve-corot", "--set",
                               "run.h_inf=0.2")
        assert code == EXIT_OK
        assert summary["shots"] == len(calls) > 1
        assert summary["integrator_steps"] == sum(c.steps for c in calls) > 0
        assert summary["rhs_evaluations"] == sum(
            c.rhs_evaluations for c in calls) > 0

    def test_asymptotics_equator_verdict(self, tmp_path):
        code, _, summary = run(tmp_path, "asymptotics", "--set",
                               "run.boundary=equator")
        assert code == EXIT_OK
        assert summary["all_below_floor"] is True

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HMFX_OUT", str(tmp_path / "envout"))
        code = main(["asymptotics", "--set", "run.boundary=equator"])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "summary.json").exists()


class TestDiagnose:
    def test_shooting_tolerance_reaches_the_solve(self, monkeypatch):
        solve = cli.solve_corot
        tols = []

        def recorded(*args, **kwargs):
            tols.append(kwargs.get("tol"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_corot", recorded)
        cfg = RunConfig({"run.boundary": "corotational(0.2)",
                         "tol.shoot": "1e-6"})
        radii = cli._diag_radii(cfg)
        cli._resolve_solution(cfg, *radii)
        assert tols == [pytest.approx(1e-6)]
        cli._resolve_solution(RunConfig(cfg.values, "strict"), *radii)
        assert tols[1] == pytest.approx(0.5e-6)

    def test_profile_read_within_its_last_node(self, tmp_path, monkeypatch):
        solve = cli.solve_corot
        last_nodes, reads = [], []

        def recorded(*args, **kwargs):
            res = solve(*args, **kwargs)
            last_nodes.append(res.dense.r[-1])

            def dense(r):
                reads.append(float(np.max(r, initial=0.0)))
                return res.dense(r)

            return dataclasses.replace(res, dense=dense)

        monkeypatch.setattr(cli, "solve_corot", recorded)
        code, _, _ = run(tmp_path, "diagnose",
                         "--set", "run.boundary=corotational(0.2)")
        assert code == EXIT_OK
        assert len(last_nodes) == 1 and reads
        assert max(reads) <= last_nodes[0]

    @pytest.mark.parametrize("key, value", [
        ("diag.probe_radii", ""),
        ("diag.probe_radii", "0,5"),
        ("diag.probe_radii", "-5"),
        ("diag.mono_radii", ""),
        ("diag.mono_radii", "0.1,0.5"),
        ("diag.mono_radii", "0.2,0.1"),
        ("diag.mono_radii", "0.1,0.1"),
        ("diag.mono_radii", "0,0.1"),
    ])
    def test_bad_radii_are_config_errors(self, tmp_path, monkeypatch, key, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("diagnose solved before checking its radii")

        monkeypatch.setattr(cli, "solve_corot", no_solve)
        code, _, summary = run(tmp_path, "diagnose",
                               "--set", "run.boundary=corotational(0.2)",
                               "--set", f"{key}={value}")
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert key in summary["error"]

    @pytest.mark.parametrize("radii", [
        (),
        ("--set", "diag.probe_radii=0.5", "--set", "diag.mono_radii=0.05"),
    ])
    def test_short_truncation_radius_is_config_error(self, tmp_path, monkeypatch,
                                                     radii):
        # small probes used to shoot to 10 and fail; the defaults silently
        # raised it to the probes' reach
        def no_solve(*args, **kwargs):
            raise AssertionError("diagnose solved before checking grid.r_max")

        monkeypatch.setattr(cli, "solve_corot", no_solve)
        code, _, summary = run(tmp_path, "diagnose",
                               "--set", "run.boundary=corotational(0.2)",
                               "--set", "grid.r_max=10", *radii)
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert "grid.r_max" in summary["error"]


class TestDeterminism:
    def test_profile_csv_byte_identical(self, tmp_path):
        _, out1, _ = run(tmp_path / "a", "solve-corot", "--set",
                         "run.h_inf=0.1")
        _, out2, _ = run(tmp_path / "b", "solve-corot", "--set",
                         "run.h_inf=0.1")
        assert (out1 / "profile.csv").read_bytes() == \
            (out2 / "profile.csv").read_bytes()


class TestSweep:
    def test_asymptotics_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--jobs", "2",
                     "--set", "run.sweep_command=asymptotics",
                     "--set", "run.K_ladder=1,10",
                     "--set", "run.flavor=gl",
                     "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["children"]) == 2
        assert not manifest["failures"]
        for child in manifest["children"]:
            tag = child["tag"].replace("=", "_")
            assert (out / tag / "coefficients.csv").exists()
            assert (out / tag / "summary.json").exists()

    def test_config_error_in_every_child_is_config_error(self, tmp_path):
        # solve-gl needs run.h_inf, which has no default: the whole ladder
        # fails on configuration, which is not a partial result
        code, _, summary = run(tmp_path, "sweep",
                               "--set", "run.sweep_command=solve-gl")
        assert code == EXIT_CONFIG
        assert summary["status"] == "config-error"
        assert "missing config key 'run.h_inf'" in summary["error"]
