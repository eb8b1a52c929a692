import json

import numpy as np
import pytest

from hmfx import fixedpoint
from hmfx.boundary import corotational_map, lipschitz_wedge_map
from hmfx.cli import EXIT_OK, main
from hmfx.config import RunConfig
from hmfx.corotational import profile_grid, solve_gl_corot
from hmfx.errors import LinearSolveError
from hmfx.fields import MapField, x_norm
from hmfx.fixedpoint import (LinearizedOperator, assemble_Q, assemble_rhs,
                             caloric_corotational_field, default_grids,
                             path_map, picard_iterate, static_residual,
                             verify_decay)
from hmfx.grids import SphereGrid
from hmfx.target import TargetSphere
from hmfx.weighted import (caloric_extension, caloric_extension_points,
                           weighted_laplacian_field)


@pytest.fixture(scope="module")
def grids():
    return default_grids()


@pytest.fixture(scope="module")
def U0(grids):
    radial, sphere = grids
    return caloric_corotational_field(corotational_map(0.1), radial, sphere)


class TestPathMap:
    def test_sigma_one_is_constant(self):
        u0 = corotational_map(0.3)
        path = path_map(u0, 1.0)
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        vals = path(dirs)
        np.testing.assert_allclose(vals, [[0, 0, 0, 1], [0, 0, 0, 1]],
                                   atol=1e-12)

    def test_sigma_zero_is_identity(self):
        u0 = corotational_map(0.3)
        path = path_map(u0, 0.0)
        dirs = np.array([[0.6, 0.8, 0.0]])
        np.testing.assert_allclose(path(dirs), u0(dirs), atol=1e-12)

    def test_interpolates_boundary_angle(self):
        path = path_map(corotational_map(0.3), 0.5)
        assert path.h_inf == pytest.approx(0.15)


class TestCaloricShortcut:
    def test_matches_generic_quadrature(self, U0):
        # the per-radius symmetry shortcut must agree with the generic
        # extension at each point; the cap rule is exact on corotational
        # data, so they agree to rounding
        u0 = corotational_map(0.1)
        idx = [5, 12, 19]
        pts = U0.points[idx, 3, 7]
        direct = caloric_extension_points(u0, pts)
        np.testing.assert_allclose(U0.values[idx, 3, 7], direct, atol=1e-12)

    def test_origin_hits_target_point(self, U0):
        np.testing.assert_allclose(U0.values[0, :, :, :3], 0.0, atol=1e-12)


def manufactured_error(U0):
    """Max error of solve(apply(W)) for a smooth Dirichlet-zero field W."""
    radial, sphere = U0.radial, U0.sphere

    def w_fn(pts):
        rr = np.linalg.norm(pts, axis=-1, keepdims=True)
        bump = rr**2 * (radial.r_max - rr) ** 2 / radial.r_max**4
        return bump * np.stack([np.sin(pts[..., 0]),
                                np.cos(pts[..., 1]),
                                pts[..., 2] / (1.0 + rr[..., 0]),
                                np.ones(pts.shape[:-1])], axis=-1) * 0.01

    W = MapField.from_function(radial, sphere, w_fn)
    vals = W.values.copy()
    vals[-1] = 0.0
    W = W.with_values(vals)
    op = LinearizedOperator(U0, 10.0)
    recovered = op.solve(op.apply(W))
    return np.abs(recovered.values[:-1] - W.values[:-1]).max()


class TestLinearizedOperator:
    def test_manufactured_solution(self, U0):
        # apply then solve must reproduce a smooth Dirichlet-zero field
        assert manufactured_error(U0) < 1e-9

    def test_manufactured_solution_fine_sphere(self, grids):
        radial, _ = grids
        U0 = caloric_corotational_field(corotational_map(0.1), radial,
                                        SphereGrid(16, 32))
        assert manufactured_error(U0) < 1e-9

    @pytest.mark.parametrize("vec", [[0.0, 0.0, 0.0, 1.0],
                                     [0.3, -0.2, 0.1, 0.9]])
    def test_preconditioner_exact_for_constant_U0(self, grids, vec):
        # a constant U0 makes the penalty matrix uniform, so the separable
        # preconditioner is the exact inverse: GMRES converges in one step
        radial, _ = grids
        sphere = SphereGrid(8, 24)
        U0 = MapField.constant(radial, sphere, vec)
        op = LinearizedOperator(U0, 10.0)
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(U0.values.shape)
        vals[0] = vals[0, 0, 0]  # the origin is a single node
        W = op.solve(U0.with_values(vals))
        assert op.iterations == [1]
        res = op.apply(W).values[:-1] - vals[:-1]
        assert np.abs(res).max() < 1e-9 * np.abs(vals).max()

    def test_missed_tolerance_raises(self, U0, monkeypatch):
        # two GMRES iterations cannot reach the fixed relative residual
        monkeypatch.setattr(fixedpoint, "GMRES_RESTART", 2)
        monkeypatch.setattr(fixedpoint, "GMRES_MAX_CYCLES", 1)
        op = LinearizedOperator(U0, 10.0)
        with pytest.raises(LinearSolveError, match="GMRES missed"):
            op.solve(assemble_rhs(U0, U0.with_values(0.0 * U0.values), 10.0))

    def test_solve_is_linear(self, U0):
        radial, sphere = U0.radial, U0.sphere
        op = LinearizedOperator(U0, 10.0)
        rhs = MapField.from_function(
            radial, sphere,
            lambda p: np.exp(-(p**2).sum(axis=-1, keepdims=True))
            * np.ones(p.shape[:-1] + (4,)))
        a = op.solve(rhs)
        b = op.solve(rhs.with_values(2.0 * rhs.values))
        np.testing.assert_allclose(b.values, 2.0 * a.values, atol=1e-10)


class TestQOperator:
    def test_vanishes_on_constant_configuration(self, grids):
        radial, sphere = grids
        U0 = MapField.constant(radial, sphere, [0.0, 0.0, 0.0, 1.0])
        V = MapField.constant(radial, sphere, [0.0, 0.0, 0.0, 0.0])
        Q = assemble_Q(U0, V, 10.0)
        assert np.abs(Q.values).max() < 1e-14

    def test_affine_plus_quadratic_shape(self, U0):
        # ||Q(U0, tW)||_X along a ray fits a + b t + c t^2 with high R^2
        radial, sphere = U0.radial, U0.sphere
        W = MapField.from_function(
            radial, sphere,
            lambda p: 0.05 * np.exp(-(p**2).sum(axis=-1, keepdims=True) / 4.0)
            * np.ones(p.shape[:-1] + (4,)))
        ts = np.linspace(0.0, 1.0, 10)
        norms = [x_norm(assemble_Q(U0, W.with_values(t * W.values), 10.0))
                 for t in ts]
        A = np.vstack([np.ones_like(ts), ts, ts**2]).T
        coef, res, *_ = np.linalg.lstsq(A, norms, rcond=None)
        ss_tot = np.sum((norms - np.mean(norms)) ** 2)
        r2 = 1.0 - (res[0] / ss_tot if res.size else 0.0)
        assert r2 >= 0.95


class TestPlateauForce:
    def test_Q_and_apply_match_the_closed_forms(self, U0):
        # the closed forms the fixed-point module once wrote out itself;
        # the perturbations reach the bridge and the plateau of chi
        rng = np.random.default_rng(11)
        K = 10.0
        base = U0.with_values(U0.values + 0.05 * rng.standard_normal(U0.values.shape))
        V = U0.with_values(0.2 * rng.standard_normal(U0.values.shape))
        chi_prime = TargetSphere().chi_prime

        def factors(u):
            mag = np.linalg.norm(u, axis=-1)
            return mag, chi_prime((mag - 1.0) ** 2), u / mag[..., None]

        _, chi0, uhat = factors(base.values)
        magw, chiw, what = factors(base.values + V.values)
        lin = -K * chi0[..., None] * (uhat * V.values).sum(axis=-1)[..., None] * uhat
        full = K * chiw[..., None] * (magw - 1.0)[..., None] * what
        assert np.any(chiw == 0.0) and np.any((chiw > 0.0) & (chiw < 1.0))
        np.testing.assert_array_equal(assemble_Q(base, V, K).values, lin + full)
        np.testing.assert_array_equal(LinearizedOperator(base, K).apply(V).values,
                                      weighted_laplacian_field(V).values + lin)


class TestPicard:
    def test_sigma_one_single_step(self, grids):
        radial, sphere = grids
        U0 = MapField.constant(radial, sphere, [0.0, 0.0, 0.0, 1.0])
        state = picard_iterate(U0, 10.0)
        assert state.converged
        assert len(state.step_norms) <= 2
        assert state.x_norm_V < 1e-10

    def test_contraction_and_residual(self, U0):
        K = 10.0
        state = picard_iterate(path_and_field(U0, 0.9), K)
        assert state.converged
        assert max(state.contraction_ratios) < 1.0
        assert state.static_residual <= 1e-5 * K

    def test_one_linearization_per_run(self, U0, monkeypatch):
        # the operator's linearization of the fixed U0 serves every step
        calls = []
        linearize = TargetSphere.cs_linearization

        def counted(self, u0, K):
            calls.append(K)
            return linearize(self, u0, K)

        monkeypatch.setattr(TargetSphere, "cs_linearization", counted)
        state = picard_iterate(path_and_field(U0, 0.9), 10.0)
        assert state.converged and len(state.step_norms) > 1
        assert calls == [10.0]

    def test_limit_matches_collocation(self, U0):
        # cross-check the 3-d fixed point against the radial Newton solve
        K = 10.0
        state = picard_iterate(U0, K)
        sol = state.U0.with_values(state.U0.values + state.V.values)
        profile, _ = solve_gl_corot(3, K, np.sin(0.1), np.cos(0.1),
                                    grid=profile_grid(state.U0.radial.r_max))
        # compare the polar-axis angle
        axis = sol.values[1:-1, 0, 0]
        r = state.U0.radial.nodes[1:-1]
        angle_3d = np.arctan2(np.linalg.norm(axis[:, :3], axis=-1),
                              axis[:, 3])
        angle_1d = np.arctan2(np.interp(r, profile.grid.nodes, profile.psi),
                              np.interp(r, profile.grid.nodes, profile.phi))
        assert np.abs(angle_3d - angle_1d).max() < 5e-2


class TestWarmStart:
    """Each Picard step starts GMRES from the previous iterate."""

    @pytest.fixture(scope="class", params=["corotational(0.1)", "lipschitz-wedge"])
    def half_way(self, request, grids):
        # sigma = 0.5 on the default 8 x 16 grid
        radial, sphere = grids
        if request.param == "lipschitz-wedge":
            return caloric_extension(path_map(lipschitz_wedge_map(), 0.5),
                                     radial, sphere)
        return caloric_corotational_field(path_map(corotational_map(0.1), 0.5),
                                          radial, sphere)

    @staticmethod
    def _run(U0, monkeypatch, warm):
        solve = LinearizedOperator.solve
        solves = []

        def recorded(self, rhs, guess=None):
            W = solve(self, rhs, guess if warm else None)
            solves.append((self, rhs, W))
            return W

        with monkeypatch.context() as m:
            m.setattr(LinearizedOperator, "solve", recorded)
            state = picard_iterate(U0, 10.0)
        assert state.converged
        return state, solves

    def test_true_residual_meets_the_tolerance(self, half_way, monkeypatch):
        _, solves = self._run(half_way, monkeypatch, warm=True)
        for op, rhs, W in solves:
            b = op._pack(rhs)
            res = np.linalg.norm(b - op._pack(op.apply(W)))
            assert res <= fixedpoint.LINEAR_RTOL * np.linalg.norm(b)

    def test_fewer_iterations_same_limit(self, half_way, monkeypatch):
        warm, _ = self._run(half_way, monkeypatch, warm=True)
        cold, _ = self._run(half_way, monkeypatch, warm=False)
        counts = warm.linear_iterations
        assert counts[0] == cold.linear_iterations[0]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert sum(counts) < sum(cold.linear_iterations)
        assert len(warm.step_norms) == len(cold.step_norms)
        scale = np.abs(cold.V.values).max()
        assert np.abs(warm.V.values - cold.V.values).max() <= 1e-10 * scale


def path_and_field(U0, sigma):
    from hmfx.fixedpoint import caloric_corotational_field, path_map
    from hmfx.boundary import corotational_map
    path = path_map(corotational_map(0.1), sigma)
    return caloric_corotational_field(path, U0.radial, U0.sphere)


class TestDecay:
    def test_correction_decays(self, U0):
        state = picard_iterate(U0, 10.0)
        report = verify_decay(state.V)
        assert report.value_slope < -1.5
        assert report.gradient_slope < -1.5
        assert np.isfinite(report.sup_fV)

    def test_static_residual_flags_non_solution(self, U0):
        V = U0.with_values(np.zeros_like(U0.values))
        assert static_residual(U0, V, 10.0) > 1e-3


class TestRefinement:
    def test_fine_sphere_grid_runs_from_the_cli(self, tmp_path):
        # 16 x 32 once hit "Factor is exactly singular" in an incomplete
        # factorization used above a size threshold
        out = tmp_path / "fp"
        code = main(["fixed-point", "--set", "grid.fp_n_theta=16",
                     "--set", "grid.fp_n_phi=32", "--set", "run.sigma=0.9",
                     "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert len(summary["linear_iterations"]) == summary["iterations"]
        assert all(n >= 1 for n in summary["linear_iterations"])

    def test_second_order_on_sphere_refinement(self, grids):
        # x_norm(V) on 8 x 16, 16 x 32, 32 x 64: successive differences
        # shrink by 4 for a second-order stencil
        radial, _ = grids
        K = 10.0
        bound = RunConfig({}).get_tolerance("tol.static_residual_per_K") * K
        path = path_map(corotational_map(0.1), 0.5)
        norms = []
        for nt in (8, 16, 32):
            U0 = caloric_corotational_field(path, radial, SphereGrid(nt, 2 * nt))
            state = picard_iterate(U0, K)
            assert state.converged
            assert state.static_residual <= bound
            norms.append(state.x_norm_V)
        ratio = (norms[0] - norms[1]) / (norms[1] - norms[2])
        assert 3.0 <= ratio <= 5.0
