import dataclasses

import numpy as np
import pytest

from hmfx.corotational import solve_corot, solve_gl_corot
from hmfx.errors import DomainExceededError, TimeOrderError
from hmfx.grids import RadialGrid
from hmfx.solutions import (constant_solution, equator_solution, from_angle,
                            from_gl_profile, from_shooting)


@pytest.fixture(scope="module")
def corot_solution():
    return from_shooting(solve_corot(3, 0.2))


class TestEquator:
    def test_values_unit(self):
        sol = equator_solution()
        pts = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 0.0]])
        np.testing.assert_allclose(
            np.linalg.norm(sol.evaluate(pts), axis=-1), 1.0, atol=1e-14)

    def test_gradient_norm_closed_form(self):
        # |grad U|^2 = 2 / |x|^2 for the constant right-angle profile
        sol = equator_solution()
        pts = np.array([[3.0, 0.0, 0.0], [0.0, 5.0, 0.0], [1.0, 1.0, 1.0]])
        g = sol.gradient(pts)
        r2 = (pts**2).sum(axis=-1)
        np.testing.assert_allclose((g**2).sum(axis=(-2, -1)), 2.0 / r2,
                                   rtol=1e-12)

    def test_time_derivative_vanishes(self):
        # the profile is 0-homogeneous, so u is constant in time
        sol = equator_solution()
        pts = np.array([[2.0, 1.0, 0.0]])
        np.testing.assert_allclose(sol.time_derivative(pts, t=0.7), 0.0,
                                   atol=1e-13)


class TestSelfSimilarAlgebra:
    def test_parabolic_scaling_invariance(self, corot_solution):
        sol = corot_solution
        pts = np.array([[1.0, -2.0, 0.5]])
        lam = 1.7
        a = sol.evaluate(pts, t=1.0)
        b = sol.evaluate(lam * pts, t=lam**2)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_time_derivative_matches_finite_difference(self, corot_solution):
        sol = corot_solution
        pts = np.array([[2.0, 0.0, 1.0]])
        t, dt = 1.0, 1e-5
        fd = (sol.evaluate(pts, t + dt) - sol.evaluate(pts, t - dt)) / (2 * dt)
        np.testing.assert_allclose(sol.time_derivative(pts, t), fd, atol=1e-8)

    def test_gradient_matches_finite_difference(self, corot_solution):
        sol = corot_solution
        p = np.array([1.2, -0.7, 2.0])
        g = sol.gradient(p[None])[0]
        eps = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            fd = (sol.evaluate((p + e)[None]) - sol.evaluate((p - e)[None])) \
                / (2 * eps)
            np.testing.assert_allclose(g[i], fd[0], atol=1e-7)

    def test_negative_time_rejected(self, corot_solution):
        with pytest.raises(TimeOrderError):
            corot_solution.evaluate(np.zeros((1, 3)), t=-1.0)


class TestWrappers:
    def test_constant_solution_is_flat(self):
        sol = constant_solution()
        pts = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_allclose(sol.gradient(pts), 0.0, atol=1e-15)
        np.testing.assert_allclose(sol.evaluate(pts)[:, 3], 1.0)

    def test_from_angle_origin_regular(self):
        sol = from_angle(lambda r: (0.1 * np.asarray(r),
                                    0.1 * np.ones(np.shape(r))))
        val = sol.evaluate(np.zeros((1, 3)))
        np.testing.assert_allclose(val[0, :3], 0.0, atol=1e-14)

    def test_shooting_gradient_evaluates_profile_once(self):
        res = solve_corot(3, 0.2)
        calls = []

        def counted(r):
            calls.append(np.shape(r))
            return res.dense(r)

        sol = from_shooting(dataclasses.replace(res, dense=counted))
        pts = np.random.default_rng(1).normal(size=(4, 5, 3))
        g = sol.gradient(pts)
        assert calls == [(4, 5)]
        np.testing.assert_array_equal(g, from_shooting(res).gradient(pts))

    def test_gl_profile_wrapper_domain(self):
        profile, _ = solve_gl_corot(3, 10.0, np.sin(0.2), np.cos(0.2),
                                    r_max=20.0)
        sol = from_gl_profile(profile, 10.0)
        assert sol.K == 10.0
        with pytest.raises(DomainExceededError):
            sol.evaluate(np.array([[30.0, 0.0, 0.0]]))
        # interpolant reproduces the collocation values at the nodes
        r = profile.grid.nodes[40]
        val = sol.evaluate(np.array([[r, 0.0, 0.0]]))
        assert val[0, 0] == pytest.approx(profile.psi[40], abs=1e-12)
        assert val[0, 3] == pytest.approx(profile.phi[40], abs=1e-12)

    def test_gl_profile_wrapper_matches_fine_collocation(self):
        # the Hermite wrapper of the default grid's solve against a solve on
        # a 10x finer grid: both errors are the coarse collocation's own
        psi_inf, phi_inf = np.sin(0.2), np.cos(0.2)
        profile, _ = solve_gl_corot(3, 10.0, psi_inf, phi_inf, r_max=20.0)
        sol = from_gl_profile(profile, 10.0)
        grid = RadialGrid.graded(20.0, 0.002, 1.005)
        fine, _ = solve_gl_corot(3, 10.0, psi_inf, phi_inf, grid=grid)
        keep = grid.nodes <= 19.9
        r = grid.nodes[keep]
        psi, phi = fine.psi[keep], fine.phi[keep]
        dpsi, dphi = (grid.apply_d1(v)[keep] for v in (fine.psi, fine.phi))
        pts = np.zeros((r.size, 3))
        pts[:, 0] = r
        U = sol.evaluate(pts)
        assert np.abs(U[:, 0] - psi).max() <= 2e-3
        assert np.abs(U[:, 3] - phi).max() <= 2e-3
        # on the x axis grad U has d_x P = P', d_y = d_z of (P y/r, P z/r)
        # = P / r, and d_x Q = Q'
        ref = np.zeros((r.size, 3, 4))
        ref[:, 0, 0] = dpsi
        ref[:, 1, 1] = ref[:, 2, 2] = np.where(r > 0, psi / np.where(r > 0, r, 1.0), dpsi)
        ref[:, 0, 3] = dphi
        assert np.abs(sol.gradient(pts) - ref).max() <= 1e-3
