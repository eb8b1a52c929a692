import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg

from hmfx import corotational
from hmfx.corotational import (HermiteProfile, _dense_defect, continuation,
                               gl_residual, shoot_hm, solve_corot,
                               solve_gl_corot)
from hmfx.errors import (IntegrationError, NotAttainedError,
                         ShootingDivergedError)
from hmfx.grids import RadialGrid


class TestShooting:
    def test_small_slope_converges(self):
        res = shoot_hm(3, 0.05)
        assert res.residual_sup < 1e-8
        assert 0.0 < res.h_inf < np.pi / 2.0

    def test_angle_series_near_origin(self):
        # h(r) = a r + c3 r^3 + O(r^5) with the center coefficient fixed by
        # the ODE balance
        n, a = 3, 0.1
        res = shoot_hm(n, a)
        c3 = -(a / 2.0 + (2.0 / 3.0) * (n - 1) * a**3) / (2.0 * n + 4.0)
        r = np.array([1e-4, 5e-4, 1e-3])
        np.testing.assert_allclose(res.angle_at(r), a * r + c3 * r**3,
                                   rtol=1e-6)

    def test_monotone_in_slope(self):
        h_a = shoot_hm(3, 0.05).h_inf
        h_b = shoot_hm(3, 0.10).h_inf
        assert h_b > h_a

    @pytest.mark.parametrize("n, a, h_inf", [
        pytest.param(3, 0.05, None, id="0.05"),
        pytest.param(3, 0.8, None, id="0.8"),
        pytest.param(6, None, 1.2, id="n6-h1.2"),
    ])
    def test_hermite_profile_matches_reference_integration(self, n, a, h_inf):
        # independent reference: DOP853 dense output from the center series
        # at r0 = 1e-6, extrapolated over [0, r0); a large-angle case takes
        # the profile of the slope search
        if h_inf is None:
            res = shoot_hm(n, a, r_max=60.0)
        else:
            res = solve_corot(n, h_inf, r_max=60.0)
            a = res.slope
        r0 = 1e-6
        c3 = -(a / 2.0 + (2.0 / 3.0) * (n - 1) * a**3) / (2.0 * n + 4.0)

        def rhs(r, y):
            return (y[1], -((n - 1) / r + 0.5 * r) * y[1]
                    + (n - 1) / (2.0 * r * r) * np.sin(2.0 * y[0]))

        ref = scipy.integrate.solve_ivp(
            rhs, (r0, 60.0), [a * r0 + c3 * r0**3, a + 3.0 * c3 * r0**2],
            method="DOP853", dense_output=True, rtol=1e-12, atol=1e-13).sol
        r = np.linspace(0.0, 60.0, 6001)
        h, dh = res.dense(r)
        h_ref, dh_ref = ref(r)
        assert np.abs(h - h_ref).max() <= 1e-8
        assert np.abs(dh - dh_ref).max() <= 1e-8

    def test_large_slope_blows_up(self):
        with pytest.raises(ShootingDivergedError, match="blew up at r = 0.001"):
            shoot_hm(3, 60.0)

    def test_failed_integration_is_solver_error(self, monkeypatch):
        # a step budget of two per output interval makes LSODA give up
        odeint = scipy.integrate.odeint
        monkeypatch.setattr(scipy.integrate, "odeint",
                            lambda *args, **kwargs: odeint(*args, **kwargs, mxstep=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="Excess work done"):
                shoot_hm(3, 0.3)

    def test_shot_reports_integrator_counts(self):
        res = shoot_hm(3, 0.3)
        assert res.shots == 1
        assert res.rhs_evaluations > res.steps > 0
        assert res.dense.r[-1] == 40.0 + 0.1
        assert np.diff(res.dense.r[2:]).max() <= 0.025 + 1e-12


class TestFarFieldTail:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("h_inf", [0.2, 1.0, 1.5])
    def test_tail_matches_longer_shot(self, n, h_inf):
        # past r_max the profile is the order-2 series; a shot of the same
        # slope to 100 integrates the equation over the same radii, and its
        # own tail constant is the limit angle the series reports
        res = solve_corot(n, h_inf, r_max=40.0)
        ref = shoot_hm(n, res.slope, r_max=100.0)
        r = np.linspace(40.0, 60.0, 401)
        h, dh = res.dense(r)
        h_ref, dh_ref = ref.dense(r)
        assert np.abs(h - h_ref).max() <= 1e-8
        assert np.abs(dh - dh_ref).max() <= 1e-8
        assert res.h_inf == pytest.approx(ref.h_inf, abs=1e-8)

    def test_tail_continues_the_last_node(self):
        res = shoot_hm(3, 0.3)
        r_end = res.dense.r[-1]
        c1, c2 = res.dense.tail
        assert res.h_inf == res.dense.limit
        assert res.dense.limit + c1 / r_end**2 + c2 / r_end**4 == \
            pytest.approx(res.dense.h[-1], abs=1e-15)
        # the slope of the series meets the shot's to its O(r^-7) truncation
        h, dh = res.dense(np.array([r_end, np.nextafter(r_end, np.inf)]))
        assert abs(h[1] - h[0]) <= 1e-15
        assert abs(dh[1] - dh[0]) <= 1e-10

    def test_constant_profile_has_no_tail(self):
        prof = HermiteProfile.constant(0.7, 40.0)
        h, dh = prof(np.array([10.0, 50.0, 1e6]))
        assert np.array_equal(h, np.full(3, 0.7))
        assert np.array_equal(dh, np.zeros(3))
        assert prof.limit == 0.7


class TestBoundaryValueSolve:
    def test_hits_requested_angle(self):
        res = solve_corot(3, 0.2, tol=1e-10)
        assert res.h_inf == pytest.approx(0.2, abs=1e-8)
        assert res.residual_sup < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_large_angle_residual(self, n):
        assert solve_corot(n, 1.2).residual_sup <= 5e-9

    def test_farfield_coefficient_oracle(self):
        # independent oracle: far-field balance of the angle ODE gives
        # h ~ h_inf - ((n-1)/2) sin(2 h_inf) / r^2
        for n in (3, 4):
            res = solve_corot(n, 0.1)
            pred = -((n - 1) / 2.0) * np.sin(0.2)
            assert res.farfield_coeff == pytest.approx(pred, rel=0.02)

    def test_negative_angle_by_reflection(self):
        res = solve_corot(3, -0.2)
        assert res.h_inf == pytest.approx(-0.2, abs=1e-7)
        assert res.slope < 0.0

    def test_negative_angle_is_exact_negation(self):
        pos, neg = solve_corot(3, 0.2), solve_corot(3, -0.2)
        r = np.linspace(0.0, 45.0, 1001)
        assert np.array_equal(neg.angle_at(r), -pos.angle_at(r))
        assert np.array_equal(neg.angle_slope_at(r), -pos.angle_slope_at(r))

    def test_criterion_3_family_needs_few_shots(self, monkeypatch):
        shoot = corotational.shoot_hm
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(corotational, "shoot_hm", counted)
        for n in (3, 4, 5, 6):
            for h in (0.05, 0.1, 0.2, 0.3):
                calls.clear()
                res = corotational.solve_corot(n, h, r_max=60.0, tol=1e-5)
                assert abs(res.h_inf - h) < 1e-5
                assert len(calls) <= 8, (n, h, len(calls))

    def test_equator_exact_branch(self):
        res = solve_corot(3, np.pi / 2.0)
        np.testing.assert_allclose(res.profile.angle, np.pi / 2.0)
        np.testing.assert_array_equal(res.angle_at(res.profile.grid.nodes),
                                      np.pi / 2.0)
        assert res.residual_sup == 0.0

    def test_unattainable_angle_reports_range(self):
        with pytest.raises(NotAttainedError) as err:
            solve_corot(3, 3.0)
        lo, hi = err.value.reachable
        assert lo < hi < 3.0


class TestResidual:
    def test_residual_flags_wrong_profile(self):
        # h = 0.3 tanh r is regular at 0 and has a limit angle, but does
        # not solve the angle equation
        r = np.linspace(0.0, 10.0, 401)
        t = np.tanh(r)
        wrong = HermiteProfile(r, 0.3 * t, 0.3 * (1.0 - t * t),
                               -0.6 * t * (1.0 - t * t), (0.0, 0.0))
        assert _dense_defect(wrong, 3, r[(r > 0.1) & (r < 9.9)]).max() > 1e-3


class TestPenalizedSystem:
    def test_newton_converges(self):
        profile, info = solve_gl_corot(3, 10.0, np.sin(0.2), np.cos(0.2))
        assert info.residual_sup < 1e-8
        assert np.abs(profile.modulus() - 1.0).max() < 1e-2

    def test_modulus_improves_with_K(self):
        devs = []
        profile = None
        for K in (1.0, 10.0, 100.0):
            profile, _ = solve_gl_corot(3, K, np.sin(0.2), np.cos(0.2),
                                        initial=profile)
            devs.append(np.abs(profile.modulus() - 1.0).max())
        assert devs[0] > devs[1] > devs[2]

    def test_jacobian_matches_per_node_assembly(self, monkeypatch):
        # every Newton matrix equals the per-node reference assembly at the
        # iterate it linearizes: stored entries, explicit zeros and values
        n, K = 4, 10.0
        grid = RadialGrid.graded(40.0, 0.02)
        N, r = grid.size, grid.nodes
        d1w, d2w = grid.d1_weights, grid.d2_weights

        def reference(psi, phi):
            entries = [(0, 0, 1.0), (N - 1, N - 1, 1.0), (2 * N - 1, 2 * N - 1, 1.0)]
            entries += [(N, N + j, d1w[0, j]) for j in range(3)]
            for i in range(1, N - 1):
                cr = (n - 1) / r[i] + 0.5 * r[i]
                pen = K * (1.0 - psi[i] * psi[i] - phi[i] * phi[i])
                cross = -2.0 * K * psi[i] * phi[i]
                for k in range(3):
                    v = d2w[i, k] + cr * d1w[i, k]
                    entries += [(i, i + k - 1, v), (N + i, N + i + k - 1, v)]
                entries += [
                    (i, i, -(n - 1) / (r[i] * r[i]) + pen
                     - 2.0 * K * (psi[i] * psi[i])),
                    (i, N + i, cross), (N + i, i, cross),
                    (N + i, N + i, pen - 2.0 * K * (phi[i] * phi[i]))]
            rows, cols, vals = zip(*entries)
            return scipy.sparse.csr_matrix((vals, (rows, cols)),
                                           shape=(2 * N, 2 * N))

        state, pairs = {}, []
        real_residual = corotational.gl_residual
        real_spsolve = scipy.sparse.linalg.spsolve

        def residual(profile, K_):
            # the last residual before a solve is the linearized iterate
            state["iterate"] = (profile.psi.copy(), profile.phi.copy())
            return real_residual(profile, K_)

        def spsolve(jac, rhs):
            pairs.append((jac, reference(*state["iterate"])))
            return real_spsolve(jac, rhs)

        monkeypatch.setattr(corotational, "gl_residual", residual)
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", spsolve)
        solve_gl_corot(n, K, np.sin(0.3), np.cos(0.3), grid=grid)
        assert len(pairs) >= 3
        for jac, ref in pairs:
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(jac, attr), getattr(ref, attr))

    def test_constant_exact_branch(self):
        # h = 0 data: psi = 0, phi = 1 solves the system exactly
        profile, info = solve_gl_corot(3, 10.0, 0.0, 1.0)
        assert info.iterations <= 1
        np.testing.assert_allclose(profile.psi, 0.0, atol=1e-12)
        np.testing.assert_allclose(profile.phi, 1.0, atol=1e-12)
        res = gl_residual(profile, 10.0)
        assert np.abs(res).max() <= 1e-10

    def test_farfield_correction_shape(self):
        # the boundary row holds the order-1 series at r_max, which pushes
        # |u| below 1 for K finite; closed form of the first coefficient:
        # psi1 = (n-1)(lam psi^3 - psi), phi1 = lam (n-1) psi^2 phi with
        # lam = 2K / (2K + 1)
        n, K = 3, 10.0
        psi_inf, phi_inf = np.sin(0.2), np.cos(0.2)
        profile, _ = solve_gl_corot(n, K, psi_inf, phi_inf)
        lam = 2.0 * K / (2.0 * K + 1.0)
        psi1 = (n - 1) * (lam * psi_inf**3 - psi_inf)
        phi1 = lam * (n - 1) * psi_inf**2 * phi_inf
        r_max = profile.grid.r_max
        assert profile.psi[-1] == pytest.approx(psi_inf + psi1 / r_max**2,
                                                abs=1e-15)
        assert profile.phi[-1] == pytest.approx(phi_inf + phi1 / r_max**2,
                                                abs=1e-15)
        modulus = np.hypot(profile.psi[-1], profile.phi[-1])
        assert modulus < 1.0
        assert abs(modulus - 1.0) < 1e-2


class TestContinuation:
    def test_full_ladder(self):
        rungs = continuation(3, [1.0, 10.0], 0.2, [1.0, 0.5, 0.0])
        assert len(rungs) == 6
        assert all(r.residual_sup < 1e-8 for r in rungs)
        # sigma = 1 rung is the exact constant branch
        first = rungs[0]
        assert first.sigma == 1.0
        np.testing.assert_allclose(first.profile.psi, 0.0, atol=1e-10)
