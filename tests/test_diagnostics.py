import dataclasses

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from hmfx.corotational import profile_grid, solve_corot, solve_gl_corot
from hmfx.diagnostics import (bochner_check, boundary_local_energy,
                              energy_inequality_report, eps_regularity_scan,
                              gaussian_integral, local_energy,
                              monotonicity_table, pointwise_energy,
                              pohozaev_residual)
from hmfx.fields import ball_average
from hmfx.grids import SphereGrid
from hmfx.solutions import (SelfSimilarSolution, constant_solution,
                            equator_solution, from_gl_profile, from_shooting)
from hmfx.target import radial_bump, radial_bump_prime

MONO_RADII = np.linspace(0.05, 0.45, 9)


@pytest.fixture(scope="module")
def equator():
    return equator_solution()


@pytest.fixture(scope="module")
def corot():
    # the probe-20 tables read the profile to |y| ~ 48.5, past r_max = 40,
    # where the series tail takes over
    return from_shooting(solve_corot(3, 0.2))


@pytest.fixture(scope="module")
def gl():
    profile, _ = solve_gl_corot(3, 10.0, np.sin(0.2), np.cos(0.2),
                                grid=profile_grid(20.0))
    return from_gl_profile(profile, 10.0)


def _reference_columns(sol, x0, sphere, psi_rows, n_time=8):
    """Phi at every table radius and Psi at ``psi_rows`` from the 3-D rule."""
    def density(t):
        return lambda p: pointwise_energy(sol, p, t) \
            * radial_bump(np.linalg.norm(p - x0, axis=-1)) ** 2

    x_gl, w_gl = leggauss(n_time)
    phi = [R * R * gaussian_integral(density(1.0 - R * R), x0, R * R,
                                     sphere=sphere) for R in MONO_RADII]
    psi = []
    for R in MONO_RADII[psi_rows]:
        ts = 1.0 - R * R * (2.5 - 1.5 * x_gl)
        psi.append(sum(1.5 * R * R * w * gaussian_integral(
            density(t), x0, 1.0 - t, sphere=sphere) for t, w in zip(ts, w_gl)))
    return np.concatenate([phi, psi])


class TestEnergyDensity:
    def test_equator_closed_form(self, equator):
        pts = np.array([[5.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 20.0]])
        e = pointwise_energy(equator, pts)
        r2 = (pts**2).sum(axis=-1)
        np.testing.assert_allclose(e, 1.0 / r2, rtol=1e-12)

    def test_parabolic_scaling(self, equator):
        # e(x, t) = e(x / sqrt(t), 1) / t
        pts = np.array([[4.0, 1.0, 0.0]])
        t = 0.25
        a = pointwise_energy(equator, pts, t=t)
        b = pointwise_energy(equator, pts / np.sqrt(t), t=1.0) / t
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.0])
    @pytest.mark.parametrize("name", ["equator", "corot", "gl"])
    def test_radial_density_matches_gradient(self, name, t, request):
        # half the squared gradient plus the quartic penalty, origin included
        sol = request.getfixturevalue(name)
        pts = np.random.default_rng(3).uniform(-5.0, 5.0, size=(64, 3))
        pts[0] = 0.0
        g = sol.gradient(pts, t)
        ref = 0.5 * (g * g).sum(axis=(-2, -1))
        if sol.flavor == "gl":
            u = sol.evaluate(pts, t)
            ref += sol.K / (4.0 * t) * (1.0 - (u * u).sum(axis=-1)) ** 2
        np.testing.assert_allclose(pointwise_energy(sol, pts, t), ref,
                                   rtol=1e-12, atol=0.0)

    def test_constant_solution_zero_energy(self):
        sol = constant_solution()
        pts = np.array([[1.0, 2.0, 3.0]])
        assert pointwise_energy(sol, pts)[0] == pytest.approx(0.0, abs=1e-15)


class TestLocalizedEnergies:
    def test_local_energy_far_probe(self, equator):
        # ball average of 1/|x|^2 at |x0| = 10 is close to 1/100
        val = local_energy(equator, np.array([10.0, 0.0, 0.0]))
        assert val == pytest.approx(1e-2, rel=5e-3)

    def test_boundary_energy_matches_profile_limit(self, equator):
        # the t -> 0 limit density of the 0-homogeneous data is the same
        # 1/|x|^2 profile
        x0 = np.array([10.0, 0.0, 0.0])
        a = boundary_local_energy(equator, x0)
        b = local_energy(equator, x0)
        assert a == pytest.approx(b, rel=1e-6)

    def test_gaussian_integral_normalized(self):
        val = gaussian_integral(lambda p: np.ones(p.shape[:-1]),
                                np.array([3.0, 0.0, 0.0]), 1.0)
        assert val == pytest.approx(1.0, rel=1e-8)


class TestMonotonicity:
    def test_equator_table_clean(self, equator):
        x0 = np.array([10.0, 0.0, 0.0])
        table = monotonicity_table(equator, (x0, 1.0),
                                   np.linspace(0.05, 0.45, 9))
        assert table.max_phi_violation == 0.0
        assert table.max_psi_violation == 0.0
        assert not table.phi_flagged
        assert not table.psi_flagged
        assert np.all(np.diff(table.phi_values) >= 0.0)

    @pytest.mark.parametrize("rho", [5.0, 20.0])
    @pytest.mark.parametrize("name", ["equator", "corot"])
    def test_axisymmetric_rule_matches_fine_sphere(self, name, rho, request):
        # the 3-D lat-long rule converges to the axisymmetric value: the
        # 48x96 sphere lies within 2e-5, the 16x32 one at least 5x farther
        sol = request.getfixturevalue(name)
        x0 = np.array([rho, 0.0, 0.0])
        table = monotonicity_table(sol, (x0, 1.0), MONO_RADII)
        rows = [0, -1]
        axi = np.concatenate([table.phi_values, table.psi_values[rows]])
        fine = _reference_columns(sol, x0, SphereGrid(48, 96), rows)
        coarse = _reference_columns(sol, x0, SphereGrid(16, 32), rows)
        gap_fine = np.max(np.abs(axi - fine) / np.abs(fine))
        gap_coarse = np.max(np.abs(axi - coarse) / np.abs(coarse))
        assert gap_fine <= 2e-5
        assert gap_coarse >= 5.0 * gap_fine
        # the boundary mass of |grad u_0|^2 = 2 sin^2(h_inf) / |x|^2 over
        # B(x0, 2), against the 3-D ball rule on the same two spheres
        s2 = 2.0 * np.sin(sol.boundary_angle) ** 2
        mass = [32.0 / 3.0 * np.pi * ball_average(
            lambda p: (s2 / (p * p).sum(axis=-1))[..., None], x0, 2.0,
            sphere=sphere)[0] for sphere in (SphereGrid(48, 96), SphereGrid(16, 32))]
        gap_fine, gap_coarse = np.abs(table.boundary_energy - np.array(mass)) / mass
        assert gap_fine <= 3e-5
        assert gap_coarse >= 5.0 * gap_fine

    def test_one_density_call_per_table(self, corot):
        # every slice's density comes from one profile call; the boundary
        # mass needs none
        calls = []

        def counted(r):
            calls.append(np.size(r))
            return corot.radial(r)

        sol = dataclasses.replace(corot, radial=counted)
        monotonicity_table(sol, (np.array([10.0, 0.0, 0.0]), 1.0), MONO_RADII)
        assert len(calls) == 1

    def test_tables_do_not_depend_on_the_truncation_radius(self, corot):
        # criterion 7's tables at r_max = 40 read past the last node; the
        # series tail keeps them within 1e-7 of an r_max = 60 solve
        # (extrapolating the last quintic piece put Psi at probe 20 24% off)
        longer = from_shooting(solve_corot(3, 0.2, r_max=60.0))
        for rho in (5.0, 10.0, 20.0):
            z0 = (np.array([rho, 0.0, 0.0]), 1.0)
            a = monotonicity_table(corot, z0, MONO_RADII)
            b = monotonicity_table(longer, z0, MONO_RADII)
            np.testing.assert_allclose(a.phi_values, b.phi_values, rtol=1e-7)
            np.testing.assert_allclose(a.psi_values, b.psi_values, rtol=1e-7)

    def test_radius_window_enforced(self, equator):
        from hmfx.errors import TimeWindowError
        with pytest.raises(TimeWindowError):
            monotonicity_table(equator, (np.array([10.0, 0.0, 0.0]), 1.0),
                               [0.9])


def _tensor_pohozaev(sol, center, t1=0.5, t2=1.0, inner=1.0, outer=2.0,
                     n_time=8, n_radial=32):
    """(lhs, rhs, scale) from the 3 x m gradient tensors under ball_average."""
    def integrand(pts, t):
        rel = pts - center
        r = np.linalg.norm(rel, axis=-1)
        q = radial_bump(r, inner, outer)
        dq = radial_bump_prime(r, inner, outer)
        g = sol.gradient(pts, t)
        ut = -(pts[..., :, None] * g).sum(axis=-2) / (2.0 * t)
        d_rel = (rel[..., :, None] * g).sum(axis=-2)
        lhs = (ut * q[..., None] * d_rel).sum(axis=-1)
        lie = q * (g * g).sum(axis=(-2, -1)) + (dq / r) * (d_rel**2).sum(axis=-1)
        e_div = pointwise_energy(sol, pts, t) * (3.0 * q + dq * r)
        return np.stack([lhs, e_div - lie,
                         np.abs(lhs) + np.abs(e_div) + np.abs(lie)], axis=-1)

    x_gl, w_gl = leggauss(n_time)
    ts = 0.5 * (t2 - t1) * (x_gl + 1.0) + t1
    vol = 4.0 / 3.0 * np.pi * outer**3
    return sum(0.5 * (t2 - t1) * w * vol
               * ball_average(lambda p: integrand(p, t), center, outer,
                              n_radial=n_radial, sphere=SphereGrid(16, 32))
               for t, w in zip(ts, w_gl))


class TestPohozaev:
    @pytest.mark.parametrize("rho", [5.0, 10.0])
    @pytest.mark.parametrize("name", ["equator", "corot", "gl", "constant"])
    def test_radial_integrand_matches_gradient_tensors(self, name, rho, request):
        sol = constant_solution() if name == "constant" \
            else request.getfixturevalue(name)
        center = np.array([rho, 0.0, 0.0])
        rep = pohozaev_residual(sol, center)
        lhs, rhs, scale = _tensor_pohozaev(sol, center)
        np.testing.assert_allclose([rep.rhs, rep.scale], [rhs, scale],
                                   rtol=1e-10, atol=0.0)
        assert abs(rep.lhs - lhs) <= 1e-12 * scale

    def test_one_profile_evaluation_per_slice(self, corot, monkeypatch):
        counts = {"radial": 0, "gradient": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SelfSimilarSolution, "gradient",
                            counted("gradient", SelfSimilarSolution.gradient))
        sol = dataclasses.replace(corot, radial=counted("radial", corot.radial))
        pohozaev_residual(sol, np.array([5.0, 0.0, 0.0]), n_time=5)
        assert counts["radial"] <= 5
        assert counts["gradient"] == 0

    def test_equator_residual_small(self, equator):
        rep = pohozaev_residual(equator, np.array([5.0, 0.0, 0.0]))
        assert rep.residual < 1e-2

    def test_scale_is_positive(self, equator):
        rep = pohozaev_residual(equator, np.array([5.0, 0.0, 0.0]))
        assert rep.scale > 0.0


class TestRegularityChain:
    @pytest.mark.parametrize("name", ["equator", "corot", "gl"])
    def test_scan_batches_its_probes(self, name, request):
        # one density call for every probe's Psi slices, with the values of
        # one scan per probe
        sol = request.getfixturevalue(name)
        probes = [np.array([r, 0.0, 0.0]) for r in (0.5, 5.0, 10.0, 20.0)]
        calls = []

        def counted(r):
            calls.append(np.size(r))
            return sol.radial(r)

        batched = eps_regularity_scan(dataclasses.replace(sol, radial=counted),
                                      probes)
        assert len(calls) == 1 + 3 * sum(not v.flagged for v in batched)
        for probe, v in zip(probes, batched):
            (single,) = eps_regularity_scan(sol, [probe])
            assert v.psi_value == pytest.approx(single.psi_value, rel=1e-14)
            assert v.flagged == single.flagged
            assert v.sup_energy == single.sup_energy

    def test_far_probes_unflagged(self, equator):
        scan = eps_regularity_scan(
            equator, [np.array([r, 0.0, 0.0]) for r in (10.0, 20.0)])
        for v in scan:
            assert not v.flagged
            assert v.verified

    def test_bochner_ratio_equator(self, equator):
        # exact constant-angle value of the ratio is -2
        rep = bochner_check(equator, np.array([[5.0, 0.0, 0.0],
                                               [10.0, 0.0, 0.0]]))
        np.testing.assert_allclose(rep.ratios, -2.0, atol=1e-3)
        assert rep.passed


class TestEnergyInequality:
    def test_excess_monotone_and_small(self, equator):
        rep = energy_inequality_report(equator, np.array([10.0, 0.0, 0.0]))
        assert rep.excess_monotone
        assert rep.within(0.10)
