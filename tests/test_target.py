import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmfx.target import (TargetSphere, quintic_step, quintic_step_prime,
                         radial_bump)

vec3 = st.lists(st.floats(min_value=-3.0, max_value=3.0,
                          allow_nan=False, allow_infinity=False),
                min_size=3, max_size=3)


class TestCutoff:
    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_chi_prime_bounds(self, s):
        T = TargetSphere()
        cp = float(T.chi_prime(s))
        assert 0.0 <= cp <= 1.0 + 1e-12

    def test_chi_prime_plateau_and_cut(self):
        T = TargetSphere()
        lo, hi = T.chi_knots
        assert T.chi_prime(0.5 * lo) == pytest.approx(1.0)
        assert T.chi_prime(hi + 0.1) == 0.0

    def test_chi_prime_monotone(self):
        T = TargetSphere()
        s = np.linspace(0.0, T.chi_knots[1] * 1.2, 400)
        cp = T.chi_prime(s)
        assert np.all(np.diff(cp) <= 1e-12)

    def test_chi_matches_identity_near_zero(self):
        T = TargetSphere()
        s = np.linspace(0.0, T.chi_knots[0], 20)
        np.testing.assert_allclose(T.chi(s), s, atol=1e-12)

    def test_chi_is_integral_of_chi_prime(self):
        T = TargetSphere()
        s = np.linspace(0.0, 1.0, 2001)
        num = np.concatenate([[0.0], np.cumsum(
            0.5 * (T.chi_prime(s[1:]) + T.chi_prime(s[:-1])) * np.diff(s))])
        np.testing.assert_allclose(T.chi(s), num, atol=5e-6)

    def test_quintic_step_ends(self):
        assert quintic_step(0.0) == 0.0
        assert quintic_step(1.0) == 1.0
        assert quintic_step_prime(0.0) == pytest.approx(0.0)
        assert quintic_step_prime(1.0) == pytest.approx(0.0)

    def test_radial_bump_support(self):
        r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        b = radial_bump(r)
        assert np.all(b[:3] == 1.0)
        assert np.all(b[-1:] == 0.0)
        assert np.all((b >= 0.0) & (b <= 1.0))


class TestSphereGeometry:
    @given(vec3)
    @settings(max_examples=50, deadline=None)
    def test_projection_is_unit(self, u):
        u = np.asarray(u)
        if np.linalg.norm(u) < 0.6:
            return
        T = TargetSphere()
        assert np.linalg.norm(T.project(u)) == pytest.approx(1.0, rel=1e-12)

    def test_projection_rejects_deep_interior(self):
        from hmfx.errors import GeometryDomainError
        with pytest.raises(GeometryDomainError):
            TargetSphere().project(np.array([0.1, 0.0, 0.0]))

    @given(vec3)
    @settings(max_examples=50, deadline=None)
    def test_dist_sq_gradient_matches_finite_difference(self, u):
        u = np.asarray(u)
        if abs(np.linalg.norm(u) - 1.0) > 1.5 or np.linalg.norm(u) < 0.2:
            return
        T = TargetSphere()
        g = T.dist_sq_gradient(u)  # gradient of d^2 / 2
        eps = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            fd = (T.dist_sq(u + e) - T.dist_sq(u - e)) / (4 * eps)
            assert g[i] == pytest.approx(fd, abs=1e-5)

    def test_forces_vanish_on_sphere(self):
        T = TargetSphere()
        u = np.array([0.6, 0.0, 0.8])
        np.testing.assert_allclose(T.cs_force(u, 10.0), 0.0, atol=1e-14)

    def test_cs_force_is_cutoff_slope_times_distance_gradient(self):
        # radii 0.3..2 cover the identity part, the bridge and the plateau
        rng = np.random.default_rng(5)
        u = rng.normal(size=(400, 3))
        u *= rng.uniform(0.3, 2.0, size=(400, 1)) / np.linalg.norm(u, axis=-1, keepdims=True)
        T = TargetSphere()
        K = 10.0
        ref = K * T.chi_prime(T.dist_sq(u))[:, None] * T.dist_sq_gradient(u)
        np.testing.assert_allclose(T.cs_force(u, K), ref, rtol=1e-15,
                                   atol=1e-15 * np.abs(ref).max())
