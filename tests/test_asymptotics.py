import numpy as np
import pytest

from hmfx.asymptotics import (MAX_ORDER, gl_coefficients, hmf_coefficients,
                              rate_classify, series_ode_residual,
                              sup_deviation)
from hmfx.boundary import (BoundaryMap, corotational_map, equator_map,
                           identity_sphere_map, lipschitz_wedge_map)
from hmfx.errors import GridError
from hmfx.grids import SphereGrid

from conftest import loglog_slope


class TestEquivariantCoefficients:
    def test_first_coefficient_closed_form(self):
        # u1 = Delta_S u0 + |grad_S u0|^2 u0 for the sphere flow:
        # p1 = -(n-1) sin(h) cos^2(h), q1 = (n-1) sin^2(h) cos(h)
        n, h = 3, 0.1
        series = hmf_coefficients(corotational_map(h), 1, n=n)
        p1, q1 = series.coefficients[1]
        assert p1 == pytest.approx(-(n - 1) * np.sin(h) * np.cos(h) ** 2,
                                   abs=1e-12)
        assert q1 == pytest.approx((n - 1) * np.sin(h) ** 2 * np.cos(h),
                                   abs=1e-12)

    def test_first_coefficient_magnitude_is_angle_correction(self):
        # |u1| equals the far-field angle coefficient ((n-1)/2) sin(2 h)
        n, h = 3, 0.1
        series = hmf_coefficients(corotational_map(h), 1, n=n)
        p1, q1 = series.coefficients[1]
        assert np.hypot(p1, q1) == pytest.approx(
            ((n - 1) / 2.0) * np.sin(2.0 * h), abs=1e-12)

    def test_equator_series_vanishes(self):
        series = hmf_coefficients(equator_map(), 4)
        assert max(series.sup_norms()) < 1e-10

    def test_gl_first_coefficient_factor(self):
        # u1 = Delta_S u0 - (2K/(2K+1)) <Delta_S u0, u0> u0; K = 1 factor 2/3
        n, h, K = 3, 0.1, 1.0
        series = gl_coefficients(corotational_map(h), K, 1, n=n)
        p1, q1 = series.coefficients[1]
        lam = 2.0 * K / (2.0 * K + 1.0)
        s, c = np.sin(h), np.cos(h)
        # Delta_S u0 = (-(n-1) s w, 0); <Delta_S u0, u0> = -(n-1) s^2
        exp_p = -(n - 1) * s + lam * (n - 1) * s**2 * s
        exp_q = lam * (n - 1) * s**2 * c
        assert p1 == pytest.approx(exp_p, abs=1e-10)
        assert q1 == pytest.approx(exp_q, abs=1e-10)

    def test_gl_approaches_hmf_per_decade(self):
        n, h = 3, 0.1
        hmf = hmf_coefficients(corotational_map(h), 1, n=n)
        diffs = []
        for K in (1.0, 10.0, 100.0):
            gl = gl_coefficients(corotational_map(h), K, 1, n=n)
            diffs.append(np.hypot(gl.coefficients[1][0] - hmf.coefficients[1][0],
                                  gl.coefficients[1][1] - hmf.coefficients[1][1]))
        for a, b in zip(diffs, diffs[1:]):
            assert 5.0 < a / b < 15.0

    def test_series_ode_residual_order(self):
        # residual of the truncated far-field series in the profile ODE
        # decays like r^{-2(k+1)}
        n, h = 3, 0.1
        radii = np.geomspace(6.0, 60.0, 12)
        for k, lo in ((1, -4.6), (2, -6.6), (3, -8.6)):
            series = hmf_coefficients(corotational_map(h), k, n=n)
            res = np.abs(series_ode_residual(series, radii)).max(axis=1)
            slope = loglog_slope(radii, res)
            assert lo <= slope <= lo + 1.2


class TestGridRoute:
    def test_identity_map_first_order(self):
        # u1 = Delta_S u0 + |grad u0|^2 u0 = -2 w + 2 w = 0
        series = hmf_coefficients(identity_sphere_map(), 1,
                                  sphere=SphereGrid(16, 32))
        assert series.sup_norms()[0] < 1e-10

    def test_sampled_data_needs_three_dimensions(self):
        with pytest.raises(GridError):
            hmf_coefficients(lipschitz_wedge_map(), 2, n=4)
        with pytest.raises(GridError):
            gl_coefficients(lipschitz_wedge_map(), 10.0, 2, n=4)


def _cross_backend_errors(order: int) -> np.ndarray:
    """Per-order sup gap between the S^2 route and the exact (p, q) route.

    Each corotational map is also re-wrapped without its limit angle, so
    it is sampled on the default 24 x 48 sphere grid; the samples must
    match (p_i omega, q_i).  Worst case over flavors and limit angles.
    """
    sphere = SphereGrid()
    w = sphere.directions
    worst = np.zeros(order + 1)
    for h in (0.05, 0.3, 1.0, 2.0, 3.0):
        exact_map = corotational_map(h)
        sampled_map = BoundaryMap("sampled", exact_map.m, exact_map.fn)
        for build in (lambda u0: hmf_coefficients(u0, order),
                      lambda u0: gl_coefficients(u0, 10.0, order)):
            pq = build(exact_map).coefficients
            sampled = build(sampled_map).coefficients
            for i, (p, q) in enumerate(pq):
                expected = np.concatenate(
                    [p * w, np.full(w.shape[:-1] + (1,), q)], axis=-1)
                worst[i] = max(worst[i], np.abs(sampled[i] - expected).max())
    return worst


class TestCrossBackend:
    def test_low_orders_agree(self):
        worst = _cross_backend_errors(2)
        assert worst[1] <= 1e-10
        assert worst[2] <= 1e-6

    @pytest.mark.xfail(strict=True, reason=(
        "the S^2 route amplifies round-off by about 3e4 per order "
        "(spectral sphere Laplacian), so orders 3-4 drift from the exact "
        "(p, q) values; finer grids make it worse"))
    def test_orders_three_and_four_agree(self):
        worst = _cross_backend_errors(MAX_ORDER)
        assert worst[3] <= 1e-6
        assert worst[4] <= 1e-6


class TestRateClassification:
    def test_three_verdicts(self):
        radii = np.geomspace(5.0, 50.0, 8)
        assert rate_classify(radii, np.full(8, 1e-12)).verdict == \
            "super-polynomial"
        assert rate_classify(radii, 0.5 / radii).verdict == "lipschitz-rate"
        assert rate_classify(radii, 0.5 / radii**2).verdict == "smooth-rate"

    def test_sup_deviation_finds_narrow_peak(self):
        # deviation concentrated in a 1/r-wide cap around a fixed direction
        center = np.array([0.0, 0.0, 1.0])

        def evaluate(pts):
            r = np.linalg.norm(pts, axis=-1, keepdims=True)
            w = pts / r
            ang = np.arccos(np.clip(w @ center, -1.0, 1.0))
            peak = np.exp(-(ang[..., None] * r) ** 2) / r
            return np.concatenate([np.zeros_like(pts[..., :2]), peak], axis=-1)

        reference = lambda w: np.zeros(w.shape[:-1] + (3,))
        radii = np.array([4.0, 8.0, 16.0, 32.0])
        devs = sup_deviation(evaluate, reference, radii)
        np.testing.assert_allclose(devs, 1.0 / radii, rtol=1e-2)
