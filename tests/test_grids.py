import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmfx.errors import GridError
from numpy.polynomial.legendre import leggauss

from hmfx.grids import MAX_SPACING_RATIO, RadialGrid, SphereGrid, gauss_legendre


class TestRadialGrid:
    def test_graded_mesh_shape(self):
        g = RadialGrid.graded(40.0, 0.05)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == pytest.approx(40.0)
        assert np.all(np.diff(g.nodes) > 0)
        h = g.spacings
        assert h[0] <= 0.05 * (1.0 + 1e-12)
        ratios = h[1:] / h[:-1]
        assert ratios.max() <= MAX_SPACING_RATIO + 1e-9

    @given(st.floats(min_value=5.0, max_value=100.0),
           st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def test_graded_mesh_property(self, r_max, h0):
        g = RadialGrid.graded(r_max, h0)
        h = g.spacings
        assert g.nodes[-1] == pytest.approx(r_max, rel=1e-9)
        assert (h[1:] / h[:-1]).max() <= MAX_SPACING_RATIO + 1e-9

    def test_derivatives_exact_on_quadratics(self):
        g = RadialGrid.graded(10.0, 0.1)
        r = g.nodes
        v = 3.0 * r**2 - 2.0 * r + 1.0
        np.testing.assert_allclose(g.apply_d1(v), 6.0 * r - 2.0,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(g.apply_d2(v), 6.0, rtol=0, atol=1e-8)

    def test_interior_weights_match_per_node_formulas(self):
        g = RadialGrid.graded(40.0, 0.05)
        h = g.spacings
        for i in range(1, g.size - 1):
            h1, h2 = h[i - 1], h[i]
            assert g.d1_weights[i].tolist() == [-h2 / (h1 * (h1 + h2)),
                                                (h2 - h1) / (h1 * h2),
                                                h1 / (h2 * (h1 + h2))]
            assert g.d2_weights[i].tolist() == [2.0 / (h1 * (h1 + h2)),
                                                -2.0 / (h1 * h2),
                                                2.0 / (h2 * (h1 + h2))]

    def test_stencil_nodes_one_sided_at_both_ends(self):
        g = RadialGrid.graded(10.0, 0.1)
        idx = g.stencil_nodes
        N = g.size
        assert idx.shape == (N, 3)
        assert idx[0].tolist() == [0, 1, 2]
        assert idx[-1].tolist() == [N - 3, N - 2, N - 1]
        np.testing.assert_array_equal(idx[1:-1, 1], np.arange(1, N - 1))
        np.testing.assert_array_equal(np.diff(idx, axis=1), 1)

    def test_rejects_bad_nodes(self):
        with pytest.raises(GridError):
            RadialGrid(np.array([0.0, 1.0, 0.5]))


class TestSphereGrid:
    def test_weights_total_area(self):
        s = SphereGrid(16, 32)
        assert s.weights.sum() == pytest.approx(4.0 * np.pi, rel=1e-14)

    def test_directions_unit(self):
        s = SphereGrid(8, 16)
        np.testing.assert_allclose(
            np.linalg.norm(s.directions, axis=-1), 1.0, atol=1e-14)

    def test_linear_functions_integrate_to_zero(self):
        s = SphereGrid(10, 20)
        for axis in range(3):
            assert abs(s.integrate(s.directions[..., axis])) < 1e-12

    @given(st.integers(min_value=4, max_value=12),
           st.integers(min_value=8, max_value=24))
    @settings(max_examples=25, deadline=None)
    def test_mean_of_constant(self, nt_half, np_half):
        nt, np_ = 2 * nt_half, 2 * np_half
        s = SphereGrid(nt, np_)
        assert s.mean(np.ones((nt, np_))) == pytest.approx(1.0, rel=1e-13)

    def test_second_moment_converges(self):
        # mean of z^2 over the sphere is 1/3
        errs = [abs(SphereGrid(nt, 2 * nt).mean(
            SphereGrid(nt, 2 * nt).directions[..., 2] ** 2) - 1.0 / 3.0)
            for nt in (8, 16, 32)]
        assert errs[0] < 1e-2
        assert errs[2] < errs[0]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [6, 16, 32])
    def test_cached_rule_is_leggauss_read_only(self, n):
        x, w = gauss_legendre(n)
        x_ref, w_ref = leggauss(n)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        assert gauss_legendre(n)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0
