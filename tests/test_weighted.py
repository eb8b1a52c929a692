import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmfx.boundary import constant_map, corotational_map, identity_sphere_map
from hmfx.fields import MapField
from hmfx.grids import RadialGrid, SphereGrid
from hmfx.weighted import (CaloricQuadrature, caloric_extension,
                           caloric_extension_points, potential,
                           potential_radial, weighted_laplacian_field,
                           weighted_laplacian_profile)

from conftest import loglog_slope


class TestDriftOperator:
    def test_potential_eigenfunction_identity(self):
        # the potential r^2/4 + n/2 satisfies (Delta + (r/2) d_r) f = f
        for n in (3, 4, 5):
            grid = RadialGrid.graded(20.0, 0.05)
            f = potential_radial(grid.nodes, n)
            lap = weighted_laplacian_profile(f, grid, n)
            interior = slice(1, -1)
            rel = np.abs(lap - f)[interior] / np.abs(f)[interior]
            assert rel.max() < 1e-9

    @staticmethod
    def _smooth_grid(n_cells):
        # smoothly graded mesh (fixed sinh map refined in its parameter);
        # a geometric mesh has O(h) stencil asymmetry at every junction and
        # would hide the second-order truncation behavior
        xi = np.linspace(0.0, 1.0, n_cells + 1)
        return RadialGrid(20.0 * np.sinh(3.0 * xi) / np.sinh(3.0))

    def test_inverse_square_closed_form(self):
        # Delta_f r^-2 = 2(4 - n) r^-4 - r^-2; equals 1 at r = 1 for n = 3
        n = 3
        grid = self._smooth_grid(800)
        r = grid.nodes
        vals = np.where(r > 0, r, 1.0) ** -2.0
        lap = weighted_laplacian_profile(vals, grid, n)
        mask = (r >= 1.0) & (r <= 10.0)
        exact = 2.0 * (4 - n) * r[mask] ** -4 - r[mask] ** -2
        assert np.abs(lap[mask] - exact).max() < 1e-3
        i1 = np.argmin(np.abs(r - 1.0))
        # n = 3 closed-form value is 1 at r = 1
        assert lap[i1] == pytest.approx(2.0 * r[i1] ** -4 - r[i1] ** -2,
                                        abs=1e-3)

    def test_refinement_slope_on_inverse_square(self):
        n = 3
        errs, hs = [], []
        for n_cells in (200, 400, 800):
            grid = self._smooth_grid(n_cells)
            r = grid.nodes
            vals = np.where(r > 0, r, 1.0) ** -2.0
            lap = weighted_laplacian_profile(vals, grid, n)
            mask = (r >= 1.0) & (r <= 10.0)
            exact = 2.0 * (4 - n) * r[mask] ** -4 - r[mask] ** -2
            errs.append(np.abs(lap[mask] - exact).max())
            hs.append(1.0 / n_cells)
        slope = loglog_slope(hs, errs)
        assert slope >= 1.8

    def test_field_operator_matches_profile_operator(self):
        # equivariant scalar data: the full 3-d stencil must reproduce the
        # radial reduction away from the axis poles
        grid = RadialGrid.graded(10.0, 0.05)
        sphere = SphereGrid(16, 32)
        g = lambda r: np.exp(-0.3 * r**2)
        fld = MapField.from_function(
            grid, sphere,
            lambda p: g(np.linalg.norm(p, axis=-1))[..., None])
        lap_f = weighted_laplacian_field(fld)
        lap_p = weighted_laplacian_profile(g(grid.nodes), grid, 3)
        diff = np.abs(lap_f.values[1:-1, :, :, 0]
                      - lap_p[1:-1, None, None])
        assert diff.max() < 1e-4

    def test_potential_gradient(self):
        x = np.array([[1.0, 2.0, -0.5]])
        n = 3
        f = potential(x, n)
        r2 = (x**2).sum(axis=-1)
        np.testing.assert_allclose(f, r2 / 4.0 + n / 2.0)


class TestCaloricExtension:
    def test_constant_data_extends_exactly(self):
        u0 = constant_map()
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [10.0, 0.0, 0.0]])
        ext = caloric_extension_points(u0, pts)
        np.testing.assert_allclose(ext, u0(pts[1:2]).repeat(3, axis=0),
                                   atol=1e-9)

    def test_maximum_principle(self):
        u0 = identity_sphere_map()
        fld = caloric_extension(u0, RadialGrid.graded(8.0, 0.3),
                                SphereGrid(8, 16))
        assert fld.norm_samples().max() <= 1.0 + 1e-6

    def test_corotational_data_stays_corotational(self):
        # symmetry: the tangential part is radial, the last component
        # depends only on |x|
        u0 = corotational_map(0.2)
        quad = CaloricQuadrature()
        r = 3.0
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                         [0.6, 0.8, 0.0], [0.0, -1.0, 0.0]])
        ext = quad.extend(u0, r * dirs, t=1.0)
        # last component equal across directions at fixed radius
        assert np.ptp(ext[:, 3]) < 1e-10
        # tangential part parallel to the direction
        tang = ext[:, :3]
        cross = np.cross(tang, dirs)
        # the cap rule is centred on each point's own direction and the data
        # is of azimuthal degree 1 about it, which the equispaced azimuths
        # integrate exactly: the symmetry holds to rounding in every direction
        assert np.abs(cross).max() < 1e-12

    def test_constant_data_exact_across_the_cap_switch(self):
        # the polar interval shrinks from the full sphere to the cap at
        # R = cap / sqrt(2); sample densely on both sides of the switch
        u0 = constant_map()
        quad = CaloricQuadrature()
        radii = np.concatenate([np.linspace(0.0, 60.0, 241),
                                quad.cap / np.sqrt(2.0) + np.linspace(-0.3, 0.3, 61)])
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(radii.size, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs[:3] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]
        ext = quad.extend(u0, radii[:, None] * dirs, t=1.0)
        np.testing.assert_allclose(ext, u0(dirs), rtol=0.0, atol=1e-12)

    def test_identity_far_field_closed_form(self):
        # for the identity U(r w) = g(r) w, where g solves
        # g'' + (2/r + r/2) g' - 2 g / r^2 = 0 with g -> 1; g = 1 - 2/r^2
        # up to a remainder decaying like e^{-r^2/4}
        u0 = identity_sphere_map()
        quad = CaloricQuadrature()
        r = np.linspace(12.0, 60.0, 49)
        rng = np.random.default_rng(4)
        dirs = rng.normal(size=(r.size, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ext = quad.extend(u0, r[:, None] * dirs, t=1.0)
        radial = (ext * dirs).sum(axis=-1)
        np.testing.assert_allclose(radial, 1.0 - 2.0 / r**2, rtol=0.0, atol=1e-11)

    def test_self_similarity_in_time(self):
        u0 = corotational_map(0.2)
        quad = CaloricQuadrature()
        pts = np.array([[2.0, 1.0, 0.0]])
        a = quad.extend(u0, pts, t=1.0)
        b = quad.extend(u0, 2.0 * pts, t=4.0)
        np.testing.assert_allclose(a, b, atol=1e-10)

    @given(st.floats(min_value=0.3, max_value=8.0))
    @settings(max_examples=10, deadline=None)
    def test_extension_inside_convex_hull_bound(self, r):
        u0 = corotational_map(0.2)
        quad = CaloricQuadrature()
        ext = quad.extend(u0, np.array([[r, 0.0, 0.0]]), t=1.0)
        assert np.linalg.norm(ext) <= 1.0 + 1e-6
