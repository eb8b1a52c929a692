import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmfx.fields import (CorotationalProfile, MapField, ball_average,
                         gradient, gradient_norm, load_field_csv, load_profile_csv,
                         save_field_csv, save_profile_csv, weighted_sup_norm,
                         x_norm)
from hmfx.grids import RadialGrid, SphereGrid


@pytest.fixture(scope="module")
def grids():
    return RadialGrid.graded(8.0, 0.1), SphereGrid(10, 20)


class TestMapField:
    def test_from_function_samples_points(self, grids):
        radial, sphere = grids
        fld = MapField.from_function(radial, sphere, lambda p: p)
        np.testing.assert_allclose(fld.values, fld.points, atol=1e-14)

    def test_constant_field(self, grids):
        radial, sphere = grids
        fld = MapField.constant(radial, sphere, [0.0, 0.0, 1.0])
        assert fld.m == 3
        np.testing.assert_allclose(fld.norm_samples(), 1.0, atol=1e-15)

    def test_gradient_of_linear_field_is_identity(self, grids):
        radial, sphere = grids
        fld = MapField.from_function(radial, sphere, lambda p: p)
        g = gradient(fld)
        expected = np.broadcast_to(np.eye(3), g.shape)
        assert np.abs(g - expected).max() < 1e-9

    def test_gradient_of_quadratic_scalar(self, grids):
        # U(x) = |x|^2 -> grad = 2x (scalar component field, m = 1)
        radial, sphere = grids
        fld = MapField.from_function(
            radial, sphere, lambda p: (p**2).sum(axis=-1, keepdims=True))
        g = gradient(fld)[..., 0]
        interior = slice(1, -1)
        err = np.abs(g - 2.0 * fld.points)[interior]
        assert err.max() < 1e-6

    @pytest.mark.parametrize("sphere", [SphereGrid(10, 20), SphereGrid(16, 32)])
    def test_gradient_norm_is_the_tensor_norm(self, grids, sphere):
        # the frame form of |grad u| against the Cartesian tensor, on a
        # smooth map and on noise (origin row included)
        radial, _ = grids
        smooth = MapField.from_function(radial, sphere, lambda p: np.stack(
            [np.sin(p[..., 0] + 0.3 * p[..., 1]), p[..., 0] * np.cos(p[..., 2]),
             np.exp(-(p**2).sum(axis=-1) / 9.0), p[..., 1] * p[..., 2]], axis=-1))
        noise = np.random.default_rng(2).standard_normal(smooth.values.shape)
        noise[0] = noise[0, 0, 0]
        for fld in (smooth, smooth.with_values(noise)):
            ref = np.sqrt((gradient(fld) ** 2).sum(axis=(-2, -1)))
            got = gradient_norm(fld)
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-14 * ref)


class TestNorms:
    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_weighted_sup_norm_homogeneous(self, c):
        radial, sphere = RadialGrid.graded(6.0, 0.2), SphereGrid(8, 16)
        fld = MapField.constant(radial, sphere, [c, 0.0, 0.0])
        base = weighted_sup_norm(MapField.constant(radial, sphere,
                                                   [1.0, 0.0, 0.0]), 1.0)
        assert weighted_sup_norm(fld, 1.0) == pytest.approx(c * base, rel=1e-12)

    def test_x_norm_zero_iff_zero(self):
        radial, sphere = RadialGrid.graded(6.0, 0.2), SphereGrid(8, 16)
        zero = MapField.constant(radial, sphere, [0.0, 0.0, 0.0])
        assert x_norm(zero) == 0.0
        assert x_norm(MapField.constant(radial, sphere, [1e-3, 0, 0])) > 0.0


class TestBallAverage:
    def test_constant(self):
        val = ball_average(lambda p: np.ones(p.shape[:-1]),
                           np.array([3.0, 0.0, 0.0]), 0.5)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_linear_function_averages_to_center_value(self):
        center = np.array([2.0, -1.0, 0.5])
        val = ball_average(lambda p: p[..., 0] + 2.0 * p[..., 2], center, 0.7)
        assert val == pytest.approx(center[0] + 2.0 * center[2], rel=1e-10)


class TestSerialization:
    def test_field_roundtrip(self, tmp_path, grids):
        radial, sphere = grids
        fld = MapField.from_function(radial, sphere, lambda p: np.sin(p))
        save_field_csv(fld, tmp_path / "f.csv")
        back = load_field_csv(tmp_path / "f.csv")
        np.testing.assert_array_equal(back.values, fld.values)
        np.testing.assert_array_equal(back.radial.nodes, radial.nodes)

    def test_profile_roundtrip(self, tmp_path):
        grid = RadialGrid.graded(10.0, 0.1)
        prof = CorotationalProfile(grid, 3, angle=0.1 * np.tanh(grid.nodes))
        save_profile_csv(prof, tmp_path / "p.csv")
        back = load_profile_csv(tmp_path / "p.csv")
        assert back.is_angle_form == prof.is_angle_form
        np.testing.assert_array_equal(back.angle, prof.angle)

    def test_deterministic_bytes(self, tmp_path, grids):
        radial, sphere = grids
        fld = MapField.from_function(radial, sphere, lambda p: np.cos(p))
        save_field_csv(fld, tmp_path / "a.csv")
        save_field_csv(fld, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("n_theta, n_phi", [(8, 16), (12, 24)])
    def test_bytes_match_the_per_row_writer(self, tmp_path, n_theta, n_phi):
        # the row-by-row csv.writer form the bulk writer replaced
        def reference(field, path):
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["r", "theta", "phi"]
                                + [f"u{c}" for c in range(field.m)])
                for i, r in enumerate(field.radial.nodes):
                    for j, th in enumerate(field.sphere.theta):
                        for k, ph in enumerate(field.sphere.phi):
                            writer.writerow([f"{r:.17g}", f"{th:.17g}", f"{ph:.17g}"]
                                            + [f"{v:.17g}" for v in field.values[i, j, k]])

        radial, sphere = RadialGrid.graded(16.0, 0.2), SphereGrid(n_theta, n_phi)
        rng = np.random.default_rng(n_theta)
        vals = rng.standard_normal((radial.size, n_theta, n_phi, 4))
        vals[..., 1] *= 10.0 ** rng.integers(-300, 301, vals.shape[:-1])
        vals[..., 2] = np.round(100.0 * vals[..., 2])  # integer-valued
        vals[0, 0, 0] = [-0.0, 1e-300, 1e300, -7.0]
        vals[-1, -1, -1] = [-1e-300, -1e300, 0.0, -0.0]
        fld = MapField(radial, sphere, vals)
        save_field_csv(fld, tmp_path / "bulk.csv")
        reference(fld, tmp_path / "rows.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
