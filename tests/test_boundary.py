import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmfx.boundary import (_unit, builtin_boundary, constant_map,
                           corotational_map, equator_map,
                           identity_sphere_map, lipschitz_wedge_map)
from hmfx.errors import ConfigError
from hmfx.grids import SphereGrid

unit_dirs = st.lists(st.floats(min_value=-1.0, max_value=1.0),
                     min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3)


class TestBuiltins:
    @pytest.mark.parametrize("u0", [constant_map(), corotational_map(0.3),
                                    equator_map(), identity_sphere_map(),
                                    lipschitz_wedge_map()])
    def test_values_are_unit(self, u0):
        s = SphereGrid(12, 24)
        vals = u0.sphere_samples(s)
        np.testing.assert_allclose(np.linalg.norm(vals, axis=-1), 1.0,
                                   atol=1e-12)

    def test_corotational_structure(self):
        u0 = corotational_map(0.3)
        assert u0.is_corotational
        assert u0.m == 4
        w = np.array([[0.0, 0.0, 1.0]])
        val = u0(w)
        np.testing.assert_allclose(val[0, :3], np.sin(0.3) * w[0], atol=1e-14)
        assert val[0, 3] == pytest.approx(np.cos(0.3))

    def test_equator_is_corotational_right_angle(self):
        u0 = equator_map()
        assert u0.h_inf == pytest.approx(np.pi / 2.0)

    @given(unit_dirs)
    @settings(max_examples=50, deadline=None)
    def test_zero_homogeneity(self, v):
        u0 = corotational_map(0.2)
        v = np.asarray(v)
        np.testing.assert_allclose(u0(v), u0(3.7 * v), atol=1e-12)

    def test_wedge_is_continuous_at_poles(self):
        # the fold angle vanishes at both poles, so nearby directions with
        # very different azimuths must map to nearby points
        u0 = lipschitz_wedge_map()
        eps = 1e-6
        for pole in (1.0, -1.0):
            base = u0(np.array([0.0, 0.0, pole]))
            for phi in (0.0, 1.0, 2.5, 4.0):
                near = np.array([eps * np.cos(phi), eps * np.sin(phi), pole])
                assert np.linalg.norm(u0(near) - base) < 1e-5

    def test_wedge_kink_at_equator(self):
        # latitude derivative jumps across theta = pi/2
        u0 = lipschitz_wedge_map()
        eps = 1e-5
        above = u0(np.array([1.0, 0.0, eps]))
        below = u0(np.array([1.0, 0.0, -eps]))
        at = u0(np.array([1.0, 0.0, 0.0]))
        d_above = (above - at) / eps
        d_below = (at - below) / eps
        assert np.linalg.norm(d_above - d_below) > 1.0

    def test_wedge_closed_form_matches_the_fold_angle(self):
        # the definition by the fold g = min(theta, pi - theta) in spherical
        # coordinates, which the closed form (x, y, |z|) replaced
        def trig_wedge(dirs):
            w = dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
            theta = np.arccos(np.clip(w[..., 2], -1.0, 1.0))
            phi = np.arctan2(w[..., 1], w[..., 0])
            g = np.minimum(theta, np.pi - theta)
            return np.stack([np.sin(g) * np.cos(phi), np.sin(g) * np.sin(phi),
                             np.cos(g)], axis=-1)

        rng = np.random.default_rng(3)
        # arccos loses about eps / sin(theta) next to the poles, so the
        # random directions stay off them and the poles are checked exactly
        z = rng.uniform(-0.99, 0.99, 500)
        psi = rng.uniform(0.0, 2.0 * np.pi, 500)
        ring = np.sqrt(1.0 - z * z)
        dirs = np.stack([ring * np.cos(psi), ring * np.sin(psi), z], axis=-1)
        dirs *= rng.uniform(0.01, 100.0, (500, 1))  # not unit
        special = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 5.0],
                            [0.0, 0.0, -0.2], [1.0, 0.0, 0.0], [0.0, -3.0, 0.0],
                            [0.6, 0.8, 0.0], [-2.0, 2.0, 0.0]])
        dirs = np.concatenate([dirs, special]).reshape(-1, 4, 3)
        u0 = lipschitz_wedge_map()
        np.testing.assert_allclose(u0(dirs), trig_wedge(dirs), rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(u0(special[:4]), [[0.0, 0.0, 1.0]] * 4)

    def test_unit_is_bitwise_the_linalg_norm_form(self):
        rng = np.random.default_rng(4)
        dirs = rng.standard_normal((64, 8, 3)) * 10.0 ** rng.integers(-5, 6, (64, 8, 1))
        dirs[0, 0] = 0.0  # a zero vector stays zero
        r = np.linalg.norm(dirs, axis=-1, keepdims=True)
        assert np.array_equal(_unit(dirs), dirs / np.where(r > 0, r, 1.0))


class TestResolverAndCsv:
    def test_builtin_specs(self):
        assert builtin_boundary("equator").name == "equator"
        assert builtin_boundary("corotational(0.25)").h_inf == pytest.approx(0.25)
        assert builtin_boundary("constant").smoothness == "constant"

    def test_unknown_spec_raises(self):
        with pytest.raises(ConfigError):
            builtin_boundary("does-not-exist")
