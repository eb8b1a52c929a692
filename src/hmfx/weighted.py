"""The drift potential, the weighted Laplacian and the caloric first
approximation of 0-homogeneous boundary data, a heat-kernel quadrature.

The weighted operator is Delta + (r/2) d/dr, the natural elliptic operator
for self-similar profiles; its potential |x|^2/4 + n/2 is normalized so
the operator reproduces the potential itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import erfc

from .boundary import BoundaryMap
from .errors import AccuracyError, GridError, TimeOrderError
from .fields import MapField
from .grids import RadialGrid, SphereGrid, gauss_legendre


def potential(x, n: int = 3):
    """f(x) = |x|^2 / 4 + n / 2 for Cartesian points (..., n)."""
    x = np.asarray(x, dtype=float)
    return 0.25 * (x * x).sum(axis=-1) + 0.5 * n


def potential_radial(r, n: int = 3):
    r = np.asarray(r, dtype=float)
    return 0.25 * r * r + 0.5 * n


# ---------------------------------------------------------------------------
# weighted Laplacian


def weighted_laplacian_profile(values: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """Delta_f of a radial profile: u'' + ((n-1)/r + r/2) u'.

    At r = 0 the smooth-origin rule Delta u(0) = n u''(0) is used.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise GridError("profile does not match the radial grid")
    if grid.size < 3:
        raise GridError("weighted Laplacian needs at least 3 radial nodes")
    r = grid.nodes
    d1 = grid.apply_d1(values)
    d2 = grid.apply_d2(values)
    out = np.empty_like(values)
    out[1:] = d2[1:] + ((n - 1) / r[1:] + 0.5 * r[1:]) * d1[1:]
    out[0] = n * d2[0]
    return out


def _sphere_laplacian_stencil(values: np.ndarray, sphere: SphereGrid) -> np.ndarray:
    """Conservative second-order lat-long Laplace-Beltrami on S^2.

    Fluxes through the pole faces vanish (sin(theta) = 0 there), so the
    coordinate singularity needs no special ghost values.
    """
    v = np.asarray(values, dtype=float)
    nt, nphi = sphere.n_theta, sphere.n_phi
    if v.shape[-3] != nt or v.shape[-2] != nphi:
        raise GridError("samples do not match the sphere grid")
    dt, dp = sphere.d_theta, sphere.d_phi
    theta = sphere.theta
    sin_c = np.sin(theta)
    sin_f = np.sin(theta + 0.5 * dt)  # face above row j (towards south)
    sin_f0 = np.sin(theta - 0.5 * dt)
    shape = (1,) * (v.ndim - 3) + (nt, 1, 1)
    sin_c = sin_c.reshape(shape)
    sin_f = sin_f.reshape(shape)
    sin_f0 = sin_f0.reshape(shape)

    flux_down = np.zeros_like(v)
    flux_up = np.zeros_like(v)
    flux_down[..., :-1, :, :] = (v[..., 1:, :, :] - v[..., :-1, :, :]) / dt
    flux_up[..., 1:, :, :] = (v[..., 1:, :, :] - v[..., :-1, :, :]) / dt
    lap_theta = (sin_f * flux_down - sin_f0 * flux_up) / (sin_c * dt)

    lap_phi = (np.roll(v, -1, axis=-2) - 2.0 * v + np.roll(v, 1, axis=-2)) \
        / (sin_c**2 * dp**2)
    return lap_theta + lap_phi


def weighted_laplacian_field(field: MapField) -> MapField:
    """Delta_f of a full map field, second-order conservative stencils.

    Matches the operator discretization used by the linear Dirichlet solve,
    so fixed-point residual checks are exact statements about the solver.
    """
    n = field.n
    r = field.radial.nodes
    v = field.values
    d1 = field.radial.apply_d1(v, axis=0)
    d2 = field.radial.apply_d2(v, axis=0)
    lap_s = _sphere_laplacian_stencil(v, field.sphere)

    out = np.empty_like(v)
    rr = r[1:, None, None, None]
    out[1:] = d2[1:] + ((n - 1) / rr + 0.5 * rr) * d1[1:] + lap_s[1:] / rr**2
    # origin: single physical point; Delta u(0) ~ 2n (mean_shell - u(0)) / r1^2
    shell_mean = field.sphere.mean(v[1])
    out[0] = 2.0 * n * (shell_mean - v[0, 0, 0]) / r[1] ** 2
    return field.with_values(out)


# ---------------------------------------------------------------------------
# caloric extension


def _tangent_frames(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (e1, e2) completing each unit vector in ``axes`` (B, 3)
    (the construction of Duff et al. 2017)."""
    x, y, z = axes[:, 0], axes[:, 1], axes[:, 2]
    sign = np.where(z >= 0.0, 1.0, -1.0)
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.stack([1.0 + sign * x * x * a, sign * b, -sign * x], axis=-1)
    e2 = np.stack([b, sign + y * y * a, -y], axis=-1)
    return e1, e2


# points per batch; each batch holds B x n_theta x n_phi directions
_CHUNK = 256


@dataclass(frozen=True)
class CapRule:
    """Polar x azimuth product rule on the cap 1 - omega.e <= u_max.

    Gauss-Legendre in u = 1 - cos(gamma), whose area element is du dpsi,
    times ``n_phi`` equispaced azimuths, in a frame rotated to the axis e.
    """

    n_theta: int = 32
    n_phi: int = 32

    @cached_property
    def _polar(self) -> tuple[np.ndarray, np.ndarray]:
        x, w = gauss_legendre(self.n_theta)
        return 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]

    @cached_property
    def _azimuth(self) -> np.ndarray:
        psi = np.arange(self.n_phi) * (2.0 * np.pi / self.n_phi)
        return np.stack([np.cos(psi), np.sin(psi)], axis=-1)

    def nodes(self, axes: np.ndarray, u_max: np.ndarray):
        """Directions (B, n_theta, n_phi, 3), polar nodes u (B, n_theta) and
        weights (B, n_theta) per node row, the azimuth weight included."""
        xi, w_xi = self._polar
        u = u_max[:, None] * xi[None, :]
        w = (u_max * (2.0 * np.pi / self.n_phi))[:, None] * w_xi[None, :]
        e1, e2 = _tangent_frames(axes)
        ring = (self._azimuth[None, :, 0, None] * e1[:, None, :]
                + self._azimuth[None, :, 1, None] * e2[:, None, :])  # (B, n_phi, 3)
        sin_g = np.sqrt(u * (2.0 - u))
        dirs = ((1.0 - u)[:, :, None, None] * axes[:, None, None, :]
                + sin_g[:, :, None, None] * ring[:, None, :, :])
        return dirs, u, w


class CaloricQuadrature:
    """Sphere-only rule for K_t * u0 with 0-homogeneous u0.

    With y = x / sqrt(t), R = |y| and a = y . omega, the heat kernel's
    radial factor along each ray integrates in closed form,

        U(x, t) = (4 pi)^(-3/2) int_{S^2} u0(omega) e^{-(R^2 - a^2)/4} F(a) d omega,
        F(a) = (a^2 + 2) sqrt(pi) erfc(-a/2) + 2 a e^{-a^2/4},

    so u0 is sampled on directions only.  The weight e^{-(R^2 - a^2)/4} F(a)
    increases with a and concentrates in a cap of width about 1/R around
    y / R: the ``CapRule`` covers u = 1 - cos(gamma) in [0, min(2, cap^2 /
    R^2)].  The weight it leaves out is below e^{-cap^2/8} of the total,
    and for cap = 14 constants are reproduced to 1e-13.
    The rule is exact to rounding on data whose azimuthal dependence about
    every axis is a trigonometric polynomial of degree below ``n_phi``
    (constants, corotational maps, the identity); on Lipschitz data its
    error is set by the kink.
    """

    cap = 14.0

    def __init__(self, n_theta: int = 32, n_phi: int = 32):
        self.sphere = CapRule(n_theta, n_phi)
        # the radial factor is exact, one radial node per direction: the
        # benchmark tracer counts u0 evaluations per point as
        # rho.size * sphere.n_theta * sphere.n_phi
        self.rho = np.ones(1)

    def extend(self, u0: BoundaryMap, points: np.ndarray, t: float = 1.0) -> np.ndarray:
        """Evaluate (K_t * u0)(x) for Cartesian points (..., 3)."""
        if t <= 0.0:
            raise TimeOrderError("caloric extension needs t > 0")
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1]
        y = pts.reshape(-1, 3) / np.sqrt(t)
        out = np.empty((y.shape[0], u0.m))
        for lo in range(0, y.shape[0], _CHUNK):
            block = y[lo:lo + _CHUNK]
            R = np.linalg.norm(block, axis=-1)
            axes = np.divide(block, R[:, None], out=np.zeros_like(block),
                             where=R[:, None] > 0.0)
            axes[R == 0.0, 2] = 1.0  # every axis serves at the origin
            u_max = self.cap**2 / np.maximum(R * R, 0.5 * self.cap**2)
            dirs, u, w = self.sphere.nodes(axes, u_max)
            a = R[:, None] * (1.0 - u)
            # R^2 - a^2 = R^2 u (2 - u), free of cancellation near the axis
            kernel = np.exp(-0.25 * (R * R)[:, None] * u * (2.0 - u)) * (
                (a * a + 2.0) * np.sqrt(np.pi) * erfc(-0.5 * a)
                + 2.0 * a * np.exp(-0.25 * a * a))
            out[lo:lo + _CHUNK] = np.einsum(
                "bj,bjkm->bm", (4.0 * np.pi) ** -1.5 * w * kernel, u0(dirs))
        return out.reshape(*shape, u0.m)


_DEFAULT_QUAD = None


def _default_quadrature() -> CaloricQuadrature:
    global _DEFAULT_QUAD
    if _DEFAULT_QUAD is None:
        _DEFAULT_QUAD = CaloricQuadrature()
    return _DEFAULT_QUAD


def caloric_extension_points(u0: BoundaryMap, points: np.ndarray,
                             t: float = 1.0) -> np.ndarray:
    """Heat-kernel smoothing of the boundary data at arbitrary points."""
    return _default_quadrature().extend(u0, points, t=t)


def caloric_extension(u0: BoundaryMap, radial: RadialGrid,
                      sphere: SphereGrid) -> MapField:
    """Caloric first approximation sampled on a product grid (t = 1).

    The discrete maximum principle |U0| <= max |u0| is asserted post hoc.
    """
    pts = radial.nodes[:, None, None, None] * sphere.directions[None]
    vals = caloric_extension_points(u0, pts, t=1.0)
    vals[0] = vals[0, 0, 0]
    field = MapField(radial, sphere, vals)
    bound = np.linalg.norm(u0.sphere_samples(sphere), axis=-1).max()
    if field.norm_samples().max() > bound + 1e-6:
        raise AccuracyError("caloric extension violates the discrete maximum principle")
    return field
