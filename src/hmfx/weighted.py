"""The drift potential, the weighted Laplacian and the caloric first
approximation of 0-homogeneous boundary data, a heat-kernel quadrature.

The weighted operator is Delta + (r/2) d/dr, the natural elliptic operator
for self-similar profiles; its potential |x|^2/4 + n/2 is normalized so
the operator reproduces the potential itself.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.special import erfc

from .boundary import BoundaryMap
from .errors import AccuracyError, GridError, TimeOrderError
from .fields import MapField
from .grids import RadialGrid, SphereGrid, gauss_legendre


def potential_radial(r, n: int = 3):
    r = np.asarray(r, dtype=float)
    return 0.25 * r * r + 0.5 * n


# ---------------------------------------------------------------------------
# weighted Laplacian


def weighted_laplacian_profile(values: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """Delta_f of radial profiles: u'' + ((n-1)/r + r/2) u'.

    ``values`` has the radial axis first; trailing axes are independent
    profiles.  At r = 0 the smooth-origin rule Delta u(0) = n u''(0) is
    used.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[:1] != (grid.size,):
        raise GridError("profile does not match the radial grid")
    r = grid.nodes[1:].reshape((-1,) + (1,) * (values.ndim - 1))
    d1 = grid.apply_d1(values)
    d2 = grid.apply_d2(values)
    out = np.empty_like(values)
    out[1:] = d2[1:] + ((n - 1) / r + 0.5 * r) * d1[1:]
    out[0] = n * d2[0]
    return out


def weighted_laplacian_field(field: MapField) -> MapField:
    """Delta_f of a full map field, second-order conservative stencils.

    Matches the operator discretization used by the linear Dirichlet solve,
    so fixed-point residual checks are exact statements about the solver.
    """
    n = field.n
    r = field.radial.nodes
    v = field.values
    out = weighted_laplacian_profile(v, field.radial, n)
    out[1:] += (field.sphere.stencil_laplacian(v[1:])
                / r[1:, None, None, None] ** 2)
    # origin: single physical point; Delta u(0) ~ 2n (mean_shell - u(0)) / r1^2
    shell_mean = field.sphere.mean(v[1])
    out[0] = 2.0 * n * (shell_mean - v[0, 0, 0]) / r[1] ** 2
    return field.with_values(out)


# ---------------------------------------------------------------------------
# caloric extension


def _tangent_frames(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (e1, e2), each (3, B), completing each unit vector in
    ``axes`` (3, B) (the construction of Duff et al. 2017)."""
    x, y, z = axes
    sign = np.where(z >= 0.0, 1.0, -1.0)
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.stack([1.0 + sign * x * x * a, sign * b, -sign * x])
    e2 = np.stack([b, sign + y * y * a, -y])
    return e1, e2


# points per batch.  A batch's directions and data samples take about
# 50 KiB per point; from 16 points up the allocator maps and unmaps, or
# grows and trims, its heap for every batch.  Counted with ru_minflt over
# one benchmark `caloric` op (2,762 points) in a fresh process: 13k minor
# page faults at 256 points, 16-26k at 32-64, 4.6k at 16, under 130 at 8.
# Below 8 the fixed cost of each batch's few dozen numpy calls dominates.
_CHUNK = 8


class CapRule:
    """Polar x azimuth product rule on the cap 1 - omega.e <= u_max.

    Gauss-Legendre in u = 1 - cos(gamma), whose area element is du dpsi,
    times ``n_phi`` equispaced azimuths, in a frame rotated to the axis e.
    """

    n_theta = 32
    n_phi = 32

    @cached_property
    def _polar(self) -> tuple[np.ndarray, np.ndarray]:
        x, w = gauss_legendre(self.n_theta)
        return 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]

    @cached_property
    def _azimuth(self) -> tuple[np.ndarray, np.ndarray]:
        psi = np.arange(self.n_phi) * (2.0 * np.pi / self.n_phi)
        return np.cos(psi), np.sin(psi)

    def nodes(self, axes: np.ndarray, u_max: np.ndarray):
        """Directions (B, n_theta, n_phi, 3), polar nodes u (B, n_theta) and
        weights (B, n_theta) per node row, the azimuth weight included.

        The directions are a view of a component-major (3, B, n_theta,
        n_phi) array: each component of u0(dirs) and the quadrature sum
        over nodes then read contiguous memory instead of striding over a
        trailing component axis.
        """
        xi, w_xi = self._polar
        u = u_max[:, None] * xi[None, :]
        w = (u_max * (2.0 * np.pi / self.n_phi))[:, None] * w_xi[None, :]
        axes = axes.T
        e1, e2 = _tangent_frames(axes)
        cos_psi, sin_psi = self._azimuth
        ring = cos_psi * e1[:, :, None] + sin_psi * e2[:, :, None]  # (3, B, n_phi)
        sin_g = np.sqrt(u * (2.0 - u))
        dirs = (((1.0 - u) * axes[:, :, None])[..., None]
                + sin_g[..., None] * ring[:, :, None, :])
        return np.moveaxis(dirs, 0, -1), u, w


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

    Points are processed in batches of ``_CHUNK`` (8) whose cap directions
    are stored component-major (see ``CapRule.nodes``); batches that small
    reuse the heap the allocator already holds instead of faulting in
    fresh pages for every batch.
    """

    cap = 14.0

    def __init__(self):
        self.sphere = CapRule()
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


def caloric_extension_points(u0: BoundaryMap, points: np.ndarray,
                             t: float = 1.0) -> np.ndarray:
    """Heat-kernel smoothing of the boundary data at arbitrary points."""
    return CaloricQuadrature().extend(u0, points, t=t)


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
