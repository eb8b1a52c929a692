"""Self-similar equivariant solutions, evaluated from their radial profile.

A self-similar solution is determined by its profile U at time 1 through
u(x, t) = U(x / sqrt(t)).  Every wrapped profile is equivariant, U(y) =
(P(|y|) y/|y|, Q(|y|)), so a solution is its radial profile r -> (P, P',
Q, Q') plus the penalty flavor and the limit angle of its boundary data.
U, its gradient, its time derivative and the radial energy density e(r)
are closed-form in (P, P', Q, Q'), one profile call each; the boundary
density |grad u_0|^2 / 2 = sin^2(h_inf) / |x|^2 follows from the limit
angle alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corotational import HermiteProfile
from .errors import DomainExceededError, HmfxError, TimeOrderError


def _over_r(p, dp, r):
    """P / r, taking its limit P'(0) at the origin."""
    return np.where(r > 0, p / np.where(r > 0, r, 1.0), dp)


@dataclass(frozen=True)
class SelfSimilarSolution:
    """Profile-at-time-1 view of an equivariant map R^3 x (0, inf) -> R^4.

    ``radial(r) -> (P, P', Q, Q')`` is the profile, U(y) = (P(|y|) y/|y|,
    Q(|y|)); ``flavor`` names the penalty ('hm' for exactly sphere-valued
    maps, 'gl' for the quartic one with strength K); ``boundary_angle`` is
    the limit angle h_inf of the 0-homogeneous boundary data, None when
    unknown.
    """

    name: str
    flavor: str  # 'hm' | 'gl'
    radial: object
    K: float | None = None
    domain_radius: float = np.inf
    boundary_angle: float | None = None

    def __post_init__(self):
        if self.flavor not in ("hm", "gl"):
            raise HmfxError("solution flavor must be 'hm' or 'gl'")
        if self.flavor != "hm" and (self.K is None or self.K <= 0):
            raise HmfxError("penalized solutions need a positive K")

    def check_radii(self, r) -> None:
        """Reject profile radii |x| / sqrt(t) past the profile domain."""
        if np.any(np.asarray(r) > self.domain_radius * (1.0 + 1e-12)):
            raise DomainExceededError(
                "evaluation point leaves the profile domain after rescaling")

    def rescale(self, points, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Profile points y = x / sqrt(t) and their radii, checked against
        the domain."""
        if t <= 0.0:
            raise TimeOrderError("self-similar evaluation needs t > 0")
        y = np.asarray(points, dtype=float) / np.sqrt(t)
        r = np.linalg.norm(y, axis=-1)
        self.check_radii(r)
        return y, r

    def _polar(self, points, t: float):
        """(r, omega = y / |y|, P, P', Q, Q') at y = x / sqrt(t); omega is
        0 at the origin."""
        y, r = self.rescale(points, t)
        omega = y / np.where(r > 0, r, 1.0)[..., None]
        return (r, omega, *self.radial(r))

    def evaluate(self, points, t: float = 1.0) -> np.ndarray:
        """u(x, t) = U(x / sqrt(t)) = (P omega, Q)."""
        _, omega, p, _, q, _ = self._polar(points, t)
        return np.concatenate([p[..., None] * omega, q[..., None]], axis=-1)

    def gradient(self, points, t: float = 1.0) -> np.ndarray:
        """Spatial gradient (..., 3, 4): (grad u)(x, t) = t^{-1/2} (grad U)(y).

        d_j (P omega_i) = (P' - P/r) omega_j omega_i + (P/r) delta_ij and
        d_j Q = Q' omega_j.
        """
        r, omega, p, dp, _, dq = self._polar(points, t)
        p_r = _over_r(p, dp, r)
        out = np.zeros(omega.shape[:-1] + (3, 4))
        out[..., :, :3] = ((dp - p_r)[..., None, None]
                           * omega[..., :, None] * omega[..., None, :])
        for i in range(3):
            out[..., i, i] += p_r
        out[..., :, 3] = dq[..., None] * omega
        return out / np.sqrt(t)

    def time_derivative(self, points, t: float = 1.0) -> np.ndarray:
        """d/dt of u(x, t) = -(y . grad U)(y) / 2t = -(r / 2t)(P' omega, Q')."""
        r, omega, _, dp, _, dq = self._polar(points, t)
        return -(r / (2.0 * t))[..., None] * np.concatenate(
            [dp[..., None] * omega, dq[..., None]], axis=-1)

    def density_of(self, r, p, dp, q, dq) -> np.ndarray:
        """e = (P'^2 + Q'^2 + 2 (P/r)^2) / 2 from profile values at radii r,
        plus (K/4)(1 - P^2 - Q^2)^2 for the 'gl' flavor."""
        p_r = _over_r(p, dp, np.asarray(r, dtype=float))
        e = 0.5 * (dp * dp + dq * dq + 2.0 * p_r * p_r)
        if self.flavor == "gl":
            e = e + 0.25 * self.K * (1.0 - p * p - q * q) ** 2
        return e

    def energy_density(self, r) -> np.ndarray:
        """Radial energy density e(r) of U, penalty included; one profile call."""
        r = np.asarray(r, dtype=float)
        return self.density_of(r, *self.radial(r))

    def boundary_density(self, r) -> np.ndarray:
        """|grad u_0|^2 / 2 = sin^2(h_inf) / r^2 of the boundary data."""
        if self.boundary_angle is None:
            raise HmfxError("solution carries no boundary gradient information")
        r = np.asarray(r, dtype=float)
        return np.sin(self.boundary_angle) ** 2 / (r * r)


# ---------------------------------------------------------------------------
# constructors


def from_angle(angle, name: str = "equivariant",
               boundary_angle: float | None = None) -> SelfSimilarSolution:
    """Sphere-valued equivariant solution from an angle profile h(r).

    ``angle(r) -> (h, h')`` evaluates the profile and its slope at radii
    together (a shooting result's Hermite profile does); the radial
    profile is (P, Q) = (sin h, cos h).
    """

    def radial(r):
        h, dh = angle(r)
        s, c = np.sin(h), np.cos(h)
        return s, c * dh, c, -s * dh

    return SelfSimilarSolution(name, "hm", radial, boundary_angle=boundary_angle)


def from_shooting(result, name: str | None = None) -> SelfSimilarSolution:
    """Wrap a converged angle shooting result (n = 3 profiles only)."""
    if result.profile.n != 3:
        raise HmfxError("full-space wrappers cover the n = 3 domain only")
    return from_angle(result.dense, name or f"corotational({result.h_inf:g})",
                      boundary_angle=result.h_inf)


def _constant_angle(h: float, name: str) -> SelfSimilarSolution:
    """The exact solution h(r) = h of 0-homogeneous data at angle h."""
    def angle(r):
        return np.full(np.shape(r), h), np.zeros(np.shape(r))

    return from_angle(angle, name, boundary_angle=h)


def equator_solution() -> SelfSimilarSolution:
    """The exact constant-angle branch h = pi/2 (energy density 1/|x|^2)."""
    return _constant_angle(np.pi / 2.0, "equator")


def constant_solution() -> SelfSimilarSolution:
    """The constant map to the pole (0, 0, 0, 1)."""
    return _constant_angle(0.0, "constant")


def from_gl_profile(profile, K: float, name: str | None = None) -> SelfSimilarSolution:
    """Wrap a converged penalized (psi, phi) collocation profile, n = 3.

    P and Q are quintic Hermite interpolants of the node values with the
    grid's 3-point first and second derivatives; the boundary angle is
    that of the last node.
    """
    if profile.n != 3 or profile.is_angle_form:
        raise HmfxError("needs an n = 3 profile in (psi, phi) form")
    grid = profile.grid
    hp, hq = (HermiteProfile(grid.nodes, v, grid.apply_d1(v), grid.apply_d2(v))
              for v in (profile.psi, profile.phi))

    def radial(r):
        return (*hp(r), *hq(r))

    h_inf = float(np.arctan2(profile.psi[-1], profile.phi[-1]))
    return SelfSimilarSolution(name or f"gl(K={K:g})", "gl", radial, K=K,
                               domain_radius=grid.r_max, boundary_angle=h_inf)
