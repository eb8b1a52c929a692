"""Self-similar solution wrappers with pointwise evaluation and gradients.

A self-similar solution is determined by its profile U at time 1 through
u(x, t) = U(x / sqrt(t)); the wrappers expose U, its spatial gradient and
the induced time derivative at arbitrary points, so every diagnostic can
quadrature against smooth callables instead of grid samples.  Every
wrapped profile is equivariant, so its gradient is closed form, its
energy density is a function e(r) of the radius alone, and the radial
profile (P, P', Q, Q') behind both is exposed for scalar integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corotational import HermiteProfile
from .errors import DomainExceededError, HmfxError, TimeOrderError


@dataclass(frozen=True)
class SelfSimilarSolution:
    """Profile-at-time-1 view of a self-similar map R^3 x (0, inf) -> R^m.

    ``profile_fn(points) -> (..., m)`` and ``profile_gradient_fn(points) ->
    (..., 3, m)`` evaluate U and its Cartesian gradient;
    ``energy_density(r)`` is the radial energy density e(r) of U, penalty
    included; ``radial(r) -> (P, P', Q, Q')`` is the equivariant profile
    behind both, U(y) = (P(|y|) y/|y|, Q(|y|)); ``flavor`` names the
    penalty ('hm' for exactly sphere-valued maps, 'gl' for the quartic one
    with strength K).
    """

    name: str
    m: int
    flavor: str  # 'hm' | 'gl'
    profile_fn: object
    profile_gradient_fn: object
    energy_density: object
    radial: object
    K: float | None = None
    domain_radius: float = np.inf
    boundary_gradient_sq: object = None  # |grad u_0|^2(x) of the boundary data

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

    def rescale(self, points, t: float) -> np.ndarray:
        """Profile points y = x / sqrt(t), checked against the domain."""
        if t <= 0.0:
            raise TimeOrderError("self-similar evaluation needs t > 0")
        y = np.asarray(points, dtype=float) / np.sqrt(t)
        self.check_radii(np.linalg.norm(y, axis=-1))
        return y

    def evaluate(self, points, t: float = 1.0) -> np.ndarray:
        """u(x, t) = U(x / sqrt(t))."""
        return np.asarray(self.profile_fn(self.rescale(points, t)), dtype=float)

    def gradient(self, points, t: float = 1.0) -> np.ndarray:
        """Spatial gradient: (grad u)(x, t) = t^{-1/2} (grad U)(x / sqrt(t))."""
        y = self.rescale(points, t)
        return np.asarray(self.profile_gradient_fn(y), dtype=float) / np.sqrt(t)

    def time_derivative(self, points, t: float = 1.0) -> np.ndarray:
        """d/dt of u(x, t) = -(1 / 2t) (y . grad U)(y), y = x / sqrt(t)."""
        y = self.rescale(points, t)
        g = np.asarray(self.profile_gradient_fn(y), dtype=float)
        return -(y[..., :, None] * g).sum(axis=-2) / (2.0 * t)


# ---------------------------------------------------------------------------
# equivariant profiles (closed-form gradients)


def _over_r(p, dp, r):
    """P / r, taking its limit P'(0) at the origin."""
    return np.where(r > 0, p / np.where(r > 0, r, 1.0), dp)


def _equivariant_fns(radial, m: int):
    """Evaluators for U(x) = (P(r) x/|x|, Q(r)).

    ``radial(r) -> (P, P', Q, Q')`` is evaluated once per call.
    """

    def polar(points):
        pts = np.asarray(points, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        r_safe = np.where(r > 0, r, 1.0)
        return r, r_safe, pts / r_safe[..., None]

    def fn(points):
        r, _, omega = polar(points)
        p, _, q, _ = radial(r)
        out = np.empty(omega.shape[:-1] + (m,))
        out[..., :3] = np.where((r > 0)[..., None], p[..., None] * omega, 0.0)
        out[..., 3:] = q[..., None]
        return out

    def grad_fn(points):
        r, _, omega = polar(points)
        p, dp, _, dq = radial(r)
        p_r = _over_r(p, dp, r)
        out = np.zeros(omega.shape[:-1] + (3, m))
        # d_j (P omega_i) = (P' - P / r) w_j w_i + (P / r) delta_ij
        out[..., :, :3] = ((dp - p_r)[..., None, None]
                           * omega[..., :, None] * omega[..., None, :])
        for i in range(3):
            out[..., i, i] += p_r
        out[..., :, 3] = dq[..., None] * omega
        return out

    return fn, grad_fn


def _conical_gradient_sq(h_inf: float):
    """|grad u_0|^2 = 2 sin^2(h_inf) / |x|^2 of corotational data at angle h_inf."""
    s2 = 2.0 * np.sin(h_inf) ** 2

    def bgrad(points):
        r2 = (np.asarray(points, dtype=float) ** 2).sum(axis=-1)
        return s2 / r2

    return bgrad


def from_angle(angle, name: str = "equivariant",
               boundary_angle: float | None = None) -> SelfSimilarSolution:
    """Sphere-valued equivariant solution from an angle profile h(r).

    ``angle(r) -> (h, h')`` evaluates the profile and its slope at radii
    together (a shooting result's Hermite profile does); each evaluation
    of U, its gradient or its energy density calls it once.  The density
    is e = (h'^2 + 2 sin^2 h / r^2) / 2.
    """

    def radial(r):
        h, dh = angle(r)
        s, c = np.sin(h), np.cos(h)
        return s, c * dh, c, -s * dh

    def density(r):
        h, dh = angle(r)
        s_r = _over_r(np.sin(h), dh, np.asarray(r, dtype=float))
        return 0.5 * (dh * dh + 2.0 * s_r * s_r)

    fn, grad_fn = _equivariant_fns(radial, 4)
    bgrad = None if boundary_angle is None else _conical_gradient_sq(boundary_angle)
    return SelfSimilarSolution(name, 4, "hm", fn, grad_fn, density, radial,
                               boundary_gradient_sq=bgrad)


def from_shooting(result, name: str | None = None) -> SelfSimilarSolution:
    """Wrap a converged angle shooting result (n = 3 profiles only)."""
    if result.profile.n != 3:
        raise HmfxError("full-space wrappers cover the n = 3 domain only")
    return from_angle(result.dense, name or f"corotational({result.h_inf:g})",
                      boundary_angle=result.h_inf)


def equator_solution() -> SelfSimilarSolution:
    """The exact constant-angle branch h = pi/2 (energy density 1/|x|^2)."""
    def angle(r):
        return np.full(np.shape(r), np.pi / 2.0), np.zeros(np.shape(r))

    return from_angle(angle, "equator", boundary_angle=np.pi / 2.0)


def constant_solution(m: int = 4) -> SelfSimilarSolution:
    point = np.zeros(m)
    point[-1] = 1.0

    def fn(points):
        pts = np.asarray(points, dtype=float)
        return np.broadcast_to(point, pts.shape[:-1] + (m,)).copy()

    def grad_fn(points):
        pts = np.asarray(points, dtype=float)
        return np.zeros(pts.shape[:-1] + (3, m))

    def density(r):
        return np.zeros(np.shape(r))

    def radial(r):
        zero = np.zeros(np.shape(r))
        return zero, zero, np.ones(np.shape(r)), zero

    return SelfSimilarSolution("constant", m, "hm", fn, grad_fn, density, radial,
                               boundary_gradient_sq=lambda p: np.zeros(
                                   np.asarray(p, dtype=float).shape[:-1]))


def from_gl_profile(profile, K: float, name: str | None = None) -> SelfSimilarSolution:
    """Wrap a converged penalized (psi, phi) collocation profile, n = 3.

    P and Q are quintic Hermite interpolants of the node values with the
    grid's 3-point first and second derivatives.  The density is
    e = (P'^2 + 2 P^2 / r^2 + Q'^2) / 2 + (K/4)(1 - P^2 - Q^2)^2
    with (P, Q) = (psi, phi).
    """
    if profile.n != 3 or profile.is_angle_form:
        raise HmfxError("needs an n = 3 profile in (psi, phi) form")
    grid = profile.grid
    hp, hq = (HermiteProfile(grid.nodes, v, grid.apply_d1(v), grid.apply_d2(v))
              for v in (profile.psi, profile.phi))

    def radial(r):
        return (*hp(r), *hq(r))

    def density(r):
        r = np.asarray(r, dtype=float)
        p, dp, q, dq = radial(r)
        p_r = _over_r(p, dp, r)
        return (0.5 * (dp * dp + 2.0 * p_r * p_r + dq * dq)
                + 0.25 * K * (1.0 - p * p - q * q) ** 2)

    fn, grad_fn = _equivariant_fns(radial, 4)
    h_inf = float(np.arctan2(profile.psi[-1], profile.phi[-1]))
    return SelfSimilarSolution(name or f"gl(K={K:g})", 4, "gl", fn, grad_fn,
                               density, radial, K=K, domain_radius=grid.r_max,
                               boundary_gradient_sq=_conical_gradient_sq(h_inf))
