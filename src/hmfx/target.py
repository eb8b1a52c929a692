"""Closed-form geometry of the round sphere S^{m-1} as target manifold.

Distance, projection, the plateau cutoff used by the penalized flow, the
plateau penalty force and its rank-one linearization, through which alone
the fixed-point solve sees the target.  Everything is a pure function of the ambient vector, so the
module is safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryDomainError, HmfxError, SingularPointError

# below this ambient magnitude the sphere formulas of the plateau force fail
AMBIENT_FLOOR = 1e-6


def _monotone_bridge() -> tuple[np.ndarray, np.ndarray]:
    """C^2 monotone bridge between the identity and the plateau of chi.

    In the normalized variable t on [0, 1] the derivative is
    (1 + 3t - 4t^2)(1 - t)^3: non-negative, 1 with zero slope at t = 0,
    and vanishing to second order at t = 1, with integral exactly 1/3
    (the value rise of chi over the bridge in units of its width).
    Returns monomial coefficients of (derivative, antiderivative).
    """
    poly = np.polynomial.polynomial
    dcoef = poly.polymul([1.0, 3.0, -4.0], poly.polypow([1.0, -1.0], 3))
    icoef = poly.polyint(dcoef)
    return dcoef, icoef


@dataclass(frozen=True)
class TargetSphere:
    """Round unit sphere in R^m with tubular radius ``delta`` and cutoff chi.

    chi(s) = s up to delta^2, plateaus at 2*delta^2 past (2*delta)^2, and is
    bridged in between by a C^2 monotone polynomial; monotonicity and the
    derivative bound chi' <= 1.5 are verified at construction.
    """

    m: int = 3
    delta: float = 0.25

    def __post_init__(self):
        if self.m < 2:
            raise GeometryDomainError("ambient dimension must be >= 2")
        if not (0.0 < self.delta < 1.0):
            raise GeometryDomainError("tubular radius must lie in (0, 1)")
        # construction-time verification of the bridge polynomial
        s = np.linspace(self.chi_knots[0], self.chi_knots[1], 2001)
        dchi = self.chi_prime(s)
        if np.any(dchi < -1e-12) or np.any(dchi > 1.5 + 1e-12):
            raise HmfxError("cutoff bridge violates 0 <= chi' <= 1.5")

    @property
    def chi_knots(self) -> tuple[float, float]:
        return self.delta**2, 4.0 * self.delta**2

    @cached_property
    def _bridge(self) -> tuple[np.ndarray, np.ndarray]:
        return _monotone_bridge()

    def chi(self, s):
        s = np.asarray(s, dtype=float)
        a, b = self.chi_knots
        t = np.clip((s - a) / (b - a), 0.0, 1.0)
        bridge = a + (b - a) * np.polynomial.polynomial.polyval(t, self._bridge[1])
        return np.where(s <= a, s, np.where(s >= b, 2.0 * self.delta**2, bridge))

    def chi_prime(self, s):
        s = np.asarray(s, dtype=float)
        a, b = self.chi_knots
        t = np.clip((s - a) / (b - a), 0.0, 1.0)
        bridge = np.polynomial.polynomial.polyval(t, self._bridge[0])
        return np.where(s <= a, 1.0, np.where(s >= b, 0.0, bridge))

    # -- distance and projection ------------------------------------------

    def dist_sq(self, u):
        r = np.linalg.norm(np.asarray(u, dtype=float), axis=-1)
        return (r - 1.0) ** 2

    def project(self, u):
        """Nearest-point projection u/|u|; only valid near the sphere."""
        u = np.asarray(u, dtype=float)
        r = np.linalg.norm(u, axis=-1, keepdims=True)
        if np.any(r < 1.0 - 2.0 * self.delta):
            raise GeometryDomainError("projection applied outside the tubular region")
        return u / r

    def dist_sq_gradient(self, u):
        """grad of d_N^2 / 2 at u: (|u| - 1) u / |u|; singular at u = 0."""
        u = np.asarray(u, dtype=float)
        r = np.linalg.norm(u, axis=-1, keepdims=True)
        if np.any(r < 1e-12):
            raise SingularPointError("sphere distance gradient undefined at the origin")
        return (r - 1.0) * u / r

    # -- penalty force ----------------------------------------------------

    def _plateau_factors(self, u):
        """(|u| - 1, chi'(d_N^2(u)), u / |u|) per ambient point."""
        mag = np.linalg.norm(u, axis=-1)
        if np.any(mag < AMBIENT_FLOOR):
            raise SingularPointError(
                "field magnitude below the ambient floor; sphere formulas undefined")
        return mag - 1.0, self.chi_prime((mag - 1.0) ** 2), u / mag[..., None]

    def cs_force(self, u, K: float):
        """Plateau force K chi'(d_N^2(u)) grad(d_N^2 / 2)(u)."""
        if K <= 0:
            raise GeometryDomainError("penalty strength K must be positive")
        off, chi_p, unit = self._plateau_factors(np.asarray(u, dtype=float))
        return K * chi_p[..., None] * off[..., None] * unit

    def cs_linearization(self, u0, K: float):
        """(chi'(d_N^2(u0)), u_hat = u0 / |u0|, v -> K chi' <u_hat, v> u_hat):
        the rank-one part of the plateau force's derivative at u0."""
        _, chi_p, unit = self._plateau_factors(np.asarray(u0, dtype=float))

        def apply(v):
            return K * chi_p[..., None] * (unit * v).sum(axis=-1)[..., None] * unit

        return chi_p, unit, apply


def quintic_step(s):
    """C^2 monotone step: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def quintic_step_prime(s):
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    sc = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * sc**2 * (1.0 - sc) ** 2, 0.0)


def radial_bump(r, inner: float = 1.0, outer: float = 2.0):
    """C^2 bump: 1 on [0, inner], 0 past outer, quintic transition between."""
    r = np.asarray(r, dtype=float)
    return 1.0 - quintic_step((r - inner) / (outer - inner))


def radial_bump_prime(r, inner: float = 1.0, outer: float = 2.0):
    r = np.asarray(r, dtype=float)
    return -quintic_step_prime((r - inner) / (outer - inner)) / (outer - inner)
