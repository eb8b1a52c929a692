"""Energies, monotonicity quantities, identity residuals and regularity scans.

Everything evaluates a :class:`SelfSimilarSolution` through its profile at
time 1 — u(x, t) = U(x / sqrt(t)) — so no time-stepping occurs anywhere.
The energy density is the profile's radial density, e(x, t) = e(|x| /
sqrt(t)) / t.  Heat-kernel integrals of the localized density depend only
on |x| and |x - x0|, so they use an axisymmetric rule about the axis
through 0 and x0: Gauss-Legendre in s = |x - x0| / sqrt(tau) on ten
kernel radii times Gauss-Legendre in the cosine of the angle to the axis,
with every slice of one table gathered into a single density call.
Plain ball integrals use Gauss-Legendre times the band-exact sphere
rule.  All non-explicit constants of the estimates are
configured tolerances, not theory: slack 0.05, epsilon_0 = 0.02,
delta = 0.25, C = 10 by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (DomainExceededError, HmfxError, SupportError,
                     TimeOrderError, TimeWindowError)
from .fields import ball_average
from .grids import SphereGrid
from .solutions import SelfSimilarSolution
from .target import radial_bump, radial_bump_prime

DEFAULT_SLACK = 0.05
DEFAULT_EPS0 = 0.02
DEFAULT_DELTA = 0.25
DEFAULT_C = 10.0
# the table radii stay below MAX_RADIUS * sqrt(t0): Psi reaches back to t0 - 4R^2
MAX_RADIUS = 0.5


# ---------------------------------------------------------------------------
# energy densities


def pointwise_energy(sol: SelfSimilarSolution, points, t: float = 1.0) -> np.ndarray:
    """e_K at (x, t): half the gradient square plus the flavor penalty.

    Self-similarity makes it e(|x| / sqrt(t)) / t with e the profile's
    radial density (penalty (K/4)(1-|u|^2)^2 included for the quartic
    flavor).
    """
    y = sol.rescale(points, t)
    return sol.energy_density(np.linalg.norm(y, axis=-1)) / t


def local_energy(sol: SelfSimilarSolution, x0, t: float = 1.0,
                 n_radial: int = 24, sphere: SphereGrid | None = None) -> float:
    """Average of e_K over the unit ball around x0 at time t."""
    x0 = np.asarray(x0, dtype=float)
    if (np.linalg.norm(x0) + 1.0) / np.sqrt(t) > sol.domain_radius * (1 + 1e-12):
        raise DomainExceededError("probe ball leaves the profile domain at this time")
    out = ball_average(lambda p: pointwise_energy(sol, p, t)[..., None],
                       x0, 1.0, n_radial=n_radial, sphere=sphere)
    return float(out[0])


def boundary_local_energy(sol: SelfSimilarSolution, x0,
                          n_radial: int = 24,
                          sphere: SphereGrid | None = None) -> float:
    """Average of half the boundary-data gradient square over B(x0, 1)."""
    if sol.boundary_gradient_sq is None:
        raise HmfxError("solution carries no boundary gradient information")
    out = ball_average(
        lambda p: 0.5 * np.asarray(sol.boundary_gradient_sq(p))[..., None],
        np.asarray(x0, dtype=float), 1.0, n_radial=n_radial, sphere=sphere)
    return float(out[0])


# ---------------------------------------------------------------------------
# Gaussian-weighted space integrals


_GAUSS_CUTOFF = 10.0


def _kernel_radial_rule(n_radial: int):
    """Nodes s and weights of the scaled radial kernel measure on [0, 10].

    The measure is (4 pi)^{-3/2} s^2 exp(-s^2/4) ds; the sphere factor
    (total 4 pi) is left to the caller.
    """
    x_gl, w_gl = leggauss(n_radial)
    s = 0.5 * _GAUSS_CUTOFF * (x_gl + 1.0)
    return s, 0.5 * _GAUSS_CUTOFF * w_gl * (4.0 * np.pi) ** (-1.5) * s**2 \
        * np.exp(-s**2 / 4.0)


def gaussian_integral(fn, center, tau: float, n_radial: int = 32,
                      sphere: SphereGrid | None = None) -> float:
    """integral of fn(x) G(x) dx with G the heat kernel of variance scale tau.

    Scaled variable s = |x - center| / sqrt(tau): the radial measure is
    (4 pi)^{-3/2} s^2 exp(-s^2/4) ds, cut at ten kernel radii (mass error
    below 1e-10); ``fn`` maps points (..., 3) to scalars.
    """
    if tau <= 0.0:
        raise TimeWindowError("kernel variance scale must be positive")
    sph = sphere if sphere is not None else SphereGrid(16, 32)
    center = np.asarray(center, dtype=float)
    s, w_s = _kernel_radial_rule(n_radial)
    dirs = sph.directions.reshape(-1, 3)
    w_dir = sph.weights.reshape(-1)
    pts = center[None, None, :] + np.sqrt(tau) * s[:, None, None] * dirs[None, :, :]
    vals = np.asarray(fn(pts), dtype=float)
    return float(np.einsum("i,j,ij->", w_s, w_dir, vals))


_MU_NODES = 16  # Gauss-Legendre nodes in the cosine to the x0 axis


def _kernel_slices(sol: SelfSimilarSolution, x0, times, taus,
                   n_radial: int = 32) -> np.ndarray:
    """Heat-kernel integrals of e_K(., t) bump(|. - x0|)^2 around x0.

    Slice k integrates at time ``times[k]`` against the kernel of variance
    scale ``taus[k]``.  The integrand depends on |x| and |x - x0| only: in
    s = |x - x0| / sqrt(tau) and mu, the cosine of the angle between x - x0
    and x0, |x|^2 = |x0|^2 + 2 |x0| sqrt(tau) s mu + tau s^2.  Radial
    nodes where the cutoff vanishes are dropped, and the remaining radii
    of all slices go to one density call.
    """
    times = np.asarray(times, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if np.any(taus <= 0.0):
        raise TimeWindowError("kernel variance scale must be positive")
    if np.any(times <= 0.0):
        raise TimeOrderError("self-similar evaluation needs t > 0")
    s, w_s = _kernel_radial_rule(n_radial)
    mu, w_mu = leggauss(_MU_NODES)
    a = float(np.linalg.norm(x0))
    rel = np.sqrt(taus)[:, None] * s[None, :]      # |x - x0| per (slice, node)
    cut = radial_bump(rel) ** 2
    slice_of, node_of = np.nonzero(cut > 0.0)
    rel = rel[slice_of, node_of][:, None]
    r2 = a * a + 2.0 * a * rel * mu[None, :] + rel * rel
    y = np.sqrt(np.maximum(r2, 0.0)) / np.sqrt(times[slice_of])[:, None]
    sol.check_radii(y)
    e = np.asarray(sol.energy_density(y), dtype=float)
    vals = (e @ (2.0 * np.pi * w_mu)) * w_s[node_of] \
        * cut[slice_of, node_of] / times[slice_of]
    return np.bincount(slice_of, weights=vals, minlength=times.size)


# ---------------------------------------------------------------------------
# monotonicity table


@dataclass(frozen=True)
class MonotonicityTable:
    center: np.ndarray
    t0: float
    radii: np.ndarray
    phi_values: np.ndarray
    psi_values: np.ndarray
    boundary_energy: float  # squared gradient mass of u_0 over B(x0, 2)
    slack: float
    max_phi_violation: float
    max_psi_violation: float

    @property
    def budget(self) -> float:
        return self.slack * self.boundary_energy

    @property
    def phi_flagged(self) -> bool:
        return self.max_phi_violation > self.budget

    @property
    def psi_flagged(self) -> bool:
        return self.max_psi_violation > self.budget


def _max_violation(values: np.ndarray) -> float:
    """max over R < R' of value(R) - value(R') for an increasing radii axis."""
    running = np.maximum.accumulate(values)
    return float(np.maximum(0.0, (running[:-1] - values[1:])).max())


def monotonicity_table(sol: SelfSimilarSolution, z0, radii,
                       slack: float = DEFAULT_SLACK,
                       n_time: int = 8) -> MonotonicityTable:
    """Localized weighted energies against the backward heat kernel.

    Phi(R) is the space integral at the slice t0 - R^2 weighted by R^2;
    Psi(R) integrates the same density over t in [t0 - 4R^2, t0 - R^2].
    Values at increasing radii should not drop by more than the slack
    budget slack * ||grad u_0||^2_{L^2(B(x0, 2))}.
    """
    x0, t0 = z0
    x0 = np.asarray(x0, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0.0):
        raise HmfxError("radii ladder must be strictly increasing")
    if radii[-1] >= MAX_RADIUS * np.sqrt(t0):
        raise TimeWindowError(f"largest radius must stay below {MAX_RADIUS:g} sqrt(t0)")

    # slices: Phi at t0 - R^2, then Psi's time nodes on [t0 - 4R^2, t0 - R^2]
    x_gl, w_gl = leggauss(n_time)
    r2 = radii * radii
    ts = t0 - r2[:, None] * (2.5 - 1.5 * x_gl[None, :])
    integrals = _kernel_slices(sol, x0, np.concatenate([t0 - r2, ts.ravel()]),
                               np.concatenate([r2, (t0 - ts).ravel()]))
    phi = r2 * integrals[:radii.size]
    psi = integrals[radii.size:].reshape(ts.shape) @ w_gl * (1.5 * r2)

    if sol.boundary_gradient_sq is None:
        raise HmfxError("solution carries no boundary gradient information")
    vol2 = 4.0 / 3.0 * np.pi * 8.0
    bmass = vol2 * float(ball_average(
        lambda p: np.asarray(sol.boundary_gradient_sq(p))[..., None], x0, 2.0)[0])
    return MonotonicityTable(x0, float(t0), radii, phi, psi, bmass, slack,
                             _max_violation(phi), _max_violation(psi))


# ---------------------------------------------------------------------------
# Pohozaev identity residual


@dataclass(frozen=True)
class PohozaevReport:
    lhs: float
    rhs: float
    scale: float     # space-time integral of the absolute integrands
    residual: float  # |lhs - rhs| / (scale + eps)
    center: np.ndarray
    window: tuple[float, float]


def pohozaev_residual(sol: SelfSimilarSolution, center, t1: float = 0.5,
                      t2: float = 1.0, inner: float = 1.0, outer: float = 2.0,
                      n_time: int = 8, n_radial: int = 32,
                      sphere: SphereGrid | None = None,
                      eps: float = 1e-12) -> PohozaevReport:
    """Residual of the inner-variation identity for zeta = q(|x-c|)(x-c).

    Both sides are space-time quadratures over the slab [t1, t2] with the
    C^2 radial bump q (plateau inside ``inner``, zero past ``outer``), so
    the support condition holds by construction; grad zeta is closed form.
    """
    if not (0.0 < t1 < t2):
        raise TimeWindowError("need 0 < t1 < t2 for the time slab")
    center = np.asarray(center, dtype=float)
    if (np.linalg.norm(center) + outer) / np.sqrt(t1) > sol.domain_radius * (1 + 1e-12):
        raise SupportError("test field support leaves the profile domain")
    sph = sphere if sphere is not None else SphereGrid(16, 32)

    def integrand(pts, t):
        rel = pts - center
        r = np.linalg.norm(rel, axis=-1)
        q = radial_bump(r, inner, outer)
        dq = radial_bump_prime(r, inner, outer)
        r_safe = np.where(r > 0, r, 1.0)
        g = sol.gradient(pts, t)           # (..., 3, m)
        # self-similarity: u_t = -(x . grad u) / 2t
        ut = -(pts[..., :, None] * g).sum(axis=-2) / (2.0 * t)
        e = pointwise_energy(sol, pts, t)
        zeta = q[..., None] * rel
        div_zeta = 3.0 * q + dq * r
        # grad_i zeta_j = q delta_ij + (q'/r) rel_i rel_j
        gz = (zeta[..., :, None] * g).sum(axis=-2)   # directional derivative
        lhs = (ut * gz).sum(axis=-1)
        lie = q * (g * g).sum(axis=(-2, -1)) \
            + (dq / r_safe) * ((rel[..., :, None] * g).sum(axis=-2) ** 2).sum(axis=-1)
        rhs = e * div_zeta - lie
        scale = np.abs(lhs) + np.abs(e * div_zeta) + np.abs(lie)
        return lhs, rhs, scale

    x_gl, w_gl = leggauss(n_time)
    ts = 0.5 * (t2 - t1) * (x_gl + 1.0) + t1
    wt = 0.5 * (t2 - t1) * w_gl
    vol = 4.0 / 3.0 * np.pi * outer**3
    lhs_total = rhs_total = scale_total = 0.0
    for t, w in zip(ts, wt):
        avg = ball_average(lambda p: np.stack(integrand(p, t), axis=-1), center,
                           outer, n_radial=n_radial, sphere=sph)
        lhs_total += w * vol * avg[0]
        rhs_total += w * vol * avg[1]
        scale_total += w * vol * avg[2]
    resid = abs(lhs_total - rhs_total) / (scale_total + eps)
    return PohozaevReport(float(lhs_total), float(rhs_total), float(scale_total),
                          float(resid), center, (t1, t2))


# ---------------------------------------------------------------------------
# epsilon-regularity scan


@dataclass(frozen=True)
class ProbeVerdict:
    center: np.ndarray
    psi_value: float
    flagged: bool           # localized energy at least epsilon_0
    sup_energy: float | None  # sup e_K on the shrunken parabolic ball
    bound: float | None       # C (delta R)^{-2}
    verified: bool | None


def eps_regularity_scan(sol: SelfSimilarSolution, probes, R: float = 0.25,
                        eps0: float = DEFAULT_EPS0,
                        delta: float = DEFAULT_DELTA,
                        C: float = DEFAULT_C) -> list[ProbeVerdict]:
    """Mark probes (t0 = 1) whose Psi reaches eps0; verify the rest.

    Unflagged probes additionally check sup e_K over the parabolic ball of
    radius delta * R against C (delta R)^{-2} on a coarse sample.
    """
    if not (0.0 < R < 0.5):
        raise TimeWindowError("scan radius must lie in (0, 1/2)")
    t0 = 1.0
    x_gl, w_gl = leggauss(6)
    out = []
    for x0 in probes:
        x0 = np.asarray(x0, dtype=float)
        lo, hi = t0 - 4.0 * R * R, t0 - R * R
        ts = 0.5 * (hi - lo) * (x_gl + 1.0) + lo
        wt = 0.5 * (hi - lo) * w_gl
        psi = float(wt @ _kernel_slices(sol, x0, ts, t0 - ts, n_radial=24))
        if psi >= eps0:
            out.append(ProbeVerdict(x0, float(psi), True, None, None, None))
            continue
        rad = delta * R
        sph = SphereGrid(8, 16)
        dirs = sph.directions.reshape(-1, 3)
        pts = np.concatenate([x0[None], x0[None] + 0.5 * rad * dirs,
                              x0[None] + rad * dirs], axis=0)
        sup_e = 0.0
        for t in (t0 - rad * rad, t0 - 0.5 * rad * rad, t0):
            sup_e = max(sup_e, float(pointwise_energy(sol, pts, t).max()))
        bound = C / rad**2
        out.append(ProbeVerdict(x0, float(psi), False, sup_e, bound,
                                sup_e <= bound))
    return out


# ---------------------------------------------------------------------------
# Bochner-type ratio


@dataclass(frozen=True)
class BochnerReport:
    ratios: np.ndarray
    max_ratio: float
    bound: float
    passed: bool


def bochner_check(sol: SelfSimilarSolution, points, C: float = DEFAULT_C,
                  step: float = 1e-3,
                  floor: float = 1e-10) -> BochnerReport:
    """Ratio ((d/dt - Delta) e_K) / e_K^2 at sample points, t = 1.

    Self-similarity turns the parabolic operator into minus the weighted
    elliptic one plus a zero-order term: (d/dt - Delta) e = -(Delta_f e1
    + e1) at t = 1, so only the profile density e1 is differentiated
    (second-order central differences with the given step).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    e1 = lambda p: pointwise_energy(sol, p, 1.0)
    e0 = e1(pts)
    keep = e0 > floor
    pts = pts[keep]
    e0 = e0[keep]
    if pts.size == 0:
        return BochnerReport(np.empty(0), -np.inf, C, True)
    lap = np.zeros(len(pts))
    drift = np.zeros(len(pts))
    for a in range(3):
        h = np.zeros(3)
        h[a] = step
        ep = e1(pts + h)
        em = e1(pts - h)
        lap += (ep - 2.0 * e0 + em) / step**2
        drift += pts[:, a] * (ep - em) / (2.0 * step)
    ratios = -(lap + 0.5 * drift + e0) / e0**2
    max_ratio = float(ratios.max())
    return BochnerReport(ratios, max_ratio, C, max_ratio <= C)


# ---------------------------------------------------------------------------
# second-derivative (Shi-type) bound


@dataclass(frozen=True)
class ShiReport:
    lhs: float            # sup over B(x0, r/2) of |second derivative|^2
    rhs: float
    ratio: float
    grad_sup_half: float  # sup |grad U| on B(x0, r/2)
    implied_decay: float  # grad_sup_half * |x0|


def shi_bound_check(sol: SelfSimilarSolution, x0, r: float,
                    C: float = DEFAULT_C, step: float = 1e-4,
                    n_sample: int = 200) -> ShiReport:
    """Compare sup |D^2 U|^2 on the half ball with the gradient-scale bound.

    RHS = C (1 + r^{-2} + |x0|/r + sup|grad U| + sup|grad U|^2)
    * sup_{B(x0, r)} |grad U|^2; second derivatives by central differences
    of the profile gradient.
    """
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(1234)
    raw = rng.standard_normal((n_sample, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    rho = rng.random(n_sample) ** (1.0 / 3.0)
    pts_half = x0 + 0.5 * r * rho[:, None] * raw
    pts_full = x0 + r * rho[:, None] * raw

    def grad_sq(p):
        g = sol.gradient(p, 1.0)
        return (g * g).sum(axis=(-2, -1))

    sup_g2_full = float(grad_sq(pts_full).max())
    g2_half = grad_sq(pts_half)
    sup_g_half = float(np.sqrt(g2_half.max()))

    hess_sq = np.zeros(len(pts_half))
    for a in range(3):
        h = np.zeros(3)
        h[a] = step
        d = (sol.gradient(pts_half + h, 1.0) - sol.gradient(pts_half - h, 1.0)) \
            / (2.0 * step)
        hess_sq += (d * d).sum(axis=(-2, -1))
    lhs = float(hess_sq.max())
    sup_g = np.sqrt(sup_g2_full)
    rhs = C * (1.0 + r**-2 + np.linalg.norm(x0) / r + sup_g + sup_g2_full) \
        * sup_g2_full
    return ShiReport(lhs, float(rhs), lhs / rhs if rhs > 0 else np.inf,
                     sup_g_half, sup_g_half * float(np.linalg.norm(x0)))


# ---------------------------------------------------------------------------
# energy-inequality and tail reports


@dataclass(frozen=True)
class EnergyInequalityReport:
    times: np.ndarray
    local_energies: np.ndarray
    boundary_energy: float
    excesses: np.ndarray  # (E(t) - E0) / E0

    @property
    def excess_monotone(self) -> bool:
        return bool(np.all(np.diff(self.excesses[::-1]) >= -1e-12))

    def within(self, tol: float, at_index: int = -1) -> bool:
        return abs(self.excesses[at_index]) <= tol


def energy_inequality_report(sol: SelfSimilarSolution, x0,
                             times=(1.0, 0.1, 0.01, 0.001)) -> EnergyInequalityReport:
    """Local energy ladder at decreasing times against the boundary value.

    Times are expected in decreasing order; the excess over the boundary
    energy should shrink monotonically as t decreases.
    """
    times = np.asarray(times, dtype=float)
    e0 = boundary_local_energy(sol, x0)
    energies = np.array([local_energy(sol, x0, t) for t in times])
    return EnergyInequalityReport(times, energies, e0, (energies - e0) / e0)


def annulus_energies(sol: SelfSimilarSolution, radii, t: float = 1.0,
                     n_sphere: SphereGrid | None = None) -> np.ndarray:
    """Mean of e_K over the annulus [R, 2R] per ladder radius R."""
    sph = n_sphere if n_sphere is not None else SphereGrid(16, 32)
    x_gl, w_gl = leggauss(24)
    out = np.empty(len(radii))
    dirs = sph.directions.reshape(-1, 3)
    w_dir = sph.weights.reshape(-1)
    for i, R in enumerate(radii):
        rho = 0.5 * R * (x_gl + 1.0) + R
        w_rho = 0.5 * R * w_gl * rho**2
        pts = rho[:, None, None] * dirs[None, :, :]
        vals = pointwise_energy(sol, pts, t)
        volume = 4.0 / 3.0 * np.pi * ((2.0 * R) ** 3 - R**3)
        out[i] = np.einsum("i,j,ij->", w_rho, w_dir, vals) / volume
    return out
