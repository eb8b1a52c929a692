"""Energies, monotonicity quantities, identity residuals and regularity scans.

Everything evaluates a :class:`SelfSimilarSolution` through its radial
profile at time 1 -- u(x, t) = U(x / sqrt(t)) -- so no time-stepping occurs
anywhere.  The energy density is the profile's radial density, e(x, t) =
e(|x| / sqrt(t)) / t, and the boundary density sin^2(h_inf) / |x|^2 is a
function of |x| as well.  Which rule integrates what:

- a radial function over a ball about x0 (local energies, the boundary
  mass of the tables) or against the heat kernel and cutoff about x0
  (Phi, Psi, the epsilon-regularity Psi): one axisymmetric rule about the
  axis through 0 and x0, Gauss-Legendre in s = |x - x0| times
  Gauss-Legendre in the cosine of the angle to the axis, every slice of
  one table gathered into a single density call;
- the Pohozaev slab: Gauss-Legendre in |x - c| times the band-exact
  lat-long sphere rule, on purpose, because its residual is meant to show
  the O(dtheta^2) error of those directions; the integrand is a scalar of
  the radial profile (P, P', Q, Q') at |x| / sqrt(t);
- ``gaussian_integral``: any function of points against the heat kernel,
  with the lat-long rule.

All non-explicit constants of the estimates are configured tolerances, not
theory: slack 0.05, epsilon_0 = 0.02, delta = 0.25, C = 10 by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainExceededError, HmfxError, SupportError,
                     TimeOrderError, TimeWindowError)
from .grids import SphereGrid, gauss_legendre
from .solutions import SelfSimilarSolution, _over_r
from .target import radial_bump, radial_bump_prime

DEFAULT_SLACK = 0.05
DEFAULT_EPS0 = 0.02
DEFAULT_DELTA = 0.25
DEFAULT_C = 10.0
# the table radii stay below MAX_RADIUS * sqrt(t0): Psi reaches back to t0 - 4R^2
MAX_RADIUS = 0.5


# ---------------------------------------------------------------------------
# the axisymmetric rule


_MU_NODES = 16    # Gauss-Legendre nodes in the cosine to the x0 axis
_BALL_NODES = 24  # Gauss-Legendre radii of a ball
_UNIT_BALL = 4.0 / 3.0 * np.pi


def _axisymmetric(fn, x0, rel, weights) -> np.ndarray:
    """Weighted sphere integrals about x0 of a function of |x|.

    Entry i is weights[i] times the integral over unit directions omega of
    fn(|x0 + rel[i] omega|).  In mu, the cosine of the angle between omega
    and x0, |x|^2 = |x0|^2 + 2 |x0| rel mu + rel^2, so the rule is
    Gauss-Legendre in mu; ``fn`` gets every radius in one array of shape
    (rel.size, mu nodes).
    """
    mu, w_mu = gauss_legendre(_MU_NODES)
    a = float(np.linalg.norm(x0))
    rel = np.asarray(rel, dtype=float)[:, None]
    r2 = a * a + 2.0 * a * rel * mu[None, :] + rel * rel
    vals = np.asarray(fn(np.sqrt(np.maximum(r2, 0.0))), dtype=float)
    return (vals @ (2.0 * np.pi * w_mu)) * weights


def _ball_integral(fn, x0, radius: float) -> float:
    """Integral of fn(|x|) over B(x0, radius): Gauss-Legendre in |x - x0|."""
    x_gl, w_gl = gauss_legendre(_BALL_NODES)
    s = 0.5 * radius * (x_gl + 1.0)
    return float(_axisymmetric(fn, x0, s, 0.5 * radius * w_gl * s * s).sum())


# ---------------------------------------------------------------------------
# energy densities


def pointwise_energy(sol: SelfSimilarSolution, points, t: float = 1.0) -> np.ndarray:
    """e_K at (x, t): half the gradient square plus the flavor penalty.

    Self-similarity makes it e(|x| / sqrt(t)) / t with e the profile's
    radial density (penalty (K/4)(1-|u|^2)^2 included for the quartic
    flavor).
    """
    _, r = sol.rescale(points, t)
    return sol.energy_density(r) / t


def local_energy(sol: SelfSimilarSolution, x0, t: float = 1.0) -> float:
    """Average of e_K over the unit ball around x0 at time t."""
    if t <= 0.0:
        raise TimeOrderError("self-similar evaluation needs t > 0")
    x0 = np.asarray(x0, dtype=float)
    if (np.linalg.norm(x0) + 1.0) / np.sqrt(t) > sol.domain_radius * (1 + 1e-12):
        raise DomainExceededError("probe ball leaves the profile domain at this time")
    total = _ball_integral(lambda r: sol.energy_density(r / np.sqrt(t)) / t, x0, 1.0)
    return total / _UNIT_BALL


def boundary_local_energy(sol: SelfSimilarSolution, x0) -> float:
    """Average of half the boundary-data gradient square over B(x0, 1)."""
    return _ball_integral(sol.boundary_density, x0, 1.0) / _UNIT_BALL


# ---------------------------------------------------------------------------
# Gaussian-weighted space integrals


_GAUSS_CUTOFF = 10.0


def _kernel_radial_rule(n_radial: int):
    """Nodes s and weights of the scaled radial kernel measure on [0, 10].

    The measure is (4 pi)^{-3/2} s^2 exp(-s^2/4) ds; the sphere factor
    (total 4 pi) is left to the caller.
    """
    x_gl, w_gl = gauss_legendre(n_radial)
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


def _kernel_slices(sol: SelfSimilarSolution, x0, times, taus,
                   n_radial: int = 32) -> np.ndarray:
    """Heat-kernel integrals of e_K(., t) bump(|. - x0|)^2 around x0.

    Slice k integrates at time ``times[k]`` against the kernel of variance
    scale ``taus[k]``, on the axisymmetric rule at |x - x0| = sqrt(tau) s.
    Radial nodes where the cutoff vanishes are dropped, and the remaining
    radii of all slices go to one density call.
    """
    times = np.asarray(times, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if np.any(taus <= 0.0):
        raise TimeWindowError("kernel variance scale must be positive")
    if np.any(times <= 0.0):
        raise TimeOrderError("self-similar evaluation needs t > 0")
    s, w_s = _kernel_radial_rule(n_radial)
    rel = np.sqrt(taus)[:, None] * s[None, :]      # |x - x0| per (slice, node)
    cut = radial_bump(rel) ** 2
    slice_of, node_of = np.nonzero(cut > 0.0)
    root_t = np.sqrt(times[slice_of])[:, None]

    def density(r):
        y = r / root_t
        sol.check_radii(y)
        return sol.energy_density(y)

    vals = _axisymmetric(density, x0, rel[slice_of, node_of], w_s[node_of]) \
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
                       slack: float = DEFAULT_SLACK) -> MonotonicityTable:
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

    # slices: Phi at t0 - R^2, then Psi's 8 time nodes on [t0 - 4R^2, t0 - R^2]
    x_gl, w_gl = gauss_legendre(8)
    r2 = radii * radii
    ts = t0 - r2[:, None] * (2.5 - 1.5 * x_gl[None, :])
    integrals = _kernel_slices(sol, x0, np.concatenate([t0 - r2, ts.ravel()]),
                               np.concatenate([r2, (t0 - ts).ravel()]))
    phi = r2 * integrals[:radii.size]
    psi = integrals[radii.size:].reshape(ts.shape) @ w_gl * (1.5 * r2)

    bmass = 2.0 * _ball_integral(sol.boundary_density, x0, 2.0)
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


def pohozaev_residual(sol: SelfSimilarSolution, center, t1: float = 0.5,
                      t2: float = 1.0, inner: float = 1.0, outer: float = 2.0,
                      n_time: int = 8, n_radial: int = 32,
                      sphere: SphereGrid | None = None,
                      eps: float = 1e-12) -> PohozaevReport:
    """Residual of the inner-variation identity for zeta = q(|x-c|)(x-c).

    Both sides are space-time quadratures over the slab [t1, t2] with the
    C^2 radial bump q (plateau inside ``inner``, zero past ``outer``), so
    the support condition holds by construction; grad zeta is closed form.
    The nodes are ``n_radial`` Gauss-Legendre radii s = |x - c| times the
    lat-long ``sphere`` directions, and ``n_time`` Gauss-Legendre times.

    The equivariant profile turns the integrand into scalars: with
    R = |x| / sqrt(t) and a = (x - c) . x / |x|, the radial and tangential
    gradient squares are alpha = (P'^2 + Q'^2) / t and beta = (P/R)^2 / t,
    |grad u|^2 = alpha + 2 beta, |D_{x-c} u|^2 = a^2 alpha + (s^2 - a^2)
    beta and u_t . (zeta . grad u) = -(|x| q a / 2t) alpha.  The geometry
    is built once; each time slice makes one ``sol.radial`` call, and the
    density e comes from the same (P, P', Q, Q').  The lat-long directions
    are kept, not
    the Gauss rule in the cosine of the tables: the residual is the
    directional rule's O(dtheta^2) error, which a rule exact for this
    axisymmetric integrand would hide.
    """
    if not (0.0 < t1 < t2):
        raise TimeWindowError("need 0 < t1 < t2 for the time slab")
    center = np.asarray(center, dtype=float)
    if (np.linalg.norm(center) + outer) / np.sqrt(t1) > sol.domain_radius * (1 + 1e-12):
        raise SupportError("test field support leaves the profile domain")
    sph = sphere if sphere is not None else SphereGrid(16, 32)

    # node geometry, the same at every time: x = c + s omega, r = |x|
    x_gl, w_gl = gauss_legendre(n_radial)
    s = (0.5 * outer * (x_gl + 1.0))[:, None]
    w = ((0.5 * outer * w_gl)[:, None] * s**2 * sph.weights.reshape(1, -1)).ravel()
    dirs = sph.directions.reshape(-1, 3)
    x = center + s[:, :, None] * dirs[None, :, :]
    r = np.linalg.norm(x, axis=-1)
    # a = x . (x - c) / |x| with x - c = s * direction, zero at the origin
    a = s * (x * dirs[None]).sum(axis=-1) / np.where(r > 0, r, 1.0)
    q = radial_bump(s, inner, outer)
    k = radial_bump_prime(s, inner, outer) / s   # q'(s) / s
    div_zeta = 3.0 * q + k * s * s
    lhs_coef = -0.5 * r * q * a                  # lhs = lhs_coef alpha / t
    coef_alpha = q + k * a * a                   # lie = coef_alpha alpha
    coef_beta = 2.0 * q + k * (s * s - a * a)    #     + coef_beta beta

    x_t, w_t = gauss_legendre(n_time)
    ts = 0.5 * (t2 - t1) * (x_t + 1.0) + t1
    wt = 0.5 * (t2 - t1) * w_t
    totals = np.zeros(3)
    for t, wk in zip(ts, wt):
        R = r / np.sqrt(t)
        sol.check_radii(R)
        P, dP, Q, dQ = sol.radial(R)
        alpha = (dP * dP + dQ * dQ) / t
        beta = _over_r(P, dP, R) ** 2 / t
        e_div = sol.density_of(R, P, dP, Q, dQ) / t * div_zeta
        lhs = lhs_coef * alpha / t
        lie = coef_alpha * alpha + coef_beta * beta
        vals = np.stack([lhs, e_div - lie,
                         np.abs(lhs) + np.abs(e_div) + np.abs(lie)])
        totals += wk * (vals.reshape(3, -1) @ w)
    lhs_total, rhs_total, scale_total = totals
    resid = abs(lhs_total - rhs_total) / (scale_total + eps)
    return PohozaevReport(float(lhs_total), float(rhs_total), float(scale_total),
                          float(resid), center)


# ---------------------------------------------------------------------------
# epsilon-regularity scan


@dataclass(frozen=True)
class ProbeVerdict:
    center: np.ndarray
    psi_value: float
    flagged: bool           # localized energy at least epsilon_0
    sup_energy: float | None  # sup e_K on the shrunken parabolic ball
    verified: bool | None     # sup_energy <= C (delta R)^{-2}


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
    x_gl, w_gl = gauss_legendre(6)
    out = []
    for x0 in probes:
        x0 = np.asarray(x0, dtype=float)
        lo, hi = t0 - 4.0 * R * R, t0 - R * R
        ts = 0.5 * (hi - lo) * (x_gl + 1.0) + lo
        wt = 0.5 * (hi - lo) * w_gl
        psi = float(wt @ _kernel_slices(sol, x0, ts, t0 - ts, n_radial=24))
        if psi >= eps0:
            out.append(ProbeVerdict(x0, float(psi), True, None, None))
            continue
        rad = delta * R
        sph = SphereGrid(8, 16)
        dirs = sph.directions.reshape(-1, 3)
        pts = np.concatenate([x0[None], x0[None] + 0.5 * rad * dirs,
                              x0[None] + rad * dirs], axis=0)
        sup_e = 0.0
        for t in (t0 - rad * rad, t0 - 0.5 * rad * rad, t0):
            sup_e = max(sup_e, float(pointwise_energy(sol, pts, t).max()))
        out.append(ProbeVerdict(x0, float(psi), False, sup_e,
                                sup_e <= C / rad**2))
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
# energy-inequality and tail reports


@dataclass(frozen=True)
class EnergyInequalityReport:
    times: np.ndarray
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
    return EnergyInequalityReport(times, e0, (energies - e0) / e0)
