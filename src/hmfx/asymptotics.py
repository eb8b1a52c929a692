"""Taylor expansions at infinity and convergence-rate classification.

A solution coming smoothly out of 0-homogeneous boundary data expands as
U(x) = sum_i u_i(x/|x|) |x|^{-2i}; the coefficient maps obey an explicit
recursion driven by the sphere Laplacian of the boundary map, with scalar
ledgers a_i (penalized flavor) and b_i (harmonic flavor).  The penalized
per-order solve is a rank-one perturbation of a diagonal system: the part
of the right-hand side parallel to u_0 divides by (i + 2K), the orthogonal
part by i.  Each recursion is written once, over either the S^2 samples
or the exact (p, q) reduction of corotational data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryMap
from .errors import GridError, HmfxError
from .fields import _pole_extended, _spectral_derivative, sphere_partials
from .grids import SphereGrid

MAX_ORDER = 4


# ---------------------------------------------------------------------------
# sphere operators


def sphere_laplacian(values: np.ndarray, sphere: SphereGrid) -> np.ndarray:
    """Laplace-Beltrami of samples shaped (..., n_theta, n_phi, m) on S^2.

    Spectral in both angles via the pole extension, so exact for low
    spherical harmonics up to the (tiny) aliasing of the meridian series.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-3] != sphere.n_theta or values.shape[-2] != sphere.n_phi:
        raise GridError("samples do not match the sphere grid")
    ext = _pole_extended(values)
    d1t = _spectral_derivative(ext, axis=-3, period=2.0 * np.pi)
    d2t = _spectral_derivative(d1t, axis=-3, period=2.0 * np.pi)
    d1t = d1t[..., : sphere.n_theta, :, :]
    d2t = d2t[..., : sphere.n_theta, :, :]
    d1p = _spectral_derivative(values, axis=-2, period=2.0 * np.pi)
    d2p = _spectral_derivative(d1p, axis=-2, period=2.0 * np.pi)
    st = np.sin(sphere.theta)[:, None, None]
    ct = np.cos(sphere.theta)[:, None, None]
    return d2t + (ct / st) * d1t + d2p / st**2


def sphere_gradient_inner(a: np.ndarray, b: np.ndarray,
                          sphere: SphereGrid) -> np.ndarray:
    """Pointwise <grad_S a, grad_S b>, summed over the target components."""
    at, ap = sphere_partials(np.asarray(a, dtype=float), sphere)
    bt, bp = sphere_partials(np.asarray(b, dtype=float), sphere)
    st2 = np.sin(sphere.theta)[:, None, None] ** 2
    return (at * bt).sum(axis=-1) + (ap * bp).sum(axis=-1) / st2[..., 0]


# ---------------------------------------------------------------------------
# coefficient series


@dataclass(frozen=True)
class AsymptoticSeries:
    """Coefficient maps u_0..u_k of the expansion sum u_i r^{-2i}.

    ``coefficients`` stacks the u_i along axis 0 and its last axis is the
    target component: (n_theta, n_phi, m) nodes on ``sphere``, or, for
    corotational data (``sphere`` is None), the pair (p_i, q_i) of the map
    (p_i * omega, q_i).  ``ledger`` stacks a_i or b_i the same way,
    without the component axis.
    """

    flavor: str  # 'hmf' | 'gl'
    K: float | None
    n: int
    coefficients: np.ndarray
    ledger: np.ndarray
    sphere: SphereGrid | None = None

    def __post_init__(self):
        if self.flavor not in ("hmf", "gl"):
            raise HmfxError("series flavor must be 'hmf' or 'gl'")
        if self.flavor == "gl" and (self.K is None or self.K <= 0):
            raise HmfxError("penalized series needs a positive K")
        norm = np.linalg.norm(self.coefficients[0], axis=-1)
        if np.any(np.abs(norm - 1.0) > 1e-10):
            raise HmfxError("leading coefficient must be unit-norm at every node")

    @property
    def is_equivariant(self) -> bool:
        return self.sphere is None

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        """Partial sums at radii r, shaped r.shape + one coefficient's shape."""
        r = np.asarray(r, dtype=float)
        powers = r[..., None] ** (-2.0 * np.arange(len(self.coefficients)))
        return np.tensordot(powers, self.coefficients, axes=1)

    def sup_norms(self) -> list[float]:
        """sup |u_i| for i >= 1 (decay of the coefficient ladder)."""
        norms = np.linalg.norm(self.coefficients[1:], axis=-1)
        return norms.reshape(len(norms), -1).max(axis=1).tolist()


def _backend(u0: BoundaryMap, k: int, sphere: SphereGrid | None, n: int):
    """u_0, Delta_S and <grad_S a, grad_S b> for the coefficient recursions.

    Corotational data takes the exact (p, q) reduction for any n: on
    u = (p omega, q), Delta_S = diag(-(n-1), 0) and the gradient inner
    product is (n-1) a_p b_p.  Other data is sampled on ``sphere`` (S^2,
    hence n = 3) with the spectral sphere operators.  Returns
    (u_0, laplacian, gradient_inner, sphere); sphere is None for (p, q).
    """
    if not (1 <= k <= MAX_ORDER):
        raise HmfxError(f"series order must lie in [1, {MAX_ORDER}]")
    if u0.is_corotational:
        lap = np.array([-(n - 1.0), 0.0])
        return (np.array([np.sin(u0.h_inf), np.cos(u0.h_inf)]),
                lambda u: lap * u,
                lambda a, b: (n - 1) * a[..., 0] * b[..., 0], None)
    if n != 3:
        raise GridError(f"{u0.name} is sampled on S^2, which needs n = 3 "
                        f"(got n = {n}); only corotational data takes any n")
    sphere = sphere if sphere is not None else SphereGrid()
    return (u0.sphere_samples(sphere),
            lambda u: sphere_laplacian(u, sphere),
            lambda a, b: sphere_gradient_inner(a, b, sphere), sphere)


def hmf_coefficients(u0: BoundaryMap, k: int,
                     sphere: SphereGrid | None = None,
                     n: int = 3) -> AsymptoticSeries:
    """Coefficients of the harmonic-flavor expansion, order by order:
    b_i = sum_j 4 j (i-1-j) <u_j, u_{i-1-j}> + <grad_S u_j, grad_S u_{i-1-j}>
    and i u_i = Delta_S u_{i-1} + 2 (i-1)(2i-n) u_{i-1} + sum_l b_l u_{i-l}.
    """
    first, lap, grad_inner, sphere = _backend(u0, k, sphere, n)
    u = [first]
    b = [np.zeros(first.shape[:-1])]
    for i in range(1, k + 1):
        b.append(sum(4.0 * j * (i - 1 - j) * (u[j] * u[i - 1 - j]).sum(axis=-1)
                     + grad_inner(u[j], u[i - 1 - j]) for j in range(i)))
        rhs = lap(u[i - 1]) + 2.0 * (i - 1) * (2 * i - n) * u[i - 1]
        for l in range(1, i + 1):
            rhs += b[l][..., None] * u[i - l]
        u.append(rhs / i)
    return AsymptoticSeries("hmf", None, n, np.stack(u), np.stack(b), sphere)


def gl_coefficients(u0: BoundaryMap, K: float, k: int,
                    sphere: SphereGrid | None = None,
                    n: int = 3) -> AsymptoticSeries:
    """Coefficients of the penalized expansion with strength K, with
    a_i = 2 <u_0, u_i> + sum_{0<j<i} <u_j, u_{i-j}>."""
    if K <= 0:
        raise HmfxError("penalty strength K must be positive")
    first, lap, _, sphere = _backend(u0, k, sphere, n)
    u = [first]
    a = [np.zeros(first.shape[:-1])]
    for i in range(1, k + 1):
        rhs = lap(u[i - 1]) + 2.0 * (i - 1) * (2 * i - n) * u[i - 1]
        for j in range(1, i):
            rhs -= K * a[j][..., None] * u[i - j]
            rhs -= K * (u[j] * u[i - j]).sum(axis=-1)[..., None] * first
        par = (rhs * first).sum(axis=-1)[..., None]
        u.append((rhs - par * first) / i + par * first / (i + 2.0 * K))
        a.append(sum(((u[j] * u[i - j]).sum(axis=-1) for j in range(1, i)),
                     2.0 * (first * u[i]).sum(axis=-1)))
    return AsymptoticSeries("gl", K, n, np.stack(u), np.stack(a), sphere)


def series_ode_residual(series: AsymptoticSeries, radii) -> np.ndarray:
    """Static-equation residual of an equivariant series, exact derivatives.

    The partial sums are polynomials in 1/r, so the radial derivatives are
    evaluated in closed form and the residual measures the series itself
    rather than any stencil truncation; it decays like r^{-2(k+1)}.
    Returns the stacked (psi, phi) residual components, shape (len(r), 2).
    """
    if not series.is_equivariant:
        raise HmfxError("analytic residual needs an equivariant series")
    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0.0):
        raise GridError("residual radii must be positive")
    n = series.n
    two_i = 2.0 * np.arange(len(series.coefficients))
    r_col = r[..., None]
    rp = r_col ** -two_i
    (P, Q), (dP, dQ), (d2P, d2Q) = (
        np.moveaxis(w @ series.coefficients, -1, 0)
        for w in (rp, -two_i * rp / r_col,
                  two_i * (two_i + 1.0) * rp / r_col**2))
    drift = (n - 1) / r + 0.5 * r
    lap_p = d2P + drift * dP - (n - 1) * P / r**2
    lap_q = d2Q + drift * dQ
    if series.flavor == "gl":
        pen = series.K * (1.0 - P**2 - Q**2)
        return np.stack([lap_p + pen * P, lap_q + pen * Q], axis=-1)
    grad_sq = dP**2 + dQ**2 + (n - 1) * P**2 / r**2
    return np.stack([lap_p + grad_sq * P, lap_q + grad_sq * Q], axis=-1)


# ---------------------------------------------------------------------------
# sup deviation with kink-aware direction refinement


def _tangent_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = direction / np.linalg.norm(direction)
    helper = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(d, helper)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(d, e1)


def sup_deviation(evaluate, reference, radii) -> np.ndarray:
    """sup over directions of |U(r w) - u_0(w)| at each radius.

    ``evaluate`` maps Cartesian points (..., 3) to (..., m); ``reference``
    maps unit directions likewise.  A coarse global scan locates the
    worst direction; for data with isolated kinks the peak narrows like
    1/r, so each radius refines with a local direction cluster of that
    width around the running argmax (two shrinking passes).
    """
    sph = SphereGrid(16, 32)
    radii = np.asarray(radii, dtype=float)
    order = np.argsort(radii)
    dirs = sph.directions.reshape(-1, 3)
    out = np.empty(radii.size)
    prev_center = None
    for idx in order:
        r = radii[idx]
        dev = np.linalg.norm(evaluate(r * dirs) - reference(dirs), axis=-1)
        best = float(dev.max())
        center = dirs[int(dev.argmax())]
        # seed from both the coarse argmax and the previous radius's
        # peak: a kink peak narrows like 1/r and slips between coarse
        # latitudes at large r, but barely moves in direction
        seeds = [center] if prev_center is None else [center, prev_center]
        for seed in seeds:
            local_best, local_center = best, seed
            width = min(4.0 / r, 0.5)
            for _ in range(3):
                e1, e2 = _tangent_frame(local_center)
                s = np.linspace(-width, width, 9)
                offs = (local_center[None, None, :]
                        + s[:, None, None] * e1 + s[None, :, None] * e2)
                local = offs.reshape(-1, 3)
                local /= np.linalg.norm(local, axis=1, keepdims=True)
                dev_l = np.linalg.norm(evaluate(r * local) - reference(local),
                                       axis=-1)
                if dev_l.max() > local_best:
                    local_best = float(dev_l.max())
                    local_center = local[int(dev_l.argmax())]
                width /= 4.0
            if local_best > best:
                best, center = local_best, local_center
        prev_center = center
        out[idx] = best
    return out


# ---------------------------------------------------------------------------
# rate classification


@dataclass(frozen=True)
class RateClassification:
    verdict: str  # 'super-polynomial' | 'smooth-rate' | 'lipschitz-rate' | 'unclassified'
    slope: float | None


def _loglog_slope(r: np.ndarray, values: np.ndarray,
                  floor: float = 1e-14) -> float | None:
    mask = values > floor
    if mask.sum() < 3:
        return None
    return float(np.polyfit(np.log(r[mask]), np.log(values[mask]), 1)[0])


SUPER_POLY_THRESHOLD = 1e-8
SMOOTH_SLOPE = -1.7
LIPSCHITZ_SLOPE_TOL = 0.3


def rate_classify(radii, sup_deviations,
                  coeff_threshold: float = SUPER_POLY_THRESHOLD) -> RateClassification:
    """Classify the convergence rate of a boundary deviation ladder.

    Deviations below the threshold on the whole window mean every
    polynomial coefficient vanishes (super-polynomial).  Otherwise the
    log-log slope separates the generic Lipschitz rate (about -1, probed
    by the odd power the even expansion excludes) from the smooth rate
    (-2 or steeper).
    """
    r = np.asarray(radii, dtype=float)
    dev = np.asarray(sup_deviations, dtype=float)
    if r.shape != dev.shape or r.ndim != 1:
        raise GridError("rate classification needs matched 1-d radii and deviations")
    if dev.max() < coeff_threshold:
        return RateClassification("super-polynomial", None)
    slope = _loglog_slope(r, dev)
    if slope is None:
        verdict = "unclassified"
    elif slope <= SMOOTH_SLOPE:
        verdict = "smooth-rate"
    elif abs(slope + 1.0) <= LIPSCHITZ_SLOPE_TOL:
        verdict = "lipschitz-rate"
    else:
        verdict = "unclassified"
    return RateClassification(verdict, slope)
