"""Taylor expansions at infinity and convergence-rate classification.

A solution coming smoothly out of 0-homogeneous boundary data expands as
U(x) = sum_i u_i(x/|x|) |x|^{-2i}; the coefficient maps obey an explicit
recursion driven by the sphere Laplacian of the boundary map, with scalar
ledgers a_i (penalized flavor) and b_i (harmonic flavor).  The penalized
per-order solve is a rank-one perturbation of a diagonal system: the part
of the right-hand side parallel to u_0 divides by (i + 2K), the orthogonal
part by i.  Equivariant data admits a closed-form scalar route.
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

    Grid backend: each coefficient is an array (n_theta, n_phi, m) on
    ``sphere``.  Equivariant backend (``sphere`` is None): each coefficient
    is the scalar pair (p_i, q_i) of the map (p_i * omega, q_i).
    """

    flavor: str  # 'hmf' | 'gl'
    K: float | None
    n: int
    coefficients: tuple
    ledger: tuple  # a_i or b_i; scalars (equivariant) or node arrays (grid)
    sphere: SphereGrid | None = None

    def __post_init__(self):
        if self.flavor not in ("hmf", "gl"):
            raise HmfxError("series flavor must be 'hmf' or 'gl'")
        if self.flavor == "gl" and (self.K is None or self.K <= 0):
            raise HmfxError("penalized series needs a positive K")
        u0 = self.coefficients[0]
        if self.sphere is None:
            norm = np.hypot(u0[0], u0[1])
        else:
            norm = np.linalg.norm(np.asarray(u0), axis=-1)
        if np.any(np.abs(norm - 1.0) > 1e-10):
            raise HmfxError("leading coefficient must be unit-norm at every node")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_equivariant(self) -> bool:
        return self.sphere is None

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        """Partial sums at radii r: (..., n_theta, n_phi, m) or (..., 2)."""
        r = np.asarray(r, dtype=float)
        if self.is_equivariant:
            out = np.zeros(r.shape + (2,))
            for i, (p, q) in enumerate(self.coefficients):
                out[..., 0] += p * r**(-2.0 * i)
                out[..., 1] += q * r**(-2.0 * i)
            return out
        shape = np.asarray(self.coefficients[0]).shape
        out = np.zeros(r.shape + shape)
        for i, u in enumerate(self.coefficients):
            out += r.reshape(r.shape + (1,) * len(shape)) ** (-2.0 * i) * np.asarray(u)
        return out

    def sup_norms(self) -> list[float]:
        """sup |u_i| for i >= 1 (decay of the coefficient ladder)."""
        out = []
        for u in self.coefficients[1:]:
            if self.is_equivariant:
                out.append(float(np.hypot(u[0], u[1])))
            else:
                out.append(float(np.linalg.norm(np.asarray(u), axis=-1).max()))
        return out


def _check_order(k: int) -> None:
    if not (1 <= k <= MAX_ORDER):
        raise HmfxError(f"series order must lie in [1, {MAX_ORDER}]")


def hmf_coefficients(u0: BoundaryMap | np.ndarray, k: int,
                     sphere: SphereGrid | None = None,
                     n: int = 3) -> AsymptoticSeries:
    """Coefficients of the harmonic-flavor expansion, order by order.

    A corotational boundary map uses the exact scalar route for any n;
    otherwise the map is sampled on ``sphere`` (n = 3) and the recursion
    runs per node with spectral sphere derivatives.
    """
    _check_order(k)
    if isinstance(u0, BoundaryMap) and u0.is_corotational:
        return _equivariant_series("hmf", None, n, u0.h_inf, k)
    sphere = sphere if sphere is not None else SphereGrid()
    samples = u0.sphere_samples(sphere) if isinstance(u0, BoundaryMap) \
        else np.asarray(u0, dtype=float)
    u = [samples]
    b = [np.zeros(samples.shape[:-1])]
    for i in range(1, k + 1):
        b_i = np.zeros(samples.shape[:-1])
        for j in range(i):
            b_i += (4.0 * j * (i - 1 - j)
                    * (u[j] * u[i - 1 - j]).sum(axis=-1)
                    + sphere_gradient_inner(u[j], u[i - 1 - j], sphere))
        b.append(b_i)
        rhs = sphere_laplacian(u[i - 1], sphere) \
            + 2.0 * (i - 1) * (2 * i - n) * u[i - 1]
        for l in range(1, i + 1):
            rhs += b[l][..., None] * u[i - l]
        u.append(rhs / i)
    return AsymptoticSeries("hmf", None, n, tuple(u), tuple(b), sphere)


def gl_coefficients(u0: BoundaryMap | np.ndarray, K: float, k: int,
                    sphere: SphereGrid | None = None,
                    n: int = 3) -> AsymptoticSeries:
    """Coefficients of the penalized expansion with strength K."""
    _check_order(k)
    if K <= 0:
        raise HmfxError("penalty strength K must be positive")
    if isinstance(u0, BoundaryMap) and u0.is_corotational:
        return _equivariant_series("gl", K, n, u0.h_inf, k)
    sphere = sphere if sphere is not None else SphereGrid()
    samples = u0.sphere_samples(sphere) if isinstance(u0, BoundaryMap) \
        else np.asarray(u0, dtype=float)
    u = [samples]
    a = [np.zeros(samples.shape[:-1])]
    for i in range(1, k + 1):
        rhs = sphere_laplacian(u[i - 1], sphere) \
            + 2.0 * (i - 1) * (2 * i - n) * u[i - 1]
        for j in range(1, i):
            rhs -= K * a[j][..., None] * u[i - j]
            rhs -= K * (u[j] * u[i - j]).sum(axis=-1)[..., None] * u[0]
        par = (rhs * u[0]).sum(axis=-1)[..., None]
        perp = rhs - par * u[0]
        u_i = perp / i + par * u[0] / (i + 2.0 * K)
        u.append(u_i)
        a_i = 2.0 * (u[0] * u_i).sum(axis=-1)
        for j in range(1, i):
            a_i += (u[j] * u[i - j]).sum(axis=-1)
        a.append(a_i)
    return AsymptoticSeries("gl", K, n, tuple(u), tuple(a), sphere)


def _equivariant_series(flavor: str, K: float | None, n: int,
                        h_inf: float, k: int) -> AsymptoticSeries:
    """Closed-form scalar recursion for corotational boundary data.

    The sphere Laplacian acts as (p, q) -> (-(n-1) p, 0), inner products
    are p_j p_l + q_j q_l, and gradient inner products (n-1) p_j p_l.
    """
    u = [(np.sin(h_inf), np.cos(h_inf))]
    ledger = [0.0]
    for i in range(1, k + 1):
        if flavor == "hmf":
            b_i = sum(4.0 * j * (i - 1 - j)
                      * (u[j][0] * u[i - 1 - j][0] + u[j][1] * u[i - 1 - j][1])
                      + (n - 1) * u[j][0] * u[i - 1 - j][0]
                      for j in range(i))
            ledger.append(float(b_i))
            rhs_p = -(n - 1) * u[i - 1][0] + 2.0 * (i - 1) * (2 * i - n) * u[i - 1][0]
            rhs_q = 2.0 * (i - 1) * (2 * i - n) * u[i - 1][1]
            for l in range(1, i + 1):
                rhs_p += ledger[l] * u[i - l][0]
                rhs_q += ledger[l] * u[i - l][1]
            u.append((rhs_p / i, rhs_q / i))
        else:
            rhs_p = -(n - 1) * u[i - 1][0] + 2.0 * (i - 1) * (2 * i - n) * u[i - 1][0]
            rhs_q = 2.0 * (i - 1) * (2 * i - n) * u[i - 1][1]
            for j in range(1, i):
                inner = u[j][0] * u[i - j][0] + u[j][1] * u[i - j][1]
                rhs_p -= K * (ledger[j] * u[i - j][0] + inner * u[0][0])
                rhs_q -= K * (ledger[j] * u[i - j][1] + inner * u[0][1])
            par = rhs_p * u[0][0] + rhs_q * u[0][1]
            perp_p = rhs_p - par * u[0][0]
            perp_q = rhs_q - par * u[0][1]
            u.append((perp_p / i + par * u[0][0] / (i + 2.0 * K),
                      perp_q / i + par * u[0][1] / (i + 2.0 * K)))
            a_i = 2.0 * (u[0][0] * u[i][0] + u[0][1] * u[i][1])
            a_i += sum(u[j][0] * u[i - j][0] + u[j][1] * u[i - j][1]
                       for j in range(1, i))
            ledger.append(float(a_i))
    return AsymptoticSeries(flavor, K, n, tuple(u), tuple(ledger), None)


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
    P = np.zeros_like(r)
    Q = np.zeros_like(r)
    dP = np.zeros_like(r)
    dQ = np.zeros_like(r)
    d2P = np.zeros_like(r)
    d2Q = np.zeros_like(r)
    for i, (p, q) in enumerate(series.coefficients):
        rp = r**(-2.0 * i)
        P += p * rp
        Q += q * rp
        dP += -2.0 * i * p * rp / r
        dQ += -2.0 * i * q * rp / r
        d2P += 2.0 * i * (2.0 * i + 1.0) * p * rp / r**2
        d2Q += 2.0 * i * (2.0 * i + 1.0) * q * rp / r**2
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
    max_deviation: float
    diagnostics: dict


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
    max_dev = float(dev.max())
    if max_dev < coeff_threshold:
        return RateClassification("super-polynomial", None, max_dev, {})
    slope = _loglog_slope(r, dev)
    diag = {"slope": slope, "max_deviation": max_dev,
            "window": (float(r.min()), float(r.max())),
            "lipschitz_coefficient": float(np.median(dev * r))}
    if slope is None:
        return RateClassification("unclassified", None, max_dev, diag)
    if slope <= SMOOTH_SLOPE:
        return RateClassification("smooth-rate", slope, max_dev, diag)
    if abs(slope + 1.0) <= LIPSCHITZ_SLOPE_TOL:
        return RateClassification("lipschitz-rate", slope, max_dev, diag)
    return RateClassification("unclassified", slope, max_dev, diag)
