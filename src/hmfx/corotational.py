"""Equivariant reduction to radial boundary-value problems.

The angle profile h of the map (sin h * x/|x|, cos h) satisfies

    h'' + ((n-1)/r + r/2) h' - ((n-1) / (2 r^2)) sin(2h) = 0,

with h(0) = 0 and a prescribed limit angle at infinity; the penalized
modulus pair (psi, phi) of the map (psi * x/|x|, phi) satisfies the
coupled system with the quartic penalty of strength K.  Shooting handles
the angle equation; a damped-Newton collocation handles the stiff
penalized system.  Individual solves are deterministic and single
threaded; parameter sweeps may run them as independent jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
import math
import warnings

import numpy as np
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg

from .asymptotics import gl_coefficients, hmf_coefficients
from .boundary import corotational_map
from .errors import (GridError, IntegrationError, NonconvergenceError,
                     NotAttainedError, PartialResultError,
                     ShootingDivergedError)
from .fields import CorotationalProfile
from .grids import RadialGrid
from .weighted import weighted_laplacian_profile

_SERIES_R0 = 1e-3
_BLOWUP = 50.0
# output spacing of each shot: the Hermite profile's nodes
_NODE_SPACING = 0.025
_ODEINT_SUCCESS = "Integration successful."
# smallest truncation radius a shot accepts
MIN_TRUNCATION_RADIUS = 20.0
# central-difference step of the defect check on the shooting profile
_DEFECT_STEP = 1e-2
_GL_MAX_ITER = 60


@lru_cache(maxsize=8)
def profile_grid(r_max: float) -> RadialGrid:
    """The graded profile grid on [0, r_max], built once per radius."""
    return RadialGrid.graded(r_max, 0.02)


# ---------------------------------------------------------------------------
# angle equation


def _hm_rhs(n: int):
    """First-order right-hand side for odeint's callback.

    It works on Python floats (``math.sin``), which costs a fraction of
    the NumPy scalar arithmetic on LSODA's tens of thousands of calls.
    """
    def rhs(r, y):
        h, dh = y.tolist()
        return (dh,
                -((n - 1) / r + 0.5 * r) * dh
                + (n - 1) / (2.0 * r * r) * math.sin(2.0 * h))
    return rhs


def _hm_d2h(n: int, r, h, dh):
    """h'' from the angle equation, on arrays (``_hm_rhs`` is the scalar copy)."""
    return -((n - 1) / r + 0.5 * r) * dh + (n - 1) / (2.0 * r * r) * np.sin(2.0 * h)


def _series_seed(a: float, n: int, r0: float) -> tuple[float, float]:
    """Regular-center expansion h = a r + c3 r^3 forced by the equation."""
    c3 = -(0.5 * a + (2.0 / 3.0) * (n - 1) * a**3) / (2.0 * n + 4.0)
    return a * r0 + c3 * r0**3, a + 3.0 * c3 * r0**2


class HermiteProfile:
    """Radial profile r -> (h(r), h'(r)) on [0, inf): piecewise quintic
    Hermite up to its last node, the far-field series past it.

    The pieces are built on fixed nodes from the node values (h, h', h''),
    so they are C^2; the shooting profile's nodes are the integrator's
    output radii, not its accepted steps, and a penalized (psi, phi)
    profile uses one per component on its collocation grid.  Past the last
    node r_N the profile is c0 + c1 r^-2 + c2 r^-4 with ``tail`` = (c1, c2)
    from the far-field recursion and ``limit`` = c0 matched to h(r_N).
    Calling it locates each radius with one ``searchsorted`` and evaluates
    h and h' together by Horner's rule.
    """

    def __init__(self, r, h, dh, d2h, tail):
        self.r, self.h, self.dh, self.d2h = (np.asarray(a, dtype=float)
                                             for a in (r, h, dh, d2h))
        dx = np.diff(self.r)
        dy = np.diff(self.h)
        d0, d1 = self.dh[:-1] * dx, self.dh[1:] * dx
        e0, e1 = self.d2h[:-1] * dx * dx, self.d2h[1:] * dx * dx
        # coefficients in s = (r - r_k) / dx_k, lowest order first
        self._coef = np.array([
            self.h[:-1], d0, 0.5 * e0,
            10.0 * dy - 6.0 * d0 - 4.0 * d1 - 0.5 * (3.0 * e0 - e1),
            -15.0 * dy + 8.0 * d0 + 7.0 * d1 + 0.5 * (3.0 * e0 - 2.0 * e1),
            6.0 * dy - 3.0 * d0 - 3.0 * d1 - 0.5 * (e0 - e1)])
        self._inv_dx = 1.0 / dx
        self.tail = tuple(float(c) for c in tail)
        x_end = self.r[-1] ** -2.0
        self.limit = float(self.h[-1] - x_end * (self.tail[0] + x_end * self.tail[1]))

    @classmethod
    def constant(cls, value: float, r_max: float) -> "HermiteProfile":
        zero = np.zeros(2)
        return cls([0.0, r_max], np.full(2, value), zero, zero, (0.0, 0.0))

    def negated(self) -> "HermiteProfile":
        """The profile of -h; rounding is sign-symmetric, so it is exact."""
        return HermiteProfile(self.r, -self.h, -self.dh, -self.d2h,
                              (-self.tail[0], -self.tail[1]))

    def __call__(self, r) -> tuple[np.ndarray, np.ndarray]:
        r = np.asarray(r, dtype=float)
        k = np.clip(np.searchsorted(self.r, r, side="right") - 1,
                    0, self._inv_dx.size - 1)
        inv_dx = self._inv_dx[k]
        s = (r - self.r[k]) * inv_dx
        c0, c1, c2, c3, c4, c5 = (c[k] for c in self._coef)
        h = c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))
        dh = (c1 + s * (2.0 * c2 + s * (3.0 * c3 + s * (4.0 * c4 + s * 5.0 * c5)))) \
            * inv_dx
        far = r > self.r[-1]
        if np.any(far):
            r_far = np.where(far, r, self.r[-1])
            x = 1.0 / (r_far * r_far)
            t1, t2 = self.tail
            h = np.where(far, self.limit + x * (t1 + x * t2), h)
            dh = np.where(far, -2.0 * x / r_far * (t1 + 2.0 * x * t2), dh)
        return h, dh


def _angle_tail(n: int, h_inf: float) -> tuple[float, float]:
    """(a1, a2) of the far-field angle h_inf + a1 r^-2 + a2 r^-4: the angle
    h = atan2(p, q) of the order-2 harmonic series (p_i, q_i) at h_inf."""
    (p0, q0), (p1, q1), (p2, q2) = hmf_coefficients(
        corotational_map(h_inf, n), 2, n=n).coefficients
    a1 = p1 * q0 - q1 * p0
    return a1, p2 * q0 - q2 * p0 - (p1 * p0 + q1 * q0) * a1


@dataclass(frozen=True)
class ShootingResult:
    """Outcome of one shooting integration of the angle equation.

    ``h_inf`` is ``dense.limit``, the constant of its far-field series.
    ``shots``, ``steps`` and ``rhs_evaluations`` are the cost of producing
    it: one shot's LSODA steps and right-hand-side calls from ``shoot_hm``,
    the totals over the whole slope search from ``solve_corot``.
    """

    profile: CorotationalProfile
    slope: float
    h_inf: float
    farfield_coeff: float
    residual_sup: float
    dense: HermiteProfile
    shots: int = 0
    steps: int = 0
    rhs_evaluations: int = 0

    def angle_at(self, r) -> np.ndarray:
        return self.dense(r)[0]

    def angle_slope_at(self, r) -> np.ndarray:
        return self.dense(r)[1]


def _constant_branch(n: int, value: float, grid: RadialGrid) -> ShootingResult:
    profile = CorotationalProfile(grid, n, angle=np.full(grid.size, value))
    return ShootingResult(profile, 0.0, value, 0.0, 0.0,
                          HermiteProfile.constant(value, grid.r_max))


def _dense_defect(dense, n: int, r: np.ndarray) -> np.ndarray:
    """ODE defect of the profile interpolant via a 5-point stencil on h'."""
    r = np.asarray(r, dtype=float)
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * _DEFECT_STEP
    w = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * _DEFECT_STEP)
    d2h = sum(wi * dense(r + oi)[1] for wi, oi in zip(w, offs))
    return np.abs(d2h - _hm_d2h(n, r, *dense(r)))


def shoot_hm(n: int, slope: float, r_max: float = 40.0) -> ShootingResult:
    """Integrate the regular angle solution with initial slope ``slope``.

    One ``odeint`` (LSODA) call (the drift term (r/2) h' makes the
    equation stiff at large r) runs from the series seed at r = 1e-3 to
    r_max + 0.1 and reports h and h' at fixed radii: r = 1e-3, then a
    uniform spacing of at most 0.025.  The profile is the quintic Hermite
    interpolant on those radii (not on LSODA's accepted steps), with h''
    from the equation and a node (0, slope, 0) at the origin.  A node with
    |h'| >= 50 is a blow-up.  A {1, r^-2} least-squares fit on the nodes in
    [r_max / 2, r_max] gives the far-field coefficient and the angle at
    which the order-2 series tail is built; the limit angle is that tail's
    constant, matched to the last node.
    """
    if r_max < MIN_TRUNCATION_RADIUS:
        raise GridError(
            f"truncation radius must be at least {MIN_TRUNCATION_RADIUS:g}")
    grid = profile_grid(r_max)
    if slope == 0.0:
        return _constant_branch(n, 0.0, grid)

    r_end = r_max + 0.1
    r = np.concatenate([[_SERIES_R0], np.linspace(
        0.0, r_end, math.ceil(r_end / _NODE_SPACING) + 1)[1:]])
    with warnings.catch_warnings():
        # a failed call is reported through info["message"] below
        warnings.simplefilter("ignore", scipy.integrate.ODEintWarning)
        y, info = scipy.integrate.odeint(
            _hm_rhs(n), _series_seed(slope, n, _SERIES_R0), r, tfirst=True,
            full_output=True, rtol=1e-12, atol=1e-13)
    if info["message"] != _ODEINT_SUCCESS:
        raise IntegrationError(
            f"LSODA failed on the angle equation for slope {slope:g} "
            f"before r = {r_end:g}: {info['message']}")
    h, dh = y[:, 0], y[:, 1]
    blown = np.flatnonzero(np.abs(dh) >= _BLOWUP)
    if blown.size:
        raise ShootingDivergedError(
            f"angle integration blew up at r = {r[blown[0]]:.3f} for slope {slope:g}")
    fit = (r >= 0.5 * r_max) & (r <= r_max)
    basis = np.stack([np.ones(fit.sum()), r[fit]**-2.0], axis=1)
    coef, *_ = np.linalg.lstsq(basis, h[fit], rcond=None)
    dense = HermiteProfile(np.concatenate([[0.0], r]),
                           np.concatenate([[0.0], h]),
                           np.concatenate([[slope], dh]),
                           np.concatenate([[0.0], _hm_d2h(n, r, h, dh)]),
                           _angle_tail(n, float(coef[0])))
    h_inf, farfield = dense.limit, float(coef[1])

    profile = CorotationalProfile(grid, n, angle=dense(grid.nodes)[0])

    r_check = grid.nodes[(grid.nodes > 0.1) & (grid.nodes < r_max - 0.1)]
    residual = float(_dense_defect(dense, n, r_check).max())
    return ShootingResult(profile, slope, h_inf, farfield, residual, dense,
                          shots=1, steps=int(info["nst"][-1]),
                          rhs_evaluations=int(info["nfe"][-1]))


def _attained_range(n: int, r_max: float) -> tuple[float, float]:
    angles = []
    for a in np.linspace(0.0, 4.0, 17):
        try:
            angles.append(shoot_hm(n, a, r_max).h_inf)
        except ShootingDivergedError:
            break
    return (min(angles), max(angles)) if angles else (0.0, 0.0)


def solve_corot(n: int, h_inf: float, r_max: float = 40.0,
                tol: float = 1e-8) -> ShootingResult:
    """Find the regular profile with prescribed limit angle by shooting.

    Constant branches (limit angle a zero of sin 2h) are returned exactly;
    otherwise the initial slope is bracketed by doubling and then found by
    Illinois regula falsi until the attained limit angle matches to
    ``tol``.  A negative limit angle is the reflection h -> -h of the
    positive solve.  The result carries the shot, step and right-hand-side
    counts of the whole search.
    """
    if abs(np.sin(2.0 * h_inf)) < 1e-14:
        return _constant_branch(n, h_inf, profile_grid(r_max))
    target = abs(h_inf)
    shots: list[ShootingResult] = []

    def attained(a: float) -> ShootingResult:
        shots.append(shoot_hm(n, a, r_max))
        return shots[-1]

    # the slope-0 shot is the constant branch h = 0, so f(0) = -target
    lo, f_lo = 0.0, -target
    hi = 0.05
    result = attained(hi)
    tries = 0
    while result.h_inf < target:
        lo, f_lo, hi = hi, result.h_inf - target, hi * 2.0
        tries += 1
        if tries > 12:
            raise NotAttainedError(
                f"limit angle {target:g} not reached by slopes up to {hi:g}",
                reachable=_attained_range(n, r_max))
        try:
            result = attained(hi)
        except ShootingDivergedError:
            raise NotAttainedError(
                f"shooting diverges before attaining limit angle {target:g}",
                reachable=_attained_range(n, r_max))
    # Illinois regula falsi; the attained angle is monotone on the bracket
    f_hi = f = result.h_inf - target
    side, iters = 0, 0
    while abs(f) >= tol:
        if iters == 200:
            raise NonconvergenceError("slope search failed to meet tolerance",
                                      last_iterate=result)
        iters += 1
        a = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        result = attained(a)
        f = result.h_inf - target
        if f > 0.0:
            hi, f_hi = a, f
            if side == 1:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = a, f
            if side == -1:
                f_hi *= 0.5
            side = -1
    result = replace(
        result, shots=len(shots), steps=sum(s.steps for s in shots),
        rhs_evaluations=sum(s.rhs_evaluations for s in shots))
    if h_inf < 0:
        prof = CorotationalProfile(result.profile.grid, n, angle=-result.profile.angle)
        result = replace(
            result, profile=prof, slope=-result.slope, h_inf=-result.h_inf,
            farfield_coeff=-result.farfield_coeff, dense=result.dense.negated())
    return result


# ---------------------------------------------------------------------------
# penalized (psi, phi) system


def gl_residual(profile: CorotationalProfile, K: float) -> np.ndarray:
    """Stacked finite-difference residuals of the penalized system (interior)."""
    if profile.is_angle_form:
        raise GridError("penalized residual needs the (psi, phi) form")
    n = profile.n
    r = profile.grid.nodes[1:-1]
    psi, phi = profile.psi, profile.phi
    lap = weighted_laplacian_profile(np.stack([psi, phi], axis=1), profile.grid, n)
    pen = K * (1.0 - psi**2 - phi**2)
    res = np.zeros((2, psi.size))
    res[0, 1:-1] = (lap[1:-1, 0] - (n - 1) * psi[1:-1] / r**2
                    + pen[1:-1] * psi[1:-1])
    res[1, 1:-1] = lap[1:-1, 1] + pen[1:-1] * phi[1:-1]
    return res.reshape(-1)


@dataclass(frozen=True)
class GlSolveInfo:
    iterations: int
    residual_sup: float
    max_modulus: float


def _gl_initial_guess(grid: RadialGrid, n: int, K: float,
                      psi_inf: float, phi_inf: float) -> tuple[np.ndarray, np.ndarray]:
    r = grid.nodes
    core = np.sqrt((n - 1) / max(K, 1.0))
    psi = psi_inf * r / np.sqrt(r * r + core * core)
    return psi, np.full_like(r, phi_inf)


def solve_gl_corot(n: int, K: float, psi_inf: float, phi_inf: float,
                   grid: RadialGrid | None = None,
                   initial: CorotationalProfile | None = None,
                   tol: float = 1e-9) -> tuple[CorotationalProfile, GlSolveInfo]:
    """Damped-Newton collocation for the penalized equivariant system.

    The default grid is ``profile_grid(40)``.  Boundary conditions:
    psi(0) = 0, phi'(0) = 0, and far-field values at r_max from the
    order-1 series of ``gl_coefficients`` (removes the O(r_max^-2)
    truncation bias).  The
    step is halved until the residual decreases, at most 30 times, in each
    of at most 60 Newton steps.
    """
    if K <= 0:
        raise GridError("penalty strength K must be positive")
    if abs(psi_inf**2 + phi_inf**2 - 1.0) > 1e-10:
        raise GridError("far-field values must lie on the unit circle")
    grid = grid if grid is not None else profile_grid(40.0)
    N = grid.size
    r = grid.nodes[1:-1]
    d1w = grid.d1_weights
    u0, u1 = gl_coefficients(corotational_map(np.arctan2(psi_inf, phi_inf), n),
                             K, 1, n=n).coefficients
    psi_bc, phi_bc = u0 + u1 / grid.r_max**2

    if initial is not None and not initial.is_angle_form:
        psi, phi = initial.psi.copy(), initial.phi.copy()
    elif initial is not None:
        psi, phi = np.sin(initial.angle), np.cos(initial.angle)
        psi[0] = 0.0
    else:
        psi, phi = _gl_initial_guess(grid, n, K, psi_inf, phi_inf)
    psi[0], psi[-1], phi[-1] = 0.0, psi_bc, phi_bc

    def residual_vec(psi, phi):
        prof = CorotationalProfile(grid, n, psi=psi, phi=phi)
        res = gl_residual(prof, K)
        res_psi, res_phi = res[:N], res[N:]
        res_psi[0] = psi[0]
        res_psi[-1] = psi[-1] - psi_bc
        # regularity at the center: one-sided phi'(0) = 0
        res_phi[0] = d1w[0, 0] * phi[0] + d1w[0, 1] * phi[1] + d1w[0, 2] * phi[2]
        res_phi[-1] = phi[-1] - phi_bc
        return res

    # Jacobian triplets: the Delta_f rows of both equations, the 2 x 2
    # penalty block of every interior node, then the boundary rows
    inner = np.arange(1, N - 1)
    stencil = grid.stencil_nodes[1:-1].ravel()
    rows = np.concatenate([np.repeat(inner, 3), np.repeat(N + inner, 3),
                           inner, inner, N + inner, N + inner,
                           [0, N - 1, N, N, N, 2 * N - 1]])
    cols = np.concatenate([stencil, N + stencil,
                           inner, N + inner, N + inner, inner,
                           [0, N - 1], N + grid.stencil_nodes[0], [2 * N - 1]])
    drift = grid.drift_weights(n).ravel()
    boundary = np.concatenate([[1.0, 1.0], d1w[0], [1.0]])

    def jacobian(psi, phi):
        psi, phi = psi[1:-1], phi[1:-1]
        pen = K * (1.0 - psi**2 - phi**2)
        cross = -2.0 * K * psi * phi
        vals = np.concatenate([drift, drift,
                               -(n - 1) / r**2 + pen - 2.0 * K * psi**2, cross,
                               pen - 2.0 * K * phi**2, cross, boundary])
        return scipy.sparse.csr_matrix(
            (vals, (rows, cols)), shape=(2 * N, 2 * N))

    res = residual_vec(psi, phi)
    res_norm = np.abs(res).max()
    iters = 0
    while res_norm > tol and iters < _GL_MAX_ITER:
        jac = jacobian(psi, phi)
        try:
            step = scipy.sparse.linalg.spsolve(jac, -res)
        except RuntimeError as exc:
            raise NonconvergenceError(f"singular collocation Jacobian: {exc}",
                                      last_iterate=(psi, phi))
        lam = 1.0
        for _ in range(30):
            psi_new = psi + lam * step[:N]
            phi_new = phi + lam * step[N:]
            res_new = residual_vec(psi_new, phi_new)
            if np.abs(res_new).max() < res_norm:
                break
            lam *= 0.5
        else:
            raise NonconvergenceError(
                "Newton stagnated (30 halvings without decrease)",
                last_iterate=CorotationalProfile(grid, n, psi=psi, phi=phi))
        if lam * np.abs(step).max() < 1e-14 and np.abs(res_new).max() > tol:
            raise NonconvergenceError(
                "Newton step collapsed before reaching tolerance",
                last_iterate=CorotationalProfile(grid, n, psi=psi, phi=phi))
        psi, phi, res, res_norm = psi_new, phi_new, res_new, np.abs(res_new).max()
        iters += 1
    if res_norm > tol:
        raise NonconvergenceError(
            f"Newton did not converge in {_GL_MAX_ITER} iterations "
            f"(residual {res_norm:.3e})",
            last_iterate=CorotationalProfile(grid, n, psi=psi, phi=phi))
    profile = CorotationalProfile(grid, n, psi=psi, phi=phi)
    return profile, GlSolveInfo(iters, float(res_norm), float(profile.modulus().max()))


# ---------------------------------------------------------------------------
# continuation


@dataclass(frozen=True)
class ContinuationRung:
    sigma: float
    K: float
    profile: CorotationalProfile
    iterations: int
    residual_sup: float


def continuation(n: int, K_ladder, h_inf: float,
                 sigma_path) -> list[ContinuationRung]:
    """Warm-started sweep over the penalty ladder and the boundary homotopy.

    The boundary angle along the path is (1 - sigma) * h_inf.  Each rung
    starts from the previous converged profile; a rung failure aborts with
    the completed prefix attached.
    """
    K_ladder = list(K_ladder)
    sigma_path = list(sigma_path)
    if any(b <= a for a, b in zip(K_ladder, K_ladder[1:])):
        raise GridError("penalty ladder must be strictly increasing")
    if any(b >= a for a, b in zip(sigma_path, sigma_path[1:])):
        raise GridError("homotopy path must be strictly decreasing")
    rungs: list[ContinuationRung] = []
    previous = None
    for K in K_ladder:
        for sigma in sigma_path:
            angle = (1.0 - sigma) * h_inf
            try:
                profile, info = solve_gl_corot(
                    n, K, np.sin(angle), np.cos(angle), initial=previous)
            except NonconvergenceError as exc:
                raise PartialResultError(
                    f"continuation failed at K={K:g}, sigma={sigma:g}: {exc}",
                    completed=rungs)
            rungs.append(ContinuationRung(sigma, K, profile, info.iterations,
                                          info.residual_sup))
            previous = profile
    return rungs
