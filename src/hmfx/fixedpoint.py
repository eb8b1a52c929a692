"""Constructive fixed-point scheme on the full product grid (n = 3).

The correction V to a first approximation U0 of the boundary data is the
fixed point of V -> A^{-1} rhs(V), where A is the weighted Laplacian minus
the non-compact rank-one penalty linearization (kept on the left, exactly
as the construction splits it) with a zero Dirichlet condition on the
outer shell, and rhs collects the penalty nonlinearity Q plus the discrete
defect of the first approximation.  The target enters only through
``TargetSphere``'s plateau force and its rank-one linearization.  The
linear operator is never assembled: each Picard step runs GMRES on its
stencil product, with the exact inverse of its separable part, set up
once per (U0, K), as the preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .asymptotics import _loglog_slope
from .boundary import BoundaryMap, corotational_map
from .config import DEFAULTS
from .errors import ConfigError, DivergenceError, GridError, LinearSolveError
from .fields import MapField, gradient_norm, x_norm
from .grids import RadialGrid, SphereGrid
from .target import TargetSphere
from .weighted import (CaloricQuadrature, potential_radial,
                       weighted_laplacian_field)

# GMRES stops at this relative residual ||b - A x|| / ||b||
LINEAR_RTOL = 1e-12
GMRES_RESTART = 30
GMRES_MAX_CYCLES = 10
PICARD_MAX_STEPS = 40


def default_grids() -> tuple[RadialGrid, SphereGrid]:
    """The product grid of the default ``grid.fp_*`` configuration keys."""
    d = {k: float(v) for k, v in DEFAULTS.items() if k.startswith("grid.fp_")}
    return (RadialGrid.graded(d["grid.fp_r_max"], d["grid.fp_inner_spacing"]),
            SphereGrid(int(d["grid.fp_n_theta"]), int(d["grid.fp_n_phi"])))


# ---------------------------------------------------------------------------
# boundary homotopy and first approximations


def path_map(u0: BoundaryMap, sigma: float) -> BoundaryMap:
    """Geodesic interpolation from u0 (sigma = 0) to its target point (sigma = 1).

    Each value slides along the great circle towards the target point P;
    for corotational data this is exactly the angle scaling (1 - sigma) h.
    """
    if not (0.0 <= sigma <= 1.0):
        raise GridError("homotopy parameter must lie in [0, 1]")
    if u0.target_point is None:
        raise ConfigError(
            f"boundary map {u0.name!r} is not homotopic to a constant: it carries "
            "no target point for the homotopy")
    if u0.is_corotational:
        return corotational_map((1.0 - sigma) * u0.h_inf, u0.m - 1)
    P = np.asarray(u0.target_point, dtype=float)

    def fn(dirs):
        v = u0(dirs)
        cos_a = np.clip((v * P).sum(axis=-1), -1.0, 1.0)
        alpha = np.arccos(cos_a)
        perp = v - cos_a[..., None] * P
        norm = np.linalg.norm(perp, axis=-1, keepdims=True)
        perp = np.divide(perp, norm, out=np.zeros_like(perp), where=norm > 1e-14)
        beta = (1.0 - sigma) * alpha
        return np.cos(beta)[..., None] * P + np.sin(beta)[..., None] * perp

    return BoundaryMap(f"{u0.name}@sigma={sigma:g}", u0.m, fn,
                       smoothness=u0.smoothness, target_point=P)


def caloric_corotational_field(u0: BoundaryMap, radial: RadialGrid,
                               sphere: SphereGrid) -> MapField:
    """Heat-kernel first approximation of corotational data, symmetry-fast.

    The smoothing of (sin h * omega, cos h) is itself of the form
    (P(r) omega, Q(r)), so one kernel quadrature per radius suffices; the
    field is then assembled in closed form on the product grid.
    """
    if not u0.is_corotational or u0.m != 4:
        raise GridError("symmetric extension needs corotational data into S^3")
    probes = np.zeros((radial.size, 3))
    probes[:, 2] = radial.nodes
    vals = CaloricQuadrature().extend(u0, probes, t=1.0)  # (Nr, 4): (0, 0, P, Q)
    P, Q = vals[:, 2], vals[:, 3]
    dirs = sphere.directions
    out = np.empty((radial.size, sphere.n_theta, sphere.n_phi, 4))
    out[..., :3] = P[:, None, None, None] * dirs[None]
    out[..., 3] = Q[:, None, None]
    out[0, ..., :3] = 0.0
    return MapField(radial, sphere, out)


# ---------------------------------------------------------------------------
# penalty right-hand side


def assemble_Q(U0: MapField, V: MapField, K: float, lin=None) -> MapField:
    """Penalty nonlinearity Q(U0, V) of the fixed-point splitting.

    Q = -K chi'(d^2(U0)) <u_hat, V> u_hat
        + K chi'(d^2(U0 + V)) (|U0 + V| - 1)(U0 + V)/|U0 + V|,
    with u_hat = U0/|U0|; the first term cancels the linearization kept on
    the operator side.  ``lin`` is that linearization when the caller
    already holds it (``LinearizedOperator.lin``).
    """
    target = TargetSphere()
    if lin is None:
        *_, lin = target.cs_linearization(U0.values, K)
    full = target.cs_force(U0.values + V.values, K)
    return U0.with_values(full - lin(V.values))


def assemble_rhs(U0: MapField, V: MapField, K: float,
                 extension_defect: MapField | None = None,
                 lin=None) -> MapField:
    """Q plus the discrete defect -Delta_f U0 of the first approximation.

    The continuum heat-kernel approximation is annihilated by the weighted
    Laplacian; its discrete defect is kept on the right-hand side so the
    Picard limit solves the discrete static equation exactly.
    """
    q = assemble_Q(U0, V, K, lin)
    defect = extension_defect if extension_defect is not None \
        else weighted_laplacian_field(U0)
    return q.with_values(q.values - defect.values)


# ---------------------------------------------------------------------------
# linear Dirichlet operator


class SeparableInverse:
    """Exact inverse of Delta_f - S for a constant symmetric m x m matrix S.

    Same stencils and zero outer shell as ``weighted_laplacian_field``.
    The eigenbasis of S decouples the components into Delta_f - mu, and
    the sphere stencil's eigenmodes (``SphereGrid.stencil_modes``) leave
    one radial tridiagonal system per (phi mode, theta eigenvalue).  The
    origin only sees the constant sphere mode, through the shell mean: it
    is row 0 of that mode's radial system and an identity row in every
    other mode.
    """

    def __init__(self, radial: RadialGrid, sphere: SphereGrid, n: int,
                 shift: np.ndarray):
        lam, self._Q, self._s = sphere.stencil_modes
        # a constant shell value v0 has coefficient alpha * v0 in the
        # constant mode (the last of k = 0), and the shell mean is that
        # coefficient / alpha
        self._alpha = sphere.n_phi * float(self._Q[0, :, -1] @ self._s)
        self._n_phi = sphere.n_phi

        mu, self._P = np.linalg.eigh(shift)
        r = radial.nodes[1:-1]
        rad = radial.drift_weights(n)
        coeff0 = 2.0 * n / radial.nodes[1] ** 2
        rows = np.arange(1, radial.size - 1)  # row 0 is the origin slot
        mats = np.zeros(lam.shape + (mu.size, rows.size + 1, rows.size + 1))
        mats[..., rows, rows - 1] = rad[:, 0]
        mats[..., rows, rows] = rad[:, 1] + lam[:, :, None, None] / r**2 - mu[:, None]
        mats[..., rows[:-1], rows[:-1] + 1] = rad[:-1, 2]
        mats[..., 0, 0] = 1.0
        mats[0, -1, :, 0, 0] = -(coeff0 + mu)
        mats[0, -1, :, 0, 1] = coeff0
        self._inv = np.linalg.inv(mats)

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        """Solution for a packed right-hand side (origin, interior shells)."""
        n_modes, nt, m = self._inv.shape[:3]
        shells = vec[m:].reshape(-1, nt, self._n_phi, m) @ self._P
        # (phi mode, theta row, component, shell)
        spec = np.fft.rfft(shells, axis=2).transpose(2, 1, 3, 0) \
            * self._s[:, None, None]
        rhs = np.zeros(spec.shape[:3] + (spec.shape[3] + 1,), dtype=complex)
        rhs[..., 1:] = (self._Q.transpose(0, 2, 1)
                        @ spec.reshape(n_modes, nt, -1)).reshape(spec.shape)
        rhs[0, -1, :, 0] = self._alpha * (vec[:m] @ self._P)
        sol = self._inv @ np.stack([rhs.real, rhs.imag], axis=-1)
        sol = sol[..., 0] + 1j * sol[..., 1]
        spec = (self._Q @ sol[..., 1:].reshape(n_modes, nt, -1)) \
            .reshape(spec.shape) / self._s[:, None, None]
        shells = np.fft.irfft(spec.transpose(3, 1, 0, 2), n=self._n_phi, axis=2)
        origin = sol[0, -1, :, 0].real / self._alpha
        return np.concatenate([origin @ self._P.T,
                               (shells @ self._P.T).reshape(-1)])


class LinearizedOperator:
    """Discrete Delta_f - K chi' <u_hat, .> u_hat with a zero outer shell.

    Unknowns: the origin vector plus every interior shell node.  Matrix
    free: the product is ``apply`` and ``solve`` runs GMRES preconditioned
    by ``SeparableInverse`` with the penalty replaced by its grid mean.
    """

    def __init__(self, U0: MapField, K: float):
        if K <= 0:
            raise GridError("penalty strength K must be positive")
        self.U0 = U0
        chi0, uhat, self.lin = TargetSphere().cs_linearization(U0.values, K)
        N, nt, nph, m = self._shape = U0.values.shape
        self.n_unknown = m + (N - 2) * nt * nph * m
        self.iterations: list[int] = []  # GMRES iterations per solve
        # sphere-weighted mean of K chi' u_hat u_hat^T over interior shells
        w = chi0[1:-1] * U0.sphere.weights / (4.0 * np.pi * (N - 2))
        shift = K * np.einsum("ijk,ijka,ijkb->ab", w, uhat[1:-1], uhat[1:-1])
        shape = (self.n_unknown, self.n_unknown)
        self._A = scipy.sparse.linalg.LinearOperator(
            shape, lambda x: self._pack(self.apply(self._unpack(x))))
        self._M = scipy.sparse.linalg.LinearOperator(
            shape, SeparableInverse(U0.radial, U0.sphere, U0.n, shift))

    def _pack(self, field: MapField) -> np.ndarray:
        v = field.values
        out = np.empty(self.n_unknown)
        out[: v.shape[-1]] = v[0, 0, 0]
        out[v.shape[-1]:] = v[1:-1].reshape(-1)
        return out

    def _unpack(self, vec: np.ndarray) -> MapField:
        N, nt, nph, m = self._shape
        vals = np.zeros((N, nt, nph, m))
        vals[0] = vec[:m]
        vals[1:-1] = vec[m:].reshape(N - 2, nt, nph, m)
        return self.U0.with_values(vals)

    def solve(self, rhs: MapField, guess: MapField | None = None) -> MapField:
        """W with A W = rhs in the interior, W = 0 on the outer shell.

        GMRES starts from ``guess`` (zero when None); its stopping rule
        ||rhs - A W|| <= LINEAR_RTOL ||rhs|| does not depend on the start.
        """
        count = 0

        def tick(_):
            nonlocal count
            count += 1

        x0 = None if guess is None else self._pack(guess)
        sol, info = scipy.sparse.linalg.gmres(
            self._A, self._pack(rhs), x0, M=self._M, rtol=LINEAR_RTOL, atol=0.0,
            restart=GMRES_RESTART, maxiter=GMRES_MAX_CYCLES, callback=tick,
            callback_type="pr_norm")
        self.iterations.append(count)
        if info != 0:
            raise LinearSolveError(
                f"GMRES missed relative residual {LINEAR_RTOL:g} "
                f"after {count} iterations")
        if not np.all(np.isfinite(sol)):
            raise LinearSolveError("linear solve produced non-finite entries")
        return self._unpack(sol)

    def apply(self, field: MapField) -> MapField:
        """Forward product A field (the outer shell row is not meaningful)."""
        lap = weighted_laplacian_field(field)
        return field.with_values(lap.values - self.lin(field.values))


def solve_linear_dirichlet(Q: MapField, op: LinearizedOperator,
                           guess: MapField) -> tuple[MapField, float]:
    """Solve the linearized Dirichlet problem from the starting ``guess``;
    returns (W, barrier ratio).

    The barrier ratio max f |W| / ||Q||_X tracks the weighted a priori
    bound of the construction.
    """
    W = op.solve(Q, guess)
    f = potential_radial(op.U0.radial.nodes, op.U0.n)
    fw = (f[:, None, None] * W.norm_samples()).max()
    q_norm = x_norm(Q)
    return W, float(fw / q_norm) if q_norm > 0 else 0.0


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass(frozen=True)
class FixedPointState:
    U0: MapField
    V: MapField
    x_norm_V: float
    step_norms: tuple      # ||V_{j+1} - V_j||_X per step
    contraction_ratios: tuple
    static_residual: float
    barrier_ratio: float
    converged: bool
    linear_iterations: tuple  # GMRES iterations per Picard step


def static_residual(U0: MapField, V: MapField, K: float) -> float:
    """Sup residual of the discrete static penalized equation on U0 + V.

    The outer Dirichlet shell is excluded (the truncation lives there).
    """
    total = U0.with_values(U0.values + V.values)
    lap = weighted_laplacian_field(total)
    res = lap.values - TargetSphere().cs_force(total.values, K)
    return float(np.abs(res[:-1]).max())


def picard_iterate(U0: MapField, K: float, tol: float = 1e-8) -> FixedPointState:
    """Iterate V -> A^{-1}(Q(U0, V) - Delta_f U0) from V = 0.

    Stops when consecutive iterates differ by less than ``tol`` in the
    weighted correction norm, or after ``PICARD_MAX_STEPS`` steps; three
    consecutive non-contractive steps abort with the iteration ledger
    attached.  Each linear solve starts GMRES from the current iterate V,
    which is already close to the next one, so the GMRES iteration count
    falls after the first step.
    """
    op = LinearizedOperator(U0, K)
    defect = weighted_laplacian_field(U0)
    V = U0.with_values(np.zeros_like(U0.values))
    steps, ratios = [], []
    barrier = 0.0
    bad = 0
    converged = False
    for _ in range(PICARD_MAX_STEPS):
        rhs = assemble_rhs(U0, V, K, extension_defect=defect, lin=op.lin)
        W, b = solve_linear_dirichlet(rhs, op, V)
        barrier = max(barrier, b)
        diff = x_norm(U0.with_values(W.values - V.values))
        steps.append(diff)
        if len(steps) > 1 and steps[-2] > 0:
            q = diff / steps[-2]
            ratios.append(q)
            if q >= 1.0:
                bad += 1
                if bad >= 3:
                    raise DivergenceError(
                        "three consecutive non-contractive Picard steps",
                        ledger={"step_norms": steps, "ratios": ratios})
            else:
                bad = 0
        V = W
        if diff < tol:
            converged = True
            break
    resid = static_residual(U0, V, K)
    return FixedPointState(U0, V, x_norm(V), tuple(steps),
                           tuple(ratios), resid, barrier, converged,
                           tuple(op.iterations))


# ---------------------------------------------------------------------------
# decay report


@dataclass(frozen=True)
class DecayReport:
    sup_fV: float
    sup_f32_gradV: float
    value_slope: float | None
    gradient_slope: float | None


def verify_decay(V: MapField) -> DecayReport:
    """Weighted sups and fitted tail decay exponents of a correction field."""
    r = V.radial.nodes
    f = potential_radial(r, V.n)
    mag = V.norm_samples().max(axis=(1, 2))
    gmag = gradient_norm(V).max(axis=(1, 2))
    sup_fv = float((f * mag).max())
    sup_fg = float((f**1.5 * gmag).max())
    tail = (r > 0.25 * r[-1]) & (r < 0.95 * r[-1])
    return DecayReport(sup_fv, sup_fg, _loglog_slope(r[tail], mag[tail]),
                       _loglog_slope(r[tail], gmag[tail]))
