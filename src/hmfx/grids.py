"""Radial and spherical grids with quadrature weights and stencil data.

The radial grid is uniform on [0, 1] and geometrically stretched beyond,
with the adjacent spacing ratio kept in [1, 1.2] so far-field windows out
to r ~ 100 stay affordable.  The sphere grid is a cell-centered
latitude-longitude mesh on S^2 whose band weights integrate the area
element exactly (quadrature of 1 gives 4*pi to rounding).  Gauss-Legendre
rules are computed once per node count and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GridError

MAX_SPACING_RATIO = 1.2


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``leggauss(n)`` nodes and weights on [-1, 1], cached per n
    (each ``leggauss`` call solves an eigenproblem)."""
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _graded_nodes(r_max: float, inner_spacing: float, max_ratio: float) -> np.ndarray:
    if r_max <= 0.0:
        raise GridError(f"r_max must be positive, got {r_max}")
    if not (0.0 < inner_spacing):
        raise GridError(f"inner_spacing must be positive, got {inner_spacing}")
    if r_max <= 1.0:
        n = max(int(round(r_max / inner_spacing)), 3)
        return np.linspace(0.0, r_max, n + 1)
    n_inner = max(int(round(1.0 / inner_spacing)), 4)
    h = 1.0 / n_inner
    inner = np.linspace(0.0, 1.0, n_inner + 1)
    length = r_max - 1.0

    def tail_length(q: float, k: int) -> float:
        if abs(q - 1.0) < 1e-14:
            return h * k
        return h * q * (q**k - 1.0) / (q - 1.0)

    # smallest step count that reaches r_max at the maximal ratio
    k = 1
    while tail_length(max_ratio, k) < length:
        k += 1
    # bisect the ratio so the tail lands exactly on r_max
    lo, hi = 1.0, max_ratio
    if tail_length(lo, k) > length:
        raise GridError("graded tail cannot land on r_max with ratio >= 1")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail_length(mid, k) < length:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    steps = h * q ** np.arange(1, k + 1)
    steps *= length / steps.sum()
    tail = 1.0 + np.cumsum(steps)
    tail[-1] = r_max
    return np.concatenate([inner, tail])


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes r_0 = 0 < ... < r_N = r_max."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 4:
            raise GridError("radial grid needs at least 4 nodes")
        if nodes[0] != 0.0:
            raise GridError("radial grid must start at r = 0")
        d = np.diff(nodes)
        if np.any(d <= 0.0):
            raise GridError("radial nodes must be strictly increasing")
        ratio = d[1:] / d[:-1]
        if np.any(ratio > MAX_SPACING_RATIO + 1e-9) or np.any(ratio < 1.0 - 1e-9):
            raise GridError("adjacent radial spacing ratio must stay in [1, 1.2]")

    @classmethod
    def graded(cls, r_max: float, inner_spacing: float = 0.05,
               max_ratio: float = MAX_SPACING_RATIO) -> "RadialGrid":
        return cls(_graded_nodes(r_max, inner_spacing, max_ratio))

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def size(self) -> int:
        return self.nodes.size

    @cached_property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    @cached_property
    def d1_weights(self) -> np.ndarray:
        """3-point first-derivative weights, shape (N, 3).

        Row i holds weights for the nodes ``stencil_nodes[i]``: (i-1, i, i+1)
        inside, the three nearest nodes in the one-sided end rows.
        """
        h = self.spacings
        h1, h2 = h[:-1], h[1:]
        w = np.empty((self.size, 3))
        w[1:-1] = np.stack([-h2 / (h1 * (h1 + h2)),
                            (h2 - h1) / (h1 * h2),
                            h1 / (h2 * (h1 + h2))], axis=1)
        h1, h2 = h[0], h[1]
        w[0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)),
                (h1 + h2) / (h1 * h2),
                -h1 / (h2 * (h1 + h2)))
        h1, h2 = h[-2], h[-1]
        w[-1] = (h2 / (h1 * (h1 + h2)),
                 -(h1 + h2) / (h1 * h2),
                 (h1 + 2 * h2) / (h2 * (h1 + h2)))
        return w

    @cached_property
    def d2_weights(self) -> np.ndarray:
        """3-point second-derivative weights, shape (N, 3), interior rows only.

        End rows reuse the adjacent interior stencil (first-order there);
        callers that care about the ends use the regular-center expansion.
        """
        h = self.spacings
        h1, h2 = h[:-1], h[1:]
        w = np.empty((self.size, 3))
        w[1:-1] = np.stack([2.0 / (h1 * (h1 + h2)),
                            -2.0 / (h1 * h2),
                            2.0 / (h2 * (h1 + h2))], axis=1)
        w[0] = w[1]
        w[-1] = w[-2]
        return w

    @cached_property
    def stencil_nodes(self) -> np.ndarray:
        """Node indices of each 3-point row, shape (N, 3); one-sided at both ends."""
        centers = np.clip(np.arange(self.size), 1, self.size - 2)
        return centers[:, None] + np.arange(-1, 2)

    def drift_weights(self, n: int) -> np.ndarray:
        """Interior rows, shape (N-2, 3), of Delta_f = d^2 + ((n-1)/r + r/2) d
        on radial profiles in R^n."""
        r = self.nodes[1:-1, None]
        return self.d2_weights[1:-1] + ((n - 1) / r + 0.5 * r) * self.d1_weights[1:-1]

    def apply_d1(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """First derivative along ``axis`` (one-sided at both ends)."""
        return self._apply(values, self.d1_weights, axis)

    def apply_d2(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """Second derivative along ``axis`` (interior stencils; ends copied)."""
        return self._apply(values, self.d2_weights, axis)

    def _apply(self, values: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
        v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
        if v.shape[0] != self.size:
            raise GridError("value array does not match grid size")
        w = weights.reshape(weights.shape + (1,) * (v.ndim - 1))
        idx = self.stencil_nodes
        out = w[:, 0] * v[idx[:, 0]] + w[:, 1] * v[idx[:, 1]] + w[:, 2] * v[idx[:, 2]]
        return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class SphereGrid:
    """Cell-centered lat-long nodes on S^2; poles are excluded.

    Band weights use the exact area of each latitude band, so the weights
    sum to 4*pi to rounding.  Pole values, where needed, are the mean of
    the adjacent latitude row.
    """

    n_theta: int = 24
    n_phi: int = 48

    def __post_init__(self):
        if self.n_theta < 8 or self.n_phi < 16:
            raise GridError("sphere grid too coarse (need >= 8 x 16)")
        if self.n_theta % 2 or self.n_phi % 2:
            raise GridError("sphere grid sizes must be even")

    @cached_property
    def theta(self) -> np.ndarray:
        dt = np.pi / self.n_theta
        return (np.arange(self.n_theta) + 0.5) * dt

    @cached_property
    def phi(self) -> np.ndarray:
        return np.arange(self.n_phi) * (2.0 * np.pi / self.n_phi)

    @property
    def d_theta(self) -> float:
        return np.pi / self.n_theta

    @property
    def d_phi(self) -> float:
        return 2.0 * np.pi / self.n_phi

    @cached_property
    def face_sines(self) -> np.ndarray:
        """sin(theta) on the n_theta - 1 latitude faces between adjacent rows."""
        return np.sin(self.theta[:-1] + 0.5 * self.d_theta)

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights, shape (n_theta, n_phi); sum is 4*pi exactly."""
        edges = np.linspace(0.0, np.pi, self.n_theta + 1)
        band = np.cos(edges[:-1]) - np.cos(edges[1:])
        return np.repeat(band[:, None], self.n_phi, axis=1) * self.d_phi

    @cached_property
    def directions(self) -> np.ndarray:
        """Unit vectors, shape (n_theta, n_phi, 3)."""
        th = self.theta[:, None]
        ph = self.phi[None, :]
        st, ct = np.sin(th), np.cos(th)
        out = np.empty((self.n_theta, self.n_phi, 3))
        out[..., 0] = st * np.cos(ph)
        out[..., 1] = st * np.sin(ph)
        out[..., 2] = ct * np.ones_like(ph)
        return out

    def integrate(self, samples: np.ndarray) -> np.ndarray:
        """Integral over S^2 of samples with shape (n_theta, n_phi, ...)."""
        s = np.asarray(samples, dtype=float)
        w = self.weights.reshape(self.n_theta, self.n_phi + 0,
                                 *([1] * (s.ndim - 2)))
        return (s * w).sum(axis=(0, 1))

    def mean(self, samples: np.ndarray) -> np.ndarray:
        return self.integrate(samples) / (4.0 * np.pi)
