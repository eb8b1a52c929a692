"""Built-in 0-homogeneous boundary maps and their resolver.

A boundary map is determined by its restriction to the unit sphere; the
built-ins cover the smooth, Lipschitz and exactly-harmonic cases used by
the solvers and the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
import re

import numpy as np

from .errors import ConfigError
from .grids import SphereGrid


@dataclass(frozen=True)
class BoundaryMap:
    """Map S^2 (or S^{n-1} corotationally) -> S^{m-1} given by ``fn(dirs)``."""

    name: str
    m: int
    fn: object
    smoothness: str = "smooth"  # 'constant' | 'smooth' | 'lipschitz'
    h_inf: float | None = None  # set for corotational maps
    target_point: np.ndarray | None = None

    def __call__(self, dirs: np.ndarray) -> np.ndarray:
        dirs = np.asarray(dirs, dtype=float)
        out = np.asarray(self.fn(dirs), dtype=float)
        return out

    @property
    def is_corotational(self) -> bool:
        return self.h_inf is not None

    def sphere_samples(self, sphere: SphereGrid) -> np.ndarray:
        return self(sphere.directions)


def _unit(dirs):
    d = np.asarray(dirs, dtype=float)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    r = np.sqrt(x * x + y * y + z * z)[..., None]  # bit-equal to np.linalg.norm
    return d / np.where(r > 0, r, 1.0)


def constant_map(m: int = 3) -> BoundaryMap:
    point = np.zeros(m)
    point[-1] = 1.0

    def fn(dirs):
        dirs = np.asarray(dirs, dtype=float)
        return np.broadcast_to(point, dirs.shape[:-1] + (m,)).copy()

    return BoundaryMap("constant", m, fn, smoothness="constant",
                       h_inf=0.0, target_point=point)


def corotational_map(h_inf: float, n: int = 3) -> BoundaryMap:
    """omega -> (sin(h_inf) * omega, cos(h_inf)), valued in S^n in R^{n+1}."""
    s, c = np.sin(h_inf), np.cos(h_inf)

    def fn(dirs):
        w = _unit(dirs)
        out = np.empty(w.shape[:-1] + (w.shape[-1] + 1,))
        out[..., :-1] = s * w
        out[..., -1] = c
        return out

    pole = np.zeros(n + 1)
    pole[-1] = 1.0
    return BoundaryMap(f"corotational({h_inf:g})", n + 1, fn,
                       smoothness="constant" if h_inf == 0.0 else "smooth",
                       h_inf=float(h_inf), target_point=pole)


def equator_map(n: int = 3) -> BoundaryMap:
    bm = corotational_map(np.pi / 2.0, n)
    return BoundaryMap("equator", bm.m, bm.fn, smoothness="smooth",
                       h_inf=np.pi / 2.0, target_point=bm.target_point)


def identity_sphere_map() -> BoundaryMap:
    """The identity S^2 -> S^2; harmonic, hence all far-field corrections die."""
    return BoundaryMap("identity-sphere", 3, _unit, smoothness="smooth")


def lipschitz_wedge_map() -> BoundaryMap:
    """Fold map: latitude angle g = min(theta, pi - theta), so the southern
    hemisphere mirrors onto the northern one.  On a unit direction
    (x, y, z) that is (x, y, |z|).  Continuous everywhere (the angle
    vanishes at both poles), Lipschitz with a gradient kink along the
    equator, not C^1.  Its image is the closed northern hemisphere, so the
    geodesic homotopy to the north pole contracts it to a constant."""

    def fn(dirs):
        w = _unit(dirs)
        w[..., 2] = np.abs(w[..., 2])
        return w

    return BoundaryMap("lipschitz-wedge", 3, fn, smoothness="lipschitz",
                       target_point=np.array([0.0, 0.0, 1.0]))


_COROT_RE = re.compile(r"^corotational\(([^)]+)\)$")


def builtin_boundary(spec: str, n: int = 3) -> BoundaryMap:
    """Resolve a boundary-map name like ``equator`` or ``corotational(0.1)``."""
    spec = spec.strip()
    if spec == "constant":
        return constant_map(n + 1)
    if spec == "equator":
        return equator_map(n)
    if spec == "identity-sphere":
        return identity_sphere_map()
    if spec == "lipschitz-wedge":
        return lipschitz_wedge_map()
    match = _COROT_RE.match(spec)
    if match:
        try:
            h_inf = float(match.group(1))
        except ValueError:
            h_inf = np.nan
        if not np.isfinite(h_inf):
            raise ConfigError(
                f"bad corotational angle in {spec!r}: need a finite number")
        return corotational_map(h_inf, n)
    raise ConfigError(f"unknown boundary map {spec!r}")
