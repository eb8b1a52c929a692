"""Discretized map fields on the radial x sphere product grid.

A :class:`MapField` stores vectors in R^m at every (r, theta, phi) node of
a 3-dimensional ball; the node at r = 0 is a single physical point whose
value is replicated across the angular slots.  Angular derivatives are
the sphere grid's spectral partials, radial derivatives 3-point
stencils, which makes the gradient exact for affine fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
import csv
import json
import pathlib

import numpy as np

from .errors import DomainExceededError, GridError, HmfxError
from .grids import RadialGrid, SphereGrid, gauss_legendre


# ---------------------------------------------------------------------------
# field containers


@dataclass(frozen=True)
class MapField:
    """Map from the ball B(0, r_max) in R^3 into R^m on a product grid."""

    radial: RadialGrid
    sphere: SphereGrid
    values: np.ndarray  # (Nr, n_theta, n_phi, m)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        expect = (self.radial.size, self.sphere.n_theta, self.sphere.n_phi)
        if v.ndim != 4 or v.shape[:3] != expect:
            raise GridError(f"value array shape {v.shape} does not match grid {expect}")
        if not np.all(np.isfinite(v)):
            raise HmfxError("map field contains non-finite entries")

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    @property
    def n(self) -> int:
        return 3

    @cached_property
    def radii(self) -> np.ndarray:
        """|x| per node, broadcastable against values (Nr, 1, 1, 1)."""
        return self.radial.nodes[:, None, None, None]

    @cached_property
    def points(self) -> np.ndarray:
        """Cartesian node coordinates, shape (Nr, n_theta, n_phi, 3)."""
        return self.radial.nodes[:, None, None, None] * self.sphere.directions[None]

    @classmethod
    def from_function(cls, radial: RadialGrid, sphere: SphereGrid, fn) -> "MapField":
        """Sample ``fn(points) -> (..., m)``; the origin value is fn(0)."""
        pts = radial.nodes[:, None, None, None] * sphere.directions[None]
        vals = np.asarray(fn(pts), dtype=float)
        origin = np.asarray(fn(np.zeros((1, 3))), dtype=float)[0]
        vals[0] = origin
        return cls(radial, sphere, vals)

    @classmethod
    def constant(cls, radial: RadialGrid, sphere: SphereGrid, vec) -> "MapField":
        vec = np.asarray(vec, dtype=float)
        vals = np.broadcast_to(
            vec, (radial.size, sphere.n_theta, sphere.n_phi, vec.size)).copy()
        return cls(radial, sphere, vals)

    def with_values(self, values: np.ndarray) -> "MapField":
        return replace(self, values=values)

    def norm_samples(self) -> np.ndarray:
        """|u| per node, shape (Nr, n_theta, n_phi)."""
        return np.linalg.norm(self.values, axis=-1)


@dataclass(frozen=True)
class CorotationalProfile:
    """Radial profile(s) of an equivariant map in dimension n >= 3.

    Either the pure angle form h(r) (the map is (sin h * x/|x|, cos h)),
    or the modulus pair (psi, phi) used by the penalized solves
    (the map is (psi * x/|x|, phi)).
    """

    grid: RadialGrid
    n: int
    angle: np.ndarray | None = None
    psi: np.ndarray | None = None
    phi: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 3:
            raise GridError("corotational reduction needs n >= 3")
        for name in ("angle", "psi", "phi"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                object.__setattr__(self, name, arr)
                if arr.shape != (self.grid.size,):
                    raise GridError(f"{name} profile does not match the radial grid")
        if self.angle is None and (self.psi is None or self.phi is None):
            raise GridError("need either an angle profile or a (psi, phi) pair")
        if self.angle is None and abs(self.psi[0]) > 1e-12:
            raise GridError("psi(0) must vanish for a regular equivariant map")

    @property
    def is_angle_form(self) -> bool:
        return self.angle is not None

    def modulus(self) -> np.ndarray:
        """sqrt(psi^2 + phi^2); identically 1 for the angle form."""
        if self.is_angle_form:
            return np.ones(self.grid.size)
        return np.hypot(self.psi, self.phi)

    def extracted_angle(self) -> np.ndarray:
        if self.is_angle_form:
            return self.angle
        return np.arctan2(self.psi, self.phi)


# ---------------------------------------------------------------------------
# gradient


def _origin_gradient(field: MapField) -> np.ndarray:
    """Gradient at r = 0 by a moment-matched least-squares fit on shell 1.

    Uses the discrete moment matrix of the sphere quadrature so affine
    fields are differentiated exactly; even-order terms cancel by parity,
    leaving an O(mesh^2) error for smooth fields.
    """
    sph = field.sphere
    r1 = field.radial.nodes[1]
    dirs = sph.directions.reshape(-1, 3)
    w = sph.weights.reshape(-1)
    moment = np.einsum("k,ka,kb->ab", w, dirs, dirs)
    du = (field.values[1].reshape(-1, field.m) - field.values[0, 0, 0]) / r1
    rhs = np.einsum("k,ka,kc->ac", w, dirs, du)
    return np.linalg.solve(moment, rhs)  # (3, m)


def gradient(field: MapField) -> np.ndarray:
    """Cartesian gradient samples, shape (Nr, n_theta, n_phi, 3, m).

    Component [..., a, c] is the a-th spatial derivative of the c-th map
    component.  Radial derivatives are one-sided at r = 0 and r = r_max.
    """
    if field.radial.size < 3:
        raise GridError("gradient needs at least 3 radial nodes")
    sph = field.sphere
    du_dr = field.radial.apply_d1(field.values)
    d_th, d_ph = sph.partials(field.values)

    st = np.sin(sph.theta)[:, None]
    ct = np.cos(sph.theta)[:, None]
    cp = np.cos(sph.phi)[None, :]
    sp = np.sin(sph.phi)[None, :]
    ones = np.ones((sph.n_theta, sph.n_phi))
    e_r = np.stack([st * cp, st * sp, ct * ones], axis=-1)  # (nt, np, 3)
    e_t = np.stack([ct * cp, ct * sp, -st * ones], axis=-1)
    e_p = np.stack([-sp * ones, cp * ones, np.zeros_like(ones)], axis=-1)

    r = field.radial.nodes[:, None, None, None]
    r_safe = np.where(r > 0, r, 1.0)
    st4 = st[None, :, :, None]
    frame = lambda e, d: e[None, :, :, :, None] * d[:, :, :, None, :]
    grad = (frame(e_r, du_dr)
            + frame(e_t, d_th / r_safe)
            + frame(e_p, d_ph / (r_safe * st4)))
    grad[0] = _origin_gradient(field)[None, None]
    if not np.all(np.isfinite(grad)):
        raise HmfxError("gradient produced non-finite entries")
    return grad


def gradient_norm(field: MapField) -> np.ndarray:
    """|grad u| per node, shape (Nr, n_theta, n_phi): the Frobenius norm of
    ``gradient(field)``, formed from the frame derivatives,

        sqrt(|d_r u|^2 + |d_theta u|^2 / r^2 + |d_phi u|^2 / (r sin theta)^2),

    without building the (Nr, n_theta, n_phi, 3, m) tensor.  The origin
    row is the norm of ``_origin_gradient``.
    """
    if field.radial.size < 3:
        raise GridError("gradient needs at least 3 radial nodes")
    sph = field.sphere
    du_dr = field.radial.apply_d1(field.values)[1:]
    d_th, d_ph = (d[1:] for d in sph.partials(field.values))
    r = field.radial.nodes[1:, None, None]
    r_st = r * np.sin(sph.theta)[:, None]
    sq = np.empty(field.values.shape[:3])
    sq[1:] = ((du_dr * du_dr).sum(axis=-1)
              + (d_th * d_th).sum(axis=-1) / (r * r)
              + (d_ph * d_ph).sum(axis=-1) / (r_st * r_st))
    sq[0] = (_origin_gradient(field) ** 2).sum()
    if not np.all(np.isfinite(sq)):
        raise HmfxError("gradient produced non-finite entries")
    return np.sqrt(sq)


# ---------------------------------------------------------------------------
# weighted norms


def weighted_sup_norm(field: MapField, p: float) -> float:
    """sup over nodes of (1 + |x|)^p |V(x)|."""
    if p < 0:
        raise HmfxError("weight exponent must be non-negative")
    mags = field.norm_samples()
    r = np.broadcast_to(field.radii[..., 0], mags.shape)
    if not np.all(np.isfinite(mags)):
        raise HmfxError("weighted sup norm rejects non-finite samples")
    return float(((1.0 + r) ** p * mags).max())


def x_norm(field: MapField) -> float:
    """Discrete norm of the correction space: weights (1+|x|)^2 and (1+|x|)^3."""
    gmag = gradient_norm(field)
    r = np.broadcast_to(field.radii[..., 0], gmag.shape)
    return (weighted_sup_norm(field, 2.0)
            + float(((1.0 + r) ** 3 * gmag).max()))


# ---------------------------------------------------------------------------
# ball quadrature


def ball_average(fn, center, radius: float, n_radial: int = 24,
                 sphere: SphereGrid | None = None) -> np.ndarray:
    """Average integral over B(center, radius) of ``fn(points) -> (..., k)``.

    Gauss-Legendre in the local radius, band-exact lat-long on the local
    sphere; second-order accurate overall, exact for radial polynomials
    up to the Gauss degree.
    """
    if radius <= 0:
        raise DomainExceededError("ball radius must be positive")
    sph = sphere if sphere is not None else SphereGrid(16, 32)
    center = np.asarray(center, dtype=float)
    x_gl, w_gl = gauss_legendre(n_radial)
    rho = 0.5 * radius * (x_gl + 1.0)
    w_rho = 0.5 * radius * w_gl * rho**2
    dirs = sph.directions.reshape(-1, 3)
    w_dir = sph.weights.reshape(-1)
    pts = center[None, None, :] + rho[:, None, None] * dirs[None, :, :]
    vals = np.asarray(fn(pts), dtype=float)
    total = np.einsum("i,j,ij...->...", w_rho, w_dir, vals)
    volume = 4.0 / 3.0 * np.pi * radius**3
    return total / volume


# ---------------------------------------------------------------------------
# serialization: CSV values + JSON grid sidecar


def write_csv(path: pathlib.Path, header: list[str], rows) -> None:
    """CSV with LF line endings; every float (``np.float64`` too) as ``%.17g``."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])


def save_field_csv(field: MapField, path) -> None:
    """One row ``r, theta, phi, u0, ..`` per node, r slowest and phi fastest,
    every float written as ``%.17g`` (round-trip exact); grid sidecar JSON.

    Each coordinate is formatted once and the body is written by a single
    ``%`` over all rows.
    """
    path = pathlib.Path(path)
    m = field.m
    r, theta, phi = (["%.17g" % v for v in a.tolist()] for a in
                     (field.radial.nodes, field.sphere.theta, field.sphere.phi))
    prefixes = [f"{a},{b},{c}" for a in r for b in theta for c in phi]
    columns = field.values.reshape(-1, m).T.tolist()
    line = "%s" + ",%.17g" * m + "\n"
    header = ",".join(["r", "theta", "phi"] + [f"u{c}" for c in range(m)])
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write((line * len(prefixes))
                 % tuple(chain.from_iterable(zip(prefixes, *columns))))
    meta = {
        "kind": "map_field",
        "m": field.m,
        "n": field.n,
        "r_max": field.radial.r_max,
        "radial_nodes": [float(v) for v in field.radial.nodes],
        "sphere": {"n_theta": field.sphere.n_theta, "n_phi": field.sphere.n_phi},
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_field_csv(path) -> MapField:
    path = pathlib.Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text(encoding="utf-8"))
    radial = RadialGrid(np.asarray(meta["radial_nodes"], dtype=float))
    sphere = SphereGrid(meta["sphere"]["n_theta"], meta["sphere"]["n_phi"])
    m = meta["m"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    vals = data[:, 3:3 + m].reshape(radial.size, sphere.n_theta, sphere.n_phi, m)
    return MapField(radial, sphere, vals)


def save_profile_csv(profile: CorotationalProfile, path) -> None:
    path = pathlib.Path(path)
    if profile.is_angle_form:
        write_csv(path, ["r", "h"], zip(profile.grid.nodes, profile.angle))
    else:
        write_csv(path, ["r", "psi", "phi"],
                  zip(profile.grid.nodes, profile.psi, profile.phi))
    meta = {
        "kind": "corotational_profile",
        "n": profile.n,
        "form": "angle" if profile.is_angle_form else "psi_phi",
        "r_max": profile.grid.r_max,
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_profile_csv(path) -> CorotationalProfile:
    path = pathlib.Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text(encoding="utf-8"))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    grid = RadialGrid(data[:, 0])
    if meta["form"] == "angle":
        return CorotationalProfile(grid, meta["n"], angle=data[:, 1])
    return CorotationalProfile(grid, meta["n"], psi=data[:, 1], phi=data[:, 2])
