"""Numerical laboratory for expanding self-similar harmonic map flow.

Solvers for equivariant expander profiles (exact and penalized), a
fixed-point construction from rough conical initial data, far-field
asymptotic expansions with verified decay rates, and parabolic
monitoring-quantity diagnostics (localized energies, monotone
quantities, epsilon-regularity probes).
"""

from .boundary import (BoundaryMap, builtin_boundary, constant_map,
                       corotational_map, equator_map, identity_sphere_map,
                       lipschitz_wedge_map)
from .config import RunConfig, parse_config
from .corotational import (ShootingResult, continuation, gl_residual,
                           shoot_hm, solve_corot, solve_gl_corot)
from .errors import HmfxError
from .fields import (CorotationalProfile, MapField, gradient,
                     load_field_csv, load_profile_csv, save_field_csv,
                     save_profile_csv, weighted_sup_norm, x_norm)
from .grids import RadialGrid, SphereGrid
from .target import TargetSphere
from .weighted import (CaloricQuadrature, caloric_extension,
                       caloric_extension_points, weighted_laplacian_field,
                       weighted_laplacian_profile)

__all__ = [
    "BoundaryMap", "CaloricQuadrature", "CorotationalProfile", "HmfxError",
    "MapField", "RadialGrid", "RunConfig", "ShootingResult", "SphereGrid",
    "TargetSphere", "builtin_boundary", "caloric_extension",
    "caloric_extension_points", "constant_map", "continuation",
    "corotational_map", "equator_map", "gl_residual", "gradient",
    "identity_sphere_map", "lipschitz_wedge_map", "load_field_csv",
    "load_profile_csv", "parse_config", "save_field_csv",
    "save_profile_csv", "shoot_hm", "solve_corot", "solve_gl_corot",
    "weighted_laplacian_field", "weighted_laplacian_profile",
    "weighted_sup_norm", "x_norm",
]

__version__ = "0.1.0"
