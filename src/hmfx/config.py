"""Flat key = value run configuration with section headers.

The format is deliberately primitive: ``[section]`` headers, one
``key = value`` pair per line, ``#`` comments, arrays as comma lists.
Keys flatten to ``section.key``; every tolerance has a default, so a
missing key never aborts a run, and a key the program does not read is a
configuration error.  The raw pairs are echoed verbatim into each run
summary for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import pathlib

from .errors import ConfigError

TOLERANCE_PROFILES = {"strict": 0.5, "default": 1.0, "loose": 2.0}

DEFAULTS = {
    "run.n": "3",
    "run.k_order": "3",
    "run.K": "10",
    "run.K_ladder": "1,10,100",
    "run.sigma": "0",
    "run.boundary": "corotational(0.1)",
    "run.flavor": "hmf",
    "grid.r_max": "40",
    "grid.fp_r_max": "16",
    "grid.fp_inner_spacing": "0.2",
    "grid.fp_n_theta": "8",
    "grid.fp_n_phi": "16",
    "tol.shoot": "1e-8",
    "tol.newton": "1e-9",
    "tol.picard": "1e-8",
    "tol.static_residual_per_K": "1e-5",
    "tol.coefficient_floor": "1e-8",
    "tol.slack": "0.05",
    "tol.eps0": "0.02",
    "tol.C": "10",
    "diag.probe_radii": "5,10,20",
    "diag.mono_radii": "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45",
    "caloric.radii": "2,3,4.5,7,10,15,22,33,50",
    "caloric.times": "0.25,1,4",
}
# keys a command needs that have no default
NO_DEFAULT_KEYS = ("run.h_inf", "run.sweep_command")


def parse_config(text: str) -> dict[str, str]:
    """Parse section-headed key = value text into flat ``section.key`` pairs."""
    out: dict[str, str] = {}
    section = "run"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"line {lineno}: empty section header")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[f"{section}.{key}"] = value.strip()
    return out


@dataclass(frozen=True)
class RunConfig:
    """Flat configuration with typed accessors and tolerance scaling."""

    values: dict = field(default_factory=dict)
    tolerance_profile: str = "default"

    def __post_init__(self):
        if self.tolerance_profile not in TOLERANCE_PROFILES:
            raise ConfigError(
                f"unknown tolerance profile {self.tolerance_profile!r}")
        unknown = [k for k in sorted(self.values)
                   if k not in DEFAULTS and k not in NO_DEFAULT_KEYS]
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))}")

    @classmethod
    def load(cls, path, tolerance_profile: str = "default") -> "RunConfig":
        try:
            text = pathlib.Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls(parse_config(text), tolerance_profile)

    def raw(self, key: str) -> str:
        if key in self.values:
            return self.values[key]
        if key in DEFAULTS:
            return DEFAULTS[key]
        raise ConfigError(f"missing config key {key!r} with no default")

    def get_str(self, key: str) -> str:
        return self.raw(key)

    def get_int(self, key: str) -> int:
        try:
            return int(self.raw(key))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} is not an integer") from exc

    def get_float(self, key: str) -> float:
        try:
            return float(self.raw(key))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} is not a number") from exc

    def get_floats(self, key: str) -> list[float]:
        try:
            return [float(v) for v in self.raw(key).split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} is not a comma list") from exc

    def get_tolerance(self, key: str) -> float:
        """Tolerance value scaled by the active profile."""
        return self.get_float(key) * TOLERANCE_PROFILES[self.tolerance_profile]

    def echo(self) -> dict:
        """Explicit pairs only (what the user wrote), for the summary."""
        return dict(sorted(self.values.items()))
