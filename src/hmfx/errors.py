"""Exception hierarchy shared by all solver and diagnostic modules."""


class HmfxError(Exception):
    """Base class for all package errors."""


class GridError(HmfxError):
    """Degenerate or inconsistent discretization grid."""


class DomainExceededError(HmfxError):
    """A probe ball or evaluation point leaves the computational domain."""


class GeometryDomainError(HmfxError):
    """Input outside the domain of a target-geometry formula (e.g. non-unit u)."""


class TangencyError(GeometryDomainError):
    """Vectors fed to the second fundamental form are not tangent."""


class SingularPointError(GeometryDomainError):
    """Evaluation at the ambient origin where the sphere distance is not smooth."""


class AccuracyError(HmfxError):
    """A quadrature failed its internal self-estimate."""


class ShootingDivergedError(HmfxError):
    """The shooting integration blew up before reaching the truncation radius."""


class IntegrationError(HmfxError):
    """The ODE integrator reported failure before reaching its end point."""


class NotAttainedError(HmfxError):
    """No shooting slope reaches the requested boundary angle.

    Carries the empirically reachable range of limit angles.
    """

    def __init__(self, message, reachable=None):
        super().__init__(message)
        self.reachable = reachable


class NonconvergenceError(HmfxError):
    """Newton stagnated; ``last_iterate`` holds the best available state."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class PartialResultError(HmfxError):
    """A continuation ladder failed mid-way; ``completed`` holds the good rungs."""

    def __init__(self, message, completed=None):
        super().__init__(message)
        self.completed = completed if completed is not None else []


class LinearSolveError(HmfxError):
    """Iterative linear solve exceeded its iteration cap."""


class DivergenceError(HmfxError):
    """Picard iteration expanded for several consecutive steps.

    ``ledger`` carries the per-step norms and contraction ratios.
    """

    def __init__(self, message, ledger=None):
        super().__init__(message)
        self.ledger = ledger


class TimeOrderError(HmfxError):
    """Backward heat kernel requested at a time at or after its pole."""


class TimeWindowError(HmfxError):
    """A monotonicity probe sits too close to the initial time."""


class SupportError(HmfxError):
    """A test vector field is not compactly supported in the grid interior."""


class RegularityError(HmfxError):
    """A probe overlaps a region flagged by the regularity scan."""


class WindowError(HmfxError):
    """Far-field fit window is ill conditioned or too narrow."""


class ConfigError(HmfxError):
    """Malformed run configuration."""
