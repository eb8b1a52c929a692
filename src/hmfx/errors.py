"""Exception hierarchy shared by all solver and diagnostic modules."""


class HmfxError(Exception):
    """Base class for all package errors."""


class GridError(HmfxError):
    """Degenerate or inconsistent discretization grid."""


class DomainExceededError(HmfxError):
    """A probe ball or evaluation point leaves the computational domain."""


class GeometryDomainError(HmfxError):
    """Input outside the domain of a target-geometry formula (e.g. non-unit u)."""


class SingularPointError(GeometryDomainError):
    """Evaluation at the ambient origin where the sphere distance is not smooth."""


class AccuracyError(HmfxError):
    """A quadrature result breaks a bound it must satisfy (the maximum principle)."""


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


class ConfigError(HmfxError):
    """Malformed run configuration."""
