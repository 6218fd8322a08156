"""Exception hierarchy shared by all travwave modules."""

from __future__ import annotations


class TravwaveError(Exception):
    """Base class for all solver-level failures."""


class InvalidParameterError(TravwaveError, ValueError):
    """A parameter is outside its admissible range."""


class NotASaddleError(TravwaveError):
    """Equilibrium is not a saddle point (f'(u_eq) >= 0)."""


class BracketFailureError(TravwaveError):
    """A root bracket could not be established within the expansion limit."""


class InvalidSubstituteError(TravwaveError):
    """Substitute reaction term violates the admissibility sandwich or bistability."""


class ConstructionFailureError(TravwaveError):
    """A constructive trajectory (orbit, junction or window) could not be located."""


class NoSolutionError(TravwaveError):
    """Shooting function has no sign change on the scan range.

    Carries the scanned table in ``phi_table`` as an array of (u1, phi) rows.
    """

    def __init__(self, message: str, phi_table=None):
        super().__init__(message)
        self.phi_table = phi_table


class ConvexityViolationError(TravwaveError):
    """Second derivative of the running cost in beta is not positive."""


class SingularCostError(TravwaveError):
    """Positive control at a node where the wave slope vanishes."""


class SingularityError(TravwaveError):
    """Integrator step size underflow near a singularity."""

    def __init__(self, message: str, location: float | None = None):
        super().__init__(message)
        self.location = location


class InvalidTrajectoryError(TravwaveError):
    """Phase trajectory violates positivity/monotonicity requirements."""


class NonexistenceError(TravwaveError):
    """No traveling profile exists in the requested regime (e.g. c >= 0)."""


class IntegrabilityError(TravwaveError):
    """Left tail of the profile is not integrable."""


class RegimeError(TravwaveError):
    """Speed/parameter combination outside the regime the construction covers."""


class NonconvergenceError(TravwaveError):
    """Fixed-point iteration exceeded its cap.

    ``history`` holds the residual per iteration.
    """

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history


class OrderingError(TravwaveError):
    """Computed solution escapes the subsolution/supersolution sandwich."""


class ConfigError(TravwaveError):
    """Invalid run configuration (e.g. a PDE time step beyond its step bound)."""


class InstabilityError(TravwaveError):
    """Field blow-up during PDE time stepping."""


class DomainExceededError(TravwaveError):
    """Tracked front moved too close to the domain boundary."""


class FrontNotFoundError(TravwaveError):
    """No level-set crossing present in a snapshot."""
