"""Exception types shared across the toolkit."""


class SafeStabError(Exception):
    """Base class for all toolkit errors."""


class ScenarioError(SafeStabError):
    """Scenario file or scenario construction problem."""


class InfeasibleQPError(SafeStabError):
    """The constraint set of a QP is empty."""


class QPIterationError(SafeStabError):
    """Active-set iteration exceeded its budget (cycling or degeneracy)."""


class IndefiniteQPError(SafeStabError, ValueError):
    """H + reg*I of a QP cost has no Cholesky factor (for the Sontag-weighted
    cost 2bb' with m >= 2, reg is lost against a large |b|^2)."""


class DecreaseIdentityError(SafeStabError):
    """The Sontag decrease identity failed outside numerical tolerance."""


class DegenerateConstraintError(SafeStabError):
    """L_g h vanished where the closed-form constrained input was requested."""


class SharingInfeasibleError(SafeStabError):
    """No sub-level value in the requested bracket passes control sharing."""


class SimulationError(SafeStabError):
    """Closed-loop integration could not start or was misconfigured."""
