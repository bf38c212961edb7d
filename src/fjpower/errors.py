"""Exception types shared across the package."""


class FJPowerError(Exception):
    """Base class for all package-specific errors."""


class SingularSystemError(FJPowerError):
    """A linear solve failed; upstream validation was violated."""


class CycleBudgetExceededError(FJPowerError):
    """Cycle enumeration would exceed the configured budget."""

    def __init__(self, anchor: int, budget: int):
        self.anchor = anchor
        self.budget = budget
        super().__init__(
            f"more than {budget} cycles through node {anchor + 1}; "
            "instance too dense for exact enumeration"
        )


class NoConvergenceError(FJPowerError):
    """No fixed-point run converged within the iteration budget."""


class WrongTopologyError(FJPowerError):
    """The network lacks the structure a computation needs: a star topology,
    a center row with zero weight on partially stubborn leaves, or one shared
    susceptibility."""


class ViewViolationError(FJPowerError):
    """An agent update touched data outside its local view."""


class ConfigParseError(FJPowerError):
    """Scenario file is not parseable."""


class ConfigValidationError(FJPowerError):
    """Scenario contents violate an invariant; message names it."""
