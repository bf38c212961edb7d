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


class InvalidStructureError(FJPowerError):
    """Network shape fails a structural precondition of a closed form."""


class WrongTopologyError(FJPowerError):
    """Condition check applied to a network of the wrong structural class."""


class ViewViolationError(FJPowerError):
    """An agent update touched data outside its local view."""


class ConfigParseError(FJPowerError):
    """Scenario file is not parseable."""


class ConfigValidationError(FJPowerError):
    """Scenario contents violate an invariant; message names it."""
