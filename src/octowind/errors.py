"""Exception types shared across the package."""


class OctowindError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OctowindError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SimulationError(OctowindError, RuntimeError):
    """A path left its admissible domain or a step could not be completed.

    Carries the simulation time at which the failure occurred when known.
    """

    def __init__(self, message, exit_time=None):
        super().__init__(message)
        self.exit_time = exit_time


class QuadratureError(OctowindError, RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""


class ConfigError(OctowindError, ValueError):
    """An experiment configuration is invalid.

    ``violations`` lists every problem found, one human-readable string each.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
