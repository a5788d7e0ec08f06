"""Exception types shared across the simulator."""


class ConfigurationError(Exception):
    """Invalid configuration or parameters (CLI exit code 2)."""


class AssumptionError(Exception):
    """A weight-matrix / network assumption is violated (CLI exit code 1)."""


class CapabilityError(Exception):
    """A problem oracle lacks the ground truth required for a metric."""


class DivergenceError(Exception):
    """Non-finite or runaway iterates detected during a run (exit code 3)."""

    # the defaults serve unpickling, which passes the message alone and then restores the rest
    def __init__(self, message, k=None, agent=None, seed=None):
        super().__init__(message)
        self.k = k
        self.agent = agent
        self.seed = seed  # the diverged replica's seed


class NumericalError(Exception):
    """An iterative numerical routine failed to converge."""


class InsufficientDataError(Exception):
    """Not enough samples / points for the requested statistic."""
