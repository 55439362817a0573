"""Exception hierarchy shared across the package."""


class LqmfgError(Exception):
    """Base class for all package errors."""


class ModelConfigError(LqmfgError):
    """Malformed model data or configuration (bad profiles, bad law kind, ...)."""


class SingularGainError(LqmfgError):
    """An effective control weight alpha broke the weight rule at time t:
    not finite, below the fixed threshold in size, or of the wrong sign."""

    def __init__(self, message: str, t: float | None = None,
                 alpha: float | None = None):
        super().__init__(message)
        self.t = t
        self.alpha = alpha


class NonSolvableError(LqmfgError):
    """Backward integration blew up or produced non-finite values."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class SimulationDivergedError(LqmfgError):
    """A simulated state became non-finite."""

    def __init__(self, message: str, rep: int | None = None,
                 agent: int | None = None, step: int | None = None):
        super().__init__(message)
        self.rep = rep
        self.agent = agent
        self.step = step
