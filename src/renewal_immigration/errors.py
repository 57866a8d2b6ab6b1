"""Exception types shared across the package."""


class LawError(ValueError):
    """Invalid distribution parameters, or a law used in an illegal role."""


class KernelError(ValueError):
    """Invalid immigration-kernel specification."""


class ConfigError(ValueError):
    """Experiment config rejected; message starts with the offending field path."""


class NonAbsorbedPathError(RuntimeError):
    """A birth-death path exhausted its jump budget before hitting 0.

    Carries the partial path so callers can inspect how far the simulation
    got.  Every death rate is positive, so a chain capped at ``state_cap``
    has a phase-type absorption time with a finite mean: the error means
    that the jump budget ``max_jumps`` was too small for the rates.
    """

    def __init__(self, message, partial_path):
        super().__init__(message)
        self.partial_path = partial_path


class TruncationError(RuntimeError):
    """A stationary run cannot push the kernel's tail bound below tolerance.

    Raised before anything is drawn.  Carries the bound at the largest
    half-width tried (``inf`` when the expected missed mass is infinite)
    and that half-width, or ``None`` when the kernel alone rules it out.
    """

    def __init__(self, message, bound=None, c_used=None):
        super().__init__(message)
        self.bound = bound
        self.c_used = c_used
