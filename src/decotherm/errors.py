"""Exception types shared across the package."""


class DecothermError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DecothermError):
    pass


class NotHermitian(DecothermError):
    pass


class NegativeEigenvalue(DecothermError):
    pass


class StateInvariantViolated(DecothermError):
    pass


class NoConvergence(DecothermError):
    pass


class DegenerateKernel(DecothermError):
    pass


class NonPositiveSolution(DecothermError):
    pass


class SupportViolation(DecothermError):
    pass


class NonRealPairing(DecothermError):
    """A pairing Tr[A B] of Hermitian operators came out with an imaginary part."""


class InvalidParams(DecothermError):
    """A refused argument: out of range, non-finite, or of the wrong kind."""


class ConfigError(DecothermError):
    """Bad run configuration (unknown key, wrong type, missing field)."""
