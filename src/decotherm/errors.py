"""Exception types shared across the package."""


class DecothermError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DecothermError):
    pass


class NotHermitian(DecothermError):
    pass


class NegativeEigenvalue(DecothermError):
    pass


class NotOrthonormal(DecothermError):
    pass


class NonPositiveBeta(DecothermError):
    pass


class NonPositiveOccupation(DecothermError):
    pass


class TimeDependentHamiltonian(DecothermError):
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


class MissingPair(DecothermError):
    pass


class ZeroCoherence(DecothermError):
    pass


class InvalidBlochVector(DecothermError):
    pass


class InvalidParams(DecothermError):
    pass


class ConfigError(DecothermError):
    """Bad run configuration (unknown key, wrong type, missing field)."""
