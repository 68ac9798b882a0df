"""Exception types shared across the package.

An error's class is its meaning. Every package error is a DecothermError,
and every raise site uses one of three kinds:

  * InvalidParams: a refused argument (out of range, non-finite, of the
    wrong kind or shape, a non-Hermitian Hamiltonian, an initial state that
    is not a state);
  * ConfigError: a bad run configuration;
  * NumericalFailure: a computation on accepted inputs that cannot give a
    right answer. Each subclass names, in `stage`, the step that raises it.

`decotherm run` exits 2 for the first two and 3 for a NumericalFailure.
"""


class DecothermError(Exception):
    """Base class for all package errors."""


class InvalidParams(DecothermError):
    """A refused argument: out of range, non-finite, or of the wrong kind or shape."""


class ConfigError(DecothermError):
    """Bad run configuration (unknown key, wrong type, missing field)."""


class NumericalFailure(DecothermError):
    """A numerical failure; `stage` names the step that raises it."""

    stage: str


class NegativeEigenvalue(NumericalFailure):
    stage = "spectral (log of a non-PSD matrix)"


class StateInvariantViolated(NumericalFailure):
    """The trace of a propagated state drifted."""

    stage = "propagate"


class NoConvergence(NumericalFailure):
    stage = "stationary_structure/stationary_map/steady_state"


class DegenerateKernel(NumericalFailure):
    stage = "steady_state"


class NonPositiveSolution(NumericalFailure):
    stage = "steady_state"


class SupportViolation(NumericalFailure):
    stage = "force (support of the stationary image)"


class NonRealPairing(NumericalFailure):
    """A pairing Tr[A B] of Hermitian operators came out with an imaginary part."""

    stage = "entropy_production (imaginary part of sum_b Tr[L_b(rho) X_b])"
