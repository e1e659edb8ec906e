"""Exception types shared by the physics-level modules."""

__all__ = [
    "NegativeFrequencyError",
    "IndeterminateAtZeroError",
    "DegenerateDenominatorError",
    "PerturbativeBreakdownError",
    "NegativeProbabilityError",
    "TruncationLeakageError",
]


class NegativeFrequencyError(ValueError):
    """A spectral density was evaluated at a negative frequency."""


class IndeterminateAtZeroError(ValueError):
    """coth(omega / 2 theta omega0) has a pole at omega = 0 for theta > 0.

    Callers that need omega -> 0 must go through the weighted spectral
    density, whose J(omega) * coth(...) limit is finite.
    """


class DegenerateDenominatorError(ArithmeticError):
    """The two terms of the Markovian rate (2n+1) Delta_M - gamma_M cancel to 12 digits.

    This is the zero-temperature ground-state case: the decay-rate ratio
    diverges and the measurements always enhance the decay (AZE).
    """


class PerturbativeBreakdownError(RuntimeError):
    """Escape probability grew beyond the validity of second-order theory."""


class NegativeProbabilityError(RuntimeError):
    """A probability came out below -1e-12: an error in the integrated
    coefficients that it was formed from, not physics."""


class TruncationLeakageError(RuntimeError):
    """Population reached the top of the truncated Fock ladder."""
