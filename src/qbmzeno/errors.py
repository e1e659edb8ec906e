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
    """The Markovian rate (2n+1) Delta_M - gamma_M is below the degeneracy guard.

    This is the zero-temperature ground-state case: the decay-rate ratio
    diverges and the measurements always enhance the decay (AZE).
    """


class PerturbativeBreakdownError(RuntimeError):
    """Escape probability grew beyond the validity of second-order theory."""


class NegativeProbabilityError(RuntimeError):
    """A probability came out negative beyond roundoff, signalling a
    quadrature failure rather than physics."""


class TruncationLeakageError(RuntimeError):
    """Population reached the top of the truncated Fock ladder."""
