"""Exception hierarchy for torusgas, and the count and period checks that
every module applies alike.

Every failure mode raises a named subclass of :class:`TorusGasError` so callers
can distinguish domain violations from numerical breakdowns.
"""

import math
import numbers


class TorusGasError(Exception):
    """Base class for all torusgas errors."""


class NomeOutOfRange(TorusGasError):
    """Nome outside its domain: 0 < |q| < 1 at a finite tau; |q| <= 0.95 for theta."""


class ParameterOutOfRange(TorusGasError, ValueError):
    """A numeric argument lies outside its documented domain."""


class PrecisionUnreachable(TorusGasError):
    """A value is out of reach in double precision: cancellation or overflow."""


class DimensionMismatch(TorusGasError):
    """Input collections disagree about the particle number N."""


class CoincidentPoints(TorusGasError):
    """Two particle coordinates coincide modulo the lattice."""


class SingularConfiguration(TorusGasError):
    """A +/- pair separation sits on the lattice, so theta1 vanishes."""


class SingularSeparation(TorusGasError):
    """Kernel evaluated at coincident arguments (simple pole)."""


class JumpPoint(TorusGasError):
    """Fourier coefficient requested exactly at its y=0 discontinuity."""


class QuadratureNonConvergence(TorusGasError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SeedRequired(TorusGasError):
    """Stochastic routine invoked without an explicit seed."""


class InsufficientSamples(TorusGasError):
    """Monte Carlo sample count below the contract minimum."""


class GridTooCoarse(TorusGasError):
    """Discretization grid too small for a meaningful spectrum."""


class TruncationInsufficient(TorusGasError):
    """Mode-product truncation leaves factors materially different from 1."""


class FitIllConditioned(TorusGasError):
    """Ladder fit design matrix is rank deficient or near singular."""


def _check_count(N, name: str = "N", least: int = 1) -> None:
    """Refuse a count or level index that is not an integer >= ``least``
    (numpy integers are; a bool is not) with ParameterOutOfRange."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < least:
        raise ParameterOutOfRange(f"{name} must be an integer >= {least}, got {N!r}")


def _check_lengths(**lengths) -> None:
    """Refuse a period or length that is not positive and finite (nan and inf
    are not) with ParameterOutOfRange naming it."""
    for name, value in lengths.items():
        if not 0 < value < math.inf:
            raise ParameterOutOfRange(f"{name} = {value!r} must be positive and finite")
