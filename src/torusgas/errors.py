"""Exception hierarchy for torusgas.

Every failure mode raises a named subclass of :class:`TorusGasError` so callers
can distinguish domain violations from numerical breakdowns.
"""


class TorusGasError(Exception):
    """Base class for all torusgas errors."""


class NomeOutOfRange(TorusGasError):
    """Nome q outside the supported domain (|q| must be < 1, and <= 0.95)."""


class ParameterOutOfRange(TorusGasError, ValueError):
    """A numeric argument lies outside its documented domain."""


class PrecisionUnreachable(TorusGasError):
    """A value is out of reach in double precision: tail bound, cancellation or overflow."""


class DimensionMismatch(TorusGasError):
    """Input collections disagree about the particle number N."""


class CoincidentPoints(TorusGasError):
    """Two particle coordinates coincide modulo the lattice."""


class SingularConfiguration(TorusGasError):
    """A +/- pair separation sits on the lattice, so theta1 vanishes."""


class SingularSeparation(TorusGasError):
    """Kernel evaluated at coincident arguments (simple pole)."""


class FluxMismatch(TorusGasError):
    """Geometry violates the integer flux condition W2 = 2*pi*l^2*N/L."""


class DegenerateGeometry(TorusGasError):
    """A period component required by the requested formula vanishes."""


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
