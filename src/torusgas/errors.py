"""Exception hierarchy for torusgas, and the count and period checks that
every module applies alike. Each refusal is a TorusGasError subclass:

- NomeOutOfRange: no nome (0 < |q| < 1, finite tau), past |q| = 0.95, or complex for eta_q;
- ParameterOutOfRange: an argument outside its domain (also a ValueError);
- PrecisionUnreachable: a value out of double range or lost to cancellation;
- DimensionMismatch: inputs that disagree about the particle number N;
- CoincidentPoints: two points, or a kernel's argument, on the period lattice;
- QuadratureNonConvergence: no two lattice-rule grids agree in the budget.

Every count goes through ``_check_count``, every length through
``_check_lengths``.
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
    """Two points coincide modulo the lattice, or a kernel's argument lies on it."""


class QuadratureNonConvergence(TorusGasError):
    """The lattice rule's grids did not agree within their point budget."""


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
