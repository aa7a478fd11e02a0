"""Exception hierarchy for torusgas, and the count and real-parameter checks
that every module applies alike. Each refusal is a TorusGasError subclass:

- NomeOutOfRange: no nome (0 < |q| < 1, finite tau), past |q| = 0.95, or complex for eta_q;
- ParameterOutOfRange: an argument outside its domain (also a ValueError);
- PrecisionUnreachable: a value out of double range or lost to cancellation;
- DimensionMismatch: inputs that disagree about the particle number N;
- CoincidentPoints: two points, or a kernel's argument, on the period lattice;
- QuadratureNonConvergence: no two lattice-rule grids agree in the budget.

Every count or signed mode index goes through ``_check_count``, every real
parameter (L, W, l, W2, zeta, Gamma, y') through ``_check_real`` and a result out
of double range through ``_check_finite``; a nan or inf coordinate gives nan
with no numpy warning unless a function refuses it by name, and a finite
coordinate too far from the cell for a finite value is refused through
``_check_far``.
"""

import cmath
import math
import numbers

import numpy as np


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
    """Refuse a count or index that is not an integer >= ``least`` (numpy integers
    are; a bool is not; a signed index takes -inf) with ParameterOutOfRange."""
    if isinstance(N, bool) or not isinstance(N, (int, numbers.Integral)) or N < least:
        raise ParameterOutOfRange(f"{name} must be an integer >= {least}, got {N!r}")


def _check_real(x, name: str, lo=-math.inf, closed: bool = False) -> None:
    """Refuse an x that is not a finite real number above ``lo``, or at least
    ``lo`` when ``closed`` (zeta >= 0 is), with ParameterOutOfRange naming it."""
    if (isinstance(x, bool) or not isinstance(x, (float, numbers.Real))   # float first: fast
            or not lo <= x < math.inf or x == lo and not closed):
        raise ParameterOutOfRange(f"{name} = {x!r} must be a finite real {'>=' if closed else '>'} {lo}")


def _check_finite(value, what: str):
    """``value``, refused with PrecisionUnreachable when ``what`` is out of double range."""
    if not math.isfinite(value):
        raise PrecisionUnreachable(f"{what} = {value} leaves double range")
    return value


def _check_far(values, coords, what: str):
    """``values``, refused with PrecisionUnreachable where one is not finite
    although the coordinates it is computed from are: a coordinate too far from
    the cell, say. Each value of an array has its own coordinate (``coords``,
    broadcast against ``values``); a scalar value has all of them. A nan or inf
    coordinate keeps its nan. An array is summed first, one pass that any
    non-finite value spreads to, under the caller's error state, which must
    ignore overflow and invalid."""
    if isinstance(values, complex | float):   # a Python or numpy scalar: fast
        if cmath.isfinite(values) or not np.isfinite(coords).all():
            return values
    elif (cmath.isfinite(values.sum())
          or not (np.isfinite(coords) & ~np.isfinite(values)).any()):
        return values
    raise PrecisionUnreachable(f"{what} leaves double range at a finite coordinate")
