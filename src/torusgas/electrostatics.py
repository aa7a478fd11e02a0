"""Doubly periodic electrostatics on the rectangular torus.

``phi_quasi`` solves the 2d Poisson equation with x-periodicity and the exact
short-distance law -log|z - z'|; it is quasi-periodic in y, picking up the
anomaly -(pi/L)(2(y-y') + W) per period because an isolated charge cannot be
periodized. Adding the neutralizing quadratic term gives ``phi_periodic``,
which is doubly periodic and whose Laplacian away from the source equals the
background value 2*pi/(L W). The one-component-plasma Boltzmann weight built
from these potentials is exposed in closed form, together with the center-of-
mass factor that turns the quasi-periodic plasma into a fully periodic one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CoincidentPoints, PrecisionUnreachable, _check_far, _check_finite, _check_real
from .geometry import ParticleConfig, TorusGeometry, _config_count, _pairs
from .theta import _log_abs_theta1_apart, log_abs_theta1, theta1_prime0


def _pair_log_theta(d, geom: TorusGeometry, coincident="z - z' lies on the period lattice"):
    """log|theta1(pi d/L)| of separations d = z - z'; a d on the lattice raises
    CoincidentPoints first. Its callers hold the errstate in which a nan or inf
    d gives nan."""
    logs = _log_abs_theta1_apart(np.pi * d / geom.L, geom.nome_WL)
    if logs is None:
        raise CoincidentPoints(coincident)
    return logs


def _log_prefactor(N: int, geom: TorusGeometry) -> float:
    """The Gamma = 2 prefactor of the N-particle plasma weight,
    N log(pi theta1'(0)/L) - (N^2/3) log(theta1'(0)/2) at q = exp(-pi W/L)."""
    tp = theta1_prime0(geom.nome_WL).real
    return N * math.log(math.pi * tp / geom.L) - (N * N / 3.0) * math.log(tp / 2.0)


def phi_quasi(z, zp, geom: TorusGeometry):
    """Quasi-periodic Coulomb potential -log( L|theta1(pi(z-z')/L)| / (pi theta1'(0)) ).

    Periodic in x; a shift y -> y + W adds -(pi/L)(2(y-y') + W). A z - z' on
    the period lattice is refused before any refusal of theta.
    """
    return _potential(z, zp, geom, False)


def phi_periodic(z, zp, geom: TorusGeometry):
    """Doubly periodic potential pi*(y-y')^2/(LW) + phi_quasi(z, z')."""
    return _potential(z, zp, geom, True)


def _potential(z, zp, geom: TorusGeometry, periodic: bool):
    """phi_quasi, plus pi*(y-y')^2/(LW) when ``periodic``, under one errstate."""
    with np.errstate(invalid="ignore", over="ignore"):   # a nan or inf z or z' gives nan
        d = np.asarray(z, dtype=complex) - zp
        logs = _pair_log_theta(d, geom)
        phi = -(math.log(geom.L / (math.pi * theta1_prime0(geom.nome_WL).real)) + logs)
        if periodic:
            phi = math.pi * d.imag * d.imag / geom.area + phi
        return _check_far(phi, d, "phi_periodic" if periodic else "phi_quasi")


def background_I(yp: float, geom: TorusGeometry) -> float:
    """Closed form of the log|theta1| cell integral,

        int_0^L dx int_0^W dy log|theta1(pi((x-x') + i(y-y'))/L; q)|
            = (LW/3) log(theta1'(0)/2) + pi (y' - W/2)^2 + pi W^2/12,

    independent of x' by periodicity, at every finite y' (a value out of double
    range is refused). Verified against adaptive quadrature in the test suite.
    """
    _check_real(yp, "yp")
    tp = theta1_prime0(geom.nome_WL).real
    d = np.float64(yp - geom.W / 2.0)   # its ** is libm pow, as a float's is, but gives inf, not raises
    with np.errstate(over="ignore"):
        value = geom.area / 3.0 * math.log(tp / 2.0) + math.pi * d**2 + math.pi * geom.W**2 / 12.0
    return _check_finite(float(value), f"background_I at y' = {yp!r}")


def ocp_log_boltzmann(config: ParticleConfig, Gamma: float, geom: TorusGeometry) -> float:
    """log of the plasma Boltzmann factor exp(-beta(U1 + U2 + U3)):

        (N*Gamma/2) log(pi theta1'(0)/L) - (Gamma N^2/6) log(theta1'(0)/2)
        - pi rho Gamma sum_j (y_j - W/2)^2
        + Gamma sum_{j<k} log|theta1(pi(z_k - z_j)/L; q)|

    with q = exp(-pi W/L). The three-term energy assembly (pair sum, background
    integral, background self-energy) reproduces this exactly; the test suite
    checks that route against this closed form.
    """
    N = _config_count(config, geom)
    with np.errstate(invalid="ignore", over="ignore"):   # a nan or inf coordinate gives nan
        if N > 1:   # pairs first: a coincidence is refused before any other error
            iu, ju = _pairs(N)
            pairs = _pair_log_theta(config.zs[ju] - config.zs[iu], geom,
                                    "two coordinates coincide modulo the lattice")
        spread = float(((config.ys - geom.W / 2.0) ** 2).sum())
    _check_real(Gamma, "Gamma")
    val = Gamma / 2.0 * _log_prefactor(N, geom)
    val -= math.pi * geom.rho * Gamma * spread
    if N > 1:
        val += Gamma * float(pairs.sum())
    if not math.isfinite(val) and np.isfinite(config.zs).all():   # nan: the coordinate rule
        raise PrecisionUnreachable(f"the log Boltzmann factor at Gamma = {Gamma!r} overflows a double")
    return val


def nbody_weight(config: ParticleConfig, geom: TorusGeometry) -> float:
    """Center-of-mass weight |theta1(pi sum_j (conj(z_j) - (L - iW)/2)/L; q)|^2.

    Taken as e^(2 log|theta1|); non-negative, zero when the shifted center of
    mass hits the lattice. Raises PrecisionUnreachable when the weight
    overflows a float.
    """
    s = (np.conj(config.zs) - (geom.L - 1j * geom.W) / 2.0).sum()
    with np.errstate(over="ignore", invalid="ignore"):
        weight = float(np.exp(2.0 * log_abs_theta1(math.pi * s / geom.L, geom.nome_WL)))
    return _check_finite(weight, "center-of-mass weight |theta1|^2")


def coulomb_energy_terms(config: ParticleConfig, geom: TorusGeometry):
    """The three energies (per unit charge squared) defining the plasma:

    U1: pairwise quasi-periodic interaction,
    U2: particle-background, -rho * integral of phi_quasi over the cell,
    U3: background-background self energy, +rho^2/2 * double cell integral.

    Returns (U1, U2, U3) with beta*q^2 folded out, so beta*U_total =
    Gamma * (U1 + U2 + U3).
    """
    N = _config_count(config, geom)
    L, W = geom.L, geom.W
    rho = geom.rho
    tp = theta1_prime0(geom.nome_WL).real
    log_norm = math.log(math.pi * tp / L)

    u1 = 0.0
    if N > 1:
        iu, ju = _pairs(N)
        u1 = float(phi_quasi(config.zs[ju], config.zs[iu], geom).sum())

    # cell integral of phi_quasi at height y: L W log(pi theta1'/L) - I(y)
    cell = np.array([geom.area * log_norm - background_I(y, geom) for y in config.ys])
    u2 = -rho * float(np.sum(cell))

    # double cell integral: int_0^W I(y) dy = (L W^2/3) log(theta1'/2) + pi W^3/6
    int_I = L * W * W / 3.0 * math.log(tp / 2.0) + math.pi * W**3 / 6.0
    u3 = 0.5 * rho * rho * (geom.area**2 * log_norm - L * int_I)
    return u1, u2, u3
