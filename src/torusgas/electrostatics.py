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

from .errors import CoincidentPoints, PrecisionUnreachable
from .geometry import ParticleConfig, TorusGeometry, _config_count, _pairs
from .theta import _log_abs_theta1, _log_abs_theta1_apart, theta1_prime0


def _pair_log_theta(z, zp, geom: TorusGeometry, coincident="z - z' lies on the period lattice"):
    """log|theta1(pi (z - z')/L)|; a z - z' on the lattice raises CoincidentPoints first."""
    logs = _log_abs_theta1_apart(np.pi * (np.asarray(z, dtype=complex) - zp) / geom.L, geom.nome_WL)
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
    logs = _pair_log_theta(z, zp, geom)
    return -(math.log(geom.L / (math.pi * theta1_prime0(geom.nome_WL).real)) + logs)


def phi_periodic(z, zp, geom: TorusGeometry):
    """Doubly periodic potential pi*(y-y')^2/(LW) + phi_quasi(z, z')."""
    z = np.asarray(z, dtype=complex)
    dy = z.imag - np.imag(zp)
    return math.pi * dy * dy / geom.area + phi_quasi(z, zp, geom)


def background_I(yp: float, geom: TorusGeometry) -> float:
    """Closed form of the log|theta1| cell integral,

        int_0^L dx int_0^W dy log|theta1(pi((x-x') + i(y-y'))/L; q)|
            = (LW/3) log(theta1'(0)/2) + pi (y' - W/2)^2 + pi W^2/12,

    independent of x' by periodicity. Verified against adaptive quadrature in
    the test suite.
    """
    tp = theta1_prime0(geom.nome_WL).real
    return (
        geom.area / 3.0 * math.log(tp / 2.0)
        + math.pi * (yp - geom.W / 2.0) ** 2
        + math.pi * geom.W**2 / 12.0
    )


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
    if N > 1:   # pairs first: a coincidence is refused before any other error
        iu, ju = _pairs(N)
        pairs = _pair_log_theta(config.zs[ju], config.zs[iu], geom,
                                "two coordinates coincide modulo the lattice")
    val = Gamma / 2.0 * _log_prefactor(N, geom)
    val -= math.pi * geom.rho * Gamma * float(((config.ys - geom.W / 2.0) ** 2).sum())
    if N > 1:
        val += Gamma * float(pairs.sum())
    return val


def nbody_weight(config: ParticleConfig, geom: TorusGeometry) -> float:
    """Center-of-mass weight |theta1(pi sum_j (conj(z_j) - (L - iW)/2)/L; q)|^2.

    Taken as e^(2 log|theta1|); non-negative, zero when the shifted center of
    mass hits the lattice. Raises PrecisionUnreachable when the weight
    overflows a float.
    """
    s = (np.conj(config.zs) - (geom.L - 1j * geom.W) / 2.0).sum()
    with np.errstate(over="ignore"):
        weight = float(np.exp(2.0 * _log_abs_theta1(math.pi * s / geom.L, geom.nome_WL)))
    if not math.isfinite(weight):
        raise PrecisionUnreachable(f"center-of-mass weight |theta1|^2 = {weight} is not finite")
    return weight


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
