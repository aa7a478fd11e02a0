"""Lowest-Landau-level states on a torus and their Slater determinant.

A charged particle on a torus threaded by N flux quanta has an N-fold
degenerate lowest level. The basis states ``psi_lll(m, .)`` are periodic in x
with period L and quasi-periodic under the second period (W1, W2); the flux
condition W2 = 2*pi*l^2*N/L makes the two periodicities compatible. The filled
N-particle determinant ``slater_state`` factorizes into a center-of-mass theta
function times a theta-Vandermonde pair product, ``factored_state``; the two
closed forms are evaluated independently and compared through the constancy of
their ratio, which absorbs the overall root-of-unity bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, DimensionMismatch, FluxMismatch, ParameterOutOfRange
from .theta import Nome, f_N, theta1, theta3

_FLUX_TOL = 1e-12


@dataclass(frozen=True)
class MagneticSetup:
    """Magnetic length l, x-period L, skew period (W1, W2), flux integer N."""

    l: float
    L: float
    W1: float
    W2: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ParameterOutOfRange("N must be >= 1")
        if self.l <= 0 or self.L <= 0 or self.W2 <= 0:
            raise ParameterOutOfRange("l, L, W2 must be positive")
        target = 2.0 * math.pi * self.l**2 * self.N / self.L
        if abs(self.W2 - target) > _FLUX_TOL * max(1.0, abs(self.W2)):
            raise FluxMismatch(
                f"W2 = {self.W2} but 2*pi*l^2*N/L = {target}; flux is not integer"
            )

    @property
    def tau(self) -> complex:
        return complex(-self.W1, self.W2) / self.L

    @property
    def nome(self) -> Nome:
        return Nome.from_tau(self.tau)

    @classmethod
    def from_flux(cls, L: float, N: int, l: float, W1: float = 0.0) -> "MagneticSetup":
        """Fix W2 from the flux condition W2 = 2*pi*l^2*N/L."""
        return cls(l=l, L=L, W1=W1, W2=flux_constraint(N, l, L), N=N)

    @classmethod
    def plasma_mapping(cls, L: float, N: int) -> "MagneticSetup":
        """Rectangular setup with 1/l^2 = 2*pi, so W2 = N/L and the squared
        ground state maps onto the Gamma = 2 plasma weight."""
        return cls.from_flux(L=L, N=N, l=1.0 / math.sqrt(2.0 * math.pi))


def flux_constraint(N: int, l: float, L: float) -> float:
    """Second-period height W2 = 2*pi*l^2*N/L enclosing exactly N flux quanta."""
    if N < 1 or l <= 0 or L <= 0:
        raise ParameterOutOfRange("need N >= 1 and positive l, L")
    return 2.0 * math.pi * l * l * N / L


def gauge_f(x: float, y: float, B: float, W1: float, W2: float) -> float:
    """Gauge function with gradient A^W - A^L:

        f(x, y) = (B/2) ( W2 x^2 / (2 W1) + x y - W1 y^2 / (2 W2) )

    In the rectangular limit W1 -> 0 this degenerates to B x y / 2.
    """
    if W2 == 0:
        raise DegenerateGeometry("W2 = 0 leaves no flux period")
    if W1 == 0.0:
        return B * x * y / 2.0
    return B / 2.0 * (W2 * x * x / (2.0 * W1) + x * y - W1 * y * y / (2.0 * W2))


def psi_lll(m: int, z, setup: MagneticSetup):
    """Lowest-level state m (0 <= m <= N-1) at complex position z:

        e^(-y^2/(2 l^2)) / sqrt(L l sqrt(pi))
            * q^(m^2/N) e^(-2 pi i m conj(z)/L)
            * theta3( pi (tau m - N conj(z)/L); q^N )

    with q = e^(i pi tau). Periodic in x; under z -> z + W1 + i W2 it picks up
    the phase e^(i W2 (2x + W1)/(2 l^2)).
    """
    if not 0 <= m <= setup.N - 1:
        raise DimensionMismatch(f"m = {m} outside 0..{setup.N - 1}")
    vals = _psi(m, np.asarray(z, dtype=complex), setup)
    if vals.ndim == 0:
        return complex(vals)
    return vals


def _psi(m, z: np.ndarray, setup: MagneticSetup) -> np.ndarray:
    """psi_lll with levels m and positions z broadcast against each other, so
    a whole Slater matrix takes one theta3 call."""
    tau = setup.tau
    zbar = np.conj(z)
    gauss = np.exp(-(z.imag**2) / (2.0 * setup.l**2))
    norm = 1.0 / math.sqrt(setup.L * setup.l * math.sqrt(math.pi))
    q_pow = np.exp(1j * math.pi * tau * m * m / setup.N)
    plane = np.exp(-2j * math.pi * m * zbar / setup.L)
    big = theta3(math.pi * (tau * m - setup.N * zbar / setup.L), setup.nome.power(setup.N))
    return gauss * norm * q_pow * plane * big


def slater_state(config, setup: MagneticSetup) -> complex:
    """Filled-level N-particle state as det[psi_(k-1)(z_j)] / sqrt(N!).

    Evaluating the determinant of the normalized single-particle states is
    algebraically identical to pulling the Gaussian and q-power prefactors out
    front, and keeps the matrix entries O(1).
    """
    zs = _coords(config)
    if len(zs) != setup.N:
        raise DimensionMismatch(f"{len(zs)} coordinates for N = {setup.N}")
    mat = _psi(np.arange(setup.N), zs[:, None], setup)   # mat[j, m] = psi_m(z_j)
    return complex(np.linalg.det(mat)) / math.sqrt(math.factorial(setup.N))


def factored_state(config, setup: MagneticSetup) -> complex:
    """Product form of the filled-level state:

        i^((N-1)(3N/2+1)) f_N(q) / ( sqrt(N!) (L N l sqrt(pi))^(N/2) )
            * e^(-sum y_j^2/(2 l^2))
            * theta_s( -pi sum conj(z_j)/L; q )
            * prod_{j<k} theta1( -pi (conj(z_k) - conj(z_j))/L; q )

    with s = 3 for N odd and s = 1 for N even.
    """
    zs = _coords(config)
    N = setup.N
    if len(zs) != N:
        raise DimensionMismatch(f"{len(zs)} coordinates for N = {N}")
    nome = setup.nome
    zbar = np.conj(zs)

    exponent = ((N - 1) * (3 * N + 2)) // 2
    pref = (1j ** (exponent % 4)) * f_N(N, nome)
    pref /= math.sqrt(math.factorial(N)) * (setup.L * N * setup.l * math.sqrt(math.pi)) ** (N / 2.0)
    gauss = math.exp(-float(np.sum(zs.imag**2)) / (2.0 * setup.l**2))

    if N % 2 == 1:
        com = theta3(-math.pi * np.sum(zbar) / setup.L, nome)
    else:
        com = theta1(-math.pi * np.sum(zbar) / setup.L, nome)
    pair = 1.0 + 0j
    if N > 1:
        iu, ju = np.triu_indices(N, k=1)
        pair = complex(np.prod(theta1(-math.pi * (zbar[ju] - zbar[iu]) / setup.L, nome)))
    return complex(pref * gauss * com * pair)


def factorization_ratio(configs, setup: MagneticSetup) -> np.ndarray:
    """slater_state / factored_state across configurations.

    The ratio is a configuration-independent constant (a root of unity); its
    constancy is the numerical content of the determinant factorization.
    """
    return np.array(
        [slater_state(c, setup) / factored_state(c, setup) for c in configs]
    )


def _coords(config) -> np.ndarray:
    zs = getattr(config, "zs", config)
    return np.asarray(zs, dtype=complex)
