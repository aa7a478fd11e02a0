"""Lowest-Landau-level states on a torus and their Slater determinant.

A charged particle on a torus threaded by N flux quanta has an N-fold
degenerate lowest level. The basis states ``psi_lll(m, .)`` are periodic in x
with period L and quasi-periodic under the second period (W1, W2); the flux
condition W2 = 2*pi*l^2*N/L makes the two periodicities compatible. The filled
N-particle determinant ``slater_state`` factorizes into a center-of-mass theta
function times a theta-Vandermonde pair product, ``factored_state``; the two
closed forms are evaluated independently and compared through the constancy of
their ratio, which absorbs the overall root-of-unity bookkeeping.

The determinant calls no theta function: it sums each basis state as its
series of Gaussian images, in the frame where they localize (the torus turned
by -90 degrees when W2 < L), so its small part is not lost to cancellation
between O(1) entries. ``psi_lll`` keeps the theta3 closed form, and the
product form is built from theta1 and theta3. Both forms take one
configuration (N,) or a (D, N) stack, which ``factorization_ratio`` evaluates
with one stacked determinant and one call per theta kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometry,
    DimensionMismatch,
    FluxMismatch,
    ParameterOutOfRange,
    _check_count,
    _check_lengths,
)
from .geometry import _pairs
from .identities import _filled_level_phase, _finite_sides
from .theta import Nome, f_N, theta1, theta3

_FLUX_TOL = 1e-12
_IMAGE_WINDOW = 37.0   # a state's images below e^-37 of its largest are dropped


@dataclass(frozen=True)
class MagneticSetup:
    """Magnetic length l, x-period L, skew period (W1, W2), flux integer N."""

    l: float
    L: float
    W1: float
    W2: float
    N: int

    def __post_init__(self):
        _check_count(self.N)
        _check_lengths(l=self.l, L=self.L, W2=self.W2)
        if not math.isfinite(self.W1):
            raise ParameterOutOfRange(f"W1 = {self.W1!r} must be finite")
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
    _check_count(N)
    _check_lengths(l=l, L=L)
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
    _check_count(m, "m", 0)
    z = np.asarray(z, dtype=complex)
    tau, zbar = setup.tau, np.conj(z)
    vals = (
        np.exp(-(z.imag**2) / (2.0 * setup.l**2)) * _norm(setup.L, setup)
        * np.exp(1j * math.pi * tau * m * m / setup.N)
        * np.exp(-2j * math.pi * m * zbar / setup.L)
        * theta3(math.pi * (tau * m - setup.N * zbar / setup.L), setup.nome.power(setup.N))
    )
    return complex(vals) if vals.ndim == 0 else vals


def slater_state(config, setup: MagneticSetup) -> complex:
    """Filled-level N-particle state as det[psi_(k-1)(z_j)] / sqrt(N!), the
    states summed as their Gaussian images (``_slater``), not through theta3.
    """
    return complex(_slater(_coords(config, setup, 1), setup))


def factored_state(config, setup: MagneticSetup) -> complex:
    """Product form of the filled-level state:

        i^((N-1)(3N/2+1)) f_N(q) / ( sqrt(N!) (L N l sqrt(pi))^(N/2) )
            * e^(-sum y_j^2/(2 l^2))
            * theta_s( -pi sum conj(z_j)/L; q )
            * prod_{j<k} theta1( -pi (conj(z_k) - conj(z_j))/L; q )

    with s = 3 for N odd and s = 1 for N even.
    """
    return complex(_factored(_coords(config, setup, 1), setup))


def factorization_ratio(configs, setup: MagneticSetup) -> np.ndarray:
    """slater_state / factored_state across a (D, N) stack of configurations.

    The ratio is a configuration-independent constant (a root of unity); its
    constancy is the numerical content of the determinant factorization.
    A form or ratio out of double range raises PrecisionUnreachable.
    """
    zs = _coords(configs, setup, 2)
    slater, factored = _slater(zs, setup), _factored(zs, setup)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _finite_sides("Landau factorization", slater, factored, slater / factored)[2]


def _slater(zs: np.ndarray, setup: MagneticSetup):
    """slater_state of one configuration (N,) or of each row of a (D, N)
    stack, with no theta call. Each basis state is its image sum, the theta3
    series of ``psi_lll`` with its q-power and Gaussian multiplied in:

        psi_m(z) = norm * sum_{k = m mod N} e^(-a (y + k W2/N)^2 - 2 pi i k x/L
                                                 - i pi W1 k^2/(N L)),

    a = pi N/(L W2), norm = 1/sqrt(L l sqrt(pi)); every term has modulus <= 1.
    It is summed in one of two frames.

    Direct (W2 >= L, or a skewed torus): the Gaussians in y, spaced W2/N.

    Rotated (W2 < L, W1 = 0): Poisson summation over each state's images
    turns them into Gaussians in x, spaced L/N:

        psi_m = sum_n F_nm chi_n,   F_nm = e^(-2 pi i n m/N) / sqrt(N),
        chi_n(z) = e^(i x y/l^2) / sqrt(W2 l sqrt(pi))
                   * sum_{k = n mod N} e^(-a (x - k L/N)^2 - 2 pi i k y/W2).

    The chi_n are the states of the torus turned by -90 degrees,
    (x, y) -> (y, L - x), in their own Landau gauge. So the determinant is
    e^(i sum_j x_j y_j/l^2) det F det[chi_n(z_j) without its phase], and
    det F, the determinant of the unitary DFT, is i^((N-1)(N+2)/2): the
    product of its eigenvalues 1, -1, -i, i at their multiplicities
    (McClellan and Parks, 1972).

    Each entry keeps every image within e^-_IMAGE_WINDOW of its largest;
    the images of one configuration's row are one run k0, k0 + 1, ... with
    k0 = 0 mod N, so that image k0 + t falls in column t mod N. One stacked
    determinant serves every Slater matrix.
    """
    N, x, y = setup.N, zs.real, zs.imag
    if setup.W2 >= setup.L or setup.W1 != 0.0:   # direct
        h, period = setup.W2 / N, setup.L
        c, iv = y / h, (-2j * math.pi / setup.L) * x
        skew, phase = math.pi * setup.W1 / (N * setup.L), 1.0
    else:                                         # rotated
        h, period, skew = setup.L / N, setup.W2, 0.0
        c, iv = x / -h, (-2j * math.pi / setup.W2) * y
        dft = 1j ** ((((N - 1) * (N + 2)) // 2) % 4)
        phase = dft * np.exp(1j * (x * y).sum(axis=-1) / setup.l**2)
    # term k is e^(-ah2 (c + k)^2 + iv k - i skew k^2), with c the row's
    # Gaussian coordinate and ah2 = a in units of the image spacing h
    ah2 = math.pi * N * h * h / (setup.L * setup.W2)
    # The row's Gaussian peaks at k = -c; each column's largest image is at
    # most N/2 from there.
    reach = math.sqrt(_IMAGE_WINDOW / ah2 + N * N / 4.0)
    width = N * (int(2.0 * reach / N) + 2)
    k0 = (-reach - c) // N * N
    t = np.arange(width)
    # the phases at k = k0 + t by powers along t
    terms = np.empty(zs.shape + (width,), dtype=complex)
    if skew:
        terms[..., 0] = np.exp(k0 * (iv - 1j * skew * k0))
        terms[..., 1:] = np.exp(iv - 2j * skew * k0)[..., None]
    else:
        terms[..., 0] = np.exp(iv * k0)
        terms[..., 1:] = np.exp(iv)[..., None]
    np.cumprod(terms, axis=-1, out=terms)
    if skew:
        terms *= np.exp(-1j * skew * t * t)
    d = (c + k0)[..., None] + t
    d *= d
    d *= -ah2
    terms *= np.exp(d, out=d)
    mat = terms.reshape(zs.shape + (width // N, N)).sum(axis=-2)   # psi_m(z_j) / norm
    scale = _norm(period, setup) ** N / math.sqrt(math.factorial(N))
    return np.linalg.det(mat) * (scale * phase)


def _factored(zs: np.ndarray, setup: MagneticSetup):
    """factored_state of one configuration (N,) or of each row of a (D, N)
    stack: one theta1 call for the centre of mass and the pairs when N is
    even, theta3 and theta1 calls when N is odd."""
    N = setup.N
    nome = setup.nome
    zbar = np.conj(zs)

    pref = _filled_level_phase(N) * f_N(N, nome)
    pref /= math.sqrt(math.factorial(N)) * (setup.L * N * setup.l * math.sqrt(math.pi)) ** (N / 2.0)
    gauss = np.exp(-(zs.imag**2).sum(axis=-1) / (2.0 * setup.l**2))

    com = -math.pi * zbar.sum(axis=-1) / setup.L
    iu, ju = _pairs(N)
    pairs = -math.pi * (zbar[..., ju] - zbar[..., iu]) / setup.L
    if N % 2 == 0:
        t1 = theta1(np.concatenate([com[..., None], pairs], axis=-1), nome)
        com, pair = t1[..., 0], t1[..., 1:].prod(axis=-1)
    else:
        com = theta3(com, nome)
        pair = theta1(pairs, nome).prod(axis=-1) if N > 1 else 1.0 + 0j
    return pref * gauss * com * pair


def _norm(period: float, setup: MagneticSetup) -> float:
    """Normalization 1/sqrt(period l sqrt(pi)) of a level state periodic in
    ``period``."""
    return 1.0 / math.sqrt(period * setup.l * math.sqrt(math.pi))


def _coords(config, setup: MagneticSetup, ndim: int) -> np.ndarray:
    """Complex coordinates of one configuration (ndim 1, shape (N,)) or of a
    (D, N) stack (ndim 2), checked against the flux integer N."""
    try:
        zs = np.asarray(getattr(config, "zs", config), dtype=complex)
    except ValueError as exc:   # a ragged stack, say
        raise DimensionMismatch(f"not an array of coordinates: {exc}") from None
    if zs.ndim != ndim or zs.shape[-1] != setup.N:
        raise DimensionMismatch(f"coordinates of shape {zs.shape} for N = {setup.N}")
    return zs
