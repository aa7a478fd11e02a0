"""Jacobi theta functions, the eta-type q-product, and combinatorial prefactors.

One private series engine serves theta1, theta3, theta4, log|theta1| and
theta1'(0). ``_coefficients`` builds the truncation index n* and the series
coefficients once per (Nome, SeriesPrecision) and caches them; ``_evaluate``
reduces the argument into the fundamental strip |Re u| <= pi/2,
|Im u| <= pi*Im(tau)/2, sums the series there and applies the exact
quasi-periodicity multiplier, so evaluation stays well conditioned for
arbitrary arguments. f_N, qpochhammer_sq and eta_q share one cached
(q^2; q^2)_inf product.

The series are summed to an absolute tail bound, so ``Nome`` refuses
|q| > 0.95; towards that cap theta4(0) and theta1'(0) lose relative accuracy
to cancellation. No modular transformation tau -> -1/tau is applied.

Conventions (q = e^{i*pi*tau}, Im tau > 0):

    theta1(z) = 2 * sum_{j>=1} (-1)^(j-1) q^((j-1/2)^2) sin((2j-1) z)
    theta3(u) = sum_n q^(n^2) e^(2iun)
    theta4(u) = sum_n (-1)^n q^(n^2) e^(2iun)

theta1 is odd with zeros exactly on the lattice pi*Z + pi*tau*Z; theta3 and
theta4 are even with period pi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NomeOutOfRange, ParameterOutOfRange, PrecisionUnreachable

_QMAX = 0.95


@dataclass(frozen=True)
class Nome:
    """Modular parameter pair (q, tau) with q = exp(i*pi*tau), Im(tau) > 0.

    Both representations are stored because the series need q-powers while the
    argument reduction and fractional powers need tau (branch free).
    """

    q: complex
    tau: complex

    def __post_init__(self):
        if abs(self.q) >= 1.0:
            raise NomeOutOfRange(f"|q| = {abs(self.q)} >= 1")
        if abs(self.q) > _QMAX:
            raise NomeOutOfRange(
                f"|q| = {abs(self.q)} > {_QMAX}; the theta series lose accuracy there"
            )
        if self.q != 0 and not (self.tau.imag > 0):
            raise NomeOutOfRange(f"Im(tau) = {self.tau.imag} must be positive")

    @classmethod
    def from_q(cls, q: complex | float) -> "Nome":
        q = complex(q)
        if q == 0:
            # Degenerate limit tau -> i*inf; reduction never shifts.
            return cls(0j, complex(0, math.inf))
        tau = -1j * np.log(q) / math.pi
        return cls(q, complex(tau))

    @classmethod
    def from_tau(cls, tau: complex) -> "Nome":
        tau = complex(tau)
        q = np.exp(1j * math.pi * tau)
        return cls(complex(q), tau)

    @classmethod
    def from_aspect(cls, W: float, L: float) -> "Nome":
        """Rectangular-torus nome q = exp(-pi*W/L)."""
        return cls.from_tau(1j * W / L)

    @classmethod
    def coerce(cls, value) -> "Nome":
        if isinstance(value, Nome):
            return value
        return cls.from_q(value)

    def root(self, N: int) -> "Nome":
        """Nome q^(1/N), taken on the tau/N branch."""
        return Nome.from_tau(self.tau / N)

    def power(self, N: int) -> "Nome":
        """Nome q^N, i.e. tau -> N*tau."""
        return Nome.from_tau(self.tau * N)

    def is_real_positive(self) -> bool:
        return self.q.imag == 0 and self.q.real > 0


@dataclass(frozen=True)
class SeriesPrecision:
    """Absolute tail bound and a hard cap on the summation index."""

    epsilon: float = 1e-14
    max_terms: int = 64

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ParameterOutOfRange("epsilon must be positive")
        if self.max_terms < 1:
            raise ParameterOutOfRange("max_terms must be >= 1")

    def n_star(self, q_abs: float) -> int:
        """Series truncation index: |q|^(n*^2) < epsilon, plus margin for the
        reduced-strip growth factor e^(2n|Im u|) <= |q|^(-n)."""
        if q_abs == 0.0:
            return 1
        t = math.log(self.epsilon) / math.log(q_abs)
        n = math.ceil(math.sqrt(t)) + 2
        if n > self.max_terms:
            raise PrecisionUnreachable(
                f"need {n} terms for epsilon={self.epsilon} at |q|={q_abs}, "
                f"cap is {self.max_terms}"
            )
        return n

    def k_star(self, q_abs: float) -> int:
        """Product truncation index: factors carry q^(2k), so the tail is
        geometric rather than Gaussian and needs k* ~ log(eps)/(2 log|q|)."""
        if q_abs == 0.0:
            return 1
        k = math.ceil(math.log(self.epsilon) / (2.0 * math.log(q_abs))) + 1
        if k > 40 * self.max_terms:
            raise PrecisionUnreachable(
                f"need {k} product factors for epsilon={self.epsilon} at |q|={q_abs}"
            )
        return k


DEFAULT_PRECISION = SeriesPrecision()


def _reduce(u, tau):
    """Shift u by m*pi + n*pi*tau into the fundamental strip.

    Returns (u_red, m, n) with u = u_red + m*pi + n*pi*tau.
    """
    u = np.asarray(u, dtype=complex)
    if math.isinf(tau.imag):
        n = np.zeros(u.shape)
    else:
        n = np.rint(u.imag / (math.pi * tau.imag))
    u1 = u - n * math.pi * tau if not math.isinf(tau.imag) else u
    m = np.rint(u1.real / math.pi)
    u_red = u1 - m * math.pi
    return u_red, m, n


def _shift_exponent(u_red, n, tau):
    """log of the quasi-periodicity multiplier q^(-n^2) e^(-2in u_red), q != 0.

    theta(u_red + n*pi*tau) picks up this factor (times a parity sign that
    depends on which theta), so theta(u) = sign * exp(this) * theta(u_red).
    """
    return -1j * math.pi * tau * n * n - 2j * n * u_red


def _as_output(values, scalar_input):
    values = np.asarray(values)
    if scalar_input:
        return complex(values)
    return values


@functools.lru_cache(maxsize=256)
def _coefficients(nome: Nome, precision: SeriesPrecision) -> dict:
    """(frequencies, coefficients) of each series at a nonzero nome, by theta index.

    theta1 sums 2 (-1)^(j-1) q^((j-1/2)^2) sin((2j-1) u); theta3 and theta4 add
    2 q^(j^2) cos(2j u) and 2 (-1)^j q^(j^2) cos(2j u) to 1; j = 1..n*. The
    q-powers are taken on the tau branch.
    """
    js = np.arange(1, precision.n_star(abs(nome.q)) + 1)
    odd = 2.0 * (-1.0) ** (js - 1) * np.exp(1j * math.pi * nome.tau * (js - 0.5) ** 2)
    even3 = 2.0 * np.exp(1j * math.pi * nome.tau * js**2)
    series = {1: (2 * js - 1, odd), 3: (2 * js, even3), 4: (2 * js, (-1.0) ** js * even3)}
    for arrays in series.values():
        for a in arrays:
            a.setflags(write=False)  # cached: every caller shares these arrays
    return series


def _evaluate(kind: int, z, nome: Nome, precision: SeriesPrecision, log_abs: bool = False):
    """theta_kind(z; q) for kind 1, 3 or 4, or log|theta1(z; q)| with ``log_abs``.

    With z = u + m*pi + n*pi*tau and u in the fundamental strip, the series is
    summed at u and the multiplier q^(-n^2) e^(-2inu), times (-1)^(m+n) for
    theta1 and (-1)^n for theta4, restores theta(z). For log_abs its exact log
    modulus enters additively, so arguments far from the strip are safe.
    """
    z_arr = np.asarray(z, dtype=complex)
    if nome.q == 0:  # tau = i*inf: theta1 vanishes, theta3 = theta4 = 1
        return _as_output(np.full(z_arr.shape, 0j if kind == 1 else 1 + 0j), z_arr.ndim == 0)
    u, m, n = _reduce(z_arr, nome.tau)
    freqs, coeffs = _coefficients(nome, precision)[kind]
    trig = np.sin if kind == 1 else np.cos
    series = np.tensordot(coeffs, trig(np.multiply.outer(freqs, u)), axes=(0, 0))
    if kind != 1:
        series = 1.0 + series
    if log_abs:
        vals = math.pi * nome.tau.imag * n * n + 2 * n * u.imag + np.log(np.abs(series))
        return float(vals) if z_arr.ndim == 0 else vals
    sign = 1.0 if kind == 3 else (-1.0) ** (m + n if kind == 1 else n)
    vals = sign * np.exp(_shift_exponent(u, n, nome.tau)) * series
    return _as_output(vals, z_arr.ndim == 0)


def theta1(z, nome, precision: SeriesPrecision = DEFAULT_PRECISION):
    """theta1(z; q), odd, vanishing exactly on pi*Z + pi*tau*Z."""
    return _evaluate(1, z, Nome.coerce(nome), precision)


def theta3(u, nome, precision: SeriesPrecision = DEFAULT_PRECISION):
    """theta3(u; q) = sum_n q^(n^2) e^(2iun)."""
    return _evaluate(3, u, Nome.coerce(nome), precision)


def theta4(u, nome, precision: SeriesPrecision = DEFAULT_PRECISION):
    """theta4(u; q) = sum_n (-1)^n q^(n^2) e^(2iun)."""
    return _evaluate(4, u, Nome.coerce(nome), precision)


def log_abs_theta1(z, nome, precision: SeriesPrecision = DEFAULT_PRECISION):
    """log|theta1(z; q)| computed overflow-free via the reduced argument."""
    nome = Nome.coerce(nome)
    if nome.q == 0:
        raise NomeOutOfRange("log|theta1| undefined at q = 0")
    return _evaluate(1, z, nome, precision, log_abs=True)


def theta1_prime0(nome, precision: SeriesPrecision = DEFAULT_PRECISION) -> complex:
    """d theta1 / dz at z = 0, from the differentiated series.

    Equals 2 q^(1/4) prod (1-q^(2n))^3; the product route is kept as an
    independent check in the test suite.
    """
    nome = Nome.coerce(nome)
    if nome.q == 0:
        return 0j
    freqs, coeffs = _coefficients(nome, precision)[1]
    return complex(np.sum(coeffs * freqs))


def theta1_product(z, nome, precision: SeriesPrecision = DEFAULT_PRECISION):
    """Product representation of theta1, for cross-checking the series:

        2 q^(1/4) sin z * prod_n (1-q^(2n) e^(2iz)) (1-q^(2n) e^(-2iz)) (1-q^(2n))
    """
    nome = Nome.coerce(nome)
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    if nome.q == 0:
        return _as_output(np.zeros(z_arr.shape, dtype=complex), scalar)
    u, m, n = _reduce(z_arr, nome.tau)
    kstar = precision.k_star(abs(nome.q))
    q_quarter = np.exp(1j * math.pi * nome.tau / 4)
    vals = 2.0 * q_quarter * np.sin(u)
    e2 = np.exp(2j * u)
    for k in range(1, kstar + 1):
        q2k = nome.q ** (2 * k)
        vals = vals * (1 - q2k * e2) * (1 - q2k / e2) * (1 - q2k)
    sign = (-1.0) ** (m + n)
    vals = sign * np.exp(_shift_exponent(u, n, nome.tau)) * vals
    return _as_output(vals, scalar)


def theta4_product(u, nome, precision: SeriesPrecision = DEFAULT_PRECISION):
    """Product representation of theta4:

        prod_n (1 - e^(2iu) q^(2n-1)) (1 - e^(-2iu) q^(2n-1)) (1 - q^(2n))
    """
    nome = Nome.coerce(nome)
    u_arr = np.asarray(u, dtype=complex)
    scalar = u_arr.ndim == 0
    if nome.q == 0:
        return _as_output(np.ones(u_arr.shape, dtype=complex), scalar)
    ur, _, n = _reduce(u_arr, nome.tau)
    kstar = precision.k_star(abs(nome.q))
    vals = np.ones(ur.shape, dtype=complex)
    e2 = np.exp(2j * ur)
    for k in range(1, kstar + 1):
        vals = vals * (1 - nome.q ** (2 * k - 1) * e2) * (1 - nome.q ** (2 * k - 1) / e2)
        vals = vals * (1 - nome.q ** (2 * k))
    sign = (-1.0) ** n
    vals = sign * np.exp(_shift_exponent(ur, n, nome.tau)) * vals
    return _as_output(vals, scalar)


def lattice_distance(z, nome):
    """|z - nearest lattice point| for the lattice pi*Z + pi*tau*Z.

    Exact for points near the lattice (where it is used to detect coincident
    coordinates); elsewhere it is the distance to the reduction image of 0.
    """
    nome = Nome.coerce(nome)
    u_red, _, _ = _reduce(np.asarray(z, dtype=complex), nome.tau)
    return np.abs(u_red)


@functools.lru_cache(maxsize=256)
def _q2_product(q: complex, precision: SeriesPrecision):
    """(q^2; q^2)_inf = prod_{k>=1} (1 - q^(2k)) for 0 < |q| < 1; a float for
    real q. 1 - q^(2k) differs from 1 by < epsilon once |q|^(2k) < epsilon."""
    kmax = max(1, math.ceil(math.log(precision.epsilon) / (2 * math.log(abs(q)))))
    base = q.real if q.imag == 0 else q
    return np.prod(1.0 - base ** (2 * np.arange(1, kmax + 1))).item()


def qpochhammer_sq(q: float, precision: SeriesPrecision = DEFAULT_PRECISION) -> float:
    """(q^2; q^2)_inf = prod_{k>=1} (1 - q^(2k)) for real q in [0, 1)."""
    if not 0.0 <= q < 1.0:
        raise NomeOutOfRange(f"q = {q} outside [0, 1)")
    return 1.0 if q == 0.0 else _q2_product(q, precision)


def eta_q(nome, precision: SeriesPrecision = DEFAULT_PRECISION) -> float:
    """q^(1/12) * prod_{k>=1} (1 - q^(2k)), for real nome 0 < q < 1.

    This is the Dedekind eta value at tau = -i ln(q)/pi; it satisfies the
    modular identity eta_q(e^(-pi*s)) = s^(-1/2) * eta_q(e^(-pi/s)).
    """
    q = nome.q if isinstance(nome, Nome) else complex(nome)
    if q.imag != 0 or not 0.0 < q.real < 1.0:
        raise NomeOutOfRange(f"eta_q needs a real nome 0 < q < 1, got {q}")
    return q.real ** (1.0 / 12.0) * _q2_product(q.real, precision)


def f_N(N: int, nome, precision: SeriesPrecision = DEFAULT_PRECISION):
    """N^(N/2) q^(-(N-1)(N-2)/24) (q^2; q^2)_inf^(-(N-1)(N-2)/2).

    A float for a real nome 0 < q < 1. Otherwise (skewed tori) a complex
    number, with the fractional q-power taken on the tau branch of the nome.
    """
    if N < 1:
        raise ParameterOutOfRange("N must be >= 1")
    q = nome.q if isinstance(nome, Nome) else complex(nome)
    if not 0.0 < abs(q) < 1.0:
        raise NomeOutOfRange(f"f_N needs 0 < |q| < 1, got {q}")
    e = (N - 1) * (N - 2)
    poch = _q2_product(q, precision)
    if q.imag == 0 and q.real > 0:
        return N ** (N / 2.0) * q.real ** (-e / 24.0) * poch ** (-e / 2.0)
    q_pow = np.exp(-1j * math.pi * Nome.coerce(nome).tau * e / 24.0)
    return complex(N ** (N / 2.0) * q_pow * poch ** (-e / 2.0))

