"""Jacobi theta functions, the eta-type q-product, and combinatorial prefactors.

One private series engine serves theta1, theta3, theta4, log|theta1| and
theta1'(0). ``_coefficients`` builds the truncation index n* and the series
coefficients once per (Nome, SeriesPrecision) and caches them, together with
each series rewritten as a polynomial in x = e^(2iu) and 1/x.
``_evaluate`` reduces the argument into the fundamental strip |Re u| <= pi/2,
|Im u| <= pi*Im(tau)/2, takes one exponential per point and runs one Horner
recurrence over the stacked pair (x, 1/x), so the cost per point does not
grow with a transcendental per term; theta1 carries a factor sin(u), which
keeps it relatively accurate next to its zero. The exact quasi-periodicity
multiplier then restores theta at the original argument, so evaluation stays
well conditioned for arbitrary arguments; a value that overflows a double
raises PrecisionUnreachable (log|theta1| never does). f_N, qpochhammer_sq and
eta_q share one cached (q^2; q^2)_inf product.

The series are summed to an absolute tail bound, which towards q -> 1 cancels
theta4(0) and theta1'(0) to noise. So a real nome with Im(tau) = t < 1 is
summed at the dual tau' = -1/tau = i/t (DLMF 20.7(viii)), where |q'| <= e^(-pi):
every real nome up to the cap |q| <= 0.95 is then accurate in relative terms.
Complex (skewed-torus) nomes are summed directly.

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
# Below this |u| theta1's factor sin(u) is taken by np.sin: (e^(iu) - e^(-iu))/2i
# has relative error ~ eps cosh(Im u) / |sin u|, at most ~2 eps for |u| >= 1/2 in
# the strip but growing as eps/|u| towards the zero at u = 0.
_SINE_CANCEL = 0.5


@dataclass(frozen=True)
class Nome:
    """Modular parameter pair (q, tau) with q = exp(i*pi*tau), Im(tau) > 0.

    Both representations are stored because the series need q-powers while the
    argument reduction and fractional powers need tau (branch free).
    """

    q: complex
    tau: complex

    def __post_init__(self):
        if abs(self.q) > _QMAX:  # the accepted domain, every real nome accurate up to it
            raise NomeOutOfRange(f"|q| = {abs(self.q)} outside the accepted domain |q| <= {_QMAX}")
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


def _terms(tau: complex, precision: SeriesPrecision) -> dict:
    """(frequencies, coefficients) by theta index, q-powers on the tau branch:
    theta1 sums 2 (-1)^(j-1) q^((j-1/2)^2) sin((2j-1) u); theta3 and theta4
    add 2 q^(j^2) cos(2j u) and 2 (-1)^j q^(j^2) cos(2j u) to 1; j = 1..n*."""
    js = np.arange(1, precision.n_star(math.exp(-math.pi * tau.imag)) + 1)
    odd = 2.0 * (-1.0) ** (js - 1) * np.exp(1j * math.pi * tau * (js - 0.5) ** 2)
    even3 = 2.0 * np.exp(1j * math.pi * tau * js**2)
    return {1: (2 * js - 1, odd), 3: (2 * js, even3), 4: (2 * js, (-1.0) ** js * even3)}


@functools.lru_cache(maxsize=64)
def _coefficients(nome: Nome, precision: SeriesPrecision) -> dict:
    """The theta series of a nonzero nome, as read-only arrays by theta index.

    ``modular`` is t when tau = it with t < 1, else None: there the series at
    tau (see ``_terms``) cancel towards q -> 1, so only the series at the dual
    tau' = -1/tau = i/t is built and summed, |q'| <= e^(-pi), and the cap
    ``max_terms`` applies to its n*.

    ``horner[kind]`` is (constant, a), the series summed as constant + p(x) +
    p(1/x) with x = e^(2iu), p(x) = sum_k a_k x^k and a = [a_K, ..., a_1],
    leading coefficient first. theta3/theta4 take a_j = c_j / 2 and constant 1.
    theta1 is sin(u) times such a sum: sin((2j-1)u) / sin(u) = 1 + 2 sum_{k<j}
    cos(2ku), so a_k = sum_{j>k} c_j and the constant is sum_j c_j. Factoring
    sin(u) out keeps theta1 relatively accurate next to its zero at u = 0.
    When modular, kinds 1, 3 and 4 hold -i t^(-1/2) theta1, t^(-1/2) theta3
    and t^(-1/2) theta1 at tau' (DLMF 20.7.30-32). ``prime0`` is theta1'(0) =
    sum_j (2j-1) c_j of the summed series, times t^(-3/2) when modular.
    """
    t = nome.tau.imag
    modular = nome.tau.real == 0 and t < 1.0
    summed = _terms(1j / t if modular else nome.tau, precision)
    freqs, odd = summed[1]
    tails = np.cumsum(odd[::-1])[::-1]
    const1, a1, a3 = complex(tails[0]), tails[:0:-1].copy(), 0.5 * summed[3][1][::-1]
    if modular:
        r = t**-0.5
        horner = {1: (-1j * r * const1, -1j * r * a1), 3: (r, r * a3), 4: (r * const1, r * a1)}
    else:
        horner = {1: (const1, a1), 3: (1.0, a3), 4: (1.0, 0.5 * summed[4][1][::-1])}
    for _, coeffs in horner.values():  # cached: every caller shares them
        coeffs.setflags(write=False)
    return {
        "horner": horner,
        "modular": t if modular else None,
        "prime0": complex(np.sum(odd * freqs)) * (t**-1.5 if modular else 1.0),
    }


def _horner(const, coeffs, v, odd: bool, scalar: bool):
    """const + p(x) + p(1/x) at x = e^(2iv), times sin(v) when ``odd``, by one
    Horner recurrence on the stacked pair (x, 1/x): one exponential per point."""
    w = np.exp(1j * v)
    iw = 1.0 / w
    xs = np.array((w, iw))
    xs *= xs
    acc = coeffs[0] * xs
    for c in coeffs[1:]:
        acc += c
        acc *= xs
    series = const + acc[0] + acc[1]
    if odd:  # sin(v) = (w - 1/w)/2i, by np.sin where that cancels
        if scalar:
            sine = np.sin(v)
        else:
            sine = (w - iw) * -0.5j
            np.sin(v, out=sine, where=np.abs(v) < _SINE_CANCEL)
        series = sine * series
    return series


def _evaluate(kind: int, z, nome: Nome, precision: SeriesPrecision, log_abs: bool = False):
    """theta_kind(z; q) for kind 1, 3 or 4, or log|theta1(z; q)| with ``log_abs``.

    z = u + m*pi + n*pi*tau with u in the fundamental strip. Directly, the
    series is summed at u and the multiplier q^(-n^2) e^(-2inu) restores
    theta(z). For tau = it, t < 1, DLMF 20.7.30-32 give

        theta(u | it) = t^(-1/2) e^(-u^2/(pi t)) * theta'(iu/t | i/t)

    with theta' = -i theta1, theta3 and theta2 for theta1, theta3 and theta4,
    theta2(v) = theta1(v + pi/2); iu/t lies in the dual strip, where the shift
    n is a sign, so e^(-(u + n pi tau)^2/(pi t)) is the multiplier. Both then
    take (-1)^(m+n) for theta1 and (-1)^n for theta4. For log_abs the log
    modulus of the multiplier enters additively, so arguments far from the
    strip are safe; otherwise a value that overflows raises PrecisionUnreachable.
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    if nome.q == 0:  # tau = i*inf: theta1 vanishes, theta3 = theta4 = 1
        return _as_output(np.full(z_arr.shape, 0j if kind == 1 else 1 + 0j), scalar)
    u, m, n = _reduce(z_arr, nome.tau)
    if scalar:  # numpy scalars: the same arithmetic without 0-d array overhead
        u, m, n = u[()], m[()], n[()]
    shifted = n.any()   # some point lies outside the strip
    coefficients = _coefficients(nome, precision)
    const, coeffs = coefficients["horner"][kind]
    t = coefficients["modular"]
    if t is None:
        series = _horner(const, coeffs, u, kind == 1, scalar)
    else:
        half = 0.5 * math.pi if kind == 4 else 0.0
        series = _horner(const, coeffs, u * (1j / t) + half, kind != 3, scalar)
        # -(a + ib)^2/(pi t), a + ib = u + n*pi*tau: real arithmetic rounds scalars as arrays
        a, b = u.real, u.imag + math.pi * t * n if shifted else u.imag
        log_mod = (b - a) * (b + a) / (math.pi * t)
    if log_abs:
        if t is None:
            log_mod = math.pi * nome.tau.imag * n * n + 2 * n * u.imag
        vals = log_mod + np.log(np.abs(series))
        return float(vals) if scalar else vals
    if kind != 3:  # (-1)^(m+n) or (-1)^n, exact for every integer-valued k
        series = (1.0 - 2.0 * np.fmod(m + n if kind == 1 else n, 2) ** 2) * series
    if t is not None:
        series = np.exp(log_mod - 2j * (a * b / (math.pi * t))) * series
    elif shifted:
        series = np.exp(_shift_exponent(u, n, nome.tau)) * series
    vals = complex(series) if scalar else series
    total = vals if scalar else vals.sum()  # inf or nan in any value spreads to it
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        bad = ~np.isfinite(vals)
        if np.isfinite(z_arr[bad]).any():
            raise PrecisionUnreachable(
                f"theta{kind} of a finite argument overflows a double "
                f"(quasi-periodicity shift n up to {np.max(np.abs(n)):.0f})"
            )
    return vals


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
    """d theta1 / dz at z = 0, from the differentiated series at tau, or as
    t^(-3/2) theta1'(0 | i/t) for tau = it, t < 1, where that one cancels.

    Equals 2 q^(1/4) prod (1-q^(2n))^3; the product route is kept as an
    independent check in the test suite.
    """
    nome = Nome.coerce(nome)
    if nome.q == 0:
        return 0j
    return _coefficients(nome, precision)["prime0"]


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

