"""Jacobi theta functions, the eta-type q-product, and combinatorial prefactors.

One private series engine serves theta1, theta3, theta4, log|theta1| and
theta1'(0). ``_coefficients`` builds the truncation index n* and the series
coefficients once per Nome and caches them, together with each series
rewritten as a polynomial in x = e^(2iu) and 1/x.
``_split`` reduces the argument into the fundamental strip |Re u| <= pi/2,
|Im u| <= pi*Im(tau)/2, takes one exponential per point and runs one Horner
recurrence over the stacked pair (x, 1/x), so the cost per point does not
grow with a transcendental per term; theta1 carries a factor sin(u), which
keeps it relatively accurate next to its zero. It keeps that series apart
from the real log-scale of the exact quasi-periodicity multiplier (as
scipy.special.ive from iv): theta1/3/4 compose the two and refuse a value that
overflows a double with PrecisionUnreachable, log|theta1| adds them in log
scale, and a modulus needs one real exponential. A nan or inf argument gives
nan, with no numpy warning. f_N, eta_q and the product forms share one cached
(q^2; q^2)_inf product.

The series and products are summed to one absolute tail bound, 1e-14, which
towards q -> 1 cancels theta4(0) and theta1'(0) to noise. So a real nome with
Im(tau) = t < 1 is summed at the dual tau' = -1/tau = i/t (DLMF 20.7(viii)),
where |q'| <= e^(-pi): every real nome up to the cap |q| <= 0.95 is then
accurate in relative terms. Complex (skewed-torus) nomes are summed directly.
Over that domain n* <= 28 and the products' k* <= 316.

A ``Nome`` is its tau, 0 < Im tau < inf (q = 0, tau = i*inf, is refused with
NomeOutOfRange), and every q-power q^p is e^(i pi tau p), so none underflows
on the way. The series and product forms refuse |q| > 0.95 with NomeOutOfRange;
f_N and eta_q take every nome and refuse a value out of double range with
PrecisionUnreachable. So does theta where it cannot be represented: past
Im tau = 451.9 at a reduced |Im u| > log DBL_MAX, where e^(iu) overflows, and
past Im tau = 902.8, where theta1's leading coefficient 2 q^(1/4) is below the
smallest normal double, for the theta1 family.

Conventions (q = e^{i*pi*tau}, Im tau > 0):

    theta1(z) = 2 * sum_{j>=1} (-1)^(j-1) q^((j-1/2)^2) sin((2j-1) z)
    theta3(u) = sum_n q^(n^2) e^(2iun)
    theta4(u) = sum_n (-1)^n q^(n^2) e^(2iun)

theta1 is odd with zeros exactly on the lattice pi*Z + pi*tau*Z; theta3 and
theta4 are even with period pi.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NomeOutOfRange, ParameterOutOfRange, PrecisionUnreachable

_QMAX = 0.95
_EPSILON = 1e-14   # absolute tail bound of every series and product
# Below this |u| theta1's factor sin(u) is taken by np.sin: (e^(iu) - e^(-iu))/2i
# has relative error ~ eps cosh(Im u) / |sin u|, at most ~2 eps for |u| >= 1/2 in
# the strip but growing as eps/|u| towards the zero at u = 0.
_SINE_CANCEL = 0.5
_LOG_MAX = math.log(np.finfo(float).max)   # e^x overflows a double above this
_TINY = np.finfo(float).tiny   # the smallest normal double
_THETA1_UNDERFLOW = "theta1's leading coefficient 2 q^(1/4) underflows past Im(tau) = 902.8"
_ONE = np.ones(1)
_ONE.setflags(write=False)


@dataclass(frozen=True)
class Nome:
    """The modular parameter tau of the nome q = exp(i*pi*tau), Im(tau) > 0.

    tau is the one field: every q-power q^p is read as e^(i*pi*tau*p), so no
    power underflows on the way and fractional powers are branch free. A
    non-finite or non-positive Im(tau) (q = 0 is tau = i*inf) raises
    NomeOutOfRange; theta's series and product forms also refuse |q| > 0.95.
    """

    tau: complex

    def __post_init__(self):
        if not 0 < self.tau.imag < math.inf:
            raise NomeOutOfRange(f"Im(tau) = {self.tau.imag} must be positive and finite")

    @property
    def q(self) -> complex:
        """q = e^(i*pi*tau), 0 where it underflows."""
        return cmath.exp(1j * math.pi * self.tau)

    @classmethod
    def from_q(cls, q: complex | float) -> "Nome":
        if complex(q) == 0:
            raise NomeOutOfRange("q = 0 is tau = i*inf, outside the accepted domain 0 < |q|")
        return cls(complex(-1j * np.log(complex(q)) / math.pi))

    @classmethod
    def from_tau(cls, tau: complex) -> "Nome":
        return cls(complex(tau))

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


def _series_domain(nome: Nome) -> None:
    """Refuse |q| > 0.95: theta's series and product forms stop at that cap."""
    if nome.tau.imag < -math.log(_QMAX) / math.pi:
        raise NomeOutOfRange(f"|q| = e^(-pi * {nome.tau.imag}) is outside |q| <= {_QMAX}")


def _n_star(t: float) -> int:
    """Series truncation index at Im(tau) = t: |q|^(n*^2) < epsilon, plus
    margin for the reduced-strip growth factor e^(2n|Im u|) <= |q|^(-n)."""
    return math.ceil(math.sqrt(math.log(_EPSILON) / (-math.pi * t))) + 2


def _k_star(t: float) -> int:
    """Product truncation index at Im(tau) = t: factors carry q^(2k), so the
    tail is geometric rather than Gaussian and needs k* ~ log(eps)/(2 log|q|)."""
    return math.ceil(math.log(_EPSILON) / (-2.0 * math.pi * t)) + 1


def _reduce(u, tau):
    """Shift u by m*pi + n*pi*tau into the fundamental strip.

    Returns (u_red, m, n) with u = u_red + m*pi + n*pi*tau, as numpy scalars
    for 0-d input, which ``_reduce_scalar`` reduces unless an inf or nan turns
    up on the way.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim == 0:
        try:
            return _reduce_scalar(u.item(), tau)
        except (OverflowError, ValueError):  # round() of inf or nan
            u_red, m, n = _reduce(u.reshape(1), tau)
            return u_red[0], m[0], n[0]
    n = np.rint(u.imag / (math.pi * tau.imag))
    u1 = u - n * math.pi * tau
    m = np.rint(u1.real / math.pi)
    u_red = u1 - m * math.pi
    return u_red, m, n


def _reduce_scalar(z: complex, tau: complex):
    """``_reduce`` of one point in Python float arithmetic, which rounds to the
    same bits as the array path (np.rint is round half to even, as round() is,
    with the sign of its argument) without the array path's numpy overhead."""
    x = z.imag / (math.pi * tau.imag)
    n = math.copysign(round(x), x)
    u1 = z - n * math.pi * tau
    x = u1.real / math.pi
    m = math.copysign(round(x), x)
    return np.complex128(u1 - m * math.pi), np.float64(m), np.float64(n)


def _shift_exponent(u_red, n, tau):
    """log of the quasi-periodicity multiplier q^(-n^2) e^(-2in u_red).

    theta(u_red + n*pi*tau) picks up this factor (times a parity sign that
    depends on which theta), so theta(u) = sign * exp(this) * theta(u_red).
    """
    return -1j * math.pi * tau * n * n - 2j * n * u_red


def _as_output(values, scalar_input):
    values = np.asarray(values)
    if scalar_input:
        return complex(values)
    return values


def _terms(tau: complex) -> dict:
    """(frequencies, coefficients) by theta index, q-powers on the tau branch:
    theta1 sums 2 (-1)^(j-1) q^((j-1/2)^2) sin((2j-1) u); theta3 and theta4
    add 2 q^(j^2) cos(2j u) and 2 (-1)^j q^(j^2) cos(2j u) to 1; j = 1..n*."""
    js = np.arange(1, _n_star(tau.imag) + 1)
    odd = 2.0 * (-1.0) ** (js - 1) * np.exp(1j * math.pi * tau * (js - 0.5) ** 2)
    even3 = 2.0 * np.exp(1j * math.pi * tau * js**2)
    return {1: (2 * js - 1, odd), 3: (2 * js, even3), 4: (2 * js, (-1.0) ** js * even3)}


@functools.lru_cache(maxsize=64)
def _coefficients(nome: Nome) -> dict:
    """The theta series of a nome, as read-only arrays by theta index.

    ``modular`` is t when tau = it with t < 1, else None: there the series at
    tau (see ``_terms``) cancel towards q -> 1, so only the series at the dual
    tau' = -1/tau = i/t is built and summed, |q'| <= e^(-pi).

    ``horner[kind]`` is (constant, a, root), the series summed as constant +
    p(x) + p(1/x) with x = e^(2iu), p(x) = sum_k a_k x^k and a = [a_K, ...,
    a_1], leading coefficient first; root is None but at a subnormal |q|.
    theta3/theta4 take a_j = c_j / 2 and constant 1.
    theta1 is sin(u) times such a sum: sin((2j-1)u) / sin(u) = 1 + 2 sum_{k<j}
    cos(2ku), so a_k = sum_{j>k} c_j and the constant is sum_j c_j. Factoring
    sin(u) out keeps theta1 relatively accurate next to its zero at u = 0.
    When modular, kinds 1, 3 and 4 hold -i t^(-1/2) theta1, t^(-1/2) theta3
    and t^(-1/2) theta1 at tau' (DLMF 20.7.30-32). ``prime0`` is theta1'(0) =
    sum_j (2j-1) c_j of the summed series, times t^(-3/2) when modular.
    ``horner[1]`` and ``prime0`` are None where theta1's leading coefficient
    2 q^(1/4) is below the smallest normal double (Im tau > 902.8): theta1 and
    theta1'(0) would be 0 or keep no significant bits, so the family refuses.
    ``wide`` is True where the strip |Im u| <= pi Im(tau)/2 reaches past
    log DBL_MAX (Im tau > 451.9), so e^(iu) overflows at some of its points.
    """
    _series_domain(nome)
    t = nome.tau.imag
    modular = nome.tau.real == 0 and t < 1.0
    summed = _terms(1j / t if modular else nome.tau)
    freqs, odd = summed[1]
    tails = np.cumsum(odd[::-1])[::-1]
    const1, a1, a3 = complex(tails[0]), tails[:0:-1].copy(), 0.5 * summed[3][1][::-1]
    if modular:
        r = t**-0.5
        horner = {1: (-1j * r * const1, -1j * r * a1), 3: (r, r * a3), 4: (r * const1, r * a1)}
    else:
        horner = {1: (const1, a1), 3: (1.0, a3), 4: (1.0, 0.5 * summed[4][1][::-1])}
    for kind, (const, coeffs) in horner.items():
        if coeffs.size and coeffs[0] == 0:
            # Terms that underflowed at the high-order end are dropped: at
            # pi Im(tau) > 709.8 x = e^(2iu) overflows inside the strip, 0 * x is nan.
            coeffs = np.trim_zeros(coeffs, "f")
        coeffs.setflags(write=False)  # cached: every caller shares them
        horner[kind] = const, coeffs, None
    if math.pi * t > _LOG_MAX:
        # |q| is subnormal and only a_1 = q, -q of theta3, theta4 is left
        # (theta1's underflowed): a_1 (x + 1/x) is summed as (r w)^2 + (r/w)^2,
        # w = e^(iu), with the root r = e^(i pi tau / 2) or i e^(i pi tau / 2)
        # taken from tau at full precision, so no x that overflows is formed.
        r = cmath.exp(0.5j * math.pi * nome.tau)
        horner[3], horner[4] = (1.0, _ONE, r), (1.0, _ONE, 1j * r)
    prime0 = complex(np.sum(odd * freqs)) * (t**-1.5 if modular else 1.0)
    if abs(odd[0]) < _TINY:
        horner[1] = prime0 = None
    return {"horner": horner, "modular": t if modular else None, "prime0": prime0,
            "wide": 0.5 * math.pi * t > _LOG_MAX}


def _horner(const, coeffs, root, v, odd: bool, scalar: bool):
    """const + p(x) + p(1/x) at x = e^(2iv), times sin(v) when ``odd``, by one
    Horner recurrence on the stacked pair (x, 1/x): one exponential per point.
    With no coefficients left (all underflowed) x is never formed; with a
    ``root`` the pair is (root w, root / w) squared, w = e^(iv)."""
    w = np.exp(1j * v)
    iw = 1.0 / w
    if len(coeffs):
        xs = np.array((w, iw))
        if root is not None:
            xs *= root
        xs *= xs
        acc = coeffs[0] * xs
        for c in coeffs[1:]:
            acc += c
            acc *= xs
        series = const + acc[0] + acc[1]
    else:
        series = const + 0.0 * w
    if odd:  # sin(v) = (w - 1/w)/2i, by np.sin where that cancels
        if scalar:
            sine = np.sin(v)
        else:
            sine = (w - iw) * -0.5j
            np.sin(v, out=sine, where=np.abs(v) < _SINE_CANCEL)
        series = sine * series
    return series


_FINITE_POINT = contextlib.nullcontext()


def _quiet(z: np.ndarray):
    """The floating-point error state to evaluate theta at z in: a nan or inf
    argument gives nan, with numpy's invalid-value warnings off for an array
    or a non-finite point. One finite point cannot raise them and skips
    np.errstate, whose cost (1-2 us) is about a tenth of a scalar call."""
    if z.ndim or not cmath.isfinite(z.item()):
        return np.errstate(invalid="ignore")
    return _FINITE_POINT


def _split(kind: int, z: np.ndarray, nome: Nome, terms: dict):
    """theta_kind(z; q) as (series, scale, (u, m, n)): z = u + m*pi +
    n*pi*tau with u in the fundamental strip, the series summed at u, and
    theta_kind(z) = sign * e^(scale + i*phase) * series with scale real.
    ``terms`` is ``_coefficients(nome)``. Directly, the multiplier
    is q^(-n^2) e^(-2inu): scale = pi Im(tau) n^2 + 2n Im(u), 0.0 when no
    point is shifted. For tau = it, t < 1, DLMF 20.7.30-32 give

        theta(u | it) = t^(-1/2) e^(-u^2/(pi t)) * theta'(iu/t | i/t)

    with theta' = -i theta1, theta3 and theta2 for theta1, theta3 and theta4,
    theta2(v) = theta1(v + pi/2); iu/t lies in the dual strip, where the shift
    n is a sign, so the multiplier is e^(-(a + ib)^2/(pi t)), a + ib =
    u + n*pi*tau, and scale = (b^2 - a^2)/(pi t).
    """
    u, m, n = _reduce(z, nome.tau)  # numpy scalars for 0-d z: no 0-d array overhead
    horner = terms["horner"][kind]
    if horner is None:
        raise PrecisionUnreachable(_THETA1_UNDERFLOW)
    if terms["wide"] and np.any(np.abs(u.imag) > _LOG_MAX):
        raise PrecisionUnreachable(f"e^(iu) overflows a double at a reduced |Im u| > {_LOG_MAX}")
    t = terms["modular"]
    if t is None:
        series = _horner(*horner, u, kind == 1, z.ndim == 0)
        scale = math.pi * nome.tau.imag * n * n + 2 * n * u.imag if n.any() else 0.0
    else:
        half = 0.5 * math.pi if kind == 4 else 0.0
        series = _horner(*horner, u * (1j / t) + half, kind != 3, z.ndim == 0)
        a, b = u.real, u.imag + math.pi * t * n  # real arithmetic rounds scalars as arrays
        scale = (b - a) * (b + a) / (math.pi * t)
    return series, scale, (u, m, n)


def _evaluate(kind: int, z, nome: Nome):
    """theta_kind(z; q), kind 1, 3 or 4, as sign * e^(scale + i*phase) * series
    from ``_split``: sign (-1)^(m+n) for theta1 and (-1)^n for theta4, phase
    -pi Re(tau) n^2 - 2n Re(u) directly and -2ab/(pi t) dual. A value that
    overflows a double raises PrecisionUnreachable with no numpy warning first:
    cmath.exp raises for a scalar, np.errstate quiets an array.
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    terms = _coefficients(nome)
    with _quiet(z_arr):
        series, scale, (u, m, n) = _split(kind, z_arr, nome, terms)
        t = terms["modular"]
        if kind != 3:  # (-1)^(m+n) or (-1)^n, exact for every integer-valued k
            series = (1.0 - 2.0 * np.fmod(m + n if kind == 1 else n, 2) ** 2) * series
        if t is not None:
            phase = -2.0 * (u.real * (u.imag + math.pi * t * n) / (math.pi * t))
        elif n.any():
            phase = -math.pi * nome.tau.real * n * n - 2 * n * u.real
        else:  # the direct series at an unshifted point is theta itself
            return complex(series) if scalar else series
    if scalar:
        try:
            vals = total = cmath.exp(complex(scale, phase)) * complex(series)
        except OverflowError:
            vals = total = complex(math.inf)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(scale + 1j * phase) * series
            total = vals.sum()  # inf or nan in any value spreads to it
    if not cmath.isfinite(total):
        bad = ~np.isfinite(vals)
        if np.isfinite(z_arr[bad]).any():
            raise PrecisionUnreachable(
                f"theta{kind} of a finite argument overflows a double "
                f"(quasi-periodicity shift n up to {np.max(np.abs(n)):.0f})"
            )
    return vals


def _theta1_abs2(z, nome: Nome):
    """|theta1(z; q)|^2, kept apart by ``_split`` as (|series|^2,
    scale): |theta1(z)|^2 = |series|^2 e^(2 scale)."""
    z = np.asarray(z, dtype=complex)
    with _quiet(z):
        series, scale, _ = _split(1, z, nome, _coefficients(nome))
    return series.real**2 + series.imag**2, scale


def theta1(z, nome):
    """theta1(z; q), odd, vanishing exactly on pi*Z + pi*tau*Z."""
    return _evaluate(1, z, Nome.coerce(nome))


def theta3(u, nome):
    """theta3(u; q) = sum_n q^(n^2) e^(2iun)."""
    return _evaluate(3, u, Nome.coerce(nome))


def theta4(u, nome):
    """theta4(u; q) = sum_n (-1)^n q^(n^2) e^(2iun)."""
    return _evaluate(4, u, Nome.coerce(nome))


def log_abs_theta1(z, nome):
    """log|theta1(z; q)| = scale + log|series| by ``_split``: the multiplier
    enters as its real log-scale, so no argument overflows."""
    nome = Nome.coerce(nome)
    z_arr = np.asarray(z, dtype=complex)
    with _quiet(z_arr):
        series, scale, _ = _split(1, z_arr, nome, _coefficients(nome))
    modulus = np.abs(series)
    if z_arr.ndim == 0:  # log 0 = -inf at a zero of theta1, with no numpy warning
        return float(scale + (np.log(modulus) if modulus else -math.inf))
    with np.errstate(divide="ignore"):
        return scale + np.log(modulus)


def theta1_prime0(nome) -> complex:
    """d theta1 / dz at z = 0, from the differentiated series at tau, or as
    t^(-3/2) theta1'(0 | i/t) for tau = it, t < 1, where that one cancels.

    Equals 2 q^(1/4) prod (1-q^(2n))^3; the product route is kept as an
    independent check in the test suite.
    """
    prime0 = _coefficients(Nome.coerce(nome))["prime0"]
    if prime0 is None:
        raise PrecisionUnreachable(_THETA1_UNDERFLOW)
    return prime0


def _product(u, nome: Nome, odd: int):
    """prod_{k=1..k*} (1 - q^m e^(2iu)) (1 - q^m e^(-2iu)), m = 2k - odd (odd 0
    for theta1, 1 for theta4), u in the reduction strip, one factor per k on a
    last axis, times (q^2; q^2)_inf. q^m e^(+-2iu) is q^(m-1) times the one
    exponential e^(i pi tau +- 2iu), of modulus <= 1 in the strip: a power of q
    that underflows meets no e^(2iu) that overflows, and there is one
    exponential per point and sign, not per factor."""
    _series_domain(nome)
    k = np.arange(1, _k_star(nome.tau.imag) + 1)
    powers = np.exp(1j * math.pi * nome.tau * (2 * k - odd - 1))
    w = np.exp(1j * math.pi * nome.tau + 2j * u)[..., None]
    iw = np.exp(1j * math.pi * nome.tau - 2j * u)[..., None]
    return np.prod((1 - powers * w) * (1 - powers * iw), axis=-1) * _q2_product(nome)


def theta1_product(z, nome):
    """Product representation of theta1, for cross-checking the series:

        2 q^(1/4) sin z * prod_n (1-q^(2n) e^(2iz)) (1-q^(2n) e^(-2iz)) (1-q^(2n))
    """
    nome = Nome.coerce(nome)
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    u, m, n = _reduce(z_arr, nome.tau)
    vals = 2.0 * np.exp(1j * math.pi * nome.tau / 4) * np.sin(u) * _product(u, nome, 0)
    sign = (-1.0) ** (m + n)
    vals = sign * np.exp(_shift_exponent(u, n, nome.tau)) * vals
    return _as_output(vals, scalar)


def theta4_product(u, nome):
    """Product representation of theta4:

        prod_n (1 - e^(2iu) q^(2n-1)) (1 - e^(-2iu) q^(2n-1)) (1 - q^(2n))
    """
    nome = Nome.coerce(nome)
    u_arr = np.asarray(u, dtype=complex)
    scalar = u_arr.ndim == 0
    ur, _, n = _reduce(u_arr, nome.tau)
    sign = (-1.0) ** n
    vals = sign * np.exp(_shift_exponent(ur, n, nome.tau)) * _product(ur, nome, 1)
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
def _q2_product(nome: Nome) -> complex:
    """(q^2; q^2)_inf = prod_{k=1..k*} (1 - q^(2k)), q^(2k) = e^(2 i pi tau k);
    real, as a complex, when Re(tau) = 0."""
    k = np.arange(1, _k_star(nome.tau.imag) + 1)
    return np.prod(1.0 - np.exp(2j * math.pi * nome.tau * k)).item()


def eta_q(nome) -> float:
    """q^(1/12) * prod_{k>=1} (1 - q^(2k)) = e^(-pi Im(tau)/12) (q^2; q^2)_inf,
    for a real nome 0 < q < 1 (Re tau = 0).

    This is the Dedekind eta value at tau; it satisfies the modular identity
    eta_q(e^(-pi*s)) = s^(-1/2) * eta_q(e^(-pi/s)). A value below the smallest
    normal double raises PrecisionUnreachable.
    """
    nome = Nome.coerce(nome)
    if nome.tau.real != 0:
        raise NomeOutOfRange(f"eta_q needs a real nome 0 < q < 1, got tau = {nome.tau}")
    value = math.exp(-math.pi * nome.tau.imag / 12.0) * _q2_product(nome).real
    if value < _TINY:
        raise PrecisionUnreachable(f"eta_q = {value} is below the smallest normal double")
    return value


def f_N(N: int, nome):
    """N^(N/2) q^(-(N-1)(N-2)/24) (q^2; q^2)_inf^(-(N-1)(N-2)/2), the
    fractional q-power e^(-i pi tau (N-1)(N-2)/24) taken on the tau branch.

    A float for a rectangular torus (Re tau = 0), else (skewed tori) complex.
    A value that overflows a double raises PrecisionUnreachable.
    """
    if N < 1:
        raise ParameterOutOfRange("N must be >= 1")
    nome = Nome.coerce(nome)
    e = (N - 1) * (N - 2)
    try:
        value = (N ** (N / 2.0) * cmath.exp(-1j * math.pi * nome.tau * e / 24.0)
                 * _q2_product(nome) ** (-e / 2.0))
    except (OverflowError, ZeroDivisionError):  # a power out of range, or 0 ** -x
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise PrecisionUnreachable(f"f_{N} at Im(tau) = {nome.tau.imag} overflows a double")
    return value.real if nome.tau.real == 0 else value
