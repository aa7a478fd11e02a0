"""Jacobi theta functions, the eta-type q-product, and combinatorial prefactors.

One private series engine serves theta1, theta3, theta4, log|theta1| and
theta1'(0). ``_coefficients`` builds the truncation index n* and the series
once per Nome (the last 64 are cached), n* terms with one cmath.exp each,
each series rewritten as a polynomial in x = e^(2iu) and 1/x. An argument
reduced into the fundamental strip |Re u| <= pi/2, |Im u| <= pi*Im(tau)/2
takes one exponential and one Horner recurrence over the pair (x, 1/x), not a
transcendental per term; theta1 carries a factor sin(u), which keeps it
relatively accurate next to its zero. The series is kept apart from the real
log-scale of the exact quasi-periodicity multiplier (as scipy.special.ive
from iv): theta1/3/4 compose the two and refuse a value that overflows a
double with PrecisionUnreachable, and log|theta1| adds them in log scale, so
no argument overflows it. A nan or inf argument gives nan, with no numpy
warning. f_N, eta_q and the product forms share one cached (q^2; q^2)_inf
product.

One dispatcher, ``_theta``, serves every entry point of the series; the output
form (the value or log|theta1|) supplies how one point's parts combine and how
the array path's parts finish. It picks the loop by the size of the call. The
array path (``_reduce``, ``_split``) costs a fixed forty or so numpy
operations under one np.errstate, about 25-40 us a call on a 2-core Xeon,
which outweigh the per-point work up to a few hundred points. A call of at
most ``_POINT_MAX`` = 8 points runs ``_point_kernel`` instead: the same steps
in Python complex arithmetic, about 4-6 us for one point and 3 us per further
point, declining to the array path, which names every refusal. Its values are
those of the array path to a few eps times the series' own conditioning: numpy
fuses the multiply-adds of a complex product, Python does not. The coincidence
test of the pair potentials and ``frobenius_residual`` lives in the dispatcher
too: it reads the reduction the series is summed at, on either path, before
any refusal of theta. The ``geometry-scan`` theta sweep of ``benchmarks/ab.py``
times calls of 1 to 32 points on both paths.

log|theta1| takes log|sin v| and log|series| apart where their product
|sin v series| underflows towards a subnormal: at W/L = 61 theta1's series
constant 2 q^(1/4) is 3.5e-21, so next to a zero the product keeps few bits
while each factor keeps all of them. Elsewhere it is the log of the product.

The plasma integrand and the lattice rule enter through a second summation,
``_log_abs_theta1_parts``, which takes the argument as its real and
imaginary parts stacked on a first axis, so they never form a complex
argument. On a real nome (Re tau = 0) up to pi Im(tau) = log DBL_MAX
(W/L <= 225.9), a call of more than ``_POINT_MAX`` points sums Jacobi's
addition formula (DLMF 20.7(iii)),

    theta4(0)^2 |theta1(x + iy)|^2 = theta1(x)^2 theta4(iy)^2 + theta4(x)^2 |theta1(iy)|^2,

as real polynomials in sin(x)^2 and in sinh(y)^2 (``_log_abs_real``): the
reduction (``_reduce_real``) gives ``_reduce``'s bits, and a point takes one
real tan, sinh and log, no sine, no complex exponential or division. Every
other call of that entry runs ``_theta`` on the complex argument. Both take
the multiplier's log-scale from ``_multiplier``.

The series and products are summed to one absolute tail bound, 1e-14, which
towards q -> 1 cancels theta4(0) and theta1'(0) to noise. So a real nome with
Im(tau) = t < 1 is summed at the dual tau' = -1/tau = i/t (DLMF 20.7(viii)),
where |q'| <= e^(-pi): every real nome up to the cap |q| <= 0.95 is then
accurate in relative terms. Complex nomes are summed directly.
Over that domain n* <= 28 and the products' k* <= 316.

A ``Nome`` is its tau, 0 < Im tau < inf (q = 0, tau = i*inf, is refused with
NomeOutOfRange), and every q-power q^p is e^(i pi tau p), so none underflows
on the way. The series and product forms refuse |q| > 0.95 with NomeOutOfRange;
f_N and eta_q take every nome down to the product's bound below and refuse a
value out of double range with PrecisionUnreachable. So does theta where it
cannot be represented: past Im tau = 451.9 at a reduced |Im u| > log DBL_MAX,
where e^(iu) overflows, and past Im tau = 902.8, where theta1's leading
coefficient 2 q^(1/4) is below the smallest normal double, for the theta1
family. The product (q^2; q^2)_inf of f_N and eta_q needs k* ~ 5.1/Im(tau)
factors, so it is refused with PrecisionUnreachable before any factor is built
below Im(tau) = 3.68e-4 (k* = 13,962), where the modular bound
-log(t)/2 - pi/(12 t), t = Im(tau), puts a real nome's eta below the smallest
normal double; complex nomes take the same bound, and f_1 and f_2 take no
product.

Conventions (q = e^{i*pi*tau}, Im tau > 0):

    theta1(z) = 2 * sum_{j>=1} (-1)^(j-1) q^((j-1/2)^2) sin((2j-1) z)
    theta3(u) = sum_n q^(n^2) e^(2iun)
    theta4(u) = sum_n (-1)^n q^(n^2) e^(2iun)

theta1 is odd with zeros exactly on the lattice pi*Z + pi*tau*Z; theta3 and
theta4 are even with period pi.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NomeOutOfRange, PrecisionUnreachable, _check_count, _check_far

_QMAX = 0.95
_EPSILON = 1e-14   # absolute tail bound of every series and product
# Below this |u| theta1's factor sin(u) is taken by np.sin: (e^(iu) - e^(-iu))/2i
# has relative error ~ eps cosh(Im u) / |sin u|, at most ~2 eps for |u| >= 1/2 in
# the strip but growing as eps/|u| towards the zero at u = 0.
_SINE_CANCEL = 0.5
_LOG_MAX = math.log(np.finfo(float).max)   # e^x overflows a double above this
_TINY = np.finfo(float).tiny   # the smallest normal double
_SQUARES_TINY = _TINY / np.finfo(float).eps   # a sum of squares below this may have lost bits
_COINCIDENT = 1e-9   # an argument this close to pi*Z + pi*tau*Z is a zero of theta1
_THETA1_UNDERFLOW = "theta1's leading coefficient 2 q^(1/4) underflows past Im(tau) = 902.8"
# A call of at most this many points runs the Python-complex point kernel, one
# of more runs the array path. The geometry-scan theta sweep of benchmarks/ab.py
# measures where the two cost the same: about 12 points for theta1, 8 for
# log|theta1|. Weighted by the sizes of geometry-scan's theta calls, 8 to 12
# give the least theta time.
_POINT_MAX = 8


@dataclass(frozen=True)
class Nome:
    """The modular parameter tau of the nome q = exp(i*pi*tau), Im(tau) > 0.

    tau is the one field: every q-power q^p is read as e^(i*pi*tau*p), so no
    power underflows on the way and fractional powers are branch free. A
    non-finite or non-positive Im(tau) (q = 0 is tau = i*inf) or a non-finite
    Re(tau) raises NomeOutOfRange; theta's series and product forms also
    refuse |q| > 0.95.
    """

    tau: complex

    def __post_init__(self):
        if not 0 < self.tau.imag < math.inf:
            raise NomeOutOfRange(f"Im(tau) = {self.tau.imag} must be positive and finite")
        if not math.isfinite(self.tau.real):
            raise NomeOutOfRange(f"Re(tau) = {self.tau.real} must be finite")

    @property
    def q(self) -> complex:
        """q = e^(i*pi*tau), 0 where it underflows."""
        return cmath.exp(1j * math.pi * self.tau)

    @classmethod
    def from_q(cls, q: complex | float) -> "Nome":
        if complex(q) == 0 or not cmath.isfinite(complex(q)):   # q = 0 is tau = i*inf
            raise NomeOutOfRange(f"q = {q!r} is outside the accepted domain 0 < |q| < inf")
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
    for 0-d input.
    """
    u = np.asarray(u, dtype=complex)
    n = np.rint(u.imag / (math.pi * tau.imag))
    u1 = u - n * math.pi * tau
    m = np.rint(u1.real / math.pi)
    u_red = u1 - m * math.pi
    return u_red, m, n


@functools.lru_cache(maxsize=64)
def _periods(t: float) -> np.ndarray:
    """The read-only column (pi, pi t) that ``_reduce_real`` divides by."""
    periods = np.array([[math.pi], [math.pi * t]])
    periods.flags.writeable = False
    return periods


def _reduce_real(parts, t: float):
    """``_reduce`` of u = a + ib on the real nome tau = it, in real
    arithmetic, from parts, the (2, points) array of a and b: (reduced, n),
    reduced the real and imaginary parts of the reduced u, stacked alike, and
    n the shift along pi*tau. Each step takes both parts at once. The parts
    are ``_reduce``'s bit for bit, and nan where its are. m is rounded from a
    itself: the complex route rounds it from a - (n pi) 0, which differs from
    a in the sign of a zero or where n is not finite, and neither changes
    a - m pi - (n pi) 0. numpy forms the complex shift n*pi*tau as
    ((n pi) 0 - 0 t, (n pi) t + 0 0), so a nan or inf n makes the real part
    nan and the imaginary shift is +0 at n = -0; both are kept. parts is not
    written to."""
    shift = parts / _periods(t)
    np.rint(shift, out=shift)   # (m, n)
    n = shift[1].copy()
    shift *= math.pi
    invalid = shift[1] * 0.0   # 0, or nan where n is not finite
    shift[1] *= t
    shift[1] += 0.0
    reduced = parts - shift
    reduced[0] -= invalid
    return reduced, n


def _shift_exponent(u_red, n, tau):
    """log of the quasi-periodicity multiplier q^(-n^2) e^(-2in u_red).

    theta(u_red + n*pi*tau) picks up this factor (times a parity sign that
    depends on which theta), so theta(u) = sign * exp(this) * theta(u_red).
    """
    return -1j * math.pi * tau * n * n - 2j * n * u_red


def _terms(tau: complex) -> dict:
    """(frequencies, coefficients) by theta index, as lists, q-powers on the tau
    branch: theta1 sums 2 (-1)^(j-1) q^((j-1/2)^2) sin((2j-1) u); theta3 and
    theta4 add 2 q^(j^2) cos(2j u) and 2 (-1)^j q^(j^2) cos(2j u) to 1;
    j = 1..n*. Python complex arithmetic rounds each term as numpy's arrays do."""
    js = range(1, _n_star(tau.imag) + 1)
    c = 1j * math.pi * tau
    odd = [2.0 * (-1.0) ** (j - 1) * cmath.exp(c * ((j - 0.5) * (j - 0.5))) for j in js]
    even3 = [2.0 * cmath.exp(c * (j * j)) for j in js]
    evens = [2 * j for j in js]
    return {1: ([2 * j - 1 for j in js], odd), 3: (evens, even3),
            4: (evens, [(-1.0) ** j * e for j, e in zip(js, even3)])}


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
    tails = list(itertools.accumulate(reversed(odd)))   # a_k = sum_{j>k} c_j, a_K first
    const1, a1, a3 = tails.pop(), tails, [0.5 * c for c in reversed(summed[3][1])]
    if modular:
        r, s = t**-0.5, -1j * t**-0.5
        horner = {1: (s * const1, [s * a for a in a1]), 3: (r, [r * a for a in a3]),
                  4: (r * const1, [r * a for a in a1])}
    else:
        horner = {1: (const1, a1), 3: (1.0, a3), 4: (1.0, [0.5 * c for c in reversed(summed[4][1])])}
    for kind, (const, coeffs) in horner.items():
        # Terms that underflowed at the high-order end are dropped: at
        # pi Im(tau) > 709.8 x = e^(2iu) overflows inside the strip, 0 * x is nan.
        coeffs = tuple(itertools.dropwhile(lambda c: c == 0, coeffs))
        horner[kind] = const, coeffs, None
    if math.pi * t > _LOG_MAX:
        # |q| is subnormal and only a_1 = q, -q of theta3, theta4 is left
        # (theta1's underflowed): a_1 (x + 1/x) is summed as (r w)^2 + (r/w)^2,
        # w = e^(iu), with the root r = e^(i pi tau / 2) or i e^(i pi tau / 2)
        # taken from tau at full precision, so no x that overflows is formed.
        r = cmath.exp(0.5j * math.pi * nome.tau)
        horner[3], horner[4] = (1.0, (1.0,), r), (1.0, (1.0,), 1j * r)
    prime0 = complex(np.sum([c * f for c, f in zip(odd, freqs)])) * (t**-1.5 if modular else 1.0)
    if abs(odd[0]) < _TINY:
        horner[1] = prime0 = None
    return {"horner": horner, "modular": t if modular else None, "prime0": prime0,
            "wide": 0.5 * math.pi * t > _LOG_MAX}


def _kept(coeffs, lead: float, growth: float = 0.0) -> int:
    """How many of the Chebyshev terms 2 c_k T_k, k = 1, 2, ..., of the
    series ``coeffs`` = (c_0, c_1, ...) to sum, where |T_k| <= e^(growth k):
    up to the last whose bound 2 |c_k| e^(growth k) is not below one ulp of
    ``lead``. The bounds fall with k, so the count stops at the first that
    is below."""
    floor = math.log(math.ulp(lead))
    for k, c in enumerate(coeffs[1:], 1):
        if not c or math.log(2.0 * abs(c)) + growth * k < floor:
            return k - 1
    return len(coeffs) - 1


@functools.lru_cache(maxsize=None)
def _chebyshev_powers(degree: int) -> np.ndarray:
    """M, read-only, with M[k, j] the coefficient of w^j in T_k(1 - 2w),
    k, j <= degree, T_k the Chebyshev polynomials: T_0 = 1, T_1 = c and
    T_(k+1) = 2c T_k - T_(k-1)."""
    m = np.zeros((degree + 2, degree + 2))
    m[0, 0] = 1.0
    m[1, :2] = 1.0, -2.0
    for k in range(1, degree):
        m[k + 1] = 2.0 * m[k] - m[k - 1]
        m[k + 1, 1:] -= 4.0 * m[k, :-1]
    m = m[:degree + 1, :degree + 1].copy()
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=64)
def _identity_terms(nome: Nome) -> np.ndarray:
    """The series of Jacobi's addition formula at the summed nome iS of the
    real nome it (S = t, or 1/t on the dual side t < 1), for
    ``_log_abs_real``, as one read-only (J + 1, 2, 2, 1) array of polynomial
    coefficients, highest power first. P(x) = theta1(x) / sin(x) = c_0 +
    sum_k c_k (X^k + X^-k) (``_coefficients``' a_k of theta1) and theta4(x) =
    1 + sum_k (-1)^k q^(k^2) (X^k + X^-k), X = e^(2ix), are each the
    Chebyshev sum c_0 + sum_k 2 c_k T_k(cos 2x), a polynomial in w = sin(x)^2
    (cos 2x = 1 - 2w). [:, 0] holds P and theta4 in w, times r / theta4(0),
    r the dual side's t^(-1/2) (1 directly), so that the identity's sum of
    squares carries both; [:, 1] holds the same two series at x = iy, in the
    other order, theta4(iy) and R(y) = P(iy), as polynomials in s = sinh(y)^2
    = -sin(iy)^2, whose coefficients are those in w with the odd powers
    negated: T_k(1 + 2s) has no negative coefficient in s, so no Chebyshev
    term cancels within itself at s >= 0. Then [:, 0] times [:, 1] is the
    identity's two products, theta4(iy) P(x) and R(y) theta4(x), in its order.

    Each axis sums its Chebyshev terms to the last that is not below one ulp
    of its series' leading term (``_kept``): on the real axis |T_k| <= 1, and
    on the imaginary axis the strip |y| <= pi S/2 lets the k-th term grow by
    up to e^(pi S k), so that theta4's leading term there is 2 q e^(pi S) = 2.
    Both stop well before ``_n_star``, and no power of sinh(y)^2 that is
    kept leaves double range. The shorter axis is padded with leading zeros."""
    t = nome.tau.imag
    s, r = (1.0 / t, t**-0.5) if t < 1.0 else (t, 1.0)
    summed = _terms(1j * s)
    odd = [c.real for c in summed[1][1]]
    tails = list(itertools.accumulate(reversed(odd)))[::-1]   # c_k = sum_{j>k} odd_j, k = 0..
    even = [1.0] + [0.5 * c.real for c in summed[4][1]]
    growth = math.pi * s
    on_real = max(_kept(tails, tails[0]), _kept(even, 1.0))
    on_imag = max(_kept(tails, tails[0], growth), _kept(even, 2.0, growth))
    degree = max(on_real, on_imag)
    real, imag = ([(ser + [0.0] * degree)[:degree + 1] for ser in pair]
                  for pair in ((tails, even), (even, tails)))
    cheb = np.array([real, imag])   # (axis, series, k)
    cheb[..., 1:] *= 2.0
    cheb[0] *= r / (1.0 + 2.0 * sum(even[1:]))
    cheb[0, :, on_real + 1:] = 0.0
    cheb[1, :, on_imag + 1:] = 0.0
    coeffs = cheb @ _chebyshev_powers(degree)   # (axis, series, power of w)
    coeffs[1, :, 1::2] *= -1.0   # w = -s on the imaginary axis
    coeffs = coeffs.transpose(2, 0, 1)[::-1, :, :, None]
    coeffs.flags.writeable = False
    return coeffs


def _horner(const, coeffs, root, v, odd: bool):
    """(sine, series): series = const + p(x) + p(1/x) at x = e^(2iv) by one
    Horner recurrence on the stacked pair (x, 1/x), one exponential per
    point, and sine = sin(v) when ``odd``, else None. With no coefficients
    left (all underflowed) x is never formed; with a ``root`` the pair is
    (root w, root / w) squared, w = e^(iv). The pair is one preallocated
    (2,) + v.shape array, filled in place through its views w and 1/w; v has
    at least one dimension."""
    sine = None
    xs = np.empty((2,) + v.shape, dtype=complex)
    w, iw = xs[0], xs[1]
    np.exp(1j * v, out=w)
    np.divide(1.0, w, out=iw)
    if odd:  # sin(v) = (w - 1/w)/2i, by np.sin where that cancels
        sine = (w - iw) * -0.5j
        np.sin(v, out=sine, where=np.abs(v) < _SINE_CANCEL)
    if len(coeffs):
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
    return sine, series


def _point_horner(const, coeffs, v: complex, odd: bool):
    """``_horner`` at one point v in Python complex arithmetic, with no root:
    the same exponential, pair, recurrence and sine switch."""
    w = cmath.exp(1j * v)
    iw = 1.0 / w
    if coeffs:
        x, ix = w * w, iw * iw
        acc, iacc = coeffs[0] * x, coeffs[0] * ix
        for c in coeffs[1:]:
            acc = (acc + c) * x
            iacc = (iacc + c) * ix
        series = const + acc + iacc
    else:
        series = const + 0.0 * w
    if not odd:
        return None, series
    return (cmath.sin(v) if abs(v) < _SINE_CANCEL else (w - iw) * -0.5j), series


def _quiet():
    """The floating-point error state to evaluate theta in, one per call: a
    nan or inf argument gives nan, an overflow is refused by name and log 0
    is -inf, with numpy's warnings off."""
    return np.errstate(invalid="ignore", over="ignore", divide="ignore")


def _multiplier(a, b, n, tau: complex, t):
    """The quasi-periodicity multiplier of ``_split`` at the reduced u = a + ib
    and the shift n, t = ``terms["modular"]``, as (scale, phase) with phase a
    function; the same arithmetic on numpy arrays and on Python floats."""
    if t is None:
        two_n = 2 * n
        c = -math.pi * tau.real   # a zero c is c * n * n for every finite n
        return (math.pi * tau.imag * n * n + two_n * b,
                lambda: (c if c == 0 else c * n * n) - two_n * a)
    b = b + math.pi * t * n
    return (b - a) * (b + a) / (math.pi * t), lambda: -2.0 * (a * b / (math.pi * t))


def _frame(kind: int, u, t):
    """(v, odd): ``_split`` sums theta_kind's series at v, times sin(v) when
    odd, for u in the fundamental strip and t = ``terms["modular"]``, on
    numpy arrays and on Python complex alike. Directly v = u and theta1 is
    odd; for tau = it, t < 1, v = iu/t in the dual strip, shifted by pi/2 for
    theta4 (theta2 at tau'), and theta1 and theta4 are odd there."""
    if t is None:
        return u, kind == 1
    return u * (1j / t) + (0.5 * math.pi if kind == 4 else 0.0), kind != 3


def _split(kind: int, reduced, nome: Nome, terms: dict):
    """theta_kind at the reduction ``reduced`` = (u, m, n) of z = u + m*pi +
    n*pi*tau (``_reduce``), u in the fundamental strip, as (sine, series,
    scale, phase): ``_horner``'s sine and series summed at u and
    theta_kind(z) = sign * e^(scale + i*phase()) * sine * series (sine
    omitted where None) with scale real, phase a function called only where a
    caller needs it, and None where no point is shifted (the direct series is
    theta itself). ``terms`` is ``_coefficients(nome)``. Directly, the
    multiplier is q^(-n^2) e^(-2inu): scale = pi Im(tau) n^2 + 2n Im(u), 0.0
    when no point is shifted, and phase = -pi Re(tau) n^2 - 2n Re(u), which is
    (-pi Re(tau)) - 2n Re(u) bit for bit when Re(tau) is a zero. For tau = it,
    t < 1, DLMF 20.7.30-32 give

        theta(u | it) = t^(-1/2) e^(-u^2/(pi t)) * theta'(iu/t | i/t)

    with theta' = -i theta1, theta3 and theta2 for theta1, theta3 and theta4,
    theta2(v) = theta1(v + pi/2); iu/t lies in the dual strip, where the shift
    n is a sign, so the multiplier is e^(-(a + ib)^2/(pi t)), a + ib =
    u + n*pi*tau: scale = (b^2 - a^2)/(pi t) and phase = -2ab/(pi t).
    """
    u, m, n = reduced
    horner = terms["horner"][kind]
    if horner is None:
        raise PrecisionUnreachable(_THETA1_UNDERFLOW)
    if terms["wide"] and (np.abs(u.imag) > _LOG_MAX).any():
        raise PrecisionUnreachable(f"e^(iu) overflows a double at a reduced |Im u| > {_LOG_MAX}")
    t = terms["modular"]
    parts = _horner(*horner, *_frame(kind, u, t))
    if t is None and not np.count_nonzero(n):
        return (*parts, 0.0, None)
    return (*parts, *_multiplier(u.real, u.imag, n, nome.tau, t))


def _point_reduce(z: complex, tau: complex):
    """``_reduce`` at one point in Python arithmetic, u bit for bit and the
    shifts m, n as ints: round() is half-even like np.rint, and raises
    OverflowError or ValueError at a non-finite argument."""
    n = round(z.imag / (math.pi * tau.imag))
    u = z - n * math.pi * tau
    m = round(u.real / math.pi)
    return u - m * math.pi, m, n


def _point_kernel(kind: int, reduced, nome: Nome, combine):
    """[combine(sine, series, scale, phase, flip)] over the reductions
    ``reduced`` by ``_point_reduce``: ``_split`` point by point in Python
    complex arithmetic, the same frame (``_frame``) and multiplier, flip
    true where ``_value``'s sign is -1. Or None, and the call runs the array
    path, which refuses or sums by name: the nome's strip is wide, theta3/4
    sum a subnormal-q root, theta1's leading coefficient underflows, or
    combine raises ArithmeticError or ValueError (a value out of range,
    log 0)."""
    terms = _coefficients(nome)
    horner = terms["horner"][kind]
    if terms["wide"] or horner is None or horner[2] is not None:
        return None
    const, coeffs, _ = horner
    t = terms["modular"]
    values = []
    try:
        for u, m, n in reduced:
            sine, series = _point_horner(const, coeffs, *_frame(kind, u, t))
            flip = kind != 3 and (m + n if kind == 1 else n) % 2
            scale, phase = ((0.0, None) if t is None and not n
                            else _multiplier(u.real, u.imag, n, nome.tau, t))
            values.append(combine(sine, series, scale, phase, flip))
    except (ArithmeticError, ValueError):
        return None
    return values


def _point_value(sine, series: complex, scale: float, phase, flip) -> complex:
    """theta from ``_point_kernel``'s parts, the product signed after it is
    formed, as the array path signs it; a value out of double range raises
    OverflowError, so the array path refuses it by name."""
    value = series if sine is None else sine * series
    if flip:
        value = -value
    if phase is not None:
        value = cmath.exp(complex(scale, phase())) * value
    if not cmath.isfinite(value):
        raise OverflowError(value)
    return value


def _point_log_abs(sine: complex, series: complex, scale: float, *_) -> float:
    """log|theta1| from ``_point_kernel``'s parts, as ``_log_abs`` takes it;
    log 0 raises ValueError."""
    modulus = abs(sine * series)
    if modulus < _SQUARES_TINY:
        return scale + (math.log(abs(sine)) + math.log(abs(series)))
    return scale + math.log(modulus)


def _value(sine, series, scale, phase, kind: int, reduced, z):
    """theta_kind at the array path's z from ``_split``'s parts at its
    reduction: sign * e^(scale + i*phase) * sine * series, sign (-1)^(m+n)
    for theta1 and (-1)^n for theta4. A value that overflows a double raises
    PrecisionUnreachable with no numpy warning first."""
    _, m, n = reduced
    if sine is not None:
        # Out of place: numpy's in-place complex product rounds a 1-element
        # array differently from the same product out of place.
        series = sine * series
    if kind != 3:  # 1 - 2 (k - 2 floor(k/2)) = (-1)^k, exact for every integer-valued k
        k = m + n if kind == 1 else n
        sign = k - 2.0 * np.floor(k / 2)
        sign *= -2.0
        sign += 1.0
        series = sign * series
    if phase is None:
        return series
    return _check_far(np.exp(scale + 1j * phase()) * series, z, f"theta{kind}")


def _log_abs(sine, series, scale, *_):
    """log|theta1| = scale + log|sine series| from ``_split``'s parts: the
    multiplier enters as its real log-scale, so no argument overflows. Where
    |sine series| < ``_SQUARES_TINY`` the product may be subnormal, so the
    log is log|sine| + log|series| there."""
    modulus = np.abs(sine * series)
    logs = np.log(modulus)
    low = modulus < _SQUARES_TINY
    if np.count_nonzero(low):
        logs[low] = np.log(np.abs(sine[low])) + np.log(np.abs(series[low]))
    return scale + logs


def _sine_squared(x, out, scratch):
    """sin(x)^2 into ``out`` as tan(x)^2 / (1 + tan(x)^2), for the reduced
    |x| <= pi/2; ``scratch``, of x's shape, is overwritten. np.tan costs
    about a fifth of np.sin a point (1.9 against 10.7 ns at 12,500 points,
    2-core Xeon)."""
    np.tan(x, out=out)
    out *= out
    np.add(out, 1.0, out=scratch)
    out /= scratch


def _log_abs_real(parts, nome: Nome):
    """log|theta1(a + ib)| on a real nome, pi Im(tau) <= log DBL_MAX, in real
    arithmetic from parts = (a, b) stacked on a first axis, of any shape
    after it: the kernel of ``_log_abs_theta1_parts``. ``_reduce_real``
    reduces the point bit for bit as ``_reduce``; the value is ``_split``'s
    multiplier scale plus log|theta1(v | iS)| at the point v = x + iy where
    ``_split`` sums the series, v = u directly and v = iu/t on the dual side.
    Jacobi's addition formula (DLMF 20.7(iii); Whittaker & Watson 21.22)
    gives, on a real nome,

        theta4(0)^2 |theta1(x + iy)|^2 = theta1(x)^2 theta4(iy)^2 + theta4(x)^2 |theta1(iy)|^2,

    two non-negative terms: nothing cancels next to the zero at v = 0, and
    every factor is even or odd in x and in y. One Horner recurrence sums
    P(x) = theta1(x) / sin(x) and theta4(x) in w = sin(x)^2 beside R(y) =
    |theta1(iy)| / |sinh y| and theta4(iy) in s = sinh(y)^2
    (``_identity_terms``), and the two squares are (theta4(iy) P(x))^2 w and
    (R(y) theta4(x))^2 s: one tan (``_sine_squared``), sinh and log a point,
    no sine. Below pi S = log DBL_MAX every square stays in double range,
    and next to v = 0, where the squares underflow, the sum is taken with the
    larger of |sin x| and |sinh y| factored out, from np.sin and np.sinh at
    those points only. A nan part gives nan."""
    shape, flat = parts.shape[1:], parts.reshape(2, -1)
    with _quiet():
        reduced, n = _reduce_real(flat, nome.tau.imag)
        terms = _coefficients(nome)
        coeffs = _identity_terms(nome)
        t = terms["modular"]
        # The scale first, while few arrays are alive: every array here is as
        # large as the call, and pages a call touches afresh cost more than the
        # arithmetic.
        scale = None if t is None and not np.count_nonzero(n) else _multiplier(
            reduced[0], reduced[1], n, nome.tau, t)[0]
        del n

        def frame(reduced):   # (x, y): v = u directly, v = (-b + ia)/t up to sign
            if t is None:
                return reduced[0], reduced[1]
            reduced *= 1.0 / t
            return reduced[1], reduced[0]

        x, y = frame(reduced)
        powers = np.empty((2, 1) + x.shape)   # w = sin(x)^2, s = sinh(y)^2
        w, s = powers[0, 0], powers[1, 0]
        _sine_squared(x, w, s)
        np.sinh(y, out=s)
        s *= s
        del reduced, x, y   # the points next to a zero are reduced again below
        acc = coeffs[0] * powers   # one Horner recurrence for both axes' two series
        for k in coeffs[1:-1]:
            acc += k
            acc *= powers
        acc += coeffs[-1]
        factors = acc[0]
        factors *= acc[1]   # theta4(iy) P(x), R(y) theta4(x)
        squares = np.multiply(factors, factors, out=acc[1])
        squares *= powers[:, 0]
        total = squares[0] + squares[1]
        del powers, w, s, squares
        low = total < _SQUARES_TINY   # underflowed; 0 at v = 0 only, where the log is -inf
        np.log(total, out=total)
        total *= 0.5
        if np.count_nonzero(low):
            x, y = frame(_reduce_real(flat[:, low], nome.tau.imag)[0])
            odd = np.abs([np.sin(x), np.sinh(y)])
            big = odd.max(axis=0)
            odd = np.divide(odd, big, out=np.zeros_like(odd), where=big > 0)
            total[low] = np.log(big) + np.log(np.hypot(*(factors[:, low] * odd)))
        if scale is not None:
            total += scale
        return total.reshape(shape)


def _log_abs_theta1_parts(parts, nome: Nome):
    """log|theta1(a + ib; q)| from parts = (a, b), the real and imaginary
    parts stacked on a first axis: the entry of the plasma integrand and the
    lattice rule, which build no complex argument. A call of more than
    ``_POINT_MAX`` points on a real nome up to pi Im(tau) = log DBL_MAX runs
    ``_log_abs_real`` on the parts; any other call, that of a complex nome,
    of a real nome past that reach or of at most ``_POINT_MAX`` points, runs
    ``_theta`` on the complex argument the parts make, so every value,
    refusal and nan is that of ``log_abs_theta1``."""
    if parts[0].size > _POINT_MAX and nome.tau.real == 0 and math.pi * nome.tau.imag <= _LOG_MAX:
        return _log_abs_real(parts, nome)
    z = np.empty(parts.shape[1:], dtype=complex)
    z.real, z.imag = parts
    return _theta(1, z, nome, _LOG_ABS)


# An output form of ``_theta``: ``point`` combines one point's (sine, series,
# scale, phase, flip) into its value, ``finish`` takes the array path's (sine,
# series, scale, phase, kind, reduction, z) to an array, and a value has the
# type ``cast``.
_Form = collections.namedtuple("_Form", "point finish cast")
_VALUE = _Form(_point_value, _value, complex)
_LOG_ABS = _Form(_point_log_abs, _log_abs, float)


def _theta(kind: int, z, nome: Nome, form: _Form, tested=None):
    """theta_kind(z; q), kind 1, 3 or 4, in the output ``form``: the one
    dispatcher of the series. A call of at most ``_POINT_MAX`` points runs
    ``_point_kernel`` with ``form.point`` unless it declines; every other call
    runs ``_reduce`` and ``_split`` under ``_quiet()``, and ``form.finish``
    makes the arrays.
    A 0-d z gives Python scalars. With ``tested`` (True for every point, or a
    boolean mask over z's last axis) the call gives None when a tested point's
    reduced argument lies within ``_COINCIDENT`` of pi*Z + pi*tau*Z, read off
    the reduction the series is summed at, on either path, before any refusal.
    """
    z = np.asarray(z, dtype=complex)
    points = None   # the reductions of a call of at most _POINT_MAX points
    if z.size <= _POINT_MAX:
        try:
            points = [_point_reduce(p, nome.tau) for p in z.ravel().tolist()]
        except (OverflowError, ValueError):   # a nan or inf: the array path
            pass
    if tested is not None and points is not None:
        picked = points if tested is True else itertools.compress(points, itertools.cycle(tested))
        if any(abs(u) < _COINCIDENT for u, _, _ in picked):
            return None
    values = None if points is None else _point_kernel(kind, points, nome, form.point)
    if values is not None:
        return np.array(values, dtype=form.cast).reshape(z.shape) if z.ndim else values[0]
    z1 = np.atleast_1d(z)   # the array path takes a 0-d z as one point
    with _quiet():
        reduced = _reduce(z1, nome.tau)
        if tested is not None:
            u = reduced[0] if tested is True else reduced[0][..., tested]
            if (np.abs(u) < _COINCIDENT).any():
                return None
        out = form.finish(*_split(kind, reduced, nome, _coefficients(nome)), kind, reduced, z1)
    return out if z.ndim else form.cast(out[0])


def theta1(z, nome):
    """theta1(z; q), odd, vanishing exactly on pi*Z + pi*tau*Z."""
    return _theta(1, z, Nome.coerce(nome), _VALUE)


def theta3(u, nome):
    """theta3(u; q) = sum_n q^(n^2) e^(2iun)."""
    return _theta(3, u, Nome.coerce(nome), _VALUE)


def theta4(u, nome):
    """theta4(u; q) = sum_n (-1)^n q^(n^2) e^(2iun)."""
    return _theta(4, u, Nome.coerce(nome), _VALUE)


def log_abs_theta1(z, nome):
    """log|theta1(z; q)|, in log scale throughout: no argument overflows."""
    return _theta(1, z, Nome.coerce(nome), _LOG_ABS)


def _theta_apart(kind: int, z, nome: Nome, tested=True):
    """theta_kind(z; q), or None when a ``tested`` z lies on the lattice (``_theta``)."""
    return _theta(kind, z, nome, _VALUE, tested)


def _log_abs_theta1_apart(z, nome: Nome):
    """log|theta1(z; q)|, or None when some z lies on the lattice."""
    return _theta(1, z, nome, _LOG_ABS, True)


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


def _product_form(kind: int, z, nome):
    """theta_kind, kind 1 or 4, from its product at the reduction u of z:
    prod_{k=1..k*} (1 - q^m e^(2iu)) (1 - q^m e^(-2iu)), m = 2k for theta1 and
    2k - 1 for theta4, one factor per k on a last axis, times (q^2; q^2)_inf
    and, for theta1, 2 q^(1/4) sin u; then signed and times the multiplier of
    the shift (``_shift_exponent``). q^m e^(+-2iu) is q^(m-1) times the one
    exponential e^(i pi tau +- 2iu), of modulus <= 1 in the strip: a power of q
    that underflows meets no e^(2iu) that overflows, and there is one
    exponential per point and sign, not per factor. A value out of double
    range is refused and a nan z gives nan, as by the series."""
    nome = Nome.coerce(nome)
    _series_domain(nome)
    z = np.asarray(z, dtype=complex)
    with _quiet():
        u, m, n = _reduce(z, nome.tau)
        k = np.arange(1, _k_star(nome.tau.imag) + 1)
        powers = np.exp(1j * math.pi * nome.tau * (2 * k - 1 if kind == 1 else 2 * k - 2))
        w = np.exp(1j * math.pi * nome.tau + 2j * u)[..., None]
        iw = np.exp(1j * math.pi * nome.tau - 2j * u)[..., None]
        vals = ((1 - powers * w) * (1 - powers * iw)).prod(axis=-1) * _q2_product(nome)
        if kind == 1:
            vals = 2.0 * np.exp(1j * math.pi * nome.tau / 4) * np.sin(u) * vals
        sign = (-1.0) ** (m + n if kind == 1 else n)
        vals = sign * np.exp(_shift_exponent(u, n, nome.tau)) * vals
        _check_far(vals, z, f"theta{kind}")
    return complex(vals) if z.ndim == 0 else vals


def theta1_product(z, nome):
    """Product representation of theta1, for cross-checking the series:

        2 q^(1/4) sin z * prod_n (1-q^(2n) e^(2iz)) (1-q^(2n) e^(-2iz)) (1-q^(2n))
    """
    return _product_form(1, z, nome)


def theta4_product(u, nome):
    """Product representation of theta4, for cross-checking the series:

        prod_n (1 - e^(2iu) q^(2n-1)) (1 - e^(-2iu) q^(2n-1)) (1 - q^(2n))
    """
    return _product_form(4, u, nome)


def lattice_distance(z, nome):
    """|z - nearest lattice point| for the lattice pi*Z + pi*tau*Z.

    Exact for points near the lattice (where it is used to detect coincident
    coordinates); elsewhere it is the distance to the reduction image of 0.
    """
    nome = Nome.coerce(nome)
    u_red, _, _ = _reduce(np.asarray(z, dtype=complex), nome.tau)
    return np.abs(u_red)


def _on_lattice(z, nome: Nome) -> bool:
    """True when some argument lies within 1e-9 of pi*Z + pi*tau*Z, the zeros of
    theta1, by a reduction of its own: ``check_distinct`` sums no theta."""
    return bool((lattice_distance(z, nome) < _COINCIDENT).any())


@functools.lru_cache(maxsize=256)
def _q2_product(nome: Nome) -> complex:
    """(q^2; q^2)_inf = prod_{k=1..k*} (1 - q^(2k)), q^(2k) = e^(2 i pi tau k);
    real, as a complex, when Re(tau) = 0.

    k* grows as 1/Im(tau), so before any factor is built it refuses, with
    PrecisionUnreachable, every t = Im(tau) at which the modular bound
    log eta(it) < -log(t)/2 - pi/(12 t) puts a real nome's eta below the
    smallest normal double: t < 3.68e-4, past k* = 13,962 factors. No
    representable eta is refused; complex nomes take the same bound."""
    t = nome.tau.imag
    if -0.5 * math.log(t) - math.pi / (12.0 * t) < math.log(_TINY):
        raise PrecisionUnreachable(f"(q^2; q^2)_inf at Im(tau) = {t} is refused below Im(tau) "
                                   f"= 3.68e-4, where a real nome's eta is below the smallest "
                                   f"normal double")
    k = np.arange(1, _k_star(t) + 1)
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

    A float for a real nome (Re tau = 0), else complex.
    A value that overflows a double raises PrecisionUnreachable, and so does
    the product's bound Im(tau) >= 3.68e-4 (``_q2_product``), which N = 1 and
    2 (e = 0) do not meet: they take no product.
    """
    _check_count(N)
    nome = Nome.coerce(nome)
    e = (N - 1) * (N - 2)
    try:
        value = N ** (N / 2.0) * cmath.exp(-1j * math.pi * nome.tau * e / 24.0)
        if e:   # N = 1 and 2 take no product
            value *= _q2_product(nome) ** (-e / 2.0)
    except (OverflowError, ZeroDivisionError):  # a power out of range, or 0 ** -x
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise PrecisionUnreachable(f"f_{N} at Im(tau) = {nome.tau.imag} overflows a double")
    return value.real if nome.tau.real == 0 else value
