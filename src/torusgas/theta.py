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

log|theta1| has two summations, both from the one record per nome that
``_coefficients`` keeps. On a real nome (Re tau = 0) up to
pi Im(tau) = log DBL_MAX (W/L <= 225.9) the record also leads to the series
of Jacobi's addition formula (DLMF 20.7(iii)),

    theta4(0)^2 |theta1(x + iy)|^2 = theta1(x)^2 theta4(iy)^2 + theta4(x)^2 |theta1(iy)|^2,

as real polynomials in sin(x)^2 and in cosh 2y, and an array-path call sums
it at the reduced point (``_log_abs_real``): one real sine, cosh, sinh and
log a point, no complex exponential or division, 0.56-0.62x the complex
series' time at the Monte Carlo's 12,500-point blocks (W/L 0.02 to 5, on a
2-core Xeon) and 2-4 us more a call below about 200 points. Every other
call sums the complex series: complex nomes, the point kernel's calls of at
most ``_POINT_MAX`` points, and real nomes past the cap, where e^(2|y|) or
sinh(y)^2 would leave double range. Both routes start from the one
reduction (``_reduce``) and take the multiplier's log-scale from
``_multiplier``, so the coincidence test, the shift rounding and every
refusal are shared.

The series and products are summed to one absolute tail bound, 1e-14, which
towards q -> 1 cancels theta4(0) and theta1'(0) to noise. So a real nome with
Im(tau) = t < 1 is summed at the dual tau' = -1/tau = i/t (DLMF 20.7(viii)),
where |q'| <= e^(-pi): every real nome up to the cap |q| <= 0.95 is then
accurate in relative terms. Complex nomes are summed directly.
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
    ``real``, on a real nome with pi Im(tau) <= log DBL_MAX, holds the
    arguments of ``_identity_terms`` at the summed nome (i/t when modular);
    ``_log_abs_real`` builds that record on the first call that needs it and
    keeps it here under ``identity``, so a nome that never meets the route
    does not pay for it (13-25 us on a 2-core Xeon, about as long as the
    cold build). Threads that meet it unbuilt at once each build the same
    array. None elsewhere.
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
    real = None
    if nome.tau.real == 0 and math.pi * t <= _LOG_MAX:
        real = (summed, 1.0 / t, t**-0.5) if modular else (summed, t, 1.0)
    return {"horner": horner, "modular": t if modular else None, "prime0": prime0,
            "wide": 0.5 * math.pi * t > _LOG_MAX, "real": real}


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
    """M, read-only, with M[0, k, j] and M[1, k, j] the coefficients of w^j
    in T_k(1 - 2w) and in T_k(w), k, j <= degree, T_k the Chebyshev
    polynomials: T_0 = 1, T_1 = c and T_(k+1) = 2c T_k - T_(k-1)."""
    m = np.zeros((2, degree + 2, degree + 2))
    m[:, 0, 0] = 1.0
    m[0, 1, :2] = 1.0, -2.0
    m[1, 1, 1] = 1.0
    for k in range(1, degree):
        m[:, k + 1] = -m[:, k - 1]
        m[0, k + 1] += 2.0 * m[0, k]
        m[0, k + 1, 1:] -= 4.0 * m[0, k, :-1]
        m[1, k + 1, 1:] += 2.0 * m[1, k, :-1]
    m = m[:, :degree + 1, :degree + 1].copy()
    m.flags.writeable = False
    return m


def _identity_terms(summed: dict, s: float, r: float) -> np.ndarray:
    """The series of Jacobi's addition formula at the summed nome iS, S >= 1,
    for ``_log_abs_real``, as one (J + 1, 2, 2, 1) array of polynomial
    coefficients, highest power first. P(x) = theta1(x) / sin(x) = c_0 +
    sum_k c_k (X^k + X^-k) (``_coefficients``' a_k of theta1) and theta4(x) =
    1 + sum_k (-1)^k q^(k^2) (X^k + X^-k), X = e^(2ix), are each the
    Chebyshev sum c_0 + sum_k 2 c_k T_k(cos 2x); at x = iy, cos 2x = cosh 2y.
    [:, 0] holds P and theta4 as polynomials in w = sin(x)^2 (cos 2x = 1 -
    2w), times r / theta4(0), r the dual side's t^(-1/2) (1 directly), so
    that the identity's sum of squares carries both; [:, 1] holds the same
    two series as polynomials in cosh 2y.

    Each axis sums its Chebyshev terms to the last that is not below one ulp
    of its series' leading term (``_kept``): on the real axis |T_k| <= 1, and
    on the imaginary axis the strip |y| <= pi S/2 lets the k-th term grow by
    up to e^(pi S k), so that theta4's leading term there is 2 q e^(pi S) = 2.
    Both stop well before ``_n_star``, and no power of cosh 2y that is kept
    leaves double range. The shorter axis is padded with leading zeros."""
    odd = [c.real for c in summed[1][1]]
    tails = list(itertools.accumulate(reversed(odd)))[::-1]   # c_k = sum_{j>k} odd_j, k = 0..
    even = [1.0] + [0.5 * c.real for c in summed[4][1]]
    growth = math.pi * s
    on_real = max(_kept(tails, tails[0]), _kept(even, 1.0))
    on_imag = max(_kept(tails, tails[0], growth), _kept(even, 2.0, growth))
    degree = max(on_real, on_imag)
    cheb = np.array([(ser + [0.0] * degree)[:degree + 1] for ser in (tails, even)])
    cheb[:, 1:] *= 2.0
    cheb = cheb * np.array([[[r / (1.0 + 2.0 * sum(even[1:]))]], [[1.0]]])   # (axis, series, k)
    cheb[0, :, on_real + 1:] = 0.0
    cheb[1, :, on_imag + 1:] = 0.0
    coeffs = (cheb @ _chebyshev_powers(degree)).transpose(2, 0, 1)[::-1, :, :, None]
    coeffs.flags.writeable = False
    return coeffs


def _horner(const, coeffs, root, v, odd: bool):
    """const + p(x) + p(1/x) at x = e^(2iv), times sin(v) when ``odd``, by one
    Horner recurrence on the stacked pair (x, 1/x): one exponential per point.
    With no coefficients left (all underflowed) x is never formed; with a
    ``root`` the pair is (root w, root / w) squared, w = e^(iv). The pair is
    one preallocated (2,) + v.shape array, filled in place through its views
    w and 1/w; v has at least one dimension."""
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
    # Out of place: numpy's in-place complex product rounds a 1-element array
    # differently from the same product out of place.
    return sine * series if odd else series


def _point_horner(const, coeffs, v: complex, odd: bool) -> complex:
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
        return series
    return (cmath.sin(v) if abs(v) < _SINE_CANCEL else (w - iw) * -0.5j) * series


def _quiet():
    """The floating-point error state to evaluate theta in, one per call: a
    nan or inf argument gives nan, an overflow is refused by name and log 0
    is -inf, with numpy's warnings off."""
    return np.errstate(invalid="ignore", over="ignore", divide="ignore")


def _multiplier(u, n, tau: complex, t):
    """The quasi-periodicity multiplier of ``_split`` at the reduced u and the
    shift n, t = ``terms["modular"]``, as (scale, phase) with phase a function;
    the same arithmetic on numpy arrays and on Python floats."""
    if t is None:
        two_n = 2 * n
        c = -math.pi * tau.real   # a zero c is c * n * n for every finite n
        return (math.pi * tau.imag * n * n + two_n * u.imag,
                lambda: (c if c == 0 else c * n * n) - two_n * u.real)
    a, b = u.real, u.imag + math.pi * t * n
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
    n*pi*tau (``_reduce``), u in the fundamental strip, as (series, scale,
    phase): the series summed at u and theta_kind(z) = sign * e^(scale + i*
    phase()) * series with scale real, phase a function called only where a
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
    series = _horner(*horner, *_frame(kind, u, t))
    if t is None and not n.any():
        return series, 0.0, None
    return (series, *_multiplier(u, n, nome.tau, t))


def _point_reduce(z: complex, tau: complex):
    """``_reduce`` at one point in Python arithmetic, u bit for bit and the
    shifts m, n as ints: round() is half-even like np.rint, and raises
    OverflowError or ValueError at a non-finite argument."""
    n = round(z.imag / (math.pi * tau.imag))
    u = z - n * math.pi * tau
    m = round(u.real / math.pi)
    return u - m * math.pi, m, n


def _point_kernel(kind: int, reduced, nome: Nome, combine):
    """[combine(series, scale, phase)] over the reductions ``reduced`` by
    ``_point_reduce``: ``_split`` point by point in Python complex arithmetic,
    the same frame (``_frame``) and multiplier, each series signed as
    ``_value`` signs it. Or None, and the call runs the array path, which
    refuses or sums by name: the nome's strip is wide, theta3/4 sum a
    subnormal-q root, theta1's leading coefficient underflows, or combine
    raises ArithmeticError or ValueError (a value out of range, log 0)."""
    terms = _coefficients(nome)
    horner = terms["horner"][kind]
    if terms["wide"] or horner is None or horner[2] is not None:
        return None
    const, coeffs, _ = horner
    t = terms["modular"]
    values = []
    try:
        for u, m, n in reduced:
            series = _point_horner(const, coeffs, *_frame(kind, u, t))
            if kind != 3 and (m + n if kind == 1 else n) % 2:
                series = -series
            scale, phase = (0.0, None) if t is None and not n else _multiplier(u, n, nome.tau, t)
            values.append(combine(series, scale, phase))
    except (ArithmeticError, ValueError):
        return None
    return values


def _point_value(series: complex, scale: float, phase) -> complex:
    """theta from ``_point_kernel``'s parts; a value out of double range
    raises OverflowError, so the array path refuses it by name."""
    value = series if phase is None else cmath.exp(complex(scale, phase())) * series
    if not cmath.isfinite(value):
        raise OverflowError(value)
    return value


def _point_log_abs(series: complex, scale: float, _) -> float:
    """log|theta1| from ``_point_kernel``'s parts; log 0 raises ValueError."""
    return scale + math.log(abs(series))


def _value(series, scale, phase, kind: int, reduced, z):
    """theta_kind at the array path's z from ``_split``'s parts at its
    reduction: sign * e^(scale + i*phase) * series, sign (-1)^(m+n) for theta1
    and (-1)^n for theta4. A value that overflows a double raises
    PrecisionUnreachable with no numpy warning first."""
    _, m, n = reduced
    if kind != 3:  # 1 - 2 (k - 2 floor(k/2)) = (-1)^k, exact for every integer-valued k
        k = m + n if kind == 1 else n
        sign = k - 2.0 * np.floor(k / 2)
        sign *= -2.0
        sign += 1.0
        series = sign * series
    if phase is None:
        return series
    return _check_far(np.exp(scale + 1j * phase()) * series, z, f"theta{kind}")


def _log_abs(series, scale, *_):
    """log|theta1| = scale + log|series| from ``_split``'s parts: the
    multiplier enters as its real log-scale, so no argument overflows."""
    return scale + np.log(np.abs(series))


def _log_abs_real(reduced, nome: Nome, terms: dict):
    """log|theta1| at the array path's reduction ``reduced`` = (u, m, n) on a
    real nome whose ``terms["real"]`` is set, in real arithmetic: ``_split``'s
    multiplier scale plus log|theta1(v | iS)| at the point v = x + iy where
    ``_split`` sums the series, v = u directly and v = iu/t on the dual side.
    Jacobi's addition formula (DLMF 20.7(iii); Whittaker & Watson 21.22)
    gives, on a real nome,

        theta4(0)^2 |theta1(x + iy)|^2 = theta1(x)^2 theta4(iy)^2 + theta4(x)^2 |theta1(iy)|^2,

    two non-negative terms: nothing cancels next to the zero at v = 0, and
    every factor is even or odd in x and in y. One Horner recurrence sums
    P(x) = theta1(x) / sin(x) and theta4(x) in sin(x)^2 beside R(y) =
    |theta1(iy)| / |sinh y| and theta4(iy) in cosh 2y (``_identity_terms``),
    from one real sine, cosh and sinh a point. Below pi S = log DBL_MAX every
    square stays in double range, and next to v = 0, where the squares
    underflow, the sum is taken with the larger of |sin x| and |sinh y|
    factored out. On the dual side u, the call's own, is overwritten."""
    coeffs = terms.get("identity")
    if coeffs is None:
        coeffs = terms["identity"] = _identity_terms(*terms["real"])
    t = terms["modular"]
    u, _, n = reduced
    # The scale first, while few arrays are alive: every array here is as
    # large as the call, and pages a call touches afresh cost more than the
    # arithmetic.
    scale = None if t is None and not n.any() else _multiplier(u, n, nome.tau, t)[0]
    a, b = u.real.reshape(-1), u.imag.reshape(-1)   # one point axis for the coefficients
    if t is not None:   # v = (-b + ia)/t up to sign
        a *= 1.0 / t
        b *= 1.0 / t
    x, y = (a, b) if t is None else (b, a)
    odd = np.empty((2,) + x.shape)   # sinh y, sin x
    np.sin(x, out=odd[1])
    powers = np.empty((2, 1) + x.shape)   # sin(x)^2, cosh 2y
    np.multiply(odd[1], odd[1], out=powers[0, 0])
    np.multiply(y, 2.0, out=powers[1, 0])
    np.cosh(powers[1, 0], out=powers[1, 0])
    acc = coeffs[0] * powers   # one Horner recurrence for both axes' two series
    for c in coeffs[1:-1]:
        acc += c
        acc *= powers
    acc += coeffs[-1]
    del powers
    factors = acc[1]
    factors *= acc[0, ::-1]   # R(y) theta4(x), theta4(iy) P(x)
    np.sinh(y, out=odd[0])
    squares = factors * odd
    squares *= squares
    total = squares[0] + squares[1]
    del squares
    near_zero = not total.min() >= _SQUARES_TINY   # also when a nan makes the min nan
    if near_zero:
        low = total < _SQUARES_TINY
    np.log(total, out=total)
    total *= 0.5
    if near_zero and low.any():   # 0 at v = 0 only, where the log is -inf
        odd = np.abs(odd[:, low])
        big = odd.max(axis=0)
        odd = np.divide(odd, big, out=np.zeros_like(odd), where=big > 0)
        total[low] = np.log(big) + np.log(np.hypot(*(factors[:, low] * odd)))
    total = total.reshape(u.shape)
    if scale is not None:
        total += scale
    return total


# An output form of ``_theta``: ``point`` combines one point's signed (series,
# scale, phase) into its value, ``finish`` takes the array path's (series,
# scale, phase, kind, reduction, z) to an array, and a value has the type ``cast``.
_Form = collections.namedtuple("_Form", "point finish cast")
_VALUE = _Form(_point_value, _value, complex)
_LOG_ABS = _Form(_point_log_abs, _log_abs, float)


def _theta(kind: int, z, nome: Nome, form: _Form, tested=None):
    """theta_kind(z; q), kind 1, 3 or 4, in the output ``form``: the one
    dispatcher of the series. A call of at most ``_POINT_MAX`` points runs
    ``_point_kernel`` with ``form.point`` unless it declines; else ``_reduce``
    and ``_split`` run under ``_quiet()`` and ``form.finish`` makes the arrays.
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
        terms = _coefficients(nome)
        if form is _LOG_ABS and terms["real"] is not None:
            out = _log_abs_real(reduced, nome, terms)
        else:
            out = form.finish(*_split(kind, reduced, nome, terms), kind, reduced, z1)
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
    return _log_abs_theta1(z, Nome.coerce(nome))


def _log_abs_theta1(z, nome: Nome):
    """``log_abs_theta1`` at a ``Nome``. The Monte Carlo's threads call this
    name: perfbench's tracer rebinds the public one and keeps one span stack,
    which threads would interleave. On a real nome up to W/L = 225.9 an
    array call of more than ``_POINT_MAX`` points sums Jacobi's addition
    formula in real arithmetic (``_log_abs_real``), the Monte Carlo's and the
    lattice rule's calls among them; others sum the complex series."""
    return _theta(1, z, nome, _LOG_ABS)


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

    A float for a real nome (Re tau = 0), else complex.
    A value that overflows a double raises PrecisionUnreachable.
    """
    _check_count(N)
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
