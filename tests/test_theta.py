"""Theta-function core: dual representations, quasi-periodicity, eta and f_N."""

import cmath
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from torusgas import theta as theta_module
from torusgas.electrostatics import coulomb_energy_terms, ocp_log_boltzmann, phi_quasi
from torusgas.errors import (
    CoincidentPoints,
    NomeOutOfRange,
    ParameterOutOfRange,
    PrecisionUnreachable,
)
from torusgas.geometry import ParticleConfig, TorusGeometry
from torusgas.identities import frobenius_residual
from torusgas.theta import (
    _POINT_MAX,
    Nome,
    _coefficients,
    _frame,
    _horner,
    _k_star,
    _log_abs_theta1_apart,
    _log_abs_theta1_parts,
    _n_star,
    _reduce,
    _reduce_real,
    _shift_exponent,
    _split,
    _terms,
    eta_q,
    f_N,
    lattice_distance,
    log_abs_theta1,
    theta1,
    theta1_prime0,
    theta1_product,
    theta3,
    theta4,
    theta4_product,
)

from oracles import kernel_K

mp.mp.dps = 30

rng = np.random.default_rng(101)
POINTS = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.4, 0.4)) for _ in range(12)]


class TestNome:
    def test_from_q_tau_consistency(self):
        nome = Nome.from_q(0.3)
        assert abs(np.exp(1j * math.pi * nome.tau) - 0.3) < 1e-15

    def test_from_aspect(self):
        nome = Nome.from_aspect(2.0, 1.0)
        assert abs(nome.q - math.exp(-2 * math.pi)) < 1e-15

    def test_root_and_power(self):
        nome = Nome.from_q(0.4)
        assert abs(nome.root(3).q**3 - 0.4) < 1e-14
        assert abs(nome.power(2).q - 0.16) < 1e-15

    def test_rejects_large_nome(self):
        """|q| >= 1 is no nome; 0.95 < |q| < 1 is one, which theta's series
        and product forms refuse."""
        with pytest.raises(NomeOutOfRange):
            Nome.from_q(1.05)
        nome = Nome.from_q(0.97)
        calls = [lambda f=f: f(0.3, nome) for f in
                 (theta1, theta3, theta4, log_abs_theta1, theta1_product, theta4_product)]
        for call in calls + [lambda: theta1_prime0(nome)]:
            with pytest.raises(NomeOutOfRange):
                call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Nome.from_q(0),
            lambda: Nome(complex(0, math.inf)),
            lambda: theta1(0.7, 0.0),
            lambda: theta3(0.7, 0.0),
            lambda: theta4(0.7, 0.0),
            lambda: log_abs_theta1(0.7, 0.0),
            lambda: theta1_prime0(0.0),
            lambda: theta1_product(0.7, 0.0),
            lambda: theta4_product(0.7, 0.0),
            lambda: lattice_distance(0.7, 0.0),
        ],
        ids=["from_q", "infinite-tau", "theta1", "theta3", "theta4", "log_abs_theta1",
             "theta1_prime0", "theta1_product", "theta4_product", "lattice_distance"],
    )
    def test_zero_nome_refused(self, call):
        """q = 0 is tau = i*inf, outside the domain 0 < |q| <= 0.95 at a finite
        tau: every entry point refuses it by name."""
        with pytest.raises(NomeOutOfRange):
            call()

    @pytest.mark.parametrize("re_tau", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_real_part_refused(self, re_tau):
        """A non-finite Re(tau) is no nome: refused where it enters, by name,
        not as a nan theta value or an overflow of f_N."""
        with pytest.raises(NomeOutOfRange, match=r"^Re\(tau\) = "):
            Nome.from_tau(complex(re_tau, 1.0))


class TestTruncation:
    def test_bounded_over_the_accepted_domain(self):
        """The one tail bound 1e-14 sums n* = 28 terms at the complex cap
        nome |q| = 0.95 and at most 6 at every real nome, which is summed at
        the dual nome once t < 1; the products take k* = 316 factors at the
        cap. At the complex cap theta1, theta3 and theta4 match mpmath to
        1e-14 relative."""
        def n_terms(nome):  # the theta3 coefficients summed, one per term
            return len(_coefficients(nome)["horner"][3][1])

        for wl in np.geomspace(0.01633, 61.2, 60):
            assert n_terms(Nome.from_aspect(wl, 1.0)) <= 6, wl
        tau = 0.3 + 1j * -math.log(0.95) / math.pi
        nome = Nome.from_tau(tau)
        assert abs(abs(nome.q) - 0.95) < 1e-15
        assert n_terms(nome) == _n_star(tau.imag) == 28 and _k_star(tau.imag) == 316
        pts = [0.0, 0.7 + 0.2j, -1.2 + 0.05j, 0.4 - 0.07j]
        with mp.workdps(40):
            q = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
            for kind, theta in ((1, theta1), (3, theta3), (4, theta4)):
                for z in pts[kind == 1:]:
                    ref = complex(mp.jtheta(kind, mp.mpc(z.real, z.imag), q))
                    assert abs(theta(z, nome) - ref) <= 1e-14 * abs(ref), (kind, z)


class TestTheta1:
    def test_vanishes_at_origin(self):
        assert theta1(0.0, 0.3) == 0

    def test_odd(self):
        for z in POINTS:
            assert abs(theta1(-z, 0.35) + theta1(z, 0.35)) < 1e-12

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    def test_series_equals_product(self, q):
        for z in POINTS:
            assert abs(theta1(z, q) - theta1_product(z, q)) < 1e-12

    def test_half_period_flip(self):
        """theta1(z + pi) = -theta1(z) on 100 random draws."""
        zs = rng.uniform(-1.5, 1.5, 100) + 1j * rng.uniform(-0.4, 0.4, 100)
        v = theta1(zs, 0.3)
        assert np.all(np.abs(theta1(zs + math.pi, 0.3) + v) < 1e-10 * np.maximum(1, np.abs(v)))

    def test_quasi_period(self):
        """theta1(z + pi*tau) * q * e^(2iz) = -theta1(z) on 100 random draws."""
        nome = Nome.from_q(0.3)
        zs = rng.uniform(-1.5, 1.5, 100) + 1j * rng.uniform(-0.4, 0.4, 100)
        v = theta1(zs, nome)
        shifted = theta1(zs + math.pi * nome.tau, nome) * nome.q * np.exp(2j * zs)
        assert np.all(np.abs(shifted + v) < 1e-10 * np.maximum(1, np.abs(v)))

    def test_against_mpmath(self):
        for q in (0.12, 0.45):
            for z in POINTS:
                ref = complex(mp.jtheta(1, mp.mpc(z), q))
                assert abs(theta1(z, q) - ref) < 1e-13 * max(1.0, abs(ref))

    def test_far_from_strip(self):
        """Lattice reduction keeps huge arguments exact."""
        z = 0.3 + 5.7j
        ref = complex(mp.jtheta(1, mp.mpc(z), 0.3))
        assert abs(theta1(z, 0.3) - ref) / abs(ref) < 1e-12

    def test_log_abs_matches_direct(self):
        for z in POINTS:
            assert abs(log_abs_theta1(z, 0.3) - math.log(abs(theta1(z, 0.3)))) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_log_abs_at_a_zero(self):
        """At z = 0 and at the lattice points pi and pi*tau, log|theta1| is
        -inf, scalar and array, with no numpy warning."""
        nome = Nome.from_q(0.3)
        zeros = [0.0, math.pi, math.pi * nome.tau]
        assert all(log_abs_theta1(z, nome) == -math.inf for z in zeros)
        got = log_abs_theta1(np.array(zeros + [0.4 + 0.1j]), nome)
        assert np.array_equal(got[:3], np.full(3, -math.inf)) and np.isfinite(got[3])


class TestTheta34:
    def test_even(self):
        for u in POINTS:
            assert abs(theta3(-u, 0.3) - theta3(u, 0.3)) < 1e-12
            assert abs(theta4(-u, 0.3) - theta4(u, 0.3)) < 1e-12

    def test_theta4_series_equals_product(self):
        q = 0.2
        assert abs(theta4(0.0, q) - theta4_product(0.0, q)) < 1e-12
        for u in POINTS:
            assert abs(theta4(u, q) - theta4_product(u, q)) < 1e-12

    def test_theta4_product_at_zero(self):
        q = 0.2
        ref = np.prod([(1 - q ** (2 * n - 1)) ** 2 * (1 - q ** (2 * n)) for n in range(1, 60)])
        assert abs(theta4(0.0, q) - ref) < 1e-12

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.95, 0.4 + 0.3j])
    def test_products_match_factor_loop(self, q):
        """theta1_product and theta4_product, one np.prod over the factor
        axis, against the products taken factor by factor in a loop; up to
        k* = 315 factors at q = 0.95, each rounding by a few ulp."""
        nome = Nome.from_q(q)
        zs = np.array(POINTS[:3] + [POINTS[3] + 2 * math.pi * nome.tau])
        u, m, n = _reduce(zs, nome.tau)
        kstar = _k_star(nome.tau.imag)
        t1, t4, e2 = 2.0 * np.exp(1j * math.pi * nome.tau / 4) * np.sin(u), 1.0, np.exp(2j * u)
        for k in range(1, kstar + 1):
            q_odd, q2k = nome.q ** (2 * k - 1), nome.q ** (2 * k)
            t1 = t1 * (1 - q2k * e2) * (1 - q2k / e2) * (1 - q2k)
            t4 = t4 * (1 - q_odd * e2) * (1 - q_odd / e2) * (1 - q2k)
        mult = np.exp(_shift_exponent(u, n, nome.tau))
        tol = 8 * kstar * np.finfo(float).eps
        assert _rel(theta1_product(zs, nome), (-1.0) ** (m + n) * mult * t1) <= tol
        assert _rel(theta4_product(zs, nome), (-1.0) ** n * mult * t4) <= tol
        for z, ref in zip(zs, (-1.0) ** (m + n) * mult * t1):
            assert abs(theta1_product(complex(z), nome) - ref) <= tol * abs(ref)

    def test_against_mpmath(self):
        for u in POINTS:
            assert abs(theta3(u, 0.3) - complex(mp.jtheta(3, mp.mpc(u), 0.3))) < 1e-13
            assert abs(theta4(u, 0.3) - complex(mp.jtheta(4, mp.mpc(u), 0.3))) < 1e-13

    def test_pi_periodicity(self):
        for u in POINTS:
            assert abs(theta3(u + math.pi, 0.3) - theta3(u, 0.3)) < 1e-11
            assert abs(theta4(u + math.pi, 0.3) - theta4(u, 0.3)) < 1e-11


class TestTheta1Prime:
    def test_small_nome_limit(self):
        q = 1e-8
        assert abs(theta1_prime0(Nome.from_q(q)) / (2 * q**0.25) - 1) < 1e-7

    def test_finite_difference(self):
        """Central difference of theta1 at 0 with h = 1e-5."""
        h = 1e-5
        fd = (theta1(h, 0.25) - theta1(-h, 0.25)) / (2 * h)
        assert abs(theta1_prime0(Nome.from_q(0.25)) - fd) < 1e-8

    def test_product_identity(self):
        q = 0.25
        prod = 2 * q**0.25 * np.prod([(1 - q ** (2 * n)) ** 3 for n in range(1, 60)])
        assert abs(theta1_prime0(Nome.from_q(q)) - prod) < 1e-13


class TestEta:
    def test_small_nome_scaling(self):
        q = 1e-10
        assert abs(eta_q(q) / q ** (1 / 12) - 1.0) < 1e-9

    def test_classical_constant(self):
        """eta at q = e^-pi equals Gamma(1/4) / (2 pi^(3/4))."""
        ref = gamma(0.25) / (2 * math.pi**0.75)
        assert abs(eta_q(math.exp(-math.pi)) - ref) < 1e-12

    @pytest.mark.parametrize("s", [0.3, 0.5, 2.0, 3.0])
    def test_modular_identity(self, s):
        lhs = eta_q(math.exp(-math.pi * s))
        rhs = s**-0.5 * eta_q(math.exp(-math.pi / s))
        assert abs(lhs - rhs) < 1e-13

    def test_domain(self):
        with pytest.raises(NomeOutOfRange):
            eta_q(0.0)
        with pytest.raises(NomeOutOfRange):
            eta_q(complex(0.1, 0.1))

    @pytest.mark.parametrize("s", [300.0, 1000.0])
    def test_modular_identity_far_from_the_square(self, s):
        """q = e^(-pi s) underflows to 0 and its partner e^(-pi/s) is past the
        series' cap 0.95; eta_q takes both from tau. The partner's product
        stops where q'^(2k) < 1e-14, so its dropped tail sums to about
        1e-14 / (1 - q'^2), 1.6e-12 at s = 1000."""
        lhs = eta_q(Nome.from_aspect(s, 1.0))
        rhs = s**-0.5 * eta_q(Nome.from_aspect(1.0, s))
        tail = 1e-14 / -math.expm1(-2 * math.pi / s)
        assert abs(lhs - rhs) <= 2 * tail * lhs

    @pytest.mark.parametrize("aspect", [(3000.0, 1.0), (1.0, 3000.0)], ids=["W/L", "L/W"])
    def test_below_double_range_refused(self, aspect):
        """eta_q ~ e^(-pi 3000/12) on either side of the modular identity is
        below the smallest normal double."""
        with pytest.raises(PrecisionUnreachable):
            eta_q(Nome.from_aspect(*aspect))


class TestFN:
    def test_n1_is_one(self):
        assert f_N(1, 0.47) == 1.0

    def test_n2_is_two(self):
        assert f_N(2, 0.21) == 2.0

    def test_n3_explicit(self):
        q = 0.3
        poch = np.prod([(1 - q ** (2 * j)) for j in range(1, 200)])
        assert abs(f_N(3, q) - 3**1.5 * q ** (-1 / 12) / poch) < 1e-12

    def test_domain(self):
        with pytest.raises(NomeOutOfRange):
            f_N(3, 0.0)

    def test_real_nome_gives_float(self):
        assert isinstance(f_N(4, Nome.from_aspect(0.7, 1.0)), float)

    def test_where_q_underflows(self):
        """q = e^(-240 pi) underflows to 0; f_6 = 6^3 e^(20 * 240 pi / 24)
        (q^2; q^2)_inf^(-10) is a double, its product 1 to 1e-300."""
        got = f_N(6, Nome.from_aspect(240.0, 1.0))
        assert math.log(got) == pytest.approx(3 * math.log(6) + 200 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("aspect", [(300.0, 1.0), (1.0, 300.0)], ids=["q-power", "product"])
    def test_overflow_refused(self, aspect):
        """e^(20 * 300 pi / 24), or (q^2; q^2)_inf^(-10) at W/L = 1/300,
        overflows a double."""
        with pytest.raises(PrecisionUnreachable):
            f_N(6, Nome.from_aspect(*aspect))

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_skewed_torus_against_mpmath(self, N):
        """Complex nome (Re tau != 0): N^(N/2) q^(-e/24) (q^2; q^2)_inf^(-e/2),
        e = (N-1)(N-2), with q^(-e/24) on the tau branch."""
        nome = Nome.from_tau(complex(-0.3, 2 * math.pi * 0.25**2 * N))
        assert nome.tau.real != 0
        e = (N - 1) * (N - 2)
        tau = mp.mpc(nome.tau.real, nome.tau.imag)
        q = mp.exp(1j * mp.pi * tau)
        ref = complex(
            mp.mpf(N) ** (mp.mpf(N) / 2)
            * mp.exp(-1j * mp.pi * tau * e / 24)
            * mp.qp(q**2, q**2) ** (-(e // 2))
        )
        got = f_N(N, nome)
        assert isinstance(got, complex)
        assert abs(got - ref) < 1e-12 * abs(ref)


class TestProductBound:
    """(q^2; q^2)_inf takes k* ~ 5.1/Im(tau) factors. Below Im(tau) = 3.68e-4,
    where eta(it) = t^(-1/2) eta(i/t) < t^(-1/2) e^(-pi/(12 t)) is below the
    smallest normal double, it is refused before any factor is built."""

    @staticmethod
    def _modular(t):
        """eta(it) from its dual, whose product is 1 to e^(-2 pi/t)."""
        return math.exp(-0.5 * math.log(t) - math.pi / (12.0 * t))

    def test_refused_by_name(self):
        with pytest.raises(PrecisionUnreachable):
            eta_q(Nome.from_tau(1e-320j))

    def test_edge(self):
        """eta at 3.68e-4 is 5.7e-308, a normal double, and eta_q returns it;
        at 3.67e-4 it is below the smallest normal double, and refused."""
        assert eta_q(Nome.from_tau(3.68e-4j)) == pytest.approx(self._modular(3.68e-4), rel=1e-11)
        assert self._modular(3.67e-4) < np.finfo(float).tiny
        with pytest.raises(PrecisionUnreachable):
            eta_q(Nome.from_tau(3.67e-4j))

    @pytest.mark.parametrize("N, nome, value", [
        (2, Nome.from_tau(1e-320j), 2.0),
        (1, Nome.from_aspect(1e-60, 1.0), 1.0),
    ], ids=["f2", "f1"])
    def test_f1_and_f2_take_no_product(self, N, nome, value):
        assert f_N(N, nome) == value

    def test_refused_without_allocating(self, monkeypatch):
        """At Im(tau) = 1e-9 the product would take 5.1e9 factors."""
        arange = np.arange

        def bounded(*args, **kwargs):
            start, stop = (0, args[0]) if len(args) == 1 else args[:2]
            assert stop - start <= 2**16, f"an arange of {stop - start} elements"
            return arange(*args, **kwargs)

        monkeypatch.setattr(theta_module.np, "arange", bounded)
        with pytest.raises(PrecisionUnreachable):
            eta_q(Nome.from_tau(1e-9j))


class TestNamedErrors:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: f_N(0, 0.3),
        ],
        ids=["f_N-N"],
    )
    def test_out_of_range_argument(self, call):
        with pytest.raises(ParameterOutOfRange) as info:
            call()
        assert isinstance(info.value, ValueError)


# Property tests: seeded (derandomized) so the suite stays reproducible.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
NOMES = st.floats(0.05, 0.9)
UNIT = st.floats(-1.0, 1.0)


def _envelope(z: complex, nome: Nome) -> float:
    """Modulus of the quasi-periodicity multiplier that carries the reduced
    series to z: the natural size of theta there, whatever cancels inside."""
    k = round(z.imag / (math.pi * nome.tau.imag))
    return math.exp(2 * k * z.imag - math.pi * nome.tau.imag * k * k)


def _close(got: complex, ref: complex, z: complex, nome: Nome, tol: float = 1e-11) -> bool:
    return abs(got - ref) <= tol * max(1.0, abs(ref), _envelope(z, nome))


class TestThetaProperties:
    @PROPERTY
    @given(q=NOMES, x=UNIT, y=UNIT)
    def test_quasi_periodicity(self, q, x, y):
        """theta(z + pi) and theta(z + pi*tau) against theta(z), for 1, 3, 4."""
        nome = Nome.from_q(q)
        z = complex(math.pi * x, math.pi * nome.tau.imag * y)
        mult = -nome.q * np.exp(2j * z)   # theta1, theta4: -q e^(2iz); theta3: +q e^(2iz)
        for theta, half_sign, tau_sign in ((theta1, -1, 1), (theta3, 1, -1), (theta4, 1, 1)):
            v = theta(z, nome)
            assert _close(theta(z + math.pi, nome), half_sign * v, z, nome)
            assert _close(tau_sign * mult * theta(z + math.pi * nome.tau, nome), v, z, nome)

    @PROPERTY
    @given(q=NOMES, x=UNIT, y=st.floats(-5.0, 5.0))
    def test_log_abs_matches_direct(self, q, x, y):
        nome = Nome.from_q(q)
        z = complex(math.pi * x, math.pi * nome.tau.imag * y)
        direct = abs(theta1(z, nome))
        assume(direct > 0.0)
        got = log_abs_theta1(z, nome)
        assert abs(got - math.log(direct)) <= 1e-12 * max(1.0, abs(got))

    @PROPERTY
    @given(q=NOMES, x=UNIT, y=UNIT, k=st.integers(1, 1000))
    def test_far_from_strip(self, q, x, y, k):
        """|Im z| >> Im tau: log|theta1(z + k pi tau)| = log|theta1(z)|
        + pi Im(tau) k^2 + 2 k Im z, far past where theta1 itself overflows."""
        nome = Nome.from_q(q)
        z = complex(math.pi * x, math.pi * nome.tau.imag * y)
        assume(lattice_distance(z, nome) > 1e-3)
        base = log_abs_theta1(z, nome)
        expected = base + math.pi * nome.tau.imag * k * k + 2 * k * z.imag
        got = log_abs_theta1(z + k * math.pi * nome.tau, nome)
        # the series has an absolute tail bound, so where it cancels to a small
        # value its log is good to about 1e-14 / |series| (q -> 1 on Re z = 0)
        series = math.exp(base) / _envelope(z, nome)
        assert abs(got - expected) <= 1e-12 * abs(expected) + 1e-12 / series

    @PROPERTY
    @given(q=NOMES, k=st.integers(-3, 3), t=UNIT, real_half=st.booleans())
    def test_half_integer_reduction_boundary(self, q, k, t, real_half):
        """On Re z = (k+1/2) pi or Im z = (k+1/2) pi Im(tau), where the reduction
        rounds a half-integer with np.rint, all three thetas match mpmath."""
        nome = Nome.from_q(q)
        if real_half:
            z = complex((k + 0.5) * math.pi, math.pi * nome.tau.imag * t)
        else:
            z = complex(math.pi * t, (k + 0.5) * math.pi * nome.tau.imag)
        for n, theta in ((1, theta1), (3, theta3), (4, theta4)):
            ref = complex(mp.jtheta(n, mp.mpc(z.real, z.imag), q))
            assert _close(theta(z, nome), ref, z, nome)


# The series core against independent references over the whole aspect range.
ASPECTS = (0.1, 0.15, 0.3, 1.0, 3.0, 10.0, 20.0, 61.0)
NEAR_CAP = (0.0164, 0.02, 0.03, 0.05)   # q from the cap 0.95 down to 0.85
KINDS = ((1, theta1), (3, theta3), (4, theta4))


def _strip_points(wl: float, k: int = 100):
    """k seeded points in the fundamental strip, and the same points shifted
    by m*pi + n*pi*tau with |m| <= 3, n = +-1."""
    gen = np.random.default_rng(int(wl * 100))
    inside = math.pi * gen.uniform(-0.5, 0.5, k) + 1j * math.pi * wl * gen.uniform(-0.5, 0.5, k)
    shift = gen.integers(-3, 4, k) * math.pi + gen.choice([-1, 1], k) * 1j * math.pi * wl
    return inside, inside + shift


def _log_errors(points, ref, nome: Nome):
    """The largest error of log|theta1| at ``points`` relative to
    max(1, |ref|), by the public entry and by ``_log_abs_theta1_parts`` on the
    points' parts, as (public, parts)."""
    parts = np.array([points.real, points.imag])
    return tuple(float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)))
                 for got in (log_abs_theta1(points, nome), _log_abs_theta1_parts(parts, nome)))


@functools.lru_cache(maxsize=None)
def _strip_log_references(wl: float):
    """The two calls of ``_strip_points(wl)``, inside the strip and shifted
    out of it, each with its log|theta1| in 60-digit mpmath."""
    with mp.workdps(60):
        q = mp.exp(-mp.pi * mp.mpf(wl))
        return tuple((pts, np.array([float(mp.log(abs(mp.jtheta(1, mp.mpc(z.real, z.imag), q))))
                                     for z in pts]))
                     for pts in _strip_points(wl))


def _strip_log_error(wl: float):
    """``_log_errors`` over the two calls of ``_strip_points(wl)``, the
    larger of the two per entry, against 60-digit mpmath."""
    nome = Nome.from_aspect(wl, 1.0)
    return tuple(map(max, *(_log_errors(pts, ref, nome) for pts, ref in _strip_log_references(wl))))


@functools.lru_cache(maxsize=None)
def _near_zero_log_references(wl: float):
    """(z, reference) next to the zeros of theta1 at W/L = wl: the reduced
    point u runs over |u| from 1e-300 to 1e-3, at 0 in every direction, at
    m*pi (u = +-i|u|, m = -1, 1, 2) and on the rows n*pi*tau (u = +-|u|,
    n = -1, 1, 2), each z built so that the array path reduces it to u bit
    for bit. The reference is 60-digit mpmath at u, plus the exact
    quasi-periodicity log-scale pi W/L n^2 + 2n Im(u) of the shift."""
    gen = np.random.default_rng(int(wl * 1e4))
    sizes = 10.0 ** -np.linspace(3, 300, 12)
    points = []   # (z, u, n)
    for r in sizes:
        for phase in gen.uniform(0, 2 * math.pi, 2):
            u = r * cmath.exp(1j * phase)
            points.append((u, u, 0))
        for m in (-1, 1, 2):
            u = 1j * r * gen.choice([-1.0, 1.0])
            points.append((complex(m * math.pi, u.imag), u, 0))
        for n in (-1, 1, 2):
            u = r * gen.choice([-1.0, 1.0])
            points.append((complex(u, (n * math.pi) * wl), complex(u), n))
    with mp.workdps(60):
        q = mp.exp(-mp.pi * mp.mpf(wl))
        ref = np.array([float(mp.log(abs(mp.jtheta(1, mp.mpc(u.real, u.imag), q)))
                              + mp.pi * mp.mpf(wl) * n * n + 2 * n * mp.mpf(u.imag))
                        for _, u, n in points])
    return np.array([z for z, _, _ in points]), ref


def _near_zero_log_error(wl: float):
    """``_log_errors`` next to the zeros of theta1 (``_near_zero_log_references``),
    in one call of more than _POINT_MAX points per entry."""
    return _log_errors(*_near_zero_log_references(wl), Nome.from_aspect(wl, 1.0))


def _trig_sum(kind: int, z, nome: Nome):
    """The earlier engine, kept as a reference: sin/cos of every term at every
    point, contracted with the coefficients by tensordot."""
    u, m, n = _reduce(np.asarray(z, dtype=complex), nome.tau)
    freqs, coeffs = _terms(nome.tau)[kind]
    trig = np.sin if kind == 1 else np.cos
    series = np.tensordot(coeffs, trig(np.multiply.outer(freqs, u)), axes=(0, 0))
    if kind != 1:
        series = 1.0 + series
    sign = 1.0 if kind == 3 else (-1.0) ** (m + n if kind == 1 else n)
    return sign * np.exp(_shift_exponent(u, n, nome.tau)) * series


def _rel(got, ref) -> float:
    return float(np.max(np.abs(np.asarray(got) - ref) / np.abs(ref)))


def _conditioning(kind: int, z: complex, nome: Nome):
    """(kappa, size) of theta_kind at z: kappa is the sum of the moduli of
    its series' terms over the modulus of their sum (a sine factor apart), at
    the reduced point and on the dual side where theta sums it, 1 where no
    term cancels; size is the larger of 1 and the moduli of the two parts
    scale and log|series| that log|theta_kind| adds. Two evaluations that
    round each operation correctly differ by a few eps times kappa relative,
    and in the log by a few eps times size + kappa."""
    terms = _coefficients(nome)
    const, coeffs, root = terms["horner"][kind]
    reduced = _reduce(np.array([z]), nome.tau)
    t = terms["modular"]
    v, _ = _frame(kind, reduced[0], t)
    log_x = -2.0 * v[0].imag   # log|x|, and the pair (x, 1/x) is scaled by root^2
    log_r = 0.0 if root is None else 2.0 * math.log(abs(root))
    moduli = abs(const) + sum(math.exp(math.log(abs(c)) + j * (log_r + log_x))
                              + math.exp(math.log(abs(c)) + j * (log_r - log_x))
                              for j, c in enumerate(reversed(coeffs), 1) if c)
    with np.errstate(all="ignore"):
        kappa = moduli / abs(_horner(const, coeffs, root, v, False)[1][0])
        sine, series, scale, _ = _split(kind, reduced, nome, terms)
    series = series if sine is None else sine * series
    return kappa, max(1.0, abs(np.ravel(scale)[0]), abs(math.log(abs(series[0]))))


class TestSeriesKernel:
    @pytest.mark.parametrize("wl", NEAR_CAP + ASPECTS)
    def test_against_mpmath(self, wl):
        """Relative error <= 1e-13 from the nome cap to W/L = 61, inside the
        strip and shifted out of it. 60 digits: at W/L = 61 mpmath's jtheta is
        itself off by ~1e-13 at 30."""
        nome = Nome.from_aspect(wl, 1.0)
        with mp.workdps(60):
            q = mp.exp(-mp.pi * mp.mpf(wl))
            for pts in _strip_points(wl):
                zs = [mp.mpc(z.real, z.imag) for z in pts]
                for kind, theta in KINDS:
                    ref = np.array([complex(mp.jtheta(kind, z, q)) for z in zs])
                    assert _rel(theta(pts, nome), ref) <= 1e-13, (kind, wl)
        for errors in (_strip_log_error(wl), _near_zero_log_error(wl)):
            assert max(errors) <= 1e-13, (wl, errors)   # (public, parts) entry

    @pytest.mark.parametrize("wl", NEAR_CAP + ASPECTS)
    def test_near_zero_control_without_the_imaginary_axis_term(self, wl, monkeypatch):
        """With the term theta4(a)^2 |theta1(ib)|^2 of Jacobi's addition
        formula dropped (R(b) = |theta1(ib)| / sinh|b| set to 0), the
        near-zero inputs of ``test_against_mpmath`` miss at every aspect, on
        both frames, by the parts entry."""
        build = theta_module._identity_terms

        def dropped(nome):
            coeffs = build(nome).copy()
            coeffs[:, 1, 1] = 0.0   # R on the imaginary axis
            return coeffs

        monkeypatch.setattr(theta_module, "_identity_terms", dropped)
        assert _near_zero_log_error(wl)[1] > 1e-13, wl

    @pytest.mark.parametrize("wl", NEAR_CAP + ASPECTS)
    def test_control_without_the_tangent_normalisation(self, wl, monkeypatch):
        """With sin(x)^2 taken as tan(x)^2, its 1/(1 + tan(x)^2) dropped,
        the log|theta1| check of ``test_against_mpmath`` misses at every
        aspect, on both frames, by the parts entry."""
        def unnormalised(x, out, scratch):
            np.tan(x, out=out)
            out *= out

        monkeypatch.setattr(theta_module, "_sine_squared", unnormalised)
        assert _strip_log_error(wl)[1] > 1e-13, wl

    @pytest.mark.parametrize("wl", (NEAR_CAP[0], ASPECTS[-1]))
    def test_near_zero_control_without_the_sine_log_apart(self, wl, monkeypatch):
        """With log|theta1| taken as the log of the product sin(v) series
        everywhere, the near-zero rows of ``test_against_mpmath`` miss by the
        public entry at the nome cap and at W/L = 61: there theta1's series
        constant, 2 q^(1/4) directly and its dual's at the cap, is about
        3.5e-21, so the product is subnormal next to a zero."""
        def product_log(sine, series, scale, *_):
            return scale + np.log(np.abs(sine * series))

        form = theta_module._Form(theta_module._point_log_abs, product_log, float)
        monkeypatch.setattr(theta_module, "_LOG_ABS", form)
        assert _near_zero_log_error(wl)[0] > 1e-13, wl

    @pytest.mark.parametrize(
        "z, tau, n",
        [(complex(1e-300, 2 * math.pi * 61.0), 61j, 2), (1e-300, 61j, 0),
         (complex(1e-300, 2 * math.pi * 0.0164), 0.0164j, 2), (1e-300, 0.3 + 61j, 0)],
        ids=["61-two-rows", "61", "cap-two-rows", "skewed-61"],
    )
    def test_log_abs_next_to_a_zero_where_the_series_constant_is_tiny(self, z, tau, n):
        """log|theta1| at u = 1e-300, on the real axis, reduced from z by n
        rows of pi*tau, where sin(u) series is subnormal: a scalar, a 1-point
        and a 9-point call agree with 60-digit mpmath at u plus the exact
        log-scale pi Im(tau) n^2 of the shift to 1e-13 relative. Taken as the
        log of the product they read 1.7e-5, 6.6e-7, 4.3e-10 and 1.5e-6 off."""
        nome = Nome.from_tau(tau)
        with mp.workdps(60):
            q = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
            ref = float(mp.log(abs(mp.jtheta(1, mp.mpf(1e-300), q))) + mp.pi * mp.mpf(tau.imag) * n * n)
        for arg in (z, np.array([z]), np.full(_POINT_MAX + 1, z)):
            assert np.max(np.abs(log_abs_theta1(arg, nome) - ref)) <= 1e-13 * abs(ref), (arg, ref)

    @pytest.mark.parametrize("wl", ASPECTS)
    def test_against_trig_sum(self, wl):
        """The Horner recurrence reproduces the per-term sin/cos sum."""
        tol = 1e-13 if wl >= 0.15 else 1e-12
        nome = Nome.from_aspect(wl, 1.0)
        for pts in _strip_points(wl):
            for kind, theta in KINDS:
                assert _rel(theta(pts, nome), _trig_sum(kind, pts, nome)) <= tol, (kind, wl)

    @pytest.mark.parametrize("wl", (0.05, 1.0, 20.0))
    def test_scalar_matches_one_element_array(self, wl):
        nome = Nome.from_aspect(wl, 1.0)
        for z in np.concatenate(_strip_points(wl, 10)):
            for _, theta in KINDS:
                one = theta(z, nome)
                assert isinstance(one, complex)
                assert abs(one - theta(np.array([z]), nome)[0]) <= 1e-15 * abs(one)
            lg = log_abs_theta1(z, nome)
            assert abs(lg - log_abs_theta1(np.array([z]), nome)[0]) <= 1e-15 * max(1.0, abs(lg))

    @pytest.mark.parametrize(
        "tau", [0.0164j, 0.2j, 1j, 5j, 61.2j, 300j, 0.3 + 1j, -0.45 + 0.4j],
        ids=["cap", "0.2", "1", "5", "61.2", "300", "skewed-1", "skewed-0.4"],
    )
    def test_one_path_for_scalar_and_one_point_array(self, tau):
        """A scalar call and a 1-point array call run the same point kernel, bit
        for bit, and agree with the same point inside an array of more than
        _POINT_MAX points, which runs the array path: at 400 points per nome,
        inside the strip and shifted out of it by m*pi + n*pi*tau, |m| <= 3,
        |n| <= 1, for theta1/3/4, log|theta1| with and without the coincidence
        test and the lattice distance. Python's complex product, quotient and
        modulus round apart from numpy's (which fuses multiply-adds) by an
        ulp, so the bound is 8 eps times the conditioning of each value
        (``_conditioning``). Unscaled, as relative
        differences (log|theta1| over max(1, |log|theta1||)), they agree to
        8 eps where the value is well conditioned (kappa <= 2; for the log also
        kappa + size <= 3) and to 32 eps everywhere, the measured worst: 23 eps
        for theta3 next to its zero on the skewed torus (kappa 79) and 32 eps
        for log|theta1| at the nome cap, where two parts of size ~33 cancel.
        Each refuses what the other refuses."""
        nome = Nome.from_tau(tau)
        gen = np.random.default_rng(26)
        k = 200
        inside = (math.pi * gen.uniform(-0.5, 0.5, k)
                  + 1j * math.pi * tau.imag * gen.uniform(-0.5, 0.5, k))
        shifted = inside + gen.integers(-3, 4, k) * math.pi + gen.integers(-1, 2, k) * math.pi * tau
        calls = [(1, theta1), (3, theta3), (4, theta4), (1, log_abs_theta1),
                 (1, _log_abs_theta1_apart), (1, lattice_distance)]
        worst = plain = ceiling = 0.0   # scaled; unscaled where well conditioned; unscaled

        def record(scaled, unscaled, well):
            nonlocal worst, plain, ceiling
            worst, ceiling = max(worst, scaled), max(ceiling, unscaled)
            plain = max(plain, unscaled) if well else plain

        for z in np.concatenate([inside, shifted]):
            many = np.full(_POINT_MAX + 1, z)
            for kind, call in calls:
                try:
                    one = call(complex(z), nome)
                except PrecisionUnreachable:
                    for other in (np.array([z]), many):
                        with pytest.raises(PrecisionUnreachable):
                            call(other, nome)
                    continue
                point, array = call(np.array([z]), nome), call(many, nome)
                kappa, size = _conditioning(kind, z, nome)
                if call in (log_abs_theta1, _log_abs_theta1_apart):   # log scale: absolute
                    assert isinstance(one, float) and point[0] == one
                    diff = abs(one - array[0])
                    record(diff / (size + kappa), diff / max(1.0, abs(one)), kappa + size <= 3.0)
                elif call is lattice_distance:
                    assert np.ndim(one) == 0 and point[0] == array[0] == one
                else:
                    assert np.ndim(one) == 0 and point[0] == one
                    rel = abs(one - array[0]) / abs(one)
                    record(rel / kappa, rel, kappa <= 2.0)
        eps = np.finfo(float).eps
        assert worst <= 8 * eps and plain <= 8 * eps and ceiling <= 32 * eps, (
            worst / eps, plain / eps, ceiling / eps)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "tau, z",
        [(1j, complex(math.nan, 0.2)), (1j, complex(0.3, math.nan)), (1j, complex(math.inf, 0.0)),
         (1j, complex(-math.inf, 0.1)), (1j, complex(0.2, math.inf)),
         (500j, 0.3 + 1j * (250 * math.pi - 1)), (500j, 0.3 + 0.1j), (950j, 0.3 + 0.1j),
         (1j, 0.3 + 400j), (0.3 + 1j, -0.2 - 300j)],
        ids=["nan-real", "nan-imag", "inf", "minus-inf", "inf-imag", "wide-strip-far",
             "wide-strip-inside", "theta1-underflow", "overflowing-shift", "skewed-overflowing-shift"],
    )
    def test_point_kernel_declines_to_the_array_path(self, tau, z):
        """At a nan or inf argument, on the wide strip (Im tau > 451.9), where
        theta1's leading coefficient underflows and where the multiplier of a
        shift overflows, the point kernel declines and the call runs the array
        path: a scalar and a 2-point array give the refusal of the point in an
        array of more than _POINT_MAX points, with its message, or its value,
        nan for nan, to 8 eps, with no numpy warning."""
        nome = Nome.from_tau(tau)
        for call in (theta1, theta3, theta4, log_abs_theta1, _log_abs_theta1_apart):
            small = [lambda: call(z, nome), lambda: call(np.array([z, 0.1 + 0.05j]), nome)]
            try:
                ref = call(np.full(_POINT_MAX + 1, z), nome)
            except PrecisionUnreachable as refusal:
                for run in small:
                    with pytest.raises(PrecisionUnreachable) as info:
                        run()
                    assert str(info.value) == str(refusal), call.__name__
                continue
            for run in small:
                g, r = np.ravel(run())[0], np.ravel(ref)[0]
                assert (np.isnan(g) and np.isnan(r)) or abs(g - r) <= 8 * np.finfo(float).eps * max(
                    1.0, abs(r)), (call.__name__, g, r)

    def test_calls_are_picked_by_size(self, monkeypatch):
        """A finite call of at most _POINT_MAX points never reaches the
        array path's reduction ``_reduce``; one of more does. No call of
        ``_theta`` reaches the real-coordinate kernel (``_reduce_real``,
        ``_log_abs_real``) at any size, and ``_log_abs_theta1_parts`` on a
        real nome reaches ``_log_abs_real`` only above _POINT_MAX."""
        nome = Nome.from_aspect(0.7, 1.0)
        points = np.linspace(0.1, 1.3, _POINT_MAX + 1) + 0.4j

        def reached(path):
            def fail(*args):
                raise AssertionError(path)
            return fail

        monkeypatch.setattr(theta_module, "_reduce", reached("array path"))
        monkeypatch.setattr(theta_module, "_reduce_real", reached("real route"))
        monkeypatch.setattr(theta_module, "_log_abs_real", reached("real route"))
        for call in (theta1, theta3, theta4, log_abs_theta1, _log_abs_theta1_apart):
            call(complex(points[0]), nome)
            call(points[:_POINT_MAX], nome)
            with pytest.raises(AssertionError, match="array path"):
                call(points, nome)
        parts = np.array([points.real, points.imag])
        _log_abs_theta1_parts(parts[:, :_POINT_MAX], nome)
        with pytest.raises(AssertionError, match="real route"):
            _log_abs_theta1_parts(parts, nome)

    def test_batch_matches_per_point(self):
        """1e5 plasma-like points (n in {-1, 0, 1}) evaluated at once equal the
        same points evaluated one at a time (every 10th, to bound the run time)."""
        nome = Nome.from_aspect(1.0, 1.0)
        gen = np.random.default_rng(3)
        z = math.pi * gen.uniform(0, 1, 100_000) + 1j * math.pi * gen.uniform(-1, 1, 100_000)
        batch = theta1(z, nome)[::10]
        single = np.array([theta1(complex(v), nome) for v in z[::10]])
        assert _rel(batch, single) <= 1e-15

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.95])
    def test_relative_accuracy_next_to_zero(self, q):
        """theta1 keeps relative accuracy as z -> 0, where sums of e^(+-i(2j-1)z)
        cancel: the sine is factored out of the series, also of the dual series
        that serves q up to the cap."""
        nome = Nome.from_q(q)
        zs = np.array([1e-3, 1e-6 + 1e-6j, -2e-9j, 3e-12 - 1e-12j])
        ref = np.array([complex(mp.jtheta(1, mp.mpc(z.real, z.imag), q)) for z in zs])
        assert _rel(theta1(zs, nome), ref) <= 1e-14
        for z, r in zip(zs, ref):
            assert abs(theta1(complex(z), nome) - r) <= 1e-14 * abs(r)


class TestSplit:
    """_split keeps the series at the reduced point apart from the real
    log-scale of the quasi-periodicity multiplier."""

    @staticmethod
    def _parts(pts, nome):
        terms = _coefficients(nome)
        reduced = _reduce(np.asarray(pts, dtype=complex), nome.tau)
        sine, series, scale, _ = _split(1, reduced, nome, terms)
        return (sine * series, scale, reduced), terms["modular"]

    @pytest.mark.parametrize("wl", NEAR_CAP + ASPECTS)
    def test_theta1_is_the_complex_multiplier_composition(self, wl):
        """theta1 equals sign * e^(log multiplier) * series with the log
        multiplier in complex arithmetic: _shift_exponent directly, and
        scale - 2i ab/(pi t), a + ib = u + n*pi*tau, on the dual side."""
        nome = Nome.from_aspect(wl, 1.0)
        for pts in _strip_points(wl):
            (series, scale, (u, m, n)), t = self._parts(pts, nome)
            if t is None:
                log_mult = _shift_exponent(u, n, nome.tau)
            else:
                log_mult = scale - 2j * (u.real * (u.imag + math.pi * t * n) / (math.pi * t))
            ref = (-1.0) ** (m + n) * np.exp(log_mult) * series
            assert _rel(theta1(pts, nome), ref) <= 1e-15, wl

    @pytest.mark.parametrize("wl", NEAR_CAP + ASPECTS)
    def test_modulus_is_series_times_real_exponential(self, wl):
        """|series|^2 e^(2 scale) = |theta1|^2, as a ratio: at W/L = 61 the
        shifted |theta1|^2 itself is beyond double range."""
        nome = Nome.from_aspect(wl, 1.0)
        for pts in _strip_points(wl):
            (series, scale, _), _ = self._parts(pts, nome)
            ratio = (np.abs(series) * np.exp(scale) / np.abs(theta1(pts, nome))) ** 2
            assert np.max(np.abs(ratio - 1.0)) <= 1e-14, wl

    def test_series_stays_in_range_where_theta_overflows(self):
        """Far from the strip theta1 leaves double range; the series and its
        scale stay finite, and log|theta1| is their sum."""
        nome = Nome.from_aspect(40.0, 1.0)
        z = np.array([0.3 + 380j])
        (series, scale, _), _ = self._parts(z, nome)
        assert np.isfinite(series).all() and np.isfinite(scale).all() and scale[0] > 709
        lg = log_abs_theta1(z, nome)[0]
        assert abs(lg - (scale[0] + math.log(abs(series[0])))) <= 1e-15 * abs(lg)


class TestOverflow:
    """theta of a finite argument whose quasi-periodicity multiplier overflows."""

    @staticmethod
    def _center_of_mass(W: float):
        geom = TorusGeometry(1.0, W, 6)
        zs = 0.3 + 0.01j + 0.05 * np.arange(6)
        return math.pi * np.sum(np.conj(zs) - (geom.L - 1j * geom.W) / 2.0) / geom.L, geom.nome_WL

    @pytest.mark.parametrize("theta", [theta1, theta3, theta4, theta1_product, theta4_product])
    def test_refused_by_name(self, theta):
        z, nome = self._center_of_mass(40.0)
        with pytest.raises(PrecisionUnreachable):
            theta(z, nome)
        with pytest.raises(PrecisionUnreachable):
            theta(np.array([0.3, z]), nome)

    def test_log_modulus_is_exempt(self):
        z, nome = self._center_of_mass(40.0)
        assert math.isfinite(log_abs_theta1(z, nome))

    def test_representable_value_passes(self):
        z, nome = self._center_of_mass(20.0)
        assert math.isfinite(abs(theta1(z, nome)))

    def test_non_finite_argument_is_not_an_overflow(self):
        out = theta1(np.array([0.3, complex(math.nan, 0.0)]), 0.3)
        assert math.isfinite(abs(out[0])) and np.isnan(out[1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "theta", [theta1, theta3, theta4, log_abs_theta1, theta1_product, theta4_product]
    )
    @pytest.mark.parametrize(
        "nome", [0.3, 0.01, Nome.from_tau(0.3 + 1j)], ids=["dual", "direct", "skewed"]
    )
    def test_non_finite_argument_gives_nan_quietly(self, theta, nome):
        """A nan or inf argument, scalar or in an array, gives nan and no
        numpy warning; the finite entry of the array is unaffected."""
        for bad in (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.inf),
                    complex(math.inf, -math.inf)):
            assert np.isnan(theta(bad, nome))
            out = theta(np.array([0.3, bad]), nome)
            assert np.isfinite(out[0]) and np.isnan(out[1])


class TestTinyNome:
    """pi Im(tau) > 709.8 (|q| below about 1e-308): x = e^(2iu) overflows inside
    the reduction strip, where every theta1 term past the first underflows.
    Past pi Im(tau) = 745 q itself underflows to 0 at a finite tau (240i here),
    and these nomes are summed from tau like any other."""

    TAU = 229.7j
    POINTS = [0.2 + 1j * (math.pi * 229.7 / 2 + 3), 0.2 - 1j * (math.pi * 229.7 / 2 - 1),
              1.1 + 300j, 0.4 + 0.1j, -1.3 + 2000j]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_log_modulus_matches_mpmath(self):
        nome = Nome.from_tau(self.TAU)
        got = log_abs_theta1(np.array(self.POINTS), nome)
        with mp.workdps(60):
            q = mp.exp(-mp.pi * mp.mpf(self.TAU.imag))
            for z, value in zip(self.POINTS, got):
                expected = float(mp.log(abs(mp.jtheta(1, mp.mpc(z.real, z.imag), q))))
                assert abs(value - expected) <= 1e-14 * abs(expected)
                assert log_abs_theta1(z, nome) == pytest.approx(expected, rel=1e-14)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tau", [TAU, 0.3 + TAU, 240j])
    def test_theta3_theta4_match_the_log_form_series(self, tau):
        """|q| is subnormal (0 at 240i) and only the q(x + 1/x) term is left, with x
        overflowing towards the edges of the strip: theta3 and theta4 match
        1 +- (e^(i pi tau + 2iu) + e^(i pi tau - 2iu)) to 1e-14, scalar and
        array (mpmath's jtheta returns 1 at this nome)."""
        nome = Nome.from_tau(tau)
        edge = math.pi * tau.imag / 2
        points = [0.2 + 1j * (edge - 1), 0.2 - 1j * (edge - 1), 2.5 + 1j * (edge - 0.01),
                  -0.7 - 1j * (edge - 3), 0.4 + 0.1j]
        for theta, sign in ((theta3, 1), (theta4, -1)):
            got = theta(np.array(points), nome)
            for u, value in zip(points, got):
                ref = 1 + sign * (cmath.exp(1j * math.pi * tau + 2j * u)
                                  + cmath.exp(1j * math.pi * tau - 2j * u))
                assert abs(value - ref) <= 1e-14 * abs(ref), (theta.__name__, u)
                assert abs(theta(u, nome) - ref) <= 1e-14 * abs(ref), (theta.__name__, u)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_product_forms_where_q_underflows(self):
        """At tau = 240i q^(2k) underflows to 0 while e^(+-2iu) overflows towards
        the edges of the strip; the product forms take each q^m e^(+-2iu) as one
        exponential and match theta1 and theta4, scalar and array."""
        nome = Nome.from_tau(240j)
        edge = math.pi * 120
        points = [0.2 + 1j * (edge - 1), 0.2 - 1j * (edge - 1), 2.5 + 1j * (edge - 0.01),
                  -0.7 - 1j * (edge - 3), 0.4 + 0.1j]
        for product, theta in ((theta1_product, theta1), (theta4_product, theta4)):
            ref = theta(np.array(points), nome)
            assert _rel(product(np.array(points), nome), ref) <= 1e-14, product.__name__
            for z, r in zip(points, ref):
                assert abs(product(z, nome) - r) <= 1e-14 * abs(r), (product.__name__, z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_theta1_refused_where_its_leading_coefficient_underflows(self):
        """Past Im(tau) = 902.8 theta1's leading coefficient 2 q^(1/4) is below
        the smallest normal double: theta1, log|theta1| and theta1'(0) refuse
        by name, scalar and array; theta3 and theta4 hold.
        Just below, log|theta1| is still log 2 - pi Im(tau)/4 + log|sin z|, the
        true value to 1e-14."""
        nome = Nome.from_tau(1000j)
        for call in (theta1, log_abs_theta1, lambda z, n: theta1_prime0(n)):
            for z in (0.3, np.array([0.3, 0.4 + 0.1j])):
                with pytest.raises(PrecisionUnreachable):
                    call(z, nome)
        assert theta3(0.3, nome) == theta4(0.3, nome) == 1
        expected = math.log(2) - math.pi * 900 / 4 + math.log(math.sin(0.3))
        assert log_abs_theta1(0.3, Nome.from_tau(900j)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refused_where_the_strip_leaves_double_range(self):
        """Past Im(tau) = 451.9 the strip |Im u| <= pi Im(tau)/2 reaches past
        log DBL_MAX, where e^(iu) overflows: theta1, theta3, theta4 and
        log|theta1| refuse such a point by name, scalar or in an array.
        Inside log DBL_MAX log|theta1| matches mpmath, and a nan argument still
        gives nan."""
        nome = Nome.from_tau(500j)
        far = 0.3 + 1j * (250 * math.pi - 1)
        for call in (theta1, theta3, theta4, log_abs_theta1):
            for z in (far, -far, np.array([0.3, far])):
                with pytest.raises(PrecisionUnreachable):
                    call(z, nome)
        with mp.workdps(60):
            q = mp.exp(-500 * mp.pi)
            expected = float(mp.log(abs(mp.jtheta(1, mp.mpc(0.3, 700), q))))
        assert log_abs_theta1(0.3 + 700j, nome) == pytest.approx(expected, rel=1e-14)
        assert np.isnan(theta3(complex(math.nan, 0.0), nome))
        assert np.isnan(log_abs_theta1(np.array([0.3, math.nan]), nome)[1])

    def test_theta1_prime0_where_q_underflows(self):
        """2 q^(1/4) = 2 e^(-60 pi) at tau = 240i, where q is 0."""
        nome = Nome.from_tau(240j)
        assert nome.q == 0
        expected = 2.0 * math.exp(-60 * math.pi)
        assert abs(theta1_prime0(nome) - expected) <= 1e-14 * expected


class TestNearCapConstants:
    def test_relative_error_near_the_cap(self):
        """theta4(0) and theta1'(0), which the direct series cancel towards
        q -> 1, match mpmath to 1e-13 relative from the cap to W/L = 0.2."""
        with mp.workdps(60):
            for wl in np.geomspace(0.01633, 0.2, 25):
                nome = Nome.from_aspect(wl, 1.0)
                q = mp.exp(-mp.pi * mp.mpf(wl))
                t4 = float(mp.jtheta(4, 0, q))
                t1 = float(mp.jtheta(1, 0, q, 1))
                assert abs(theta4(0.0, nome).real - t4) <= 1e-13 * t4
                assert abs(theta1_prime0(nome).real - t1) <= 1e-13 * t1


class TestGeometryNome:
    def test_memoised_plain_properties(self):
        """nome_WL / nome_LW stay plain properties (benchmark tracers wrap
        their fget) and return the same cached Nome on every access."""
        for name in ("nome_WL", "nome_LW"):
            assert type(TorusGeometry.__dict__[name]) is property
        g = TorusGeometry(1.3, 0.7, 2)
        assert g.nome_WL is g.nome_WL
        assert g.nome_WL is TorusGeometry(1.3, 0.7, 5).nome_WL
        assert g.nome_WL == Nome.from_aspect(0.7, 1.3)
        assert g.nome_LW == Nome.from_aspect(1.3, 0.7)


# L = W = pi: the theta1 argument pi (z - z')/L is z - z' itself, at tau = i.
_PI_TORUS = TorusGeometry(math.pi, math.pi, 2)
_Z0 = 0.4 + 0.3j


def _pair_config(d):
    """Two points d apart on ``_PI_TORUS``, as given (not reduced into the cell)."""
    return ParticleConfig(np.array([_Z0, _Z0 + d]), _PI_TORUS)


class TestOnLattice:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda d: _PI_TORUS.check_distinct([_Z0, _Z0 + d]) or 0.0, CoincidentPoints,
             "two coordinates coincide modulo the lattice"),
            (lambda d: phi_quasi(_Z0 + d, _Z0, _PI_TORUS), CoincidentPoints,
             "z - z' lies on the period lattice"),
            (lambda d: kernel_K(_Z0 + d, _Z0, _PI_TORUS), CoincidentPoints,
             "w - z lies on the period lattice"),
            (lambda d: frobenius_residual([_Z0 + d], [_Z0], 0.1 + 0.05j, _PI_TORUS.nome_WL).lhs,
             CoincidentPoints, "some w_j - z_k lies on the lattice"),
            (lambda d: ocp_log_boltzmann(_pair_config(d), 2.0, _PI_TORUS), CoincidentPoints,
             "two coordinates coincide modulo the lattice"),
            (lambda d: sum(coulomb_energy_terms(_pair_config(d), _PI_TORUS)), CoincidentPoints,
             "z - z' lies on the period lattice"),
        ],
        ids=["check_distinct", "phi_quasi", "kernel_K", "frobenius_residual",
             "ocp_log_boltzmann", "coulomb_energy_terms"],
    )
    def test_one_threshold(self, call, error, message):
        """Every coincidence test refuses a theta1 argument 0.5e-9 from the
        lattice point pi + pi tau, with its own error and message, and answers
        at 2e-9: the kernels and pair potentials read it off the reduction
        theta is summed at, ``check_distinct`` off ``_on_lattice``."""
        lattice_point, direction = math.pi + 1j * math.pi, cmath.exp(0.7j)
        with pytest.raises(error, match=message):
            call(lattice_point + 0.5e-9 * direction)
        assert np.isfinite(call(lattice_point + 2e-9 * direction))


# |q| = 0.97, past the cap |q| <= 0.95 of theta's series.
_BEYOND_CAP = TorusGeometry(1.0, -math.log(0.97) / math.pi, 2)


def _one_point_rows(w, z, g):
    """frobenius_residual of one-point rows (N = 1) at the theta1 arguments
    pi w/L and pi z/L, the arguments kernel_K and phi_quasi take."""
    ws = math.pi * np.reshape(w, (-1, 1)) / g.L
    return frobenius_residual(ws, np.full(ws.shape, math.pi * z / g.L), 0.1 + 0.05j, g.nome_WL)


class TestCoincidenceFromTheReduction:
    """The coincidence test reads the reduction theta sums at, on the point
    path and the array path alike, and comes before any refusal of theta."""

    COINCIDENT = [
        ("kernel_K", lambda w, z, g: kernel_K(w, z, g), "w - z lies on the period lattice"),
        ("frobenius_residual", lambda w, z, g: _one_point_rows(w, z, g),
         "some w_j - z_k lies on the lattice"),
        ("phi_quasi", lambda w, z, g: phi_quasi(w, z, g), "z - z' lies on the period lattice"),
    ]

    @pytest.mark.parametrize("call, message", [row[1:] for row in COINCIDENT],
                             ids=[row[0] for row in COINCIDENT])
    def test_before_the_nome_cap(self, call, message):
        """At |q| = 0.97 every series call refuses the nome, but a coincident
        argument is refused first, as a coincidence."""
        z = 0.3 + 0.1j
        with pytest.raises(NomeOutOfRange):
            call(z + 0.25, z, _BEYOND_CAP)
        with pytest.raises(CoincidentPoints, match=message):
            call(z, z, _BEYOND_CAP)
        with pytest.raises(CoincidentPoints, match=message):
            call(z + 1.0 + 1j * _BEYOND_CAP.W, z, _BEYOND_CAP)

    @pytest.mark.parametrize("size", [1, _POINT_MAX + 1], ids=["point-path", "array-path"])
    @pytest.mark.parametrize("call, message", [row[1:] for row in COINCIDENT],
                             ids=[row[0] for row in COINCIDENT])
    def test_shifted_by_a_period_of_tau(self, call, message, size):
        """A coincidence shifted by pi*tau (z - z' = i W, and 2 L + i W) is
        refused as one at pi, by a call of one point and by one of more than
        _POINT_MAX points (for frobenius_residual, of 9 one-point rows)."""
        g = TorusGeometry(1.0, 0.7, 2)
        rng = np.random.default_rng(34)
        z = 0.2 + 0.1j
        for shift in (g.L, 1j * g.W, 2 * g.L + 1j * g.W):
            w = z + rng.uniform(0.1, 0.9, size) + 1j * g.W * rng.uniform(0.1, 0.4, size)
            call(w, z, g)   # well separated
            w[size // 2] = z + shift
            with pytest.raises(CoincidentPoints, match=message):
                call(w if size > 1 else complex(w[0]), z, g)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("size", [0, 1, _POINT_MAX + 1], ids=["0-d", "one-point", "array"])
    def test_nan_gives_nan(self, size):
        """A nan argument is no coincidence: theta1, log|theta1| and the
        coincidence-testing log|theta1| give nan there, with no refusal and no
        numpy warning, and the other points their values."""
        nome = Nome.from_aspect(0.7, 1.0)
        z = np.full(max(size, 1), 0.3 + 0.2j)
        z[0] = complex(math.nan, 0.1)
        z = complex(z[0]) if size == 0 else z
        for call in (theta1, log_abs_theta1, _log_abs_theta1_apart):
            got = np.atleast_1d(call(z, nome))
            assert np.isnan(got[0]), call.__name__
            assert np.isfinite(got[1:]).all(), call.__name__


class TestReduceScalar:
    """A 0-d argument is reduced by the array code in numpy scalars; it must
    give the bits of the same point in an array, signed zeros and ties to even
    included."""

    @staticmethod
    def _bits(u, m, n):
        return (float(u.real).hex(), float(u.imag).hex(), float(m).hex(), float(n).hex())

    @pytest.mark.parametrize("wl", [1.0, 0.3])   # direct nome, modular nome
    def test_scalar_matches_array_bit_for_bit(self, wl):
        tau = Nome.from_aspect(wl, 1.0).tau
        gen = np.random.default_rng(17)
        k = 500
        inside = math.pi * gen.uniform(-0.5, 0.5, k) + 1j * math.pi * wl * gen.uniform(-0.5, 0.5, k)
        zs = inside + gen.integers(-2, 3, k) * math.pi + gen.integers(-2, 3, k) * math.pi * tau
        ties = [s * h * math.pi for s in (1, -1) for h in (0.5, 1.5, 2.5)]
        ties += [s * h * math.pi * tau for s in (1, -1) for h in (0.5, 1.5)]
        zs = np.concatenate([zs, ties, [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]])
        u, m, n = _reduce(zs, tau)
        for i, z in enumerate(zs):
            got = _reduce(np.asarray(z), tau)
            assert all(type(v) in (np.complex128, np.float64) for v in got)
            assert self._bits(*got) == self._bits(u[i], m[i], n[i]), z

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_scalar_takes_the_array_path(self):
        tau = Nome.from_aspect(1.0, 1.0).tau
        for z in (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, 1.7e308)):
            got = _reduce(np.asarray(z), tau)
            ref = _reduce(np.array([z]), tau)
            assert all(type(v) in (np.complex128, np.float64) for v in got)
            assert self._bits(*got) == self._bits(*(r[0] for r in ref))


class TestReduceReal:
    """log|theta1| on a real nome reduces its real and imaginary parts in real
    arithmetic; the reduction must be the complex one's, bit for bit."""

    @staticmethod
    def _bits(v) -> np.ndarray:
        return np.ascontiguousarray(v).view(np.uint64)

    @classmethod
    def _same(cls, got, ref) -> bool:
        """got has ref's bits at every number and a nan at every nan: which
        nan an operation returns (its sign and payload) is the processor's."""
        nan = np.isnan(ref)
        return (np.array_equal(np.isnan(got), nan)
                and np.array_equal(cls._bits(got[~nan]), cls._bits(ref[~nan])))

    @pytest.mark.parametrize("wl", NEAR_CAP + ASPECTS)
    def test_matches_the_complex_reduction_bit_for_bit(self, wl):
        """``_reduce_real`` gives ``_reduce``'s u.real and u.imag bit for bit
        at tau = i W/L, on both frames (below W/L = 1 the series is summed at
        the dual nome from the same reduction): inside the strip, shifted out
        of it by up to 1e4 periods along pi and pi*tau, half-periods (ties of
        the rounding), and every pairing of +-0, nan, +-inf and two finite
        parts, a nan where the complex route gives one. The shift n is the
        complex route's where that is finite; the parts it is given are not
        written to."""
        tau = 1j * wl
        gen = np.random.default_rng(int(wl * 1e4) + 45)
        inside, _ = _strip_points(wl)
        k = len(inside)
        far = inside + (gen.integers(-10**4, 10**4 + 1, k) * math.pi
                        + gen.integers(-10**4, 10**4 + 1, k) * (math.pi * tau))
        ties = [s * h * math.pi for s in (1, -1) for h in (0.5, 1.5)]
        ties += [s * h * math.pi * tau for s in (1, -1) for h in (0.5, 1.5)]
        special = (0.0, -0.0, math.nan, math.inf, -math.inf, 0.3, -2.0)
        edges = [complex(r, i) for r in special for i in special]
        zs = np.concatenate([inside, far, ties, edges])
        parts = np.stack([zs.real, zs.imag])
        with np.errstate(invalid="ignore"):
            u, _, n = _reduce(zs, tau)
            (a, b), got_n = _reduce_real(parts, wl)
        assert self._same(a, u.real) and self._same(b, u.imag), wl
        assert np.array_equal(got_n[np.isfinite(n)], n[np.isfinite(n)])
        assert np.array_equal(self._bits(parts[0]), self._bits(zs.real))
        assert np.array_equal(self._bits(parts[1]), self._bits(zs.imag))
