"""Theta-function core: dual representations, quasi-periodicity, eta and f_N."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from torusgas.errors import NomeOutOfRange, ParameterOutOfRange, PrecisionUnreachable
from torusgas.geometry import TorusGeometry
from torusgas.landau import MagneticSetup
from torusgas.theta import (
    DEFAULT_PRECISION,
    Nome,
    SeriesPrecision,
    _reduce,
    _shift_exponent,
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
        with pytest.raises(NomeOutOfRange):
            Nome.from_q(1.05)
        with pytest.raises(NomeOutOfRange):
            Nome.from_q(0.97)


class TestSeriesPrecision:
    def test_truncation_bound_holds(self):
        prec = SeriesPrecision()
        for q in (0.1, 0.5, 0.9):
            assert q ** (prec.n_star(q) ** 2) < prec.epsilon

    def test_precision_unreachable(self):
        with pytest.raises(PrecisionUnreachable):
            SeriesPrecision(epsilon=1e-14, max_terms=4).n_star(0.9)

    def test_doubling_max_terms_is_inert(self):
        z = 0.7 + 0.2j
        lo = theta1(z, 0.5, SeriesPrecision(1e-14, 64))
        hi = theta1(z, 0.5, SeriesPrecision(1e-14, 128))
        assert lo == hi

    def test_tightening_epsilon_moves_less_than_epsilon(self):
        z = 0.7 + 0.2j
        a = theta1(z, 0.5, SeriesPrecision(1e-10, 64))
        b = theta1(z, 0.5, SeriesPrecision(1e-15, 64))
        assert abs(a - b) < 1e-10


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

    def test_zero_nome(self):
        assert theta1(0.7, 0.0) == 0


class TestTheta34:
    def test_theta3_at_zero_nome(self):
        for u in POINTS:
            assert theta3(u, 0.0) == 1

    def test_theta4_at_zero_nome(self):
        assert theta4(0.0, 0.0) == 1

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

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_skewed_torus_against_mpmath(self, N):
        """Complex nome of a skewed torus (W1 != 0): N^(N/2) q^(-e/24)
        (q^2; q^2)_inf^(-e/2), e = (N-1)(N-2), with q^(-e/24) on the tau branch."""
        nome = MagneticSetup.from_flux(L=1.0, N=N, l=0.25, W1=0.3).nome
        assert not nome.is_real_positive()
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


class TestNamedErrors:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: SeriesPrecision(epsilon=0.0),
            lambda: SeriesPrecision(max_terms=0),
            lambda: f_N(0, 0.3),
        ],
        ids=["SeriesPrecision-epsilon", "SeriesPrecision-max_terms", "f_N-N"],
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


def _trig_sum(kind: int, z, nome: Nome):
    """The earlier engine, kept as a reference: sin/cos of every term at every
    point, contracted with the coefficients by tensordot."""
    u, m, n = _reduce(np.asarray(z, dtype=complex), nome.tau)
    freqs, coeffs = _terms(nome.tau, DEFAULT_PRECISION)[kind]
    trig = np.sin if kind == 1 else np.cos
    series = np.tensordot(coeffs, trig(np.multiply.outer(freqs, u)), axes=(0, 0))
    if kind != 1:
        series = 1.0 + series
    sign = 1.0 if kind == 3 else (-1.0) ** (m + n if kind == 1 else n)
    return sign * np.exp(_shift_exponent(u, n, nome.tau)) * series


def _rel(got, ref) -> float:
    return float(np.max(np.abs(np.asarray(got) - ref) / np.abs(ref)))


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
                ref = np.array([float(mp.log(abs(mp.jtheta(1, z, q)))) for z in zs])
                got = log_abs_theta1(pts, nome)
                assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-13

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow too
class TestOverflow:
    """theta of a finite argument whose quasi-periodicity multiplier overflows."""

    @staticmethod
    def _center_of_mass(W: float):
        geom = TorusGeometry(1.0, W, 6)
        zs = 0.3 + 0.01j + 0.05 * np.arange(6)
        return math.pi * np.sum(np.conj(zs) - (geom.L - 1j * geom.W) / 2.0) / geom.L, geom.nome_WL

    @pytest.mark.parametrize("theta", [theta1, theta3, theta4])
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
