"""Coulomb-gas kernel, mode spectra, grand partition function, pressure fit."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from torusgas import coulombgas, selftest
from torusgas.coulombgas import (
    dlog_xi2_dzeta_sq,
    eigen_roots,
    fit_pressure,
    g_fourier,
    kernel_K,
    kernel_from_fourier,
    log_xi2_asymptotic,
    log_xi2_closed,
    mode_logdet,
    mode_logdet_extrapolated,
    mode_matrix,
    mode_oracle,
    oracle_leading_magnitudes,
    oracle_log_xi2,
    pressure_sum,
    xi2_closed,
)
from torusgas.errors import (
    CoincidentPoints,
    ParameterOutOfRange,
    PrecisionUnreachable,
    TorusGasError,
)
from torusgas.geometry import TorusGeometry
from torusgas.theta import eta_q, theta1, theta4

GEOM = TorusGeometry(1.0, 1.0, 1)


def _distinct(mags: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` distinct values of a descending array, to 1e-6
    relative: the reference for the oracle's leading magnitudes."""
    keep = np.concatenate([[True], np.diff(mags) < -1e-6 * mags[:-1]])
    return mags[keep][:count]


class TestKernel:
    def test_antiperiodic_in_x(self):
        w, z = 0.37 + 0.41j, 0.11 + 0.13j
        assert abs(kernel_K(w + GEOM.L, z, GEOM) + kernel_K(w, z, GEOM)) < 1e-12

    def test_simple_pole_residue_one(self):
        z = 0.2 + 0.6j
        for eps in (1e-4, 1e-6):
            val = eps * kernel_K(z + eps, z, GEOM)
            assert abs(val - 1.0) < 1e2 * eps

    def test_singular_separation(self):
        with pytest.raises(CoincidentPoints):
            kernel_K(0.5 + 0.5j, 0.5 + 0.5j, GEOM)

    @pytest.mark.parametrize("xy", [(0.21, 0.33), (0.7, -0.12), (0.05, 0.49)])
    def test_fourier_synthesis(self, xy):
        x, y = xy
        a = kernel_K(complex(x, y), 0.0, GEOM)
        b = kernel_from_fourier(complex(x, y), 0.0, GEOM)
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))


class TestFourierCoefficients:
    @staticmethod
    def _numeric(n, y, geom, nx=4096):
        xs = (np.arange(nx) + 0.5) * geom.L / nx
        u = math.pi * (xs + 1j * y) / geom.L
        ratio = theta4(u, geom.nome_WL) / theta1(u, geom.nome_WL)
        return complex(np.sum(ratio * np.exp(-1j * math.pi * (2 * n + 1) * xs / geom.L)) / nx)

    @pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("y", [0.31, -0.27])
    def test_against_quadrature(self, n, y):
        assert abs(g_fourier(n, y, GEOM) - self._numeric(n, y, GEOM)) < 1e-8

    def test_jump_ratio(self):
        q = GEOM.nome_WL.q.real
        for n in (0, 1, -1):
            r = g_fourier(n, 1e-12, GEOM) / g_fourier(n, -1e-12, GEOM)
            assert abs(r - q ** -(2 * n + 1)) < 1e-8 * q ** -(2 * n + 1)

    def test_jump_point_raises(self):
        with pytest.raises(ParameterOutOfRange):
            g_fourier(0, 0.0, GEOM)

    def test_array_input_matches_scalar_calls(self):
        """An array of y gives the per-point scalar values, y = 0 the jump midpoint."""
        ys = np.array([-0.7, -1e-12, 0.3, 0.95])
        for n in (0, 2, -3):
            got = g_fourier(n, ys, GEOM)
            assert got.shape == ys.shape
            assert np.array_equal(got, [g_fourier(n, y, GEOM) for y in ys])

    def test_exponential_decay_in_mode(self):
        y = 0.3
        mags = [abs(g_fourier(n, y, GEOM)) for n in range(0, 12)]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        # decay rate ~ exp(-pi*(2n+1)*min(y, W-y)/L) per unit step in (2n+1)
        rate = mags[6] / mags[5]
        assert rate < math.exp(-2 * math.pi * min(y, GEOM.W - y) / GEOM.L) * 1.5


class TestEigenRoots:
    def test_k0_root(self):
        spec = eigen_roots(0, GEOM, 0)
        mu = math.pi / GEOM.L
        assert abs(spec.roots[0] - 1j * mu) < 1e-14
        assert abs(spec.lambdas[0] + 2j * math.pi / mu) < 1e-14

    def test_residuals_vanish(self):
        for n in (0, 1, 2):
            assert eigen_roots(n, GEOM, 4).residuals.max() < 1e-12

    def test_plus_minus_pairs(self):
        spec = eigen_roots(1, GEOM, 3)
        assert np.allclose(np.sort(spec.roots.imag), -np.sort(spec.roots.imag)[::-1])

    def test_abs_lambda_one_per_k_descending(self):
        """The distinct |lambda|, unrounded: 2 pi / sqrt(mu^2 + (2 pi k/W)^2),
        k = 0..k_max, strictly descending."""
        geom = TorusGeometry(1.0, 2.5, 1)
        spec = eigen_roots(1, geom, 4)
        ks = np.arange(5)
        expected = 2 * math.pi / np.sqrt(spec.mu**2 + (2 * math.pi * ks / geom.W) ** 2)
        np.testing.assert_allclose(spec.abs_lambda, expected, rtol=1e-15)
        assert np.all(np.diff(spec.abs_lambda) < 0)
        assert np.array_equal(np.unique(np.abs(spec.lambdas)), np.sort(spec.abs_lambda))

    def test_residuals_use_geometry_height(self):
        geom = TorusGeometry(1.0, 2.5, 1)
        spec = eigen_roots(1, geom, 4)
        assert spec.W == geom.W
        assert spec.residuals.max() < 1e-12
        # negative control: the same roots checked at the wrong height W = 1
        assert dataclasses.replace(spec, W=1.0).residuals.max() > 1e-2


class TestModeOracle:
    def test_spectrum_in_pairs(self):
        ev = mode_oracle(0, GEOM, 40)
        s = np.sort(ev.imag)
        assert np.allclose(s, -s[::-1], atol=1e-10)
        assert np.max(np.abs(ev.real)) < 1e-10

    def test_mode_reflection_symmetry(self):
        """n -> -(n+1) flips mu but keeps the |lambda| multiset."""
        a = np.sort(np.abs(mode_oracle(1, GEOM, 48)))
        b = np.sort(np.abs(mode_oracle(-2, GEOM, 48)))
        assert np.allclose(a, b, rtol=1e-9)

    def test_grid_too_coarse(self):
        with pytest.raises(ParameterOutOfRange):
            mode_oracle(0, GEOM, 8)

    @pytest.mark.parametrize("M", [16, 32])
    @pytest.mark.parametrize("n", [0, 1, -2, 5])
    def test_block_is_purely_imaginary(self, n, M):
        """A = iB with B real: the fact the singular-value route rests on."""
        assert np.all(mode_matrix(n, GEOM, M)[:M, M:].real == 0.0)

    @pytest.mark.parametrize("M", [16, 32])
    @pytest.mark.parametrize("n", [0, 1, -2, 5])
    def test_logdet_against_dense_eigvals(self, n, M):
        """mode_logdet against sum log(1 + zeta lambda) over the dense 2M x 2M
        spectrum; the conjugate-transpose form I - zeta^2 A A^H (a negative
        control) misses it by more than 1e-3."""
        dense = mode_matrix(n, GEOM, M)
        ev = np.linalg.eigvals(dense)
        A = dense[:M, M:]
        for zeta in (0.1, 0.5, 2.0):
            ref = float(np.sum(np.log(1.0 + zeta * ev)).real)
            assert abs(mode_logdet(n, GEOM, M, zeta) - ref) < 1e-12
            wrong = np.linalg.slogdet(np.eye(M) - zeta**2 * A @ A.conj().T)[1]
            assert abs(wrong - ref) > 1e-3

    @pytest.mark.parametrize("n", [0, 1, -2, 5])
    def test_magnitudes_against_dense_eigvals(self, n):
        dense = {
            M: np.sort(np.abs(np.linalg.eigvals(mode_matrix(n, GEOM, M))))[::-1]
            for M in (16, 32)
        }
        for M, ref in dense.items():
            got = np.sort(np.abs(mode_oracle(n, GEOM, M)))[::-1]
            assert np.max(np.abs(got - ref) / ref) < 1e-12
        coarse, fine = (_distinct(dense[M], 3) for M in (16, 32))
        ref = (4.0 * fine - coarse) / 3.0
        got = oracle_leading_magnitudes(n, GEOM, 3, Ms=(16, 32))
        assert np.max(np.abs(got - ref) / ref) < 1e-12

    def test_leading_magnitudes_stop_at_half_the_grid(self):
        """Entry k of the |FFT| is the k-th distinct magnitude up to k = M/2;
        past it entry k repeats entry M - k, so more magnitudes are refused."""
        M, n = 16, 1
        dense = {m: np.sort(np.abs(np.linalg.eigvals(mode_matrix(n, GEOM, m))))[::-1]
                 for m in (M, 2 * M)}
        coarse, fine = (_distinct(dense[m], M // 2 + 1) for m in (M, 2 * M))
        got = oracle_leading_magnitudes(n, GEOM, M // 2 + 1, Ms=(M, 2 * M))
        assert np.max(np.abs(got - (4.0 * fine - coarse) / 3.0) / got) < 1e-12
        with pytest.raises(ParameterOutOfRange):
            oracle_leading_magnitudes(n, GEOM, M // 2 + 2, Ms=(M, 2 * M))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_convergence_to_closed_roots(self, n):
        spec = eigen_roots(n, GEOM, 3)
        exact = np.sort(np.unique(np.round(np.abs(spec.lambdas), 14)))[::-1][:3]
        got = oracle_leading_magnitudes(n, GEOM, 3, Ms=(100, 200))
        assert np.max(np.abs(got - exact) / exact) < 1e-3

    def test_observed_order_at_least_one(self):
        """Leading eigenvalue error shrinks at least linearly in the grid."""
        exact = 2.0 * math.pi / (math.pi / GEOM.L)
        errs = []
        for M in (50, 100, 200):
            got = np.abs(mode_oracle(0, GEOM, M)[0])
            errs.append(abs(got - exact))
        assert errs[1] < 0.6 * errs[0] and errs[2] < 0.6 * errs[1]


SHAPES = [(1.0, 1.0), (1.0, 0.5), (2.0, 1.0), (4.0, 8.0)]


class TestCirculantRoute:
    """The oracle takes the spectrum of the circulant B as |FFT| of its first
    column; the dense block of ``mode_matrix`` is the reference."""

    @pytest.mark.parametrize("LW", SHAPES)
    @pytest.mark.parametrize("n", [0, 1, 3, 7, -2])
    def test_block_is_circulant(self, n, LW):
        g = TorusGeometry(*LW, 1)
        for M in (16, 64, 200):
            B = mode_matrix(n, g, M)[:M, M:].imag
            shifted = np.roll(np.roll(B, 1, 0), 1, 1)
            assert np.max(np.abs(B - shifted)) <= 1e-13 * np.max(np.abs(B))

    @pytest.mark.parametrize("LW", SHAPES)
    @pytest.mark.parametrize("n", [0, 1, 3, 7, -2])
    def test_fft_against_dense_svd(self, n, LW):
        """Magnitudes to 1e-13 of sigma_max; log-dets to 1e-13 relative (the
        dense slogdet itself carries ~1e-13 absolute at log-dets ~ 60)."""
        g = TorusGeometry(*LW, 1)
        for M in (16, 64, 200, 400):
            B = mode_matrix(n, g, M)[:M, M:].imag
            ref = np.linalg.svd(B, compute_uv=False)
            got = np.sort(np.abs(mode_oracle(n, g, M)))[::-1]
            assert np.max(np.abs(got - np.repeat(ref, 2))) <= 1e-13 * ref[0]
            for zeta in (0.1, 0.5, 2.0):
                dense = np.linalg.slogdet(np.eye(M) + zeta**2 * B @ B.T)[1]
                assert abs(mode_logdet(n, g, M, zeta) - dense) <= 1e-13 * max(1.0, dense)

    @pytest.mark.parametrize("LW", SHAPES)
    @pytest.mark.parametrize("n", [0, 3, -2])
    def test_block_is_the_scaled_kernel_coefficient(self, n, LW):
        """A_ij = (pi theta1'(0)/theta4(0)) h g_n(y_i - y_j): the block built
        without the theta constants is the one they define."""
        g = TorusGeometry(*LW, 1)
        M = 32
        h = g.W / M
        ys = (np.arange(M) + 0.5) * h
        diff = (ys[:, None] - ys[None, :]).ravel()
        tp, t4 = coulombgas._theta_constants(g)
        g_n = 2j * t4 / tp * coulombgas._g_branches(n, diff, g)
        ref = (math.pi * tp / t4 * h * g_n).reshape(M, M)
        A = mode_matrix(n, g, M)[:M, M:]
        assert np.max(np.abs(A - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_oracle_evaluates_no_theta_constant(self, monkeypatch):
        def refuse(geom):
            raise AssertionError("theta constants evaluated on the oracle path")

        monkeypatch.setattr(coulombgas, "_theta_constants", refuse)
        mode_logdet(0, GEOM, 64, 0.5)
        oracle_leading_magnitudes(1, GEOM, 3)

    def test_no_dense_block_on_the_oracle_path(self):
        """A dense 3200 x 3200 complex block alone would take 164 MB."""
        tracemalloc.start()
        try:
            oracle_log_xi2(0.5, GEOM, 8, M=3200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestOracleCriteriaControls:
    """The tightened mode-spectrum and grand-partition criteria fail on
    known-wrong variants of the quantities they compare."""

    def test_grand_partition_fails_without_extrapolation(self, monkeypatch):
        """One grid M = 3200 per mode, no Richardson ladder: off by ~1e-2."""

        def single_grid(zeta, geom, n_pairs, M):
            _, q4 = coulombgas._theta_constants(geom)
            logdets = sum(mode_logdet(j - 1, geom, M, zeta) for j in range(1, n_pairs + 1))
            return 2.0 * math.log(q4) + 2.0 * logdets

        monkeypatch.setattr(selftest, "oracle_log_xi2", single_grid)
        assert not selftest.check_grand_partition().passed

    def test_mode_spectrum_fails_on_perturbed_roots(self, monkeypatch):
        """Roots off by a factor 1 + 1e-6: caught at 1e-9, not at the old 1e-3."""

        def perturbed(n, geom, k_max):
            spec = eigen_roots(n, geom, k_max)
            roots = spec.roots * (1.0 + 1e-6)
            return dataclasses.replace(spec, roots=roots, lambdas=2.0 * math.pi / roots)

        monkeypatch.setattr(selftest, "eigen_roots", perturbed)
        result = selftest.check_mode_spectrum()
        assert not result.passed
        worst = float(result.detail.split("deviation ")[1].split()[0])
        assert 1e-9 < worst < 1e-3


class TestGrandPartition:
    def test_empty_gas_value(self):
        assert xi2_closed(0.0, GEOM, 8) == theta4(0.0, GEOM.nome_WL).real ** 2

    def test_monotone_in_fugacity(self):
        vals = [xi2_closed(z, GEOM, 8) for z in (0.0, 0.1, 0.3, 0.5, 0.8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_cosh_form_equals_stable_form(self):
        """Direct cosh ratios against the exponential-product rearrangement."""
        zeta, n_max = 0.4, 6
        q4 = theta4(0.0, GEOM.nome_WL).real
        direct = q4**2
        for j in range(1, n_max + 1):
            mu = math.pi * (2 * j - 1) / GEOM.L
            X = GEOM.W * math.hypot(mu, 2 * math.pi * zeta)
            Y = GEOM.W * mu
            direct *= ((math.cosh(X) - 1.0) / (math.cosh(Y) - 1.0)) ** 2
        stable = xi2_closed(zeta, GEOM, n_max)
        assert abs(direct - stable) / direct < 1e-12

    def test_overflow_refused_by_name(self):
        """At zeta = 5, W/L = 3 log Xi = 803.5 lies above log DBL_MAX: Xi is
        refused by name, its log stays finite."""
        g = TorusGeometry(1.0, 3.0, 1)
        assert math.log(np.finfo(float).max) < log_xi2_closed(5.0, g, 8) < math.inf
        with pytest.raises(PrecisionUnreachable):
            xi2_closed(5.0, g, 8)

    def test_fugacity_expansion_coefficient(self):
        """Finite difference of log Xi in zeta^2 against the root pair sum."""
        d = 1e-4
        fd = (log_xi2_closed(d, GEOM, 8) - log_xi2_closed(0.0, GEOM, 8)) / d**2
        roots = dlog_xi2_dzeta_sq(GEOM, 8)
        assert abs(fd - roots) / roots < 1e-6


class TestNamedErrors:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: eigen_roots(0, GEOM, -1), ParameterOutOfRange),
            (lambda: log_xi2_closed(-0.1, GEOM, 8), ParameterOutOfRange),
            (lambda: pressure_sum(1.0, 4.0, 0), ParameterOutOfRange),
            (lambda: log_xi2_asymptotic(0.0, GEOM), ParameterOutOfRange),
            (lambda: g_fourier(0, 1.0, GEOM), ParameterOutOfRange),
            (lambda: kernel_from_fourier(0.3, 0.1, GEOM), ParameterOutOfRange),
            (lambda: mode_matrix(0, GEOM, 8), ParameterOutOfRange),
            (lambda: mode_logdet_extrapolated(0, GEOM, 33, 0.5), ParameterOutOfRange),
            (lambda: log_xi2_closed(0.5, GEOM, 0), ParameterOutOfRange),
            (lambda: xi2_closed(0.0, GEOM, 0), ParameterOutOfRange),
            (lambda: fit_pressure(1.0, [4.0, 4.0, 4.0], 40), ParameterOutOfRange),
            (lambda: pressure_sum(math.inf, 1.0, 4), ParameterOutOfRange),
            (lambda: pressure_sum(math.nan, 1.0, 4), ParameterOutOfRange),
            (lambda: fit_pressure(math.nan, [4.0, 5.0, 6.0], 40), ParameterOutOfRange),
            (lambda: pressure_sum(0.5, math.inf, 4), ParameterOutOfRange),
            (lambda: pressure_sum(0.5, 1e-200, 8), PrecisionUnreachable),
            (lambda: pressure_sum(0.5, 5e-324, 8), PrecisionUnreachable),
            (lambda: pressure_sum(0.5, 4.0, 2**52), PrecisionUnreachable),
            (lambda: fit_pressure(0.5, [4.0, 5.0, 1e300], 8), PrecisionUnreachable),
        ],
        ids=["eigen_roots-k_max", "log_xi2_closed-zeta", "pressure_sum-cutoff",
             "log_xi2_asymptotic-zeta", "g_fourier-outside-period", "kernel_from_fourier-jump",
             "mode_matrix-grid", "mode_logdet_extrapolated-odd-grid", "log_xi2_closed-n_max",
             "xi2_closed-n_max", "fit_pressure-rank-one", "pressure_sum-inf-zeta",
             "pressure_sum-nan-zeta", "fit_pressure-nan-zeta", "pressure_sum-inf-L",
             "pressure_sum-x2-overflow", "pressure_sum-subnormal-L", "pressure_sum-2^52-modes",
             "fit_pressure-2^52-modes"],
    )
    def test_out_of_range_argument(self, call, error):
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, TorusGasError)
        if error is ParameterOutOfRange:
            assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: log_xi2_closed(0.5, g, 8),
            lambda g: xi2_closed(0.0, g, 8),
            lambda g: oracle_log_xi2(0.5, g, 2, 32),
            lambda g: kernel_K(0.3 + 0.005j, 0.0, g),
            lambda g: kernel_from_fourier(0.3 + 0.005j, 0.0, g),
            lambda g: g_fourier(0, 0.005, g),
            lambda g: mode_logdet(0, g, 32, 0.5),
        ],
        ids=["log_xi2_closed", "xi2_closed", "oracle_log_xi2", "kernel_K",
             "kernel_from_fourier", "g_fourier", "mode_logdet"],
    )
    def test_cancelled_theta4_refused(self, call, mpmath_reference):
        """At W/L = 0.02 (q = 0.939) the direct theta4(0) series cancels to
        noise; the modular route resolves it, so every closed form and kernel
        that needs it matches the same form on mpmath theta values."""
        g = TorusGeometry(1.0, 0.02, 1)
        got = call(g)
        ref = mpmath_reference(lambda: call(g), coulombgas)
        assert np.isfinite(got)
        assert abs(got - ref) <= 1e-13 * abs(ref)


class TestPressure:
    def test_zero_fugacity(self):
        assert pressure_sum(0.0, 8.0, 200) == 0.0
        assert pressure_sum(0.0, 1e-200, 8) == 0.0   # every x^2 overflows; each term is 0

    def test_positive_terms(self):
        assert pressure_sum(1.0, 4.0, 100) > 0.0

    def test_one_over_L_coefficient(self):
        fit = fit_pressure(1.0, np.arange(4.0, 17.0), 40)
        assert abs(abs(fit.c) - math.pi / 6) < 0.01 * math.pi / 6
        assert fit.c < 0

    def test_cutoff_stability_of_c_and_growth_of_b(self):
        f40 = fit_pressure(1.0, np.arange(4.0, 17.0), 40)
        f80 = fit_pressure(1.0, np.arange(4.0, 17.0), 80)
        assert abs(f40.c - f80.c) < 0.01 * math.pi / 6
        assert f80.b > f40.b  # log-divergent slope


class TestFiniteSizeLadder:
    def test_square_remainder(self):
        g = TorusGeometry(4.0, 4.0, 1)
        br = log_xi2_asymptotic(0.5, g)
        expected = -2.0 * math.log(eta_q(g.nome_WL))
        assert abs(br.o1_fitted - expected) < 0.02 * abs(expected)

    def test_aspect_two_remainder(self):
        g = TorusGeometry(4.0, 8.0, 1)
        br = log_xi2_asymptotic(0.5, g)
        expected = -2.0 * math.log(eta_q(math.exp(-2 * math.pi)))
        assert abs(br.o1_fitted - expected) < 0.02 * abs(expected)

    @pytest.mark.parametrize("L, W", [(1.0, 1.0), (2.0, 4.0), (0.5, 0.25)])
    def test_small_torus_ladder_starts_at_four(self, L, W):
        """Below L = 4 the ladder scales its base to L = 4 at the same aspect,
        so it fits the rungs of the (4, 4 W/L) torus; the O(1) term and the
        bulk are read at the torus given."""
        small = log_xi2_asymptotic(0.5, TorusGeometry(L, W, 1))
        base = log_xi2_asymptotic(0.5, TorusGeometry(4.0, 4.0 * W / L, 1))
        assert small.o1_fitted == base.o1_fitted
        assert small.bulk_per_area == base.bulk_per_area
        assert small.bulk == base.bulk_per_area * L * W

    def test_zeta_independence(self):
        g = TorusGeometry(4.0, 4.0, 1)
        a = log_xi2_asymptotic(0.3, g)
        b = log_xi2_asymptotic(0.6, g)
        assert abs(a.o1_fitted - b.o1_fitted) < 0.02 * abs(a.o1_fitted)
