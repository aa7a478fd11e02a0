"""Torus Landau level: single-particle states, Slater determinant, factorization."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from torusgas import landau, selftest
from torusgas.coulombgas import log_xi2_closed, pressure_sum, xi2_closed
from torusgas.electrostatics import coulomb_energy_terms, nbody_weight, ocp_log_boltzmann
from torusgas.errors import (
    CoincidentPoints,
    DimensionMismatch,
    ParameterOutOfRange,
    PrecisionUnreachable,
    TorusGasError,
)
from torusgas.geometry import ParticleConfig, TorusGeometry
from torusgas.identities import frobenius_residual, theta_vandermonde_residual
from torusgas.landau import (
    MagneticSetup,
    factored_state,
    factorization_ratio,
    flux_constraint,
    psi_lll,
    slater_state,
)
from torusgas.plasma import partition_integral_closed, zn_closed
from torusgas.selftest import check_wavefunction_factorization, factorization_spread
from torusgas.theta import Nome, f_N, theta3

from oracles import fourier_det_constant

rng = np.random.default_rng(55)


class TestFluxConstraint:
    def test_arithmetic(self):
        assert abs(flux_constraint(3, math.sqrt(1 / (2 * math.pi)), 1.0) - 3.0) < 1e-14
        assert abs(flux_constraint(1, 1.0, 2 * math.pi) - 1.0) < 1e-14

    def test_flux_quanta_count(self):
        """B * L * W2 / (2 pi) = N in units hbar = c = e = 1, B = 1/l^2."""
        for N, l, L in [(2, 0.3, 1.1), (5, 1.2, 3.0)]:
            W2 = flux_constraint(N, l, L)
            assert abs((1 / l**2) * L * W2 / (2 * math.pi) - N) < 1e-12

    def test_setup_derives_its_height(self):
        """A setup is (l, L, N); its height W2 is the flux condition's, so its
        flux is whole by construction."""
        for N, l, L in [(3, 0.25, 1.0), (5, 1.2, 3.0)]:
            setup = MagneticSetup(l=l, L=L, N=N)
            assert setup.W2 == flux_constraint(N, l, L)
            assert setup.tau.real == 0.0   # rectangular


class TestNamedErrors:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: TorusGeometry(-1.0, 1.0, 1), ParameterOutOfRange),
            (lambda: TorusGeometry(1.0, 1.0, 0), ParameterOutOfRange),
            (lambda: MagneticSetup(l=0.25, L=1.0, N=0), ParameterOutOfRange),
            (lambda: MagneticSetup(l=-0.25, L=1.0, N=3), ParameterOutOfRange),
            (lambda: flux_constraint(0, 0.25, 1.0), ParameterOutOfRange),
            (lambda: ocp_log_boltzmann(*_one_period_apart()), CoincidentPoints),
            (lambda: ParticleConfig.from_raw([0.1, 0.2], TorusGeometry(1.0, 1.0, 3)),
             DimensionMismatch),
            (lambda: frobenius_residual([0.1, 0.2], [0.3], 0.1, 0.3), DimensionMismatch),
            (lambda: fourier_det_constant(0), ParameterOutOfRange),
            (lambda: psi_lll(3, 0.2, MagneticSetup.plasma_mapping(L=1.0, N=3)), ParameterOutOfRange),
            (lambda: zn_closed(0, TorusGeometry(1.0, 1.0, 1)), ParameterOutOfRange),
            (lambda: ocp_log_boltzmann(_three_points(), 2.0, TorusGeometry(1.0, 1.0, 5)),
             DimensionMismatch),
            (lambda: coulomb_energy_terms(_three_points(), TorusGeometry(1.0, 1.0, 5)),
             DimensionMismatch),
            (lambda: theta_vandermonde_residual(np.zeros((3, 0)), 0.05, 0.3), DimensionMismatch),
            (lambda: frobenius_residual(np.zeros(0), np.zeros(0), 0.1, 0.3), DimensionMismatch),
            (lambda: partition_integral_closed(0, TorusGeometry(1.0, 1.0, 1)),
             ParameterOutOfRange),
            (lambda: log_xi2_closed(math.nan, TorusGeometry(1.0, 1.0, 1), 8), ParameterOutOfRange),
            (lambda: xi2_closed(math.nan, TorusGeometry(1.0, 1.0, 1), 8), ParameterOutOfRange),
            (lambda: log_xi2_closed(math.inf, TorusGeometry(1.0, 1.0, 1), 8), ParameterOutOfRange),
            (lambda: pressure_sum(1.0, 0.0, 5), ParameterOutOfRange),
            (lambda: pressure_sum(1.0, -1.0, 5), ParameterOutOfRange),
            (lambda: TorusGeometry(1.0, 1.0, 2.5), ParameterOutOfRange),
            (lambda: MagneticSetup.plasma_mapping(1.0, 2.5), ParameterOutOfRange),
            (lambda: zn_closed(2.5, TorusGeometry(1.0, 1.0, 1)), ParameterOutOfRange),
            (lambda: flux_constraint(2.5, 0.25, 1.0), ParameterOutOfRange),
            (lambda: partition_integral_closed(2.5, TorusGeometry(1.0, 1.0, 1)),
             ParameterOutOfRange),
            (lambda: f_N(2.5, Nome.from_q(0.3)), ParameterOutOfRange),
            (lambda: fourier_det_constant(2.5), ParameterOutOfRange),
            (lambda: psi_lll(1.5, 0.2, MagneticSetup.plasma_mapping(L=1.0, N=3)),
             ParameterOutOfRange),
            (lambda: TorusGeometry(1.0, 1.0, True), ParameterOutOfRange),
            (lambda: TorusGeometry(math.nan, 1.0), ParameterOutOfRange),
            (lambda: TorusGeometry(math.inf, 1.0), ParameterOutOfRange),
            (lambda: MagneticSetup.plasma_mapping(math.nan, 2), ParameterOutOfRange),
            (lambda: MagneticSetup.from_flux(1.0, 2, math.inf), ParameterOutOfRange),
            (lambda: partition_integral_closed(9, TorusGeometry(1.0, 0.0165, 9)),
             PrecisionUnreachable),
            (lambda: partition_integral_closed(200, TorusGeometry(1.0, 1.0, 200)),
             PrecisionUnreachable),
            (lambda: slater_state([0.1, 0.2, 0.3], MagneticSetup.plasma_mapping(1e300, 3)),
             PrecisionUnreachable),
            (lambda: factorization_ratio([[0.1, 0.2, 0.3]],
                                         MagneticSetup.plasma_mapping(1e-300, 3)),
             PrecisionUnreachable),
        ],
        ids=["TorusGeometry-L", "TorusGeometry-N", "MagneticSetup-N", "MagneticSetup-l",
             "flux_constraint-N", "ocp_log_boltzmann-coincident", "ParticleConfig-count",
             "frobenius_residual-shapes", "fourier_det_constant-N", "psi_lll-m",
             "zn_closed-N", "ocp_log_boltzmann-count", "coulomb_energy_terms-count",
             "theta_vandermonde_residual-N0", "frobenius_residual-N0",
             "partition_integral_closed-N", "log_xi2_closed-nan-zeta", "xi2_closed-nan-zeta",
             "log_xi2_closed-inf-zeta", "pressure_sum-zero-L", "pressure_sum-negative-L",
             "TorusGeometry-fractional-N", "plasma_mapping-fractional-N",
             "zn_closed-fractional-N", "flux_constraint-fractional-N",
             "partition_integral_closed-fractional-N", "f_N-fractional-N",
             "fourier_det_constant-fractional-N", "psi_lll-fractional-m", "TorusGeometry-bool-N",
             "TorusGeometry-nan-L", "TorusGeometry-inf-L", "plasma_mapping-nan-L",
             "from_flux-inf-l", "partition_integral_closed-underflow",
             "partition_integral_closed-factorial-overflow",
             "slater_state-normalization-overflow", "factorization_ratio-normalization-overflow"],
    )
    def test_out_of_range_argument(self, call, error):
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, TorusGasError)
        if error is ParameterOutOfRange:
            assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "call, name",
        [(lambda: TorusGeometry(1.0, math.nan), "W"), (lambda: TorusGeometry(-math.inf, 1.0), "L"),
         (lambda: MagneticSetup.plasma_mapping(math.inf, 3), "L"),
         (lambda: MagneticSetup.from_flux(1.0, 2, math.nan), "l"),
         (lambda: MagneticSetup(l=1e200, L=1.0, N=3), "W2"),
         (lambda: flux_constraint(3, 1e-200, 1.0), "W2")],
        ids=["TorusGeometry-nan-W", "TorusGeometry-minus-inf-L", "plasma_mapping-inf-L",
             "from_flux-nan-l", "MagneticSetup-overflowing-W2",
             "flux_constraint-underflowing-W2"],
    )
    def test_non_finite_period_is_named(self, call, name):
        """nan <= 0 is False: a nan or inf period is refused where it enters,
        by name, not downstream as some other value."""
        with pytest.raises(ParameterOutOfRange, match=f"^{name} = "):
            call()

    def test_level_index_names_m_and_N(self):
        """A level index past the N states is the count rule's refusal."""
        with pytest.raises(ParameterOutOfRange, match="^m = 5 outside 0..2 for N = 3$"):
            psi_lll(5, 0.2, MagneticSetup.plasma_mapping(L=1.0, N=3))

    def test_numpy_integer_count(self):
        """A numpy integer is an integer count, as the scan and the draws pass it."""
        assert TorusGeometry(1.0, 1.0, np.int64(3)).N == 3
        assert MagneticSetup.plasma_mapping(1.0, np.int32(2)).N == 2


def _three_points():
    """A configuration of three points on a torus with N = 3."""
    return ParticleConfig.from_raw([0.1 + 0.2j, 0.5 + 0.7j, 0.8 + 0.4j], TorusGeometry(1.0, 1.0, 3))


def _one_period_apart():
    """Two points one period L apart, with their geometry: (config, Gamma, geometry)."""
    g = TorusGeometry(1.0, 1.0, 2)
    return ParticleConfig.from_raw([0.3 + 0.2j, 1.3 + 0.2j], g), 2.0, g


class TestSingleParticle:
    def test_x_periodicity(self):
        setup = MagneticSetup.from_flux(L=1.0, N=3, l=0.25)
        for m in range(3):
            z = complex(rng.uniform(0, 1), rng.uniform(0, setup.W2))
            a, b = psi_lll(m, z, setup), psi_lll(m, z + setup.L, setup)
            assert abs(a - b) < 1e-10 * max(1, abs(a))

    def test_quasi_periodicity(self):
        setup = MagneticSetup.from_flux(L=1.0, N=3, l=0.25)
        for m in range(3):
            z = complex(rng.uniform(0, 1), rng.uniform(0, setup.W2))
            lhs = psi_lll(m, z, setup)
            rhs = psi_lll(m, z + 1j * setup.W2, setup) * np.exp(
                -1j * setup.W2 * z.real / setup.l**2
            )
            assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_orthonormality(self, N):
        """Gram matrix of the level states equals the identity (quadrature)."""
        setup = MagneticSetup.from_flux(L=1.0, N=N, l=0.25)
        n = 72
        xs = (np.arange(n) + 0.5) * setup.L / n
        ys = (np.arange(n) + 0.5) * setup.W2 / n
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        Z = X + 1j * Y
        h2 = (setup.L / n) * (setup.W2 / n)
        psis = [psi_lll(m, Z, setup) for m in range(N)]
        for a in range(N):
            for b in range(N):
                overlap = complex(np.sum(psis[a] * np.conj(psis[b])) * h2)
                assert abs(overlap - (1.0 if a == b else 0.0)) < 1e-6


class TestManyBody:
    def test_swap_antisymmetry(self):
        setup = MagneticSetup.plasma_mapping(L=1.0, N=2)
        zs = np.array([0.3 + 0.9j, 0.7 + 0.4j])
        assert slater_state(zs, setup) == -slater_state(zs[::-1], setup)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_factorization_ratio_constant(self, N):
        setup = MagneticSetup.plasma_mapping(L=1.2, N=N)
        configs = [
            rng.uniform(0, setup.L, N) + 1j * rng.uniform(0, setup.W2, N)
            for _ in range(50)
        ]
        ratios = factorization_ratio(configs, setup)
        mean = np.mean(ratios)
        assert np.max(np.abs(ratios - mean)) / abs(mean) < 1e-9
        assert abs(abs(mean) - 1.0) < 1e-9  # the constant is a root of unity

    def test_factored_period_shift(self):
        setup = MagneticSetup.plasma_mapping(L=1.0, N=3)
        zs = rng.uniform(0, 1, 3) + 1j * rng.uniform(0, setup.W2, 3)
        a = abs(factored_state(zs, setup))
        zs2 = zs.copy()
        zs2[1] += setup.L
        assert abs(abs(factored_state(zs2, setup)) - a) < 1e-10 * a

    @pytest.mark.parametrize("N", [2, 3])
    def test_matches_plasma_weight(self, N):
        """|state|^2 is the Gamma = 2 plasma weight times the center-of-mass
        factor, up to one configuration-independent constant."""
        L = 1.3
        setup = MagneticSetup.plasma_mapping(L=L, N=N)
        geom = TorusGeometry(L, setup.W2, N)
        logs = []
        for _ in range(20):
            zs = rng.uniform(0, L, N) + 1j * rng.uniform(0, setup.W2, N)
            cfg = ParticleConfig.from_raw(zs, geom)
            lhs = 2.0 * math.log(abs(factored_state(zs, setup)))
            rhs = ocp_log_boltzmann(cfg, 2.0, geom) + math.log(nbody_weight(cfg, geom))
            logs.append(lhs - rhs)
        logs = np.asarray(logs)
        assert np.max(np.abs(logs - logs.mean())) < 1e-9

    @pytest.mark.parametrize("N", [1, 2])
    def test_squared_state_normalized(self, N):
        """|state|^2 integrates to one over the N-fold fundamental domain."""
        setup = MagneticSetup.from_flux(L=1.0, N=N, l=0.3)
        n = 48
        xs = (np.arange(n) + 0.5) * setup.L / n
        ys = (np.arange(n) + 0.5) * setup.W2 / n
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        Z = (X + 1j * Y).ravel()
        cell = (setup.L / n) * (setup.W2 / n)
        if N == 1:
            dens = np.abs(psi_lll(0, Z, setup)) ** 2
            total = float(np.sum(dens)) * cell
        else:
            p0 = psi_lll(0, Z, setup)
            p1 = psi_lll(1, Z, setup)
            det = p0[:, None] * p1[None, :] - p0[None, :] * p1[:, None]
            total = float(np.sum(np.abs(det) ** 2)) / 2.0 * cell**2
        assert abs(total - 1.0) < 1e-6


class TestImageSum:
    """slater_state sums each state's Gaussian images, in the frame where they
    localize, and calls no theta function."""

    @pytest.mark.parametrize("WL", [0.5, 1.0, 2.0, 4.0])
    def test_matches_determinant_of_level_states(self, WL):
        """Against det[psi_lll(m, z_j)] / sqrt(N!), the theta3 closed form:
        this pins the rotated frame's constant and gauge phase (W/L = 0.5),
        the frame switch and the image window, in and outside the cell. The
        reference determinant itself cancels to about 1e-16 of the product
        of its row norms (the Hadamard bound), which is more than 1e-12 of
        it where two particles nearly share a state: so either bound holds."""
        r = np.random.default_rng(int(100 * WL))
        for N in range(1, 7):
            L = math.sqrt(N / WL)
            setup = MagneticSetup.plasma_mapping(L=L, N=N)
            zs = r.uniform(0, L, (4, N)) + 1j * r.uniform(0, setup.W2, (4, N))
            zs[0, 0] += 2.0 * L - 3.0j * setup.W2   # one particle out of the cell
            zs[1] += -1.0 * L + 1.0j * setup.W2     # every particle one period away
            for z in zs:
                mat = np.array([[psi_lll(m, zj, setup) for m in range(N)] for zj in z])
                ref = np.linalg.det(mat) / math.sqrt(math.factorial(N))
                hadamard = np.prod(np.linalg.norm(mat, axis=1)) / math.sqrt(math.factorial(N))
                err = abs(slater_state(z, setup) - ref)
                assert err <= max(1e-12 * abs(ref), 1e-15 * hadamard), (N, z)

    @pytest.mark.parametrize("N", [3, 6])
    @pytest.mark.parametrize("WL", [0.03, 0.05, 0.1])
    def test_against_mpmath_image_sum(self, WL, N):
        """Small W2/L sums in the rotated frame. The reference is the direct
        frame's image sum, psi_m(z) = norm sum_{k = m mod N}
        e^(-a (y + k W2/N)^2 - 2 pi i k x/L), a = pi N/(L W2), at 50 digits
        with every image down to e^-130 of each entry's largest, so its
        cancellation costs it nothing."""
        setup = MagneticSetup.plasma_mapping(L=math.sqrt(N / WL), N=N)
        L, W2 = setup.L, setup.W2
        r = np.random.default_rng(int(1000 * WL) + N)
        zs = r.uniform(0, L, (2, N)) + 1j * r.uniform(0, W2, (2, N))
        with mp.workdps(50):
            a, h = mp.pi * N / (L * W2), mp.mpf(W2) / N
            reach = int(mp.sqrt(130 / (a * h * h))) + N
            norm = 1 / mp.sqrt(L * mp.mpf(setup.l) * mp.sqrt(mp.pi))

            def psi(m, z):
                x, y = mp.mpf(z.real), mp.mpf(z.imag)
                k0 = int(mp.floor(-y / h)) - reach
                return norm * mp.fsum(
                    mp.exp(-a * (y + k * h) ** 2 - 2j * mp.pi * k * x / L)
                    for k in range(k0 + (m - k0) % N, k0 + 2 * reach + 1, N)
                )

            for z in zs:
                mat = mp.matrix([[psi(m, zj) for m in range(N)] for zj in z])
                ref = complex(mp.det(mat) / mp.sqrt(mp.factorial(N)))
                assert abs(slater_state(z, setup) - ref) <= 1e-12 * abs(ref), z

    def test_seeded_spread_at_small_aspect(self):
        """W/L = 0.03, N = 4: the theta3-built Slater matrix lost the
        determinant's small part here (spreads of O(1))."""
        setup = MagneticSetup.plasma_mapping(L=math.sqrt(4 / 0.03), N=4)
        spread, mean = factorization_spread(setup, np.random.default_rng(29), 50)
        assert spread <= 1e-9
        assert abs(abs(mean) - 1.0) < 1e-9

    def test_large_aspect_is_finite(self):
        """W/L = 20, N = 5: theta3's multiplier at q^N overflowed for three of
        these five configurations; the image sum is finite and its ratio to
        the product form constant."""
        setup = MagneticSetup.plasma_mapping(L=math.sqrt(5 / 20), N=5)
        U = np.random.default_rng(3).uniform(0.0, [[setup.L], [setup.W2]], (5, 2, 5))
        zs = U[:, 0] + 1j * U[:, 1]
        assert all(np.isfinite(slater_state(z, setup)) for z in zs)
        ratios = factorization_ratio(zs, setup)
        assert np.max(np.abs(ratios - ratios.mean())) <= 1e-9 * abs(ratios.mean())

    def test_window_reaches_each_entrys_largest_image(self):
        """W/L = 20, N = 3: each entry keeps its images down to e^-37 of its
        own largest, not of its row's; the row's window leaves a ratio
        spread of 1.2e-5 on these draws."""
        setup = MagneticSetup.plasma_mapping(L=math.sqrt(3 / 20), N=3)
        U = np.random.default_rng(6).uniform(0.0, [[setup.L], [setup.W2]], (20, 2, 3))
        ratios = factorization_ratio(U[:, 0] + 1j * U[:, 1], setup)
        assert np.max(np.abs(ratios - ratios.mean())) <= 1e-9 * abs(ratios.mean())


class TestStackedRatio:
    """factorization_ratio evaluates a (D, N) stack at once."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_matches_per_configuration_states(self, N):
        setup = MagneticSetup.plasma_mapping(L=1.2, N=N)
        r = np.random.default_rng(40 + N)
        zs = r.uniform(0, setup.L, (30, N)) + 1j * r.uniform(0, setup.W2, (30, N))
        stacked = factorization_ratio(zs, setup)
        single = np.array([slater_state(z, setup) / factored_state(z, setup) for z in zs])
        assert stacked.shape == (30,)
        assert np.max(np.abs(stacked - single) / np.abs(single)) <= 1e-14

    def test_wrong_size_raises(self):
        setup = MagneticSetup.plasma_mapping(L=1.0, N=3)
        with pytest.raises(DimensionMismatch):
            factorization_ratio(np.zeros((4, 2), dtype=complex), setup)
        with pytest.raises(DimensionMismatch):
            slater_state([0.1, 0.2], setup)
        with pytest.raises(DimensionMismatch):
            factorization_ratio([[0.1, 0.2, 0.3], [0.1, 0.2]], setup)
        with pytest.raises(DimensionMismatch):
            factored_state(np.zeros((2, 3), dtype=complex), setup)

    def test_spread_draws_match_per_draw_calls(self, monkeypatch):
        """The gate's configurations are the per-draw uniform draws, bit for
        bit, and leave the generator where they left it."""
        seen = []

        def capture(configs, setup):
            seen.append(np.array(configs))
            return np.ones(len(configs), dtype=complex)

        monkeypatch.setattr(selftest, "factorization_ratio", capture)
        setup = MagneticSetup.plasma_mapping(L=1.2, N=4)
        stacked_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
        factorization_spread(setup, stacked_rng, 50)
        ref = np.array([
            loop_rng.uniform(0, setup.L, 4) + 1j * loop_rng.uniform(0, setup.W2, 4)
            for _ in range(50)
        ])
        assert np.array_equal(seen[0].view(float), ref.view(float))
        assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state


class TestFactorizationControls:
    """The wavefunction-factorization criterion fails on known-wrong product
    forms."""

    def _worst_spread(self):
        rng = np.random.default_rng(7)
        return max(
            factorization_spread(MagneticSetup.plasma_mapping(L=1.2, N=N), rng, 50)[0]
            for N in range(1, 6)
        )

    def test_fails_at_the_LW_nome(self, monkeypatch):
        theta1 = landau.theta1

        def at_LW(z, nome):
            return theta1(z, Nome.from_tau(-1.0 / nome.tau))

        monkeypatch.setattr(landau, "theta1", at_LW)
        assert self._worst_spread() > 1e-9
        assert not check_wavefunction_factorization().passed

    def test_fails_with_theta3_for_theta1(self, monkeypatch):
        monkeypatch.setattr(landau, "theta1", theta3)
        assert self._worst_spread() > 1e-9
        assert not check_wavefunction_factorization().passed


class TestNonFiniteRatio:
    """factorization_ratio refuses a form or ratio out of double range."""

    def _configs(self, setup, draws=5):
        U = np.random.default_rng(3).uniform(0.0, [[setup.L], [setup.W2]], (draws, 2, setup.N))
        return U[:, 0] + 1j * U[:, 1]

    def test_large_aspect_ratio(self):
        """N = 6 at W2/L = 40 on the gate's distribution, uniform in the cell."""
        setup = MagneticSetup.plasma_mapping(L=math.sqrt(6 / 40), N=6)
        with pytest.raises(PrecisionUnreachable):
            factorization_ratio(self._configs(setup), setup)

    def test_refusal_raises_no_warning_first(self):
        """The theta multiplier's overflow is refused by name alone."""
        setup = MagneticSetup.plasma_mapping(L=math.sqrt(6 / 40), N=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionUnreachable):
                factorization_ratio(self._configs(setup), setup)

    def test_small_aspect_ratio_is_finite(self):
        setup = MagneticSetup.plasma_mapping(L=math.sqrt(6 / 0.018), N=6)
        assert np.all(np.isfinite(factorization_ratio(self._configs(setup), setup)))

    @pytest.mark.parametrize(
        "form, value", [("_slater", np.nan), ("_factored", np.inf), ("_factored", 0.0)]
    )
    def test_non_finite_side_or_ratio(self, monkeypatch, form, value):
        setup = MagneticSetup.plasma_mapping(L=1.2, N=3)
        configs = self._configs(setup)
        real = getattr(landau, form)

        def broken(zs, setup):
            out = real(zs, setup)
            out[1] = value
            return out

        monkeypatch.setattr(landau, form, broken)
        with pytest.raises(PrecisionUnreachable):
            factorization_ratio(configs, setup)

    def test_no_draws_is_refused(self):
        with pytest.raises(ParameterOutOfRange):
            factorization_spread(MagneticSetup.plasma_mapping(L=1.2, N=3), np.random.default_rng(1), 0)
