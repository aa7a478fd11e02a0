"""Torus Landau level: single-particle states, Slater determinant, factorization."""

import math
import warnings

import numpy as np
import pytest

from torusgas import landau, selftest
from torusgas.electrostatics import nbody_weight, ocp_log_boltzmann
from torusgas.errors import (
    DegenerateGeometry,
    DimensionMismatch,
    FluxMismatch,
    ParameterOutOfRange,
    PrecisionUnreachable,
)
from torusgas.geometry import ParticleConfig, TorusGeometry
from torusgas.landau import (
    MagneticSetup,
    factored_state,
    factorization_ratio,
    flux_constraint,
    gauge_f,
    psi_lll,
    slater_state,
)
from torusgas.selftest import check_wavefunction_factorization, factorization_spread
from torusgas.theta import Nome, theta3

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

    def test_setup_rejects_wrong_flux(self):
        with pytest.raises(FluxMismatch):
            MagneticSetup(l=0.25, L=1.0, W1=0.0, W2=1.0, N=3)


class TestNamedErrors:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: TorusGeometry(-1.0, 1.0, 1),
            lambda: TorusGeometry(1.0, 1.0, 0),
            lambda: MagneticSetup(l=0.25, L=1.0, W1=0.0, W2=1.0, N=0),
            lambda: MagneticSetup(l=-0.25, L=1.0, W1=0.0, W2=1.0, N=3),
            lambda: flux_constraint(0, 0.25, 1.0),
        ],
        ids=["TorusGeometry-L", "TorusGeometry-N", "MagneticSetup-N", "MagneticSetup-l",
             "flux_constraint-N"],
    )
    def test_out_of_range_argument(self, call):
        with pytest.raises(ParameterOutOfRange) as info:
            call()
        assert isinstance(info.value, ValueError)


class TestGauge:
    def test_zero_at_origin(self):
        assert gauge_f(0.0, 0.0, 1.7, 0.4, 0.9) == 0.0

    def test_gradient_matches_potential_difference(self):
        B, W1, W2 = 2.3, 0.7, 1.1
        h = 1e-5
        for x, y in [(0.3, -0.4), (1.1, 0.2)]:
            gx = (gauge_f(x + h, y, B, W1, W2) - gauge_f(x - h, y, B, W1, W2)) / (2 * h)
            gy = (gauge_f(x, y + h, B, W1, W2) - gauge_f(x, y - h, B, W1, W2)) / (2 * h)
            awx = B / 2 * ((W2 / W1) * x - y) - (-B * y)
            awy = B / 2 * (x - (W1 / W2) * y)
            assert abs(gx - awx) < 1e-6
            assert abs(gy - awy) < 1e-6

    def test_rectangular_gauge(self):
        """At W1 = 0 the second potential is the symmetric gauge (B/2)(-y, x)
        and the connecting function degenerates to B x y / 2."""
        B, x, y = 1.5, 0.4, 0.7
        assert gauge_f(x, y, B, 0.0, 2.0) == B * x * y / 2
        h = 1e-5
        gx = (gauge_f(x + h, y, B, 0.0, 2.0) - gauge_f(x - h, y, B, 0.0, 2.0)) / (2 * h)
        gy = (gauge_f(x, y + h, B, 0.0, 2.0) - gauge_f(x, y - h, B, 0.0, 2.0)) / (2 * h)
        awx, awy = -B * y / 2 - (-B * y), B * x / 2
        assert abs(gx - awx) < 1e-9
        assert abs(gy - awy) < 1e-9

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            gauge_f(0.1, 0.1, 1.0, 0.5, 0.0)


class TestSingleParticle:
    @pytest.mark.parametrize("W1", [0.0, 0.2])
    def test_x_periodicity(self, W1):
        setup = MagneticSetup.from_flux(L=1.0, N=3, l=0.25, W1=W1)
        for m in range(3):
            z = complex(rng.uniform(0, 1), rng.uniform(0, setup.W2))
            a, b = psi_lll(m, z, setup), psi_lll(m, z + setup.L, setup)
            assert abs(a - b) < 1e-10 * max(1, abs(a))

    @pytest.mark.parametrize("W1", [0.0, 0.2])
    def test_quasi_periodicity(self, W1):
        setup = MagneticSetup.from_flux(L=1.0, N=3, l=0.25, W1=W1)
        for m in range(3):
            z = complex(rng.uniform(0, 1), rng.uniform(0, setup.W2))
            lhs = psi_lll(m, z, setup)
            rhs = psi_lll(m, z + setup.W1 + 1j * setup.W2, setup) * np.exp(
                -1j * setup.W2 * (2 * z.real + setup.W1) / (2 * setup.l**2)
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
