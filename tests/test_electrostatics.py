"""Doubly periodic electrostatics: periodicity laws, Poisson balance, energies."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from torusgas import electrostatics, plasma
from torusgas.electrostatics import (
    background_I,
    coulomb_energy_terms,
    nbody_weight,
    ocp_log_boltzmann,
    phi_periodic,
    phi_quasi,
)
from torusgas.errors import CoincidentPoints, PrecisionUnreachable
from torusgas.geometry import ParticleConfig, TorusGeometry
from torusgas.plasma import zn_closed
from torusgas.theta import log_abs_theta1

GEOM = TorusGeometry(L=1.3, W=0.9, N=1)
rng = np.random.default_rng(31)


def random_pairs(n):
    z = rng.uniform(0, GEOM.L, n) + 1j * rng.uniform(0, GEOM.W, n)
    zp = rng.uniform(0, GEOM.L, n) + 1j * rng.uniform(0, GEOM.W, n)
    return [(a, b) for a, b in zip(z, zp) if abs(a - b) > 1e-2]


class TestPhiQuasi:
    def test_short_distance_log_law(self):
        zp = 0.41 + 0.52j
        rem = [phi_quasi(zp + d, zp, GEOM) + math.log(d) for d in (1e-2, 1e-3, 1e-4)]
        assert abs(rem[-1]) < 1e-7
        assert abs(rem[1]) < abs(rem[0])

    def test_x_periodicity(self):
        for z, zp in random_pairs(20):
            assert abs(phi_quasi(z + GEOM.L, zp, GEOM) - phi_quasi(z, zp, GEOM)) < 1e-12

    def test_y_shift_anomaly(self):
        """Shifting y by W adds -(pi/L)(2(y-y') + W)."""
        for z, zp in random_pairs(20):
            dy = z.imag - zp.imag
            got = phi_quasi(z + 1j * GEOM.W, zp, GEOM) - phi_quasi(z, zp, GEOM)
            assert abs(got + math.pi / GEOM.L * (2 * dy + GEOM.W)) < 1e-10

    def test_translation_covariance(self):
        """Depends only on z - z' (up to the stated anomalies)."""
        for z, zp in random_pairs(20):
            shift = complex(rng.uniform(0, 0.5), 0.0)
            a = phi_quasi(z + shift, zp + shift, GEOM)
            assert abs(a - phi_quasi(z, zp, GEOM)) < 1e-11

    def test_coincident_raises(self):
        with pytest.raises(CoincidentPoints):
            phi_quasi(0.3 + 0.2j, 0.3 + 0.2j, GEOM)

    def test_harmonic_away_from_source(self):
        z, zp = 0.5 + 0.3j, 1.0 + 0.7j
        h = 1e-3
        lap = (
            phi_quasi(z + h, zp, GEOM)
            + phi_quasi(z - h, zp, GEOM)
            + phi_quasi(z + 1j * h, zp, GEOM)
            - 4 * phi_quasi(z, zp, GEOM)
            + phi_quasi(z - 1j * h, zp, GEOM)
        ) / h**2
        assert abs(lap) < 1e-4


class TestPhiPeriodic:
    def test_double_periodicity(self):
        for z, zp in random_pairs(20):
            v = phi_periodic(z, zp, GEOM)
            assert abs(phi_periodic(z + 1j * GEOM.W, zp, GEOM) - v) < 1e-10
            assert abs(phi_periodic(z + GEOM.L, zp, GEOM) - v) < 1e-10

    def test_symmetry(self):
        for z, zp in random_pairs(10):
            assert abs(phi_periodic(z, zp, GEOM) - phi_periodic(zp, z, GEOM)) < 1e-12

    def test_laplacian_equals_background(self):
        """Five-point Laplacian away from the source gives 2*pi/(LW)."""
        target = 2 * math.pi / GEOM.area
        h = 1e-3
        z, zp = 0.4 + 0.3j, 1.05 + 0.75j
        lap = (
            phi_periodic(z + h, zp, GEOM)
            + phi_periodic(z - h, zp, GEOM)
            + phi_periodic(z + 1j * h, zp, GEOM)
            + phi_periodic(z - 1j * h, zp, GEOM)
            - 4 * phi_periodic(z, zp, GEOM)
        ) / h**2
        assert abs(lap - target) / target < 1e-4


class TestBackgroundIntegral:
    def test_midline_value(self):
        g = TorusGeometry(1.0, 1.0, 1)
        from torusgas.theta import theta1_prime0

        tp = theta1_prime0(g.nome_WL).real
        expected = (g.area / 3) * math.log(tp / 2) + math.pi * g.W**2 / 12
        assert abs(background_I(g.W / 2, g) - expected) < 1e-14

    def test_reflection_symmetry(self):
        g = TorusGeometry(1.2, 0.8, 1)
        for yp in (0.1, 0.3):
            assert abs(background_I(yp, g) - background_I(g.W - yp, g)) < 1e-12

    def test_against_quadrature(self):
        """Closed form vs adaptive 2d quadrature of log|theta1| (L = W = 1)."""
        g = TorusGeometry(1.0, 1.0, 1)
        yp, xp = 0.3, 0.123

        def f(y, x):
            return log_abs_theta1(math.pi * ((x - xp) + 1j * (y - yp)) / g.L, g.nome_WL)

        val, _ = dblquad(f, 0, 1, 0, 1, epsabs=1e-9, epsrel=1e-9)
        assert abs(val - background_I(yp, g)) < 1e-6


class TestBoltzmannWeight:
    def test_single_particle_closed_form(self):
        from torusgas.theta import theta1_prime0

        g = TorusGeometry(1.1, 0.9, 1)
        cfg = ParticleConfig.from_raw([0.3 + 0.2j], g)
        tp = theta1_prime0(g.nome_WL).real
        gamma = 1.7
        expected = (
            gamma / 2 * math.log(math.pi * tp / g.L)
            - gamma / 6 * math.log(tp / 2)
            - math.pi * g.rho * gamma * (0.2 - g.W / 2) ** 2
        )
        assert abs(ocp_log_boltzmann(cfg, gamma, g) - expected) < 1e-12

    def test_energy_assembly(self):
        """Pair + background + self energies reproduce the closed form."""
        g = TorusGeometry(1.1, 0.8, 2)
        cfg = ParticleConfig.from_raw([0.2 + 0.15j, 0.8 + 0.6j], g)
        u1, u2, u3 = coulomb_energy_terms(cfg, g)
        assert abs(ocp_log_boltzmann(cfg, 2.0, g) + 2.0 * (u1 + u2 + u3)) < 1e-9

    def test_x_translation_invariance(self):
        g = TorusGeometry(1.0, 1.0, 3)
        zs = rng.uniform(0, 1, 3) + 1j * rng.uniform(0, 1, 3)
        cfg = ParticleConfig.from_raw(zs, g)
        shifted = ParticleConfig.from_raw(zs + 0.37, g)
        a = ocp_log_boltzmann(cfg, 2.0, g)
        assert abs(ocp_log_boltzmann(shifted, 2.0, g) - a) < 1e-10


class TestNBodyWeight:
    def test_lattice_zero(self):
        g = TorusGeometry(1.0, 1.0, 2)
        # place the shifted center-of-mass sum exactly on the lattice
        zs = np.array([0.5 - 0.5j + 0.2j, 0.5 - 0.2j])  # conj sum = (L - iW)
        cfg = ParticleConfig.from_raw(zs, g)
        s = np.sum(np.conj(cfg.zs) - (g.L - 1j * g.W) / 2)
        if abs(s) < 1e-12:
            assert nbody_weight(cfg, g) < 1e-20

    def test_period_shift_invariance(self):
        g = TorusGeometry(1.3, 0.7, 2)
        zs = np.array([0.3 + 0.2j, 0.9 + 0.5j])
        a = nbody_weight(ParticleConfig.from_raw(zs, g), g)
        zs2 = zs.copy()
        zs2[0] += g.L
        b = nbody_weight(ParticleConfig.from_raw(zs2, g), g)
        assert abs(a - b) < 1e-12 * max(1.0, a)

    def test_nonnegative(self):
        g = TorusGeometry(1.0, 1.0, 3)
        for _ in range(5):
            cfg = ParticleConfig.random(g, rng)
            assert nbody_weight(cfg, g) >= 0.0

    @pytest.mark.parametrize("W", [20.0, 40.0], ids=["overflow", "nan"])
    def test_unrepresentable_weight_is_named(self, W):
        """A weight beyond the float range raises a named error: |theta1|^2
        overflows at W/L = 20, and the theta series itself turns nan at 40."""
        g = TorusGeometry(1.0, W, 6)
        cfg = ParticleConfig.from_raw(0.3 + 0.01j + 0.05 * np.arange(6), g)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PrecisionUnreachable):
            nbody_weight(cfg, g)


class TestNearNomeCap:
    def test_theta1_prime0_consumers_refuse_or_finish(self, mpmath_reference):
        """Near the nome cap q = 0.95 the direct theta1'(0) series cancels to
        rounding noise; the modular route resolves it, so every closed form
        that takes its log finishes and matches the same form on mpmath theta
        values to 1e-13 relative."""
        for WL in np.linspace(0.01633, 0.021, 50):
            g = TorusGeometry(1.0, WL, 3)
            cfg = ParticleConfig.from_raw([0.1 + 0.3j * WL, 0.45 + 0.6j * WL, 0.8 + 0.1j * WL], g)
            z, zp = 0.3 + 0.2j * WL, 0.6 + 0.7j * WL
            consumers = (
                lambda: phi_quasi(z, zp, g),
                lambda: phi_periodic(z, zp, g),
                lambda: background_I(0.3 * WL, g),
                lambda: ocp_log_boltzmann(cfg, 2.0, g),
                lambda: np.array(coulomb_energy_terms(cfg, g)),
                lambda: zn_closed(1, g).log_middle,
                lambda: zn_closed(3, g).log_middle,
            )
            for consumer in consumers:
                got = consumer()
                ref = mpmath_reference(consumer, electrostatics, plasma)
                assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), WL
