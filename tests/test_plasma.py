"""Exact plasma partition function: closed-form chain, free energy, integrals."""

import math

import numpy as np
import pytest

from torusgas import plasma
from torusgas.errors import (
    DimensionMismatch,
    InsufficientSamples,
    QuadratureNonConvergence,
    SeedRequired,
)
from torusgas.geometry import ParticleConfig, TorusGeometry
from torusgas.plasma import (
    free_energy,
    partition_integral_closed,
    verify_partition_lattice,
    verify_partition_mc,
    zn_closed,
    _integrand_batch,
)
from torusgas.selftest import QUAD_MAX_REL, check_partition_integrals
from torusgas.theta import eta_q


class TestClosedFormChain:
    def test_square_torus_all_candidates_agree(self):
        chain = zn_closed(2, TorusGeometry(1.0, 1.0, 2))
        assert chain.rel_mismatch_WL < 1e-10
        assert chain.rel_mismatch_LW < 1e-10  # both nomes coincide on the square

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("WL", [0.5, 1.0, 2.0])
    def test_resolved_convention_uniform(self, N, WL):
        chain = zn_closed(N, TorusGeometry(1.0, WL, N))
        assert chain.rel_mismatch_WL < 1e-10
        assert chain.resolved_nome == "W/L"

    def test_alternative_nome_fails_off_square(self):
        chain = zn_closed(2, TorusGeometry(1.0, 2.0, 2))
        assert chain.rel_mismatch_LW > 0.1

    def test_printed_constant_off_by_2_to_N(self):
        """The literal product form differs from the chain by exactly 2^N."""
        for N in (1, 2, 4):
            chain = zn_closed(N, TorusGeometry(1.0, 1.5, N))
            assert abs(chain.final_form_WL / chain.printed_final_WL - 2.0**N) < 1e-9

    def test_explicit_n1_square(self):
        """Direct product evaluation at L = W = 1."""
        q = math.exp(-math.pi)
        poch = np.prod([1 - q ** (2 * k) for k in range(1, 60)])
        expected = math.pi * math.sqrt(2.0) * math.exp(-math.pi / 6) * poch**2
        chain = zn_closed(1, TorusGeometry(1.0, 1.0, 1))
        assert abs(chain.final_form - expected) < 1e-12
        assert abs(chain.middle_form - expected) < 1e-12


class TestFreeEnergy:
    def test_bulk_term_per_particle(self):
        for N in (1, 3, 5):
            g = TorusGeometry(1.0, 2.0, N)
            fe = free_energy(N, g)
            assert abs(fe.bulk / N - 0.5 * math.log(g.rho / (2 * math.pi**2))) < 1e-14

    def test_no_surface_term(self):
        assert free_energy(4, TorusGeometry(1.0, 1.0, 4)).surface == 0.0

    def test_finite_size_term_value(self):
        g = TorusGeometry(1.0, 1.0, 2)
        fe = free_energy(2, g)
        assert abs(fe.casimir + 2.0 * math.log(eta_q(g.q_WL))) < 1e-14

    def test_total_is_minus_log_z(self):
        g = TorusGeometry(1.0, 1.0, 4)
        fe = free_energy(4, g)
        assert abs(fe.total + zn_closed(4, g).log_final) < 1e-12

    def test_extensivity(self):
        """Doubling N at fixed density and aspect ratio changes beta*F by the
        bulk only; the finite-size term drops out of the difference."""
        g4 = TorusGeometry(2.0, 2.0, 4)
        g8 = TorusGeometry(2 * math.sqrt(2), 2 * math.sqrt(2), 8)
        f4, f8 = free_energy(4, g4), free_energy(8, g8)
        assert abs((f8.total - 2 * f4.total) + f4.casimir) < 1e-12


class _SwappedNome(TorusGeometry):
    """A geometry whose nome_WL is the L/W nome exp(-pi L/W)."""

    @property
    def nome_WL(self):
        return self.nome_LW


class TestQuadrature:
    """The midpoint lattice rule for the defining integral."""

    @pytest.mark.parametrize(
        "L,W",
        [(1.0, 1.0), (2.0, 1.0), (1.0, 0.0165), (1.0, 0.0193), (1.0, 20.0), (1.0, 61.0)],
    )
    def test_n1_matches_closed_form(self, L, W):
        """N = 1 closes on the closed form over the whole accepted W/L range."""
        chk = verify_partition_lattice(TorusGeometry(L, W, 1))
        assert chk.rel_deviation <= 1e-12
        assert chk.estimate.std_error <= QUAD_MAX_REL * chk.estimate.value

    @pytest.mark.parametrize("WL", [0.5, 1.0, 2.0])
    def test_n2_matches_closed_form(self, WL):
        chk = verify_partition_lattice(TorusGeometry(1.0, WL, 2))
        assert chk.rel_deviation <= 1e-12
        nx, ny = chk.estimate.grid
        assert chk.estimate.samples == (nx * ny) ** 2

    def test_grid_follows_the_aspect_ratio(self):
        """The longer side gets sqrt(aspect) times the points of the shorter."""
        wide = verify_partition_lattice(TorusGeometry(1.0, 20.0, 1)).estimate.grid
        tall = verify_partition_lattice(TorusGeometry(20.0, 1.0, 1)).estimate.grid
        assert wide == tall[::-1]
        assert wide[1] == math.ceil(wide[0] * math.sqrt(20.0))

    def test_point_cap_raises(self, monkeypatch):
        monkeypatch.setattr(plasma, "_LATTICE_MAX_POINTS", 100)
        with pytest.raises(QuadratureNonConvergence):
            verify_partition_lattice(TorusGeometry(1.0, 1.0, 2))

    def test_lw_nome_does_not_converge(self, monkeypatch):
        """Negative control: at the L/W nome the integrand is not periodic in
        y, so the rule converges only algebraically and reaches its point cap;
        the criterion fails with it."""
        integrand = plasma._integrand_batch
        monkeypatch.setattr(
            plasma,
            "_integrand_batch",
            lambda x, y, geom: integrand(x, y, _SwappedNome(geom.L, geom.W, geom.N)),
        )
        with pytest.raises(QuadratureNonConvergence):
            verify_partition_lattice(TorusGeometry(2.0, 1.0, 1))
        with pytest.raises(QuadratureNonConvergence):
            check_partition_integrals()

    def test_integrand_positive(self):
        g = TorusGeometry(1.0, 1.0, 1)
        x = np.linspace(0.01, 0.99, 9)[:, None]
        y = np.linspace(0.01, 0.99, 9)[:, None]
        assert np.all(_integrand_batch(x, y, g) >= 0.0)

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("WL", [0.5, 2.0])
    def test_one_configuration_matches_one_row_batch(self, N, WL):
        """One (N,) configuration gives a scalar by theta's scalar path; it
        rounds differently from the array path (np.sin against
        (w - 1/w)/2i), a few ulps per theta factor: over 2000 draws per case
        the worst relative gap was 2.4e-15 at N = 3."""
        g = TorusGeometry(1.0, WL, N)
        r = np.random.default_rng(60 + N)
        for _ in range(50):
            x, y = r.uniform(0, g.L, N), r.uniform(0, g.W, N)
            one = _integrand_batch(x, y, g)
            batch = _integrand_batch(x[None], y[None], g)
            assert np.ndim(one) == 0 and batch.shape == (1,)
            assert abs(one - batch[0]) <= 5e-15 * batch[0]

    def test_printed_constant_fails_the_criterion(self, monkeypatch):
        """Negative control: the N = 1 closed form scaled by the printed
        (2 rho)^(-N/2) constant over the resolved (rho/2)^(-N/2) fails the
        lattice check, while the N = 2 half still passes."""
        closed = plasma.partition_integral_closed

        def printed(N, geom):
            if N != 1:
                return closed(N, geom)
            chain = zn_closed(N, geom)
            return closed(N, geom) * chain.printed_final_WL / chain.final_form_WL

        monkeypatch.setattr(plasma, "partition_integral_closed", printed)
        chk = verify_partition_lattice(TorusGeometry(1.0, 1.0, 1))
        assert chk.rel_deviation > QUAD_MAX_REL
        assert not check_partition_integrals().passed
        n2 = verify_partition_lattice(TorusGeometry(1.0, 1.0, 2))
        assert n2.rel_deviation < QUAD_MAX_REL


class TestMonteCarlo:
    def test_matches_closed_form(self):
        chk = verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=150_000, seed=11)
        pull = abs(chk.estimate.value - chk.closed_form) / chk.estimate.std_error
        assert pull < 4.0

    def test_reproducible(self):
        a = verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=100_000, seed=3)
        b = verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=100_000, seed=3)
        assert a.estimate.value == b.estimate.value
        assert a.estimate.std_error == b.estimate.std_error

    def test_error_scaling(self):
        """4x the samples should roughly halve the standard error."""
        a = verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=100_000, seed=5)
        b = verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=400_000, seed=5)
        ratio = a.estimate.std_error / b.estimate.std_error
        assert abs(ratio - 2.0) < 0.4

    def test_seed_required(self):
        with pytest.raises(SeedRequired):
            verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=100_000, seed=None)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=10_000, seed=1)

    def test_rejects_large_n(self):
        with pytest.raises(DimensionMismatch):
            verify_partition_mc(TorusGeometry(1.0, 1.0, 4), samples=100_000, seed=1)

    @pytest.mark.parametrize("N, WL, samples", [(2, 1.0, 123_457), (3, 0.5, 100_000)])
    def test_row_blocks_match_one_call_per_batch(self, N, WL, samples):
        """The integrand runs over row blocks of _MC_BLOCK; value and error are
        bit-identical to one _integrand_batch call per 100,000-row draw."""
        geom = TorusGeometry(1.0, WL, N)
        rng = np.random.default_rng(29)
        total = total_sq = 0.0
        for b in (100_000, samples - 100_000):
            if b:
                x = rng.uniform(0.0, geom.L, (b, N))
                y = rng.uniform(0.0, geom.W, (b, N))
                vals = _integrand_batch(x, y, geom)
                total += float(np.sum(vals))
                total_sq += float(np.sum(vals * vals))
        mean = total / samples
        vol = geom.area**N
        est = verify_partition_mc(geom, samples=samples, seed=29).estimate
        assert est.value == vol * mean
        assert est.std_error == vol * math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)


class TestIntegrandConsistency:
    def test_matches_boltzmann_times_weight(self):
        """The integrand equals exp(log Boltzmann) * center-of-mass weight,
        divided by the configuration-independent prefactors."""
        from torusgas.electrostatics import nbody_weight, ocp_log_boltzmann
        from torusgas.theta import theta1_prime0

        g = TorusGeometry(1.2, 0.9, 2)
        rng = np.random.default_rng(8)
        tp = theta1_prime0(g.nome_WL).real
        log_pref = 2 * math.log(math.pi * tp / g.L) - (4.0 / 3.0) * math.log(tp / 2.0)
        for _ in range(5):
            cfg = ParticleConfig.random(g, rng)
            direct = float(
                _integrand_batch(cfg.xs[None, :], cfg.ys[None, :], g)[0]
            )
            assembled = math.exp(
                ocp_log_boltzmann(cfg, 2.0, g) - log_pref
            ) * nbody_weight(cfg, g)
            assert abs(direct - assembled) < 1e-10 * max(1.0, direct)

    def test_closed_integral_value_n1(self):
        g = TorusGeometry(2.0, 1.0, 1)
        assert abs(partition_integral_closed(1, g) - g.L / math.sqrt(2 * g.rho)) < 1e-14
