"""Exact plasma partition function: closed-form chain, free energy, integrals."""

import itertools
import math

import numpy as np
import pytest

from torusgas import plasma
from torusgas.errors import (
    DimensionMismatch,
    ParameterOutOfRange,
    PrecisionUnreachable,
    QuadratureNonConvergence,
)
from torusgas.geometry import ParticleConfig, TorusGeometry
from torusgas.plasma import (
    MC_MAX_PULL,
    QUAD_MAX_REL,
    IntegralEstimate,
    PartitionCheck,
    free_energy,
    partition_integral_closed,
    verify_partition_lattice,
    verify_partition_mc,
    zn_closed,
    _integrand_batch,
)
from torusgas.selftest import check_partition_integrals
from torusgas.theta import Nome, _log_abs_theta1_parts, _reduce_real, eta_q


def _log_abs_of(u, nome):
    """log|theta1(u)| by the integrand's entry, on u's real and imaginary parts."""
    return _log_abs_theta1_parts(np.array([u.real, u.imag]), nome)


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

    def test_alternative_nome_fails_off_square(self):
        chain = zn_closed(2, TorusGeometry(1.0, 2.0, 2))
        assert chain.rel_mismatch_LW > 0.1

    def test_printed_constant_off_by_2_to_N(self):
        """The literal product form pi^N (2 rho)^(-N/2) q^(1/6) prod(1-q^2k)^2,
        summed here term by term, is the chain's over exactly 2^N."""
        q = math.exp(-math.pi * 1.5)
        poch = np.prod([1 - q ** (2 * k) for k in range(1, 60)])
        for N in (1, 2, 4):
            rho = N / 1.5
            printed = math.pi**N * (2 * rho) ** (-N / 2) * q ** (1 / 6) * poch**2
            chain = zn_closed(N, TorusGeometry(1.0, 1.5, N))
            assert abs(chain.final_form_WL / printed - 2.0**N) < 1e-9

    def test_explicit_n1_square(self):
        """Direct product evaluation at L = W = 1."""
        q = math.exp(-math.pi)
        poch = np.prod([1 - q ** (2 * k) for k in range(1, 60)])
        expected = math.pi * math.sqrt(2.0) * math.exp(-math.pi / 6) * poch**2
        chain = zn_closed(1, TorusGeometry(1.0, 1.0, 1))
        assert abs(chain.final_form_WL - expected) < 1e-12
        assert abs(chain.middle_form - expected) < 1e-12


class TestCellsOutOfDoubleRange:
    """Square cells whose area, density or chain value leaves double range
    are refused by name, not with OverflowError, ZeroDivisionError or
    ValueError, nor read as a middle form of 0.0."""

    def test_chain_out_of_range_at_three_particles(self):
        """The middle form underflows, so rel_mismatch_WL would divide by 0."""
        with pytest.raises(PrecisionUnreachable):
            zn_closed(3, TorusGeometry(1e-150, 1e-150, 3))

    @pytest.mark.parametrize("L", [1e200, 1e-300, 1e-160])   # L*W inf, 0 and subnormal
    def test_area_or_density_out_of_range(self, L):
        for closed_form in (zn_closed, free_energy, partition_integral_closed):
            with pytest.raises(ParameterOutOfRange, match="L\\*W"):
                closed_form(1, TorusGeometry(L, L, 1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "route, L, N",
        [("lattice", 1e-300, 1), ("mc", 1e-300, 2), ("lattice", 1e200, 1)],
        ids=["lattice-area-0", "mc-area-0", "lattice-area-inf"],
    )
    def test_numerical_routes_refuse_before_any_numerics(self, route, L, N, monkeypatch):
        """verify_partition_lattice and verify_partition_mc refuse the cell by
        name before any theta call or draw, with no warning."""
        def no_numerics(*args):
            raise AssertionError("numerics ran")

        monkeypatch.setattr(plasma, "_log_abs_theta1_parts", no_numerics)
        call = {"lattice": verify_partition_lattice,
                "mc": lambda g: verify_partition_mc(g, 100_000, 1)}[route]
        with pytest.raises(ParameterOutOfRange, match="L\\*W"):
            call(TorusGeometry(L, L, N))


class TestFreeEnergy:
    def test_bulk_term_per_particle(self):
        for N in (1, 3, 5):
            g = TorusGeometry(1.0, 2.0, N)
            fe = free_energy(N, g)
            assert abs(fe.bulk / N - 0.5 * math.log(g.rho / (2 * math.pi**2))) < 1e-14

    def test_finite_size_term_value(self):
        g = TorusGeometry(1.0, 1.0, 2)
        fe = free_energy(2, g)
        assert abs(fe.casimir + 2.0 * math.log(eta_q(g.nome_WL))) < 1e-14

    def test_total_is_minus_log_z(self):
        g = TorusGeometry(1.0, 1.0, 4)
        fe = free_energy(4, g)
        assert abs(fe.total + zn_closed(4, g).log_middle) < 1e-12

    def test_extensivity(self):
        """Doubling N at fixed density and aspect ratio changes beta*F by the
        bulk only; the finite-size term drops out of the difference."""
        g4 = TorusGeometry(2.0, 2.0, 4)
        g8 = TorusGeometry(2 * math.sqrt(2), 2 * math.sqrt(2), 8)
        f4, f8 = free_energy(4, g4), free_energy(8, g8)
        assert abs((f8.total - 2 * f4.total) + f4.casimir) < 1e-12


def _per_point_sum(geom, nx, ny, block=8192):
    """The integrand summed over the midpoint grid point by point, through
    _integrand_batch in flat-index row blocks: the reference for the tables."""
    N = geom.N
    shape = (nx,) * N + (ny,) * N
    size = math.prod(shape)
    total = 0.0
    for start in range(0, size, block):
        idx = np.unravel_index(np.arange(start, min(start + block, size)), shape)
        x = (np.stack(idx[:N], axis=-1) + 0.5) * (geom.L / nx)
        y = (np.stack(idx[N:], axis=-1) + 0.5) * (geom.W / ny)
        total += float(np.sum(_integrand_batch(x, y, geom)))
    return total


def _grid(n, WL):
    """(n_x, n_y) of the lattice rule's ladder step n at L = 1, W = WL."""
    return tuple(math.ceil(n * max(1.0, math.sqrt(r))) for r in (1.0 / WL, WL))


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

    @pytest.mark.parametrize("N", [3, 4, 6])
    def test_three_or_more_particles_refused_before_any_grid(self, N, monkeypatch):
        """The rule closes for N = 1 and 2 only: N >= 3 is refused before
        any log|theta1| table is built."""
        def refuse(parts, nome):
            raise AssertionError("a log|theta1| table built for N >= 3")

        monkeypatch.setattr(plasma, "_log_abs_theta1_parts", refuse)
        with pytest.raises(QuadratureNonConvergence):
            verify_partition_lattice(TorusGeometry(1.0, 1.0, N))

    def test_lw_nome_does_not_converge(self, monkeypatch):
        """Negative control: at the L/W nome the integrand is not periodic in
        y, so the rule converges only algebraically and reaches its point cap;
        the criterion fails with it. Every log|theta1| table is taken at
        tau' = -1/tau = iL/W in place of iW/L."""
        log_abs = plasma._log_abs_theta1_parts
        monkeypatch.setattr(
            plasma, "_log_abs_theta1_parts",
            lambda parts, nome: log_abs(parts, Nome.from_tau(-1.0 / nome.tau)))
        with pytest.raises(QuadratureNonConvergence):
            verify_partition_lattice(TorusGeometry(2.0, 1.0, 1))
        with pytest.raises(QuadratureNonConvergence):
            check_partition_integrals()

    @pytest.mark.parametrize("N, n", [(1, 16), (2, 16), (2, 4)])
    @pytest.mark.parametrize("WL", [0.5, 1.0, 2.0, 5.0])
    def test_tables_match_the_per_point_sum(self, N, n, WL):
        """The grid summed from log|theta1| tables at the distinct pair
        differences and centre-of-mass sums equals the per-point sum: at
        N = 2, n = 4 one block holds the whole grid, and at W/L = 5 and 2 the
        (i_2, k_1, k_2) pattern is larger than a block."""
        geom = TorusGeometry(1.0, WL, N)
        grid = _grid(n, WL)
        reference = _per_point_sum(geom, *grid)
        assert abs(plasma._lattice_sum(geom, *grid) - reference) <= 1e-14 * reference

    @pytest.mark.parametrize("WL, value", [(0.5, "0x1.0000000000002p-2"),
                                           (1.0, "0x1.ffffffffffffep-2"),
                                           (2.0, "0x1.0000000000001p+0")])
    def test_pinned_n2_estimates(self, WL, value):
        """The N = 2 lattice estimates, bit for bit: the table indices may be
        built in any way that takes the same entries into the same blocks."""
        assert verify_partition_lattice(TorusGeometry(1.0, WL, 2)).estimate.value.hex() == value

    @pytest.mark.parametrize("nx, ny", [(45, 31), (3, 95)])
    def test_blocks_within_rows(self, nx, ny):
        """Grids whose (i_2, k_1, k_2) pattern is larger than a block: blocks of
        (k_1, k_2) squares that straddle two i_1 rows (45 x 31) and blocks of
        (k_2) rows within one (i_1, i_2) (3 x 95) sum as the per-point sum."""
        geom = TorusGeometry(1.0, 1.0, 2)
        reference = _per_point_sum(geom, nx, ny)
        assert abs(plasma._lattice_sum(geom, nx, ny) - reference) <= 1e-14 * reference

    @pytest.mark.parametrize("WL", [0.5, 2.0])
    def test_dropped_midpoint_offset_misses(self, monkeypatch, WL):
        """Negative control: a centre-of-mass table without the N/2 midpoint
        offset of its index sums (its arguments moved back by N/2 grid steps
        along each axis) misses the per-point sum."""
        geom = TorusGeometry(1.0, WL, 2)
        grid = _grid(16, WL)
        reference = _per_point_sum(geom, *grid)
        log_abs, calls = plasma._log_abs_theta1_parts, itertools.count()

        def dropped(parts, nome):   # two tables per N = 2 grid, the centre of mass first
            if next(calls) % 2 == 0:
                re, im = parts
                parts = np.stack([re - (geom.N / 2) * (re[1, 0] - re[0, 0]),
                                  im - (geom.N / 2) * (im[0, 1] - im[0, 0])])
            return log_abs(parts, nome)

        monkeypatch.setattr(plasma, "_log_abs_theta1_parts", dropped)
        assert abs(plasma._lattice_sum(geom, *grid) - reference) > 1e-6 * reference

    def test_integrand_positive(self):
        g = TorusGeometry(1.0, 1.0, 1)
        x = np.linspace(0.01, 0.99, 9)[:, None]
        y = np.linspace(0.01, 0.99, 9)[:, None]
        assert np.all(_integrand_batch(x, y, g) >= 0.0)

    @staticmethod
    def _integrand_np_sum(x, y, geom):
        """The integrand with its centre-of-mass and Gaussian sums taken by
        np.sum(axis=-1): the reference for its column sums."""
        L, W, N = geom.L, geom.W, x.shape[-1]
        z = x + 1j * y
        com = math.pi * np.sum(np.conj(z) - (L - 1j * W) / 2.0, axis=-1) / L
        pairs = (math.pi * (z[..., k] - z[..., j]) / L for j, k in itertools.combinations(range(N), 2))
        gaussian = -math.pi * (N / (L * W)) * np.sum((y - W / 2.0) ** 2, axis=-1)
        return plasma._integrand(
            gaussian, (_log_abs_of(u, geom.nome_WL) for u in itertools.chain([com], pairs)))

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("WL", [0.5, 2.0])
    def test_column_sums_match_np_sum(self, N, WL):
        """On (rows, N) blocks the column sums are np.sum's bits up to N = 3,
        the Monte Carlo's sizes. Past it numpy may add complex terms (from
        N = 4) and real ones (from N = 8) in another order, which moves the
        exponent by rounding only: within 2e-13 relative, where the largest
        seen over these draws is 5.7e-14 (N = 8, W/L = 2)."""
        g = TorusGeometry(1.0, WL, N)
        r = np.random.default_rng(90 + N)
        x, y = r.uniform(0.0, g.L, (4096, N)), r.uniform(0.0, g.W, (4096, N))
        columns, reference = _integrand_batch(x, y, g), self._integrand_np_sum(x, y, g)
        if N <= 3:
            assert np.array_equal(columns, reference)
        else:
            assert np.max(np.abs(columns - reference) / reference) <= 2e-13

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("WL", [0.5, 2.0])
    def test_one_configuration_matches_one_row_batch(self, N, WL):
        """One (N,) configuration gives a scalar; theta runs the same code
        for it as for the one-row batch, but numpy's scalar and array
        arithmetic may round a product apart by an ulp per theta factor."""
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
            return closed(N, geom) * 2.0**-N

        monkeypatch.setattr(plasma, "partition_integral_closed", printed)
        chk = verify_partition_lattice(TorusGeometry(1.0, 1.0, 1))
        assert chk.rel_deviation > QUAD_MAX_REL
        assert not check_partition_integrals().passed
        n2 = verify_partition_lattice(TorusGeometry(1.0, 1.0, 2))
        assert n2.rel_deviation < QUAD_MAX_REL


class TestFactorParts:
    """The integrand and the lattice rule hand log|theta1| the real and
    imaginary parts of each factor's argument, not a complex array; the parts
    must be those of the complex build, bit for bit."""

    @staticmethod
    def _recorded(monkeypatch, run):
        seen, real = [], plasma._log_abs_theta1_parts

        def recording(parts, nome):
            seen.append(parts.copy())
            return real(parts, nome)

        monkeypatch.setattr(plasma, "_log_abs_theta1_parts", recording)
        run()
        return seen

    @staticmethod
    def _same_bits(parts, z):
        return all(np.array_equal(np.ascontiguousarray(p).view(np.uint64),
                                  np.ascontiguousarray(q).view(np.uint64))
                   for p, q in zip(parts, (z.real, z.imag)))

    @pytest.mark.parametrize("rows", [None, 1, 4096])
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("WL", [0.05, 0.5, 2.0])
    def test_integrand_parts_are_the_complex_build(self, WL, N, rows, monkeypatch):
        """The centre of mass pi sum (conj(z_j) - (L - iW)/2) / L and then the
        pairs pi (z_k - z_j) / L in (j, k) order, at in-cell coordinates on a
        cell whose 1/L is inexact, for one configuration and for blocks."""
        g = TorusGeometry(1.3, 1.3 * WL, N)
        r = np.random.default_rng(45 + N)
        shape = (N,) if rows is None else (rows, N)
        x, y = r.uniform(0.0, g.L, shape), r.uniform(0.0, g.W, shape)
        seen = self._recorded(monkeypatch, lambda: _integrand_batch(x, y, g))
        z = x + 1j * y
        com = math.pi * np.sum(np.conj(z) - (g.L - 1j * g.W) / 2.0, axis=-1) / g.L
        pairs = [math.pi * (z[..., k] - z[..., j]) / g.L
                 for j, k in itertools.combinations(range(N), 2)]
        assert len(seen) == 1 + len(pairs)
        for parts, u in zip(seen, [com] + pairs):
            assert self._same_bits(parts, u)

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("WL", [0.5, 2.0])
    def test_lattice_tables_are_the_complex_build(self, WL, N, monkeypatch):
        """The centre-of-mass table pi (conj(sum x + i sum y) - N (L - iW)/2)
        / L at the grid's index sums and, at N = 2, the pair table pi (dx + i
        dy) / L at its index differences."""
        g = TorusGeometry(1.3, 1.3 * WL, N)
        nx, ny = _grid(4, WL)
        seen = self._recorded(monkeypatch, lambda: plasma._lattice_sum(g, nx, ny))
        L, W = g.L, g.W
        sums = np.arange(N * (nx - 1) + 1), np.arange(N * (ny - 1) + 1)
        sx, sy = (sums[0] + N / 2.0) * (L / nx), (sums[1] + N / 2.0) * (W / ny)
        tables = [math.pi * (np.conj(sx[:, None] + 1j * sy) - N * (L - 1j * W) / 2.0) / L]
        if N == 2:
            dx, dy = np.arange(1 - nx, nx), np.arange(1 - ny, ny)
            tables.append(math.pi * (dx[:, None] * (L / nx) + 1j * (dy * (W / ny))) / L)
        assert len(seen) == len(tables)
        for parts, u in zip(seen, tables):
            assert self._same_bits(parts, u)


class TestIntegrandPeriodicity:
    """The integrand is periodic in every coordinate: it wraps each one into
    the cell, and its theta factors enter as log|theta1|, quasi-periodicity
    scale included, summed into one real exponent."""

    @staticmethod
    def _worst_shift_gap(geom, periods=(1, 5), x=None, y=None):
        r = np.random.default_rng(71 + geom.N)
        x = r.uniform(0.0, geom.L, (100, geom.N)) if x is None else x
        y = r.uniform(0.0, geom.W, (100, geom.N)) if y is None else y
        base = _integrand_batch(x, y, geom)
        worst = 0.0
        for a, b in itertools.product(periods, repeat=2):
            for j in (0, geom.N - 1):
                xs, ys = x.copy(), y.copy()
                xs[:, j] += a * geom.L
                ys[:, j] += b * geom.W
                worst = max(worst, float(np.max(np.abs(_integrand_batch(xs, ys, geom) - base) / base)))
        return worst

    @staticmethod
    def _centre_of_mass_shift_gap(geom):
        """Moving every particle by W/N moves the centre-of-mass argument by
        one period pi*tau; its factor's scale and the Gaussian absorb it."""
        r = np.random.default_rng(73 + geom.N)
        x = r.uniform(0.0, geom.L, (100, geom.N))
        y = r.uniform(0.0, geom.W, (100, geom.N))
        base = _integrand_batch(x, y, geom)
        moved = _integrand_batch(x, y + geom.W / geom.N, geom)
        return float(np.max(np.abs(moved - base) / base))

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("WL", [0.5, 2.0])
    def test_shift_by_periods(self, N, WL):
        assert self._worst_shift_gap(TorusGeometry(1.0, WL, N)) <= 1e-12

    @pytest.mark.parametrize("periods", [1e4, 1e8])
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("WL", [0.5, 2.0])
    def test_shift_far_outside_the_cell(self, periods, N, WL):
        """Coordinates on a 2^-20 grid, so that a shift by up to 1e8 periods
        is exact and wrapping it back gives the same integrand."""
        geom = TorusGeometry(1.0, WL, N)
        r = np.random.default_rng(79 + N)
        x = np.floor(r.uniform(0.0, geom.L, (100, N)) * 2**20) / 2**20
        y = np.floor(r.uniform(0.0, geom.W, (100, N)) * 2**20) / 2**20
        assert self._worst_shift_gap(geom, (int(periods),), x, y) <= 1e-12

    def test_centre_of_mass_shift(self):
        assert self._centre_of_mass_shift_gap(TorusGeometry(1.0, 2.0, 3)) <= 1e-12

    def test_dropped_scale_breaks_periodicity(self, monkeypatch):
        """Negative control: an integrand that leaves the centre-of-mass
        factor's quasi-periodicity scale out of the exponent is not periodic in
        the centre of mass (every particle moved by W/N). At W/L = 2 theta1 is
        summed directly, so log|theta1| at the reduced argument is the log of
        the series alone, without the scale."""
        real, calls = plasma._log_abs_theta1_parts, itertools.count()

        def dropped(parts, nome):   # the first of the 1 + N(N-1)/2 = 4 calls per integrand
            if next(calls) % 4 == 0:
                parts = _reduce_real(parts, nome.tau.imag)[0]
            return real(parts, nome)

        monkeypatch.setattr(plasma, "_log_abs_theta1_parts", dropped)
        assert self._centre_of_mass_shift_gap(TorusGeometry(1.0, 2.0, 3)) > 1e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unrepresentable_value_is_named(self):
        """A value of finite factors that leaves double range raises a named
        error, with no numpy warning first; a nan x or y gives nan, as theta
        does, and a finite y far out wraps into the cell."""
        with pytest.raises(PrecisionUnreachable):
            plasma._integrand(np.zeros(1), [np.full(1, 400.0)])   # e^800
        g = TorusGeometry(1.0, 2.0, 2)
        x = np.array([[0.2, 0.7]])
        assert np.isnan(_integrand_batch(x, np.array([[0.3, math.nan]]), g)).all()
        nan_x = np.array([[math.nan, 0.7]])
        assert np.isnan(_integrand_batch(nan_x, np.array([[0.3, 0.5]]), g)).all()
        far = _integrand_batch(x, np.array([[0.3, 1e160]]), g)
        assert np.isfinite(far).all() and (far > 0).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_running_product_overflow_is_summed_in_logs(self):
        """A row whose |theta1|^2 factors overflow as a running product but
        not in total is in range, since the factors enter as log|theta1|; a
        zero factor (log 0 = -inf) gives 0. No double y has e^y = 30.0 (the
        nearest are 3 ulps below and 1 above), so the row of 2 * 3 * 5 is 30
        to 4 ulps (3 here, a libm's exp or log may move it by one)."""
        def logs(*squares):   # log|theta1| of factors with these |theta1|^2
            with np.errstate(divide="ignore"):
                return 0.5 * np.log(np.array(squares))

        factors = [logs(1e200, 2.0, 1e200), logs(1e200, 3.0, 1e200), logs(1e-250, 5.0, 0.0)]
        vals = plasma._integrand(np.zeros(3), factors)
        assert vals[0] == pytest.approx(1e150, rel=1e-13)
        assert abs(vals[1] - 30.0) <= 4 * math.ulp(30.0) and vals[2] == 0.0
        with pytest.raises(PrecisionUnreachable):   # 1e600: out of range in total
            plasma._integrand(np.zeros(1), [logs(1e200) for _ in range(3)])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("N, WL", [(8, 61.0), (2, 400.0), (3, 0.0165)])
    def test_wide_torus_many_particles(self, N, WL):
        """Every row equals e^(2 log) of log|theta1| by its entry
        ``_log_abs_theta1_parts`` on the complex build's parts bit for bit,
        the measured agreement: doubling a sum is exact, so the integrand's
        2 (gaussian + sum of logs) is the reference's sum of doubled terms. At N = 8, W/L = 61 every row's value is below e^-700
        and 176 of 200 rows' 29 |theta1|^2 factors leave double range as a
        running product; at W/L = 400, past the underflow of q, 22 rows do;
        W/L = 0.0165 is at the nome cap. Rows representable as a subnormal
        are not read as 0."""
        g = TorusGeometry(1.0, WL, N)
        r = np.random.default_rng(1)
        x, y = r.uniform(0.0, g.L, (200, N)), r.uniform(0.0, g.W, (200, N))
        z = x + 1j * y
        log_value = -2.0 * math.pi * (g.N / g.area) * np.sum((y - g.W / 2.0) ** 2, axis=1)
        com = math.pi * np.sum(np.conj(z) - (g.L - 1j * g.W) / 2.0, axis=1) / g.L
        log_value += 2.0 * _log_abs_of(com, g.nome_WL)
        for j, k in itertools.combinations(range(N), 2):
            log_value += 2.0 * _log_abs_of(math.pi * (z[:, k] - z[:, j]) / g.L, g.nome_WL)
        if N == 8:
            assert np.max(log_value) < -700.0
        vals = _integrand_batch(x, y, g)
        assert np.array_equal(vals, np.exp(log_value))
        # e^-745.0 is above half the smallest subnormal, so it rounds to a nonzero
        assert np.all(vals[log_value > -745.0] > 0.0) and np.any(vals > 0.0)


class TestPull:
    def test_zero_error_measure(self):
        """Two lattice grids that agree bit for bit give the error measure
        0.0: the pull is 0.0 on the closed form and inf off it."""
        est = IntegralEstimate(0.75, 0.0, 256, 0, (16, 16))
        assert PartitionCheck(est, 0.75, 0.0).pull == 0.0
        off = math.nextafter(0.75, 1.0)
        assert PartitionCheck(est, off, (off - 0.75) / off).pull == math.inf


class TestPassRule:
    """A lattice check (``grid`` set) passes on its relative deviation below
    QUAD_MAX_REL, a Monte Carlo check on its pull below MC_MAX_PULL; nan fails."""

    LATTICE = IntegralEstimate(1.0, 0.0, 4, 0, (2, 2))
    MC = IntegralEstimate(1.0, 0.1, 100_000, 9)

    @pytest.mark.parametrize("rel, passed", [(0.5, True), (1.0, False), (2.0, False)])
    def test_lattice_rule(self, rel, passed):
        # a pull near 1e288 would fail the pull rule: only the deviation counts
        est = IntegralEstimate(1.0, 1e-300, 4, 0, (2, 2))
        assert PartitionCheck(est, 1.0 + 1e-12, rel * QUAD_MAX_REL).passed is passed

    @pytest.mark.parametrize("pull, passed", [(0.5, True), (2.0, False)])
    def test_monte_carlo_rule(self, pull, passed):
        # a 10% deviation would fail the lattice rule: only the pull counts
        chk = PartitionCheck(self.MC, 1.0 + pull * MC_MAX_PULL * self.MC.std_error, 0.1)
        assert chk.passed is passed

    def test_nan_fails(self):
        assert not PartitionCheck(self.LATTICE, 1.0, math.nan).passed
        nan_mc = IntegralEstimate(math.nan, 0.1, 100_000, 9)
        assert not PartitionCheck(nan_mc, 1.0, math.nan).passed


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
        with pytest.raises(ParameterOutOfRange):
            verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=100_000, seed=None)

    def test_insufficient_samples(self):
        with pytest.raises(ParameterOutOfRange):
            verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=10_000, seed=1)

    def test_rejects_large_n(self):
        with pytest.raises(DimensionMismatch):
            verify_partition_mc(TorusGeometry(1.0, 1.0, 4), samples=100_000, seed=1)

    @pytest.mark.parametrize("N, WL, samples", [(2, 1.0, 123_457), (3, 0.5, 100_000)])
    def test_row_blocks_match_one_call_per_batch(self, N, WL, samples):
        """The blocks draw their own rows and run the integrand over them;
        value and error are bit-identical to one ``uniform`` draw of x, then
        y, and one _integrand_batch call per 100,000-row batch."""
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


class TestMonteCarloBlocks:
    """The row blocks of a batch spread over threads, one per CPU."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [100_000, 23_457, 1])
    def test_row_blocks_are_even(self, rows, workers):
        """A batch splits into consecutive blocks that cover it, differ by at
        most one row and hold 1 to _MC_ROWS rows each; their count is a
        multiple of the workers whenever there are that many rows."""
        blocks = plasma._row_blocks(rows, workers)
        sizes = [block.stop - block.start for block in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert 1 <= min(sizes) and max(sizes) <= plasma._MC_ROWS
        assert max(sizes) - min(sizes) <= 1
        assert rows < workers or len(blocks) % workers == 0
        if (rows, workers) == (100_000, 2):
            assert sizes == [25_000] * 4

    @pytest.mark.parametrize("N, WL, samples",
                             [(2, 1.0, 123_457), (3, 0.5, 100_000), (3, 2.0, 100_001)])
    def test_thread_count_keeps_the_bits(self, N, WL, samples, monkeypatch):
        """One CPU (no thread), two and three give bit-identical results; at
        100,001 samples the second batch is one row, so one block."""
        geom = TorusGeometry(1.0, WL, N)
        estimates = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(plasma, "_cpu_count", lambda cpus=cpus: cpus)
            est = verify_partition_mc(geom, samples=samples, seed=17).estimate
            estimates.add((est.value, est.std_error))
        assert len(estimates) == 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_error_in_a_block_reaches_the_caller(self, cpus, monkeypatch):
        """A PrecisionUnreachable in the third block, on the calling thread
        (one or two CPUs) or on the pool (three), reaches the caller; the next
        call still gives the values of an undisturbed one."""
        geom = TorusGeometry(1.0, 1.0, 2)
        clean = verify_partition_mc(geom, samples=100_000, seed=4).estimate
        start = plasma._row_blocks(100_000, cpus)[2].start
        third = np.random.default_rng(3).uniform(0.0, geom.L, (100_000, 2))[start]
        real = plasma._integrand_batch

        def failing(x, y, geom, nome=None):
            if np.array_equal(x[0], third):
                raise PrecisionUnreachable("third block")
            return real(x, y, geom, nome)

        monkeypatch.setattr(plasma, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(plasma, "_integrand_batch", failing)
        with pytest.raises(PrecisionUnreachable, match="third block"):
            verify_partition_mc(geom, samples=100_000, seed=3)
        assert verify_partition_mc(geom, samples=100_000, seed=4).estimate == clean

    def test_blocks_run_under_the_callers_error_state(self, monkeypatch):
        """Every block, on the calling thread or the pool's, sees the
        caller's numpy error state."""
        real, seen = plasma._integrand_batch, []

        def recording(x, y, geom, nome=None):
            seen.append(np.geterr()["divide"])
            return real(x, y, geom, nome)

        monkeypatch.setattr(plasma, "_cpu_count", lambda: 2)
        monkeypatch.setattr(plasma, "_integrand_batch", recording)
        with np.errstate(divide="raise"):
            verify_partition_mc(TorusGeometry(1.0, 1.0, 2), samples=100_000, seed=1)
        assert seen == ["raise"] * len(plasma._row_blocks(100_000, 2))


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
