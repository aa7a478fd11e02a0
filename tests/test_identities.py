"""Determinant identities: factorizations, degeneracies, closed-form constants."""

import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from torusgas import identities
from torusgas.cli import main
from torusgas.errors import PrecisionUnreachable, SingularConfiguration
from torusgas.identities import (
    IdentityResidual,
    _draw_pairs,
    _draw_points,
    _frobenius_sides,
    _vandermonde_sides,
    fourier_det_constant,
    frobenius_residual,
    identity_draws,
    theta_vandermonde_residual,
)
from torusgas.selftest import check_identity_suite
from torusgas.theta import Nome, lattice_distance, theta3


class TestThetaVandermonde:
    def test_n1_reduces_to_periodicity(self):
        """For a single point the identity is theta3 pi-periodicity."""
        x1, alpha, q = 0.31 + 0.07j, 0.12, 0.3
        r = theta_vandermonde_residual([x1], alpha, q, 1)
        assert abs(r.lhs - theta3(math.pi * (x1 + alpha - 1), Nome.from_q(q))) < 1e-14
        assert r.rel_residual < 1e-12

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    def test_random_draws(self, N, q):
        rng = np.random.default_rng(70 + N)
        for _ in range(10):
            xs = _draw_points(rng, 1, N, q)[0]
            r = theta_vandermonde_residual(xs, 0.0, q, N)
            assert r.passes(1e-9), (N, q, r)

    def test_nonzero_alpha(self):
        rng = np.random.default_rng(5)
        xs = _draw_points(rng, 1, 3, 0.2)[0]
        r = theta_vandermonde_residual(xs, 0.11 + 0.04j, 0.2, 3)
        assert r.rel_residual < 1e-10

    def test_coincident_points_degenerate(self):
        """Equal coordinates kill both sides; compare absolutely."""
        x = 0.4 + 0.05j
        r = theta_vandermonde_residual([x, x], 0.03, 0.3, 2)
        assert r.near_zero
        assert r.abs_residual < 1e-12 * max(r.scale, 1.0)

    def test_dimension_mismatch(self):
        from torusgas.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            theta_vandermonde_residual([0.1, 0.2], 0.0, 0.3, 3)


class TestFrobenius:
    def test_n1_cancellation(self):
        """1x1 determinant: both sides are theta4(w-z-alpha)/theta1(w-z)."""
        r = frobenius_residual([0.3 + 0.1j], [0.7 - 0.05j], 0.2 + 0.1j, 0.3)
        assert r.rel_residual < 1e-13

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5])
    def test_random_draws(self, N, q):
        rng = np.random.default_rng(80 + N)
        for _ in range(10):
            ws, zs = _draw_pairs(rng, 1, N, q)[0]
            r = frobenius_residual(ws, zs, 0.1 + 0.05j, q)
            assert r.passes(1e-9), (N, q, r)

    def test_coincident_w_degenerate(self):
        w = 0.25 + 0.08j
        r = frobenius_residual([w, w], [0.6, 0.9 + 0.1j], 0.1, 0.25)
        assert r.near_zero
        assert r.abs_residual < 1e-12 * max(r.scale, 1.0)

    def test_permutation_invariance(self):
        """Row/column permutation parity cancels against the pair products."""
        rng = np.random.default_rng(9)
        ws, zs = _draw_pairs(rng, 1, 3, 0.25)[0]
        base = frobenius_residual(ws, zs, 0.1 + 0.05j, 0.25)
        perm = np.array([2, 0, 1])
        swapped = frobenius_residual(ws[perm], zs[perm], 0.1 + 0.05j, 0.25)
        assert abs(base.rel_residual - swapped.rel_residual) < 1e-9
        assert abs(abs(base.lhs) - abs(swapped.lhs)) < 1e-9 * abs(base.lhs)

    def test_alpha_shift_invariance(self):
        """alpha -> alpha + pi leaves the residual unchanged (theta4 period)."""
        rng = np.random.default_rng(19)
        ws, zs = _draw_pairs(rng, 1, 2, 0.3)[0]
        a = frobenius_residual(ws, zs, 0.17, 0.3)
        b = frobenius_residual(ws, zs, 0.17 + math.pi, 0.3)
        assert abs(a.rel_residual - b.rel_residual) < 1e-9

    def test_lattice_separation_raises(self):
        with pytest.raises(SingularConfiguration):
            frobenius_residual([0.5], [0.5], 0.1, 0.3)


class TestFourierDeterminant:
    def test_n1_plain(self):
        r = fourier_det_constant(1)
        assert r.rel_residual < 1e-14
        assert abs(r.rhs - 1.0) < 1e-14

    def test_n1_half_shift(self):
        r = fourier_det_constant(1, half_shift=True)
        assert abs(r.rhs + 1.0) < 1e-14

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("half", [False, True])
    def test_closed_form(self, N, half):
        r = fourier_det_constant(N, half_shift=half)
        assert r.rel_residual < 1e-10


def _per_draw(rng, q, vandermonde_sizes, frobenius_sizes, draws):
    """The gate's draw loop with one public residual call per draw: the
    reference for the stacked evaluation in ``identity_draws``."""
    for N in vandermonde_sizes:
        for d in range(draws):
            xs = _draw_points(rng, 1, N, q)[0]
            yield "vandermonde", N, d, theta_vandermonde_residual(xs, 0.05 + 0.02j, q, N)
    for N in frobenius_sizes:
        for d in range(draws):
            ws, zs = _draw_pairs(rng, 1, N, q)[0]
            yield "frobenius", N, d, frobenius_residual(ws, zs, 0.1 + 0.05j, q)


def _element(r, d):
    """The residual of configuration d of the stacked residual r."""
    return IdentityResidual(**{f.name: getattr(r, f.name)[d] for f in dataclasses.fields(r)})


def _rows(stacks):
    """One (identity, N, draw, residual) row per draw of ``identity_draws``."""
    for identity, N, r in stacks:
        for d in range(len(r.lhs)):
            yield identity, N, d, _element(r, d)


class TestResidualStack:
    """A stacked IdentityResidual is ``from_sides`` of each configuration."""

    def _stacks(self):
        yield (
            np.array([1 + 1j, 2e-9j, 1e-3, -3.0, 1e-20 + 0j]),
            np.array([1 + 1.0000001j, 3e-9j, 2e-3, -3.0, 0j]),
            np.array([1.0, 1e6, 1e6, 2.0, 1e-30]),
        )
        X = _draw_points(np.random.default_rng(11), 4, 3, 0.3)
        X[2, 1] = X[2, 0]   # coincident points: both sides vanish
        yield _vandermonde_sides(X, 0.05 + 0.02j, 0.3)

    def test_stack_is_elementwise(self):
        for lhs, rhs, scale in self._stacks():
            stack = IdentityResidual.from_sides(lhs, rhs, scale)
            passes = stack.passes(1e-9)
            assert passes.shape == lhs.shape and stack.near_zero.any()
            for d in range(len(lhs)):
                one = IdentityResidual.from_sides(complex(lhs[d]), complex(rhs[d]), float(scale[d]))
                for f in dataclasses.fields(one):
                    assert np.ndim(getattr(one, f.name)) == 0, f.name
                    assert getattr(stack, f.name)[d] == getattr(one, f.name), (d, f.name)
                assert isinstance(one.passes(1e-9), np.bool_)
                assert passes[d] == one.passes(1e-9), d

    def test_both_tests_of_passes(self):
        """Well-sized rows by rel_residual, near-zero rows by abs_residual
        against 1e-12 * scale."""
        stack = IdentityResidual.from_sides(*next(self._stacks()))
        assert stack.near_zero.tolist() == [False, True, True, False, False]
        assert stack.passes(1e-9).tolist() == [False, True, False, True, False]
        assert stack.passes(1e-6).tolist() == [True, True, False, True, False]

    def test_public_residuals_are_scalar(self):
        for r in (
            theta_vandermonde_residual([0.1 + 0.02j, 0.45 - 0.1j], 0.05, 0.3),
            frobenius_residual([0.3 + 0.1j], [0.7 - 0.05j], 0.2 + 0.1j, 0.3),
            fourier_det_constant(3),
        ):
            assert all(np.ndim(getattr(r, f.name)) == 0 for f in dataclasses.fields(r))
            assert isinstance(r.passes(1e-9), np.bool_) and r.passes(1e-9)
            assert float(r.rel_residual) < 1e-12


class TestStackedDraws:
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    def test_matches_per_draw_calls(self, q):
        sizes = (range(2, 7), range(1, 5), 20)
        stacked = list(_rows(identity_draws(np.random.default_rng(2024), q, *sizes)))
        single = list(_per_draw(np.random.default_rng(2024), q, *sizes))
        assert [row[:3] for row in stacked] == [row[:3] for row in single]
        for (_, N, d, a), (_, _, _, b) in zip(stacked, single):
            assert abs(a.lhs - b.lhs) <= 1e-14 * abs(b.lhs), (N, d)
            assert abs(a.rhs - b.rhs) <= 1e-14 * abs(b.rhs), (N, d)
            assert a.scale == b.scale and a.near_zero == b.near_zero, (N, d)

    def test_one_lattice_draw_in_a_stack_raises(self):
        rng = np.random.default_rng(3)
        pairs = [_draw_pairs(rng, 1, 3, 0.3)[0] for _ in range(5)]
        Ws = np.array([w for w, _ in pairs])
        Zs = np.array([z for _, z in pairs])
        _frobenius_sides(Ws, Zs, 0.1, 0.3)   # well separated
        Zs[2, 1] = Ws[2, 0] - math.pi        # w_0 - z_1 = pi, a zero of theta1
        with pytest.raises(SingularConfiguration):
            _frobenius_sides(Ws, Zs, 0.1, 0.3)

    def test_cli_rows_match_per_draw_calls(self, tmp_path):
        out = tmp_path / "residuals.csv"
        args = ["verify-identities", "--n", "4", "--draws", "5", "--seed", "7", "--out", str(out)]
        assert CliRunner().invoke(main, args).exit_code == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        rng = np.random.default_rng(7)
        single = list(_per_draw(rng, Nome.from_q(0.3), range(2, 5), range(1, 5), 5))
        assert [(r[0], int(r[1]), int(r[3])) for r in rows] == [row[:3] for row in single]
        for r, (_, _, _, res) in zip(rows, single):
            assert abs(float(r[4]) - res.abs_residual) <= 1e-15
            assert abs(float(r[5]) - res.rel_residual) <= 1e-15


class TestIdentitySuiteControls:
    """The stacked identity-suite criterion fails on known-wrong identities."""

    def test_fails_with_f_N_at_q_squared(self, monkeypatch):
        f_N = identities.f_N

        def wrong(N, nome):
            return f_N(N, Nome.coerce(nome).power(2))

        monkeypatch.setattr(identities, "f_N", wrong)
        assert not check_identity_suite().passed

    def test_fails_without_frobenius_sign(self, monkeypatch):
        sides = identities._frobenius_sides

        def unsigned(Ws, Zs, alpha, nome):
            lhs, rhs, scale = sides(Ws, Zs, alpha, nome)
            N = Ws.shape[1]
            return (-1.0) ** (N * (N - 1) // 2) * lhs, rhs, scale   # undoes (-1)^(N(N-1)/2)

        monkeypatch.setattr(identities, "_frobenius_sides", unsigned)
        assert not check_identity_suite().passed


def _loop_points(rng, N, nome):
    """The per-draw rejection loop the stacked draw replaces, kept here as
    its reference: one attempt at a time, 1000 attempts at most."""
    nome = Nome.coerce(nome)
    for _ in range(1000):
        xs = rng.uniform(0.0, 1.0, N) + 1j * rng.uniform(-0.2, 0.2, N)
        diffs = math.pi * (xs[:, None] - xs[None, :])
        dist = lattice_distance(diffs, nome)
        np.fill_diagonal(dist, np.inf)
        if np.all(dist > 1e-3):
            return xs
    raise SingularConfiguration("could not draw a well-separated configuration")


def _loop_pair(rng, N, nome):
    """Per-draw reference of a species pair: two loop draws, retried as a
    pair up to 1000 times."""
    nome = Nome.coerce(nome)
    for _ in range(1000):
        ws = _loop_points(rng, N, nome)
        zs = _loop_points(rng, N, nome)
        if np.all(lattice_distance(ws[:, None] - zs[None, :], nome) > 1e-3):
            return ws, zs
    raise SingularConfiguration("could not draw a well-separated species pair")


class _Coarse:
    """A generator whose draws are rounded down to quarters of their range,
    so points often coincide and draws are rejected. Counts the values it
    hands out."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.values = 0

    def uniform(self, low, high, size):
        r = np.floor(4.0 * self.rng.random(size)) / 4.0
        self.values += r.size
        return low + (np.asarray(high) - low) * r


class _Constant:
    """A generator whose every value is the middle of its range."""

    def __init__(self):
        self.values = 0

    def uniform(self, low, high, size):
        self.values += math.prod(np.atleast_1d(size))
        return np.broadcast_to((np.asarray(low) + high) / 2.0, size)


class TestStackedDrawStream:
    """The stacked draws pick the per-draw loop's sets from the same stream."""

    @pytest.mark.parametrize("D", [1, 7, 100])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_points_bitwise(self, N, q, D):
        stacked_rng, loop_rng = np.random.default_rng(900 + N), np.random.default_rng(900 + N)
        X = _draw_points(stacked_rng, D, N, q)
        ref = np.array([_loop_points(loop_rng, N, q) for _ in range(D)])
        assert X.shape == (D, N)
        assert np.array_equal(X.view(float), ref.view(float))
        assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("D", [1, 7, 100])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_pairs_bitwise(self, N, q, D):
        stacked_rng, loop_rng = np.random.default_rng(950 + N), np.random.default_rng(950 + N)
        WZ = _draw_pairs(stacked_rng, D, N, q)
        ref = np.array([_loop_pair(loop_rng, N, q) for _ in range(D)])
        assert WZ.shape == (D, 2, N)
        assert np.array_equal(WZ.view(float), ref.view(float))
        assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("N", [2, 4])
    def test_forced_rejections_same_stream(self, N):
        """Coarse draws are rejected often (at N = 4 over a third of the sets
        and most pairs), so the stacked draws take several rounds; they
        still keep the loop's picks and read exactly as many values."""
        stacked, loop = _Coarse(5), _Coarse(5)
        X = _draw_points(stacked, 60, N, 0.3)
        ref = np.array([_loop_points(loop, N, 0.3) for _ in range(60)])
        assert np.array_equal(X.view(float), ref.view(float))
        assert stacked.values == loop.values > 60 * 2 * N
        assert stacked.rng.bit_generator.state == loop.rng.bit_generator.state

        start = stacked.values
        WZ = _draw_pairs(stacked, 30, N, 0.3)
        ref = np.array([_loop_pair(loop, N, 0.3) for _ in range(30)])
        assert np.array_equal(WZ.view(float), ref.view(float))
        assert stacked.values == loop.values > start + 30 * 2 * 2 * N
        assert stacked.rng.bit_generator.state == loop.rng.bit_generator.state

    def test_cap_counts_rejections_in_a_row(self):
        """Over a thousand rejections in total, none a thousand in a row:
        every set is drawn, as in the loop."""
        stacked, loop = _Coarse(6), _Coarse(6)
        X = _draw_points(stacked, 2500, 4, 0.3)
        ref = np.array([_loop_points(loop, 4, 0.3) for _ in range(2500)])
        assert stacked.values > (2500 + 1000) * 2 * 4
        assert np.array_equal(X.view(float), ref.view(float))

    def test_public_draws_are_the_single_case(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(_draw_points(a, 1, 3, 0.3)[0], _loop_points(b, 3, 0.3))
        ws, zs = _draw_pairs(a, 1, 3, 0.3)[0]
        ref_ws, ref_zs = _loop_pair(b, 3, 0.3)
        assert np.array_equal(ws, ref_ws) and np.array_equal(zs, ref_zs)
        assert a.bit_generator.state == b.bit_generator.state

    def test_no_draws(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert _draw_points(rng, 0, 3, 0.3).shape == (0, 3)
        assert _draw_pairs(rng, 0, 3, 0.3).shape == (0, 2, 3)
        assert rng.bit_generator.state == state


class TestDrawCaps:
    """1000 rejections in a row still refuse a draw, after reading as many
    values as the per-draw loop."""

    @pytest.mark.parametrize("D", [1, 5])
    def test_point_sets(self, D):
        stacked, loop = _Constant(), _Constant()
        with pytest.raises(SingularConfiguration, match="configuration"):
            _draw_points(stacked, D, 3, 0.3)
        with pytest.raises(SingularConfiguration, match="configuration"):
            _loop_points(loop, 3, 0.3)
        assert stacked.values == loop.values == 1000 * 2 * 3
        with pytest.raises(SingularConfiguration, match="configuration"):
            _draw_points(_Constant(), 1, 3, 0.3)[0]

    @pytest.mark.parametrize("D", [1, 5])
    def test_species_pairs(self, D):
        """At N = 1 every set is accepted and every pair coincides."""
        stacked, loop = _Constant(), _Constant()
        with pytest.raises(SingularConfiguration, match="species pair"):
            _draw_pairs(stacked, D, 1, 0.3)
        with pytest.raises(SingularConfiguration, match="species pair"):
            _loop_pair(loop, 1, 0.3)
        assert stacked.values == loop.values == 1000 * 2 * 2
        with pytest.raises(SingularConfiguration, match="species pair"):
            _draw_pairs(_Constant(), 1, 1, 0.3)[0]

    def test_species_pair_sets(self):
        """At N >= 2 the first set of a pair already reaches its own cap."""
        stacked, loop = _Constant(), _Constant()
        with pytest.raises(SingularConfiguration, match="configuration"):
            _draw_pairs(stacked, 4, 2, 0.3)
        with pytest.raises(SingularConfiguration, match="configuration"):
            _loop_pair(loop, 2, 0.3)
        assert stacked.values == loop.values == 1000 * 2 * 2


class TestNonFiniteSides:
    """Where the products of theta values leave double range, the stacked
    cores refuse with PrecisionUnreachable: no NaN residual, no raw
    OverflowError and no numpy warning."""

    @pytest.mark.parametrize("WL", [40.0, 0.018])
    def test_frobenius_at_the_ends_of_the_range(self, WL):
        """N = 6 on the gate's point distribution: at W/L = 40 every theta1
        product underflows (0/0), at W/L = 0.018 the separations' does."""
        nome = Nome.from_aspect(WL, 1.0)
        WZ = _draw_pairs(np.random.default_rng(0), 5, 6, nome)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionUnreachable):
                _frobenius_sides(WZ[:, 0], WZ[:, 1], 0.1 + 0.05j, nome)
            for ws, zs in WZ:
                with pytest.raises(PrecisionUnreachable):
                    frobenius_residual(ws, zs, 0.1 + 0.05j, nome)

    def test_vandermonde_refuses_an_overflowed_side(self, monkeypatch):
        X = _draw_points(np.random.default_rng(0), 3, 4, 0.3)
        monkeypatch.setattr(identities, "f_N", lambda N, nome: math.inf)
        with np.errstate(all="ignore"), pytest.raises(PrecisionUnreachable):
            _vandermonde_sides(X, 0.05 + 0.02j, 0.3)

    def test_huge_finite_side_is_refused(self, monkeypatch):
        """A side whose modulus overflows though both parts are finite is
        what made Python's abs raise a raw OverflowError."""
        X = _draw_points(np.random.default_rng(0), 3, 4, 0.3)
        monkeypatch.setattr(identities, "f_N", lambda N, nome: 1e308 + 1e308j)
        with np.errstate(all="ignore"), pytest.raises(PrecisionUnreachable):
            _vandermonde_sides(X, 0.05 + 0.02j, 0.3)
