"""Determinant identities: factorizations, degeneracies, closed-form constants."""

import csv
import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from torusgas import identities, theta
from torusgas.cli import main
from torusgas.errors import (
    CoincidentPoints,
    DimensionMismatch,
    NomeOutOfRange,
    ParameterOutOfRange,
    PrecisionUnreachable,
)
from torusgas.identities import (
    IdentityResidual,
    _draw,
    frobenius_residual,
    identity_draws,
    theta_vandermonde_residual,
)
from torusgas.selftest import check_identity_suite
from torusgas.theta import Nome, lattice_distance, theta3

from oracles import fourier_det_constant


def _points(rng, D, N, nome):
    """D point sets (D, N) as ``identity_draws`` draws them for Vandermonde."""
    return _draw(rng, D, [(1, N, math.pi)], nome)[0][:, 0]


def _species_pairs(rng, D, N, nome):
    """D species pairs (D, 2, N) as ``identity_draws`` draws them for Frobenius."""
    return _draw(rng, D, [(2, N, 1.0)], nome)[0]


class TestThetaVandermonde:
    def test_n1_reduces_to_periodicity(self):
        """For a single point the identity is theta3 pi-periodicity."""
        x1, alpha, q = 0.31 + 0.07j, 0.12, 0.3
        r = theta_vandermonde_residual([x1], alpha, q)
        assert abs(r.lhs - theta3(math.pi * (x1 + alpha - 1), Nome.from_q(q))) < 1e-14
        assert r.rel_residual < 1e-12

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    def test_random_draws(self, N, q):
        rng = np.random.default_rng(70 + N)
        for _ in range(10):
            xs = _points(rng, 1, N, q)[0]
            r = theta_vandermonde_residual(xs, 0.0, q)
            assert r.passes(1e-9), (N, q, r)

    def test_nonzero_alpha(self):
        rng = np.random.default_rng(5)
        xs = _points(rng, 1, 3, 0.2)[0]
        r = theta_vandermonde_residual(xs, 0.11 + 0.04j, 0.2)
        assert r.rel_residual < 1e-10

    def test_coincident_points_degenerate(self):
        """Equal coordinates kill both sides; compare absolutely."""
        x = 0.4 + 0.05j
        r = theta_vandermonde_residual([x, x], 0.03, 0.3)
        assert r.near_zero
        assert r.abs_residual < 1e-12 * max(r.scale, 1.0)

    def test_dimension_mismatch(self):
        """One configuration (N,) or a stack (D, N), nothing else."""
        for xs in (0.1, np.full((2, 2, 3), 0.1)):
            with pytest.raises(DimensionMismatch):
                theta_vandermonde_residual(xs, 0.0, 0.3)


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
            ws, zs = _species_pairs(rng, 1, N, q)[0]
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
        ws, zs = _species_pairs(rng, 1, 3, 0.25)[0]
        base = frobenius_residual(ws, zs, 0.1 + 0.05j, 0.25)
        perm = np.array([2, 0, 1])
        swapped = frobenius_residual(ws[perm], zs[perm], 0.1 + 0.05j, 0.25)
        assert abs(base.rel_residual - swapped.rel_residual) < 1e-9
        assert abs(abs(base.lhs) - abs(swapped.lhs)) < 1e-9 * abs(base.lhs)

    def test_alpha_shift_invariance(self):
        """alpha -> alpha + pi leaves the residual unchanged (theta4 period)."""
        rng = np.random.default_rng(19)
        ws, zs = _species_pairs(rng, 1, 2, 0.3)[0]
        a = frobenius_residual(ws, zs, 0.17, 0.3)
        b = frobenius_residual(ws, zs, 0.17 + math.pi, 0.3)
        assert abs(a.rel_residual - b.rel_residual) < 1e-9

    def test_lattice_separation_raises(self):
        with pytest.raises(CoincidentPoints):
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
            xs = _points(rng, 1, N, q)[0]
            yield "vandermonde", N, d, theta_vandermonde_residual(xs, 0.05 + 0.02j, q)
    for N in frobenius_sizes:
        for d in range(draws):
            ws, zs = _species_pairs(rng, 1, N, q)[0]
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
        X = _points(np.random.default_rng(11), 4, 3, 0.3)
        X[2, 1] = X[2, 0]   # coincident points: both sides vanish
        r = theta_vandermonde_residual(X, 0.05 + 0.02j, 0.3)
        yield r.lhs, r.rhs, r.scale

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

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_stack_is_its_rows(self, N):
        """A stack's residuals are those of its rows, each evaluated alone, to
        1e-14 relative: a row's theta calls run the point kernel and a stack's
        the array path, which round apart by a few eps."""
        rng = np.random.default_rng(12)
        X, WZ = _points(rng, 6, N, 0.3), _species_pairs(rng, 6, N, 0.3)
        cases = [
            (theta_vandermonde_residual(X, 0.05, 0.3),
             lambda d: theta_vandermonde_residual(X[d], 0.05, 0.3)),
            (frobenius_residual(WZ[:, 0], WZ[:, 1], 0.1, 0.3),
             lambda d: frobenius_residual(WZ[d, 0], WZ[d, 1], 0.1, 0.3)),
        ]
        for stack, row in cases:
            for d in range(6):
                a, b = _element(stack, d), row(d)
                assert abs(a.lhs - b.lhs) <= 1e-14 * abs(b.lhs), d
                assert abs(a.rhs - b.rhs) <= 1e-14 * abs(b.rhs), d
                assert abs(a.scale - b.scale) <= 1e-14 * b.scale and a.near_zero == b.near_zero, d


class TestStackedDraws:
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    def test_matches_per_draw_calls(self, q):
        """Stacked draws equal per-draw calls to 1e-14 relative, as their rows
        do (``TestResidualStack.test_stack_is_its_rows``)."""
        sizes = (range(2, 7), range(1, 5), 20)
        stacked = list(_rows(identity_draws(np.random.default_rng(2024), q, *sizes)))
        single = list(_per_draw(np.random.default_rng(2024), q, *sizes))
        assert [row[:3] for row in stacked] == [row[:3] for row in single]
        for (_, N, d, a), (_, _, _, b) in zip(stacked, single):
            assert abs(a.lhs - b.lhs) <= 1e-14 * abs(b.lhs), (N, d)
            assert abs(a.rhs - b.rhs) <= 1e-14 * abs(b.rhs), (N, d)
            assert abs(a.scale - b.scale) <= 1e-14 * b.scale and a.near_zero == b.near_zero, (N, d)

    def test_one_lattice_draw_in_a_stack_raises(self):
        rng = np.random.default_rng(3)
        pairs = [_species_pairs(rng, 1, 3, 0.3)[0] for _ in range(5)]
        Ws = np.array([w for w, _ in pairs])
        Zs = np.array([z for _, z in pairs])
        frobenius_residual(Ws, Zs, 0.1, 0.3)   # well separated
        Zs[2, 1] = Ws[2, 0] - math.pi          # w_0 - z_1 = pi, a zero of theta1
        with pytest.raises(CoincidentPoints):
            frobenius_residual(Ws, Zs, 0.1, 0.3)

    def test_cli_rows_match_per_draw_calls(self, tmp_path):
        out = tmp_path / "residuals.csv"
        args = ["verify-identities", "--n", "4", "--draws", "5", "--seed", "7", "--out", str(out)]
        assert CliRunner().invoke(main, args).exit_code == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        rng = np.random.default_rng(7)
        single = list(_per_draw(rng, Nome.from_q(0.3), range(2, 5), range(1, 5), 5))
        assert [(r[0], int(r[1]), int(r[3])) for r in rows] == [row[:3] for row in single]
        for r, (_, _, _, res) in zip(rows, single):   # relative to the sides, as lhs and rhs above
            sides = max(abs(res.lhs), abs(res.rhs))
            assert abs(float(r[4]) - res.abs_residual) <= 1e-14 * sides
            assert abs(float(r[5]) - res.rel_residual) <= 1e-14
            assert int(r[6]) == res.near_zero


class TestIdentitySuiteControls:
    """The stacked identity-suite criterion fails on known-wrong identities."""

    def test_fails_with_f_N_at_q_squared(self, monkeypatch):
        f_N = identities.f_N

        def wrong(N, nome):
            return f_N(N, Nome.coerce(nome).power(2))

        monkeypatch.setattr(identities, "f_N", wrong)
        assert not check_identity_suite().passed

    def test_fails_without_frobenius_sign(self, monkeypatch):
        """The evaluation core's Frobenius lhs, each size's times
        (-1)^(N(N-1)/2), which undoes the identity's sign."""
        core = identities._sides

        def unsigned(nome, vandermonde=(), frobenius=()):
            lhs, rhs, scale, ends = core(nome, vandermonde, frobenius)
            starts = [0] + ends
            for i, (ws, _, _) in enumerate(frobenius, start=len(vandermonde)):
                N = ws.shape[1]
                lhs[starts[i] : ends[i]] *= (-1.0) ** (N * (N - 1) // 2)
            return lhs, rhs, scale, ends

        monkeypatch.setattr(identities, "_sides", unsigned)
        assert not check_identity_suite().passed

    @pytest.mark.parametrize("name", ["theta1", "theta3", "theta4", "f_N"])
    def test_fails_with_a_factor_scaled(self, name, monkeypatch):
        """Each of theta1, theta3, theta4 and f_N times (1 + 1e-6), rebound in
        every torusgas module that holds the name."""
        modules = [m for key, m in sys.modules.items()
                   if key.split(".")[0] == "torusgas" and hasattr(m, name)]
        original = getattr(modules[0], name)

        def scaled(*args):
            return original(*args) * (1.0 + 1e-6)

        for module in modules:
            monkeypatch.setattr(module, name, scaled)
        assert identities in modules
        assert not check_identity_suite().passed


class _Coarse:
    """A generator whose draws are rounded down to quarters of their range,
    plus ``jitter`` times the range at random, so points often coincide or
    nearly coincide and draws are rejected. Counts the values it hands out."""

    def __init__(self, seed, jitter=0.0):
        self.rng = np.random.default_rng(seed)
        self.jitter = jitter
        self.values = 0

    def random(self, size):
        r = np.floor(4.0 * self.rng.random(size)) / 4.0 + self.jitter * self.rng.random(size)
        self.values += r.size
        return r

    def uniform(self, low, high, size):
        return low + (np.asarray(high) - low) * self.random(size)


class _Constant(_Coarse):
    """A generator whose every value is the middle of its range."""

    def __init__(self):
        self.values = 0

    def random(self, size):
        self.values += math.prod(np.atleast_1d(size))
        return np.full(size, 0.5)


def _block(rng, D, sets, N):
    """The draws of one ``rng.uniform`` block (D, sets, 2, N) with nothing
    rejected: each set its N real parts, then its N imaginary parts."""
    U = rng.uniform([[0.0], [-0.2]], [[1.0], [0.2]], (D, sets, 2, N))
    return U[:, :, 0] + 1j * U[:, :, 1]


def _theta1_args(P, scale):
    """Every difference scale * (p_j - p_k), j != k, among the points of each
    row of P, whatever its layout after the first axis."""
    flat = P.reshape(len(P), -1)
    off = ~np.eye(flat.shape[1], dtype=bool)
    return scale * (flat[:, :, None] - flat[:, None, :])[:, off]


class TestStackedDrawStream:
    """With nothing rejected, a draw is one uniform block of the stream."""

    @pytest.mark.parametrize("D", [1, 7, 100])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_points_bitwise(self, N, q, D):
        drawn_rng, block_rng = np.random.default_rng(900 + N), np.random.default_rng(900 + N)
        X = _points(drawn_rng, D, N, q)
        ref = _block(block_rng, D, 1, N)[:, 0]
        assert X.shape == (D, N)
        assert np.array_equal(X.view(float), ref.view(float))
        assert drawn_rng.bit_generator.state == block_rng.bit_generator.state

    @pytest.mark.parametrize("D", [1, 7, 100])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_pairs_bitwise(self, N, q, D):
        drawn_rng, block_rng = np.random.default_rng(950 + N), np.random.default_rng(950 + N)
        WZ = _species_pairs(drawn_rng, D, N, q)
        ref = _block(block_rng, D, 2, N)
        assert WZ.shape == (D, 2, N)
        assert np.array_equal(WZ.view(float), ref.view(float))
        assert drawn_rng.bit_generator.state == block_rng.bit_generator.state

    @pytest.mark.parametrize("N", [2, 4])
    def test_forced_rejections_same_stream(self, N):
        """Coarse draws are rejected often (at N = 4 over a third of the sets
        and most pairs); the draws still hold D rows, each well separated,
        and the same seed gives the same draws."""
        for draw, D, sets, scale in [(_points, 60, 1, math.pi), (_species_pairs, 30, 2, 1.0)]:
            a, b = _Coarse(5), _Coarse(5)
            P = draw(a, D, N, 0.3)
            assert len(P) == D and a.values > D * sets * 2 * N
            assert np.all(lattice_distance(_theta1_args(P, scale), 0.3) > 1e-3)
            assert np.array_equal(P, draw(b, D, N, 0.3)) and a.values == b.values

    def test_cap_counts_rejections_in_a_row(self):
        """Over a thousand rejections in total, none a thousand of one row:
        every row is drawn."""
        coarse = _Coarse(6)
        X = _points(coarse, 2500, 4, 0.3)
        assert coarse.values > (2500 + 1000) * 2 * 4
        assert X.shape == (2500, 4)

    def test_public_draws_are_the_single_case(self):
        """A one-row draw is the first row of a stack drawn from the same seed."""
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(_points(a, 1, 3, 0.3)[0], _points(b, 5, 3, 0.3)[0])
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(_species_pairs(a, 1, 3, 0.3)[0], _species_pairs(b, 5, 3, 0.3)[0])

    def test_no_draws(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert _points(rng, 0, 3, 0.3).shape == (0, 3)
        assert _species_pairs(rng, 0, 3, 0.3).shape == (0, 2, 3)
        assert rng.bit_generator.state == state


class TestDrawSeparation:
    """Every accepted draw keeps each theta1 argument its identity evaluates
    more than 1e-3 from pi*Z + pi*tau*Z: pi (x_j - x_k) for Vandermonde, every
    difference among the 2N points w, z, unscaled, for Frobenius."""

    @pytest.mark.parametrize("q", [0.3, 0.9])
    def test_accepted_draws_keep_off_the_lattice(self, q, monkeypatch):
        """Jittered coarse draws put many differences within a few 1e-3 of a
        lattice point, on both sides of the margin; at q = 0.9 pi*tau = 0.105i
        is near the coarse grid's 0.1 steps in Im. The test reads the draws
        that ``identity_draws`` hands to the evaluation core, which it does
        not run (at q = 0.9 the fourth root of q is past theta's cap)."""
        nome = Nome.from_q(q)
        calls = _recorded(monkeypatch, evaluate=False)
        coarse = _Coarse(8, jitter=3e-3)
        list(identity_draws(coarse, nome, [4], [3], 400))
        assert coarse.values > 400 * 2 * (4 + 2 * 3)   # some rows redrawn
        ((((X, _),), ((ws, zs, _),)),) = calls
        args = {"vandermonde": _theta1_args(X, math.pi),
                "frobenius": _theta1_args(np.stack([ws, zs], 1), 1.0)}
        for identity, theta1_args in args.items():
            dist = lattice_distance(theta1_args, nome)
            assert np.all(dist > 1e-3), identity
            assert np.any(dist < 2e-3), identity       # accepted close to the margin


def _recorded(monkeypatch, evaluate=True):
    """The stacks that ``identity_draws`` hands to the evaluation core, one
    (vandermonde, frobenius) pair per call; unless ``evaluate``, the core is
    not run and every side is 0."""
    calls = []
    core = identities._sides

    def recording(nome, vandermonde=(), frobenius=()):
        calls.append((list(vandermonde), list(frobenius)))
        if evaluate:
            return core(nome, vandermonde, frobenius)
        ends = list(itertools.accumulate(len(stack[0]) for stack in [*vandermonde, *frobenius]))
        return np.zeros(ends[-1], complex), np.zeros(ends[-1], complex), np.ones(ends[-1]), ends

    monkeypatch.setattr(identities, "_sides", recording)
    return calls


def _same_bits(a: IdentityResidual, b: IdentityResidual) -> bool:
    """Field by field, the same dtype, shape and bytes."""
    pairs = [(np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name)))
             for f in dataclasses.fields(a)]
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in pairs)


_GATE_SIZES = (range(2, 7), range(1, 5))   # check_identity_suite's sizes


def _stream_blocks(rng, D, vandermonde_sizes, frobenius_sizes):
    """Every size's first block, one ``rng.uniform`` block after another."""
    return ([_block(rng, D, 1, N)[:, 0] for N in vandermonde_sizes],
            [_block(rng, D, 2, N) for N in frobenius_sizes])


def _rejected(X, scale, nome):
    """The rows of X with a theta1 argument within 1e-3 of the lattice."""
    return np.flatnonzero(~np.all(lattice_distance(_theta1_args(X, scale), nome) > 1e-3, axis=1))


class TestPerNomeEvaluation:
    """``identity_draws`` draws and evaluates every size of a nome together."""

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, -0.3])
    def test_sizes_are_the_public_residuals_bitwise(self, q, monkeypatch):
        """Each size's residual equals, field by field and bit for bit, the
        public residual of the same stacked draws."""
        calls = _recorded(monkeypatch)
        nome = Nome.from_q(q)
        rows = list(identity_draws(np.random.default_rng(2024), nome, *_GATE_SIZES, 100))
        ((vandermonde, frobenius),) = calls
        public = [theta_vandermonde_residual(X, alpha, nome) for X, alpha in vandermonde]
        public += [frobenius_residual(ws, zs, alpha, nome) for ws, zs, alpha in frobenius]
        assert [(name, N) for name, N, _ in rows] == ([("vandermonde", N) for N in _GATE_SIZES[0]]
                                                      + [("frobenius", N) for N in _GATE_SIZES[1]])
        for (name, N, r), ref in zip(rows, public, strict=True):
            assert _same_bits(r, ref), (name, N)

    def test_gate_draws_are_the_per_size_stream(self, monkeypatch):
        """No row of the gate's draws is rejected, so they are each size's
        ``rng.uniform`` block in turn, the stream of one draw per size, and the
        generator ends in the same state."""
        calls = _recorded(monkeypatch, evaluate=False)
        rng, ref_rng = np.random.default_rng(2024), np.random.default_rng(2024)
        for q in (0.1, 0.3, 0.5):
            list(identity_draws(rng, q, *_GATE_SIZES, 100))
            ref_X, ref_WZ = _stream_blocks(ref_rng, 100, *_GATE_SIZES)
            vandermonde, frobenius = calls[-1]
            for (X, _), ref in zip(vandermonde, ref_X, strict=True):
                assert not len(_rejected(ref, math.pi, q))
                assert np.array_equal(X, ref)
            for (ws, zs, _), ref in zip(frobenius, ref_WZ, strict=True):
                assert not len(_rejected(ref, 1.0, q))
                assert np.array_equal(ws, ref[:, 0]) and np.array_equal(zs, ref[:, 1])
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed, rejected", [(2024, ("frobenius", 6, 0)),
                                                (1, ("vandermonde", 6, 75))])
    def test_redraws_follow_every_first_block(self, seed, rejected, monkeypatch):
        """``verify-identities --n 6 --draws 100 --q 0.5``: at seed 2024 one
        row is rejected, in the last size, and at seed 1 one in the last
        Vandermonde size. Every size's first block is drawn first; then each
        size redraws its rejected rows as one ``rng.uniform`` block. At seed 1
        that differs from redrawing each size before the next is drawn."""
        calls = _recorded(monkeypatch, evaluate=False)
        sizes = (range(2, 7), range(1, 7))
        list(identity_draws(np.random.default_rng(seed), 0.5, *sizes, 100))
        ((vandermonde, frobenius),) = calls
        ref_rng = np.random.default_rng(seed)
        X_blocks, WZ_blocks = _stream_blocks(ref_rng, 100, *sizes)
        ref = [("vandermonde", N, X[:, None], math.pi) for N, X in zip(sizes[0], X_blocks)]
        ref += [("frobenius", N, WZ, 1.0) for N, WZ in zip(sizes[1], WZ_blocks)]
        found = [(name, N, int(row)) for name, N, P, scale in ref
                 for row in _rejected(P, scale, 0.5)]
        assert found == [rejected]
        for name, N, P, scale in ref:
            bad = _rejected(P, scale, 0.5)
            if len(bad):
                P[bad] = _block(ref_rng, len(bad), P.shape[1], N)
                assert not len(_rejected(P, scale, 0.5))
        got = [X[:, None] for X, _ in vandermonde]
        got += [np.stack([ws, zs], 1) for ws, zs, _ in frobenius]
        for P, (name, N, ref_P, _) in zip(got, ref, strict=True):
            assert np.array_equal(P, ref_P), (name, N)
        if rejected[0] == "vandermonde":   # redrawn before the Frobenius blocks, they would move
            per_size = np.random.default_rng(seed)
            _stream_blocks(per_size, 100, sizes[0], [])
            _block(per_size, 1, 1, 6)
            assert not np.array_equal(_block(per_size, 100, 2, 1), got[len(sizes[0])])

    def test_theta_calls_per_gate_pass(self, monkeypatch):
        """One identity-suite pass makes at most 27 theta calls, where one
        call per size and kind made 69: per nome five column calls, one theta1
        call at q per identity, one theta3 and one theta4 call."""
        calls = []
        kernel = theta._theta

        def counting(*args, **kwargs):
            calls.append(args[0])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(theta, "_theta", counting)
        assert check_identity_suite().passed
        assert len(calls) <= 27, len(calls)

    def test_root_nome_refusal(self):
        """Size N takes its Vandermonde columns at q^(1/N): at q = 0.9 the cube
        root is past theta's cap, and the refusal names the size and both nomes."""
        rows = identity_draws(np.random.default_rng(1), 0.9, range(2, 4), range(1, 4), 100)
        with pytest.raises(NomeOutOfRange, match=r"^size N = 3 takes q\^\(1/N\) = 0\.9655\+0j "
                                                 r"of q = 0\.9\+0j: \|q\| = e\^\(-pi \* 0\.0111"):
            list(rows)


class TestDrawCaps:
    """A row still rejected after 1000 redraws refuses the draw, after the
    first block and 1000 redraws of the rejected rows."""

    @pytest.mark.parametrize("D", [1, 5])
    def test_point_sets(self, D):
        constant = _Constant()
        with pytest.raises(CoincidentPoints, match="configuration"):
            _points(constant, D, 3, 0.3)
        assert constant.values == (1 + 1000) * D * 2 * 3

    @pytest.mark.parametrize("D", [1, 5])
    def test_species_pairs(self, D):
        """At N = 1 every w coincides with its z."""
        constant = _Constant()
        with pytest.raises(CoincidentPoints, match="species pair"):
            _species_pairs(constant, D, 1, 0.3)
        assert constant.values == (1 + 1000) * D * 2 * 2

    def test_species_pair_sets(self):
        """At N >= 2 a pair whose sets are singular on their own is a refused
        species pair too."""
        with pytest.raises(CoincidentPoints, match="species pair"):
            _species_pairs(_Constant(), 4, 2, 0.3)


class TestNonFiniteSides:
    """Where the products of theta values leave double range, the stacked
    cores refuse with PrecisionUnreachable: no NaN residual, no raw
    OverflowError and no numpy warning."""

    @pytest.mark.parametrize("WL", [40.0, 0.018])
    def test_frobenius_at_the_ends_of_the_range(self, WL):
        """N = 6 on the gate's point distribution: at W/L = 40 every theta1
        product underflows (0/0), at W/L = 0.018 the separations' does."""
        nome = Nome.from_aspect(WL, 1.0)
        WZ = _species_pairs(np.random.default_rng(0), 5, 6, nome)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionUnreachable):
                frobenius_residual(WZ[:, 0], WZ[:, 1], 0.1 + 0.05j, nome)
            for ws, zs in WZ:
                with pytest.raises(PrecisionUnreachable):
                    frobenius_residual(ws, zs, 0.1 + 0.05j, nome)

    def test_vandermonde_refuses_an_overflowed_side(self, monkeypatch):
        X = _points(np.random.default_rng(0), 3, 4, 0.3)
        monkeypatch.setattr(identities, "f_N", lambda N, nome: math.inf)
        with np.errstate(all="ignore"), pytest.raises(PrecisionUnreachable):
            theta_vandermonde_residual(X, 0.05 + 0.02j, 0.3)

    def test_huge_finite_side_is_refused(self, monkeypatch):
        """A side whose modulus overflows though both parts are finite is
        what made Python's abs raise a raw OverflowError."""
        X = _points(np.random.default_rng(0), 3, 4, 0.3)
        monkeypatch.setattr(identities, "f_N", lambda N, nome: 1e308 + 1e308j)
        with np.errstate(all="ignore"), pytest.raises(PrecisionUnreachable):
            theta_vandermonde_residual(X, 0.05 + 0.02j, 0.3)


class TestNonFiniteInput:
    """A nan or inf coordinate or alpha is refused by name in ``_stack``,
    before any numpy call can warn about it."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "call",
        [
            lambda: theta_vandermonde_residual([math.nan, 0.3], 0.05, 0.3),
            lambda: theta_vandermonde_residual([[0.1, 0.3], [0.2, complex(0.4, math.inf)]],
                                               0.05, 0.3),
            lambda: theta_vandermonde_residual([0.1, 0.3], math.nan, 0.3),
            lambda: frobenius_residual([math.nan], [0.5], 0.1, 0.3),
            lambda: frobenius_residual([math.inf], [0.5], 0.1, 0.3),
            lambda: frobenius_residual([0.2], [complex(0.5, -math.inf)], 0.1, 0.3),
            lambda: frobenius_residual([0.2], [0.5], complex(0.1, math.nan), 0.3),
        ],
        ids=["vandermonde-nan", "vandermonde-inf-in-stack", "vandermonde-nan-alpha",
             "frobenius-nan-w", "frobenius-inf-w", "frobenius-inf-z", "frobenius-nan-alpha"],
    )
    def test_refused_by_name(self, call):
        with pytest.raises(ParameterOutOfRange, match="coordinates and alpha must be finite"):
            call()


class TestDrawsRefusedAtTheCall:
    """``identity_draws`` refuses a bad count or nome when it is called, not at
    the first ``next()``; a valid call draws nothing until it is iterated."""

    def test_count_and_nome(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ParameterOutOfRange, match="draws"):
            identity_draws(rng, 0.3, [2], [1], -1)
        with pytest.raises(NomeOutOfRange):
            identity_draws(rng, 0.0, [2], [1], 4)

    def test_stream_starts_at_the_first_row(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        rows = identity_draws(a, 0.3, [2, 3], [1, 2], 4)
        assert a.bit_generator.state == b.bit_generator.state
        got = [(name, N, r.lhs) for name, N, r in rows]
        ref = [(name, N, r.lhs) for name, N, r in identity_draws(b, 0.3, [2, 3], [1, 2], 4)]
        assert [row[:2] for row in got] == [("vandermonde", 2), ("vandermonde", 3),
                                             ("frobenius", 1), ("frobenius", 2)]
        assert all(np.array_equal(x[2], y[2]) for x, y in zip(got, ref))
