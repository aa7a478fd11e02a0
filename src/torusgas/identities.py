"""Numerical verification of the determinant identities behind the exact results.

Three families are covered: the theta-Vandermonde factorizations of N x N theta
determinants, the Frobenius determinant identity for theta4/theta1 kernels, and
the Fourier determinants with their closed-form constants. Each check returns
an :class:`IdentityResidual` rather than a bare bool so callers can log and
threshold however they need. The two theta identities are evaluated on
stacks of D configurations, shape (D, N), with one theta call per kind and one
stacked determinant per stack, and one :class:`IdentityResidual` holds the
whole stack; the public residual functions are the D = 1 case, with scalar
fields. ``identity_draws`` drives the gate's loop: all draws of one size are
one stack.

The random draws are stacked the same way: ``_draw_points`` and
``_draw_pairs`` draw rounds of attempts and read the generator exactly as
drawing one set after another would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PrecisionUnreachable, SingularConfiguration
from .theta import Nome, f_N, lattice_distance, theta1, theta3, theta4

_TINY = 1e-300


@dataclass(frozen=True)
class IdentityResidual:
    """Two sides of an identity and their absolute/relative mismatch, for one
    configuration (scalar fields) or a stack of them (arrays of one shape).

    ``scale`` is the natural magnitude of the computation (a Hadamard-type
    bound on the determinant). When both sides are tiny against it, the
    determinant is cancellation limited and the relative residual is
    meaningless; ``near_zero`` flags that case, where ``abs_residual`` against
    ``scale`` is the number to threshold.
    """

    lhs: complex | np.ndarray
    rhs: complex | np.ndarray
    abs_residual: float | np.ndarray
    rel_residual: float | np.ndarray
    scale: float | np.ndarray = 1.0
    near_zero: bool | np.ndarray = False

    @classmethod
    def from_sides(cls, lhs, rhs, scale=1.0) -> "IdentityResidual":
        a = np.abs(lhs - rhs)
        m = np.maximum(np.abs(lhs), np.abs(rhs))
        near_zero = m < 1e-5 * np.maximum(scale, _TINY)
        return cls(lhs, rhs, a, a / np.maximum(m, _TINY), scale, near_zero)

    def passes(self, rel_tol: float):
        """One bool per configuration: a relative test for well-sized values,
        an absolute test against 1e-12 * scale for cancellation-limited ones."""
        cancelled = self.abs_residual < 1e-12 * np.maximum(self.scale, 1.0)
        return np.where(self.near_zero, cancelled, self.rel_residual < rel_tol)[()]  # 0-d: a bool


@functools.lru_cache(maxsize=64)
def _pairs(N: int):
    """Read-only (iu, ju) index arrays of the pairs j < k of N points."""
    iu, ju = np.triu_indices(N, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _finite_sides(what: str, *sides):
    """The sides; PrecisionUnreachable where a value or its modulus leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(np.all(np.isfinite(np.abs(side))) for side in sides):
            raise PrecisionUnreachable(f"{what}: a side is out of double range")
    return sides


def _vandermonde_sides(X, alpha, nome):
    """(lhs, rhs, scale) of the theta-Vandermonde identity at each row of the
    (D, N) stack X: one theta call per kind over the whole stack, one
    stacked determinant."""
    nome = Nome.coerce(nome)
    N = X.shape[1]
    column, head = (theta3, theta3) if N % 2 == 1 else (theta1, theta4)
    args = math.pi * (X[:, :, None] + alpha - np.arange(1, N + 1) / N)
    mat = column(args, nome.root(N))
    iu, ju = _pairs(N)
    rhs = head(math.pi * np.sum(X + alpha, axis=1), nome) * f_N(N, nome)
    rhs = rhs * np.prod(theta1(math.pi * (X[:, ju] - X[:, iu]), nome), axis=1)
    scale = np.prod(np.max(np.abs(mat), axis=2), axis=1)
    lhs, rhs = _finite_sides("theta-Vandermonde identity", np.linalg.det(mat), rhs)
    return lhs, rhs, scale


def theta_vandermonde_residual(xs, alpha: complex, nome, N: int | None = None) -> IdentityResidual:
    """Determinant of theta3/theta1 columns against its factorized form.

    lhs: det[ theta_s(pi*(x_j + alpha - l/N); q^(1/N)) ], s = 3 for N odd and
    s = 1 for N even, j, l = 1..N.
    rhs: theta_{3|4}(pi*sum(x_j + alpha); q) * f_N(q) * prod_{j<k}
    theta1(pi*(x_k - x_j); q), with theta3 on the right for N odd and theta4
    for N even.
    """
    xs = np.asarray(xs, dtype=complex)
    if N is None:
        N = len(xs)
    if len(xs) != N:
        raise DimensionMismatch(f"got {len(xs)} points for N = {N}")
    sides = _vandermonde_sides(xs[None], alpha, nome)
    return IdentityResidual.from_sides(*(side[0] for side in sides))


def _frobenius_sides(Ws, Zs, alpha, nome):
    """(lhs, rhs, scale) of the Frobenius identity at each row pair of the
    (D, N) stacks Ws, Zs: one theta1 call over the separations and both sets'
    pair differences, one theta4 call, one stacked determinant."""
    nome = Nome.coerce(nome)
    D, N = Ws.shape
    sep = (Ws[:, :, None] - Zs[:, None, :]).reshape(D, N * N)
    if np.any(lattice_distance(sep, nome) < 1e-9):
        raise SingularConfiguration("some w_j - z_k lies on the lattice")

    iu, ju = _pairs(N)
    t1 = theta1(np.hstack([sep, Ws[:, ju] - Ws[:, iu], Zs[:, ju] - Zs[:, iu]]), nome)
    t1_sep = t1[:, : N * N]
    heads = np.sum(Ws - Zs, axis=1) - alpha
    t4 = theta4(np.hstack([heads[:, None], np.full((D, 1), alpha), sep - alpha]), nome)
    norm = t4[:, 1]
    mat = (t4[:, 2:] / (norm[:, None] * t1_sep)).reshape(D, N, N)
    scale = np.prod(np.max(np.abs(mat), axis=2), axis=1) * np.abs(norm)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        F = (-1.0) ** (N * (N - 1) // 2) * np.prod(t1[:, N * N :], axis=1) / np.prod(t1_sep, axis=1)
        lhs, rhs = _finite_sides("Frobenius identity", t4[:, 0] * F, norm * np.linalg.det(mat))
    return lhs, rhs, scale


def frobenius_residual(ws, zs, alpha: complex, nome) -> IdentityResidual:
    """Frobenius identity for the theta4/theta1 Cauchy-type determinant.

    lhs: theta4(sum(w_j - z_j) - alpha) * F(w; z) with
    F = (-1)^(N(N-1)/2) prod_{j<k} theta1(w_k-w_j) theta1(z_k-z_j)
        / prod_{j,k} theta1(w_j-z_k).
    rhs: theta4(alpha) * det[ theta4(w_j-z_k-alpha) / (theta4(alpha)
         theta1(w_j-z_k)) ].
    """
    ws = np.asarray(ws, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    if ws.shape != zs.shape:
        raise DimensionMismatch(f"|ws| = {len(ws)} but |zs| = {len(zs)}")
    sides = _frobenius_sides(ws[None], zs[None], alpha, nome)
    return IdentityResidual.from_sides(*(side[0] for side in sides))


def fourier_det_constant(N: int, half_shift: bool = False) -> IdentityResidual:
    """det[e^(2*pi*i*l*k/N)] (or the k+1/2 variant) against its closed form.

    The plain constant is N^(N/2) i^((N-1)(3N/2+1)); the half-shift variant
    carries an extra i^(N+1).
    """
    if N < 1:
        raise DimensionMismatch("N must be >= 1")
    ls = np.arange(1, N + 1)
    ks = np.arange(0, N) + (0.5 if half_shift else 0.0)
    det = complex(np.linalg.det(np.exp(2j * math.pi * np.outer(ls, ks) / N)))
    exponent = ((N - 1) * (3 * N + 2)) // 2
    const = N ** (N / 2.0) * 1j ** (exponent % 4)
    if half_shift:
        const *= 1j ** ((N + 1) % 4)
    return IdentityResidual.from_sides(det, complex(const))


_BOUNDS = (np.array([[0.0], [-0.2]]), np.array([[1.0], [0.2]]))  # (Re, Im) ranges of a point
_MAX_REJECTIONS = 1000   # rejections in a row after which a draw is refused


def _first_passing(draw, passes, D: int, what: str) -> np.ndarray:
    """The first D candidates of the stream ``draw(k)`` (the next k, stacked)
    for which ``passes`` (one bool per candidate) holds: the ones a loop that
    draws and tests one candidate at a time until it accepts would return.

    Each round draws the shortfall, capped at the rejections left before the
    limit, and tests it with one call. A round never holds a candidate after
    the last one the loop would read, so the stream ends where the loop's
    ends. _MAX_REJECTIONS rejections in a row since the last acceptance raise
    SingularConfiguration, where the loop would give up.
    """
    kept = []
    need = D
    run = 0   # rejections since the last acceptance
    while need:
        cands = draw(min(need, _MAX_REJECTIONS - run))
        ok = passes(cands)
        kept.append(cands[ok])
        hits = np.flatnonzero(ok)
        need -= len(hits)
        run = len(ok) - 1 - hits[-1] if len(hits) else run + len(ok)
        if run == _MAX_REJECTIONS:
            raise SingularConfiguration(f"could not draw a well-separated {what}")
    return np.concatenate(kept) if kept else draw(0)


def _draw_points(rng: np.random.Generator, D: int, N: int, nome) -> np.ndarray:
    """D random point sets, shape (D, N), Re in [0, 1) and Im in [-0.2, 0.2],
    rejecting sets whose pairwise theta1 arguments pi (x_j - x_k) sit within
    1e-3 of a lattice point. One ``rng.uniform`` call draws a round's
    attempts, each the N real parts then the N imaginary parts, so the stream
    is that of drawing the sets one after another."""
    nome = Nome.coerce(nome)
    iu, ju = _pairs(N)

    def draw(k):
        U = rng.uniform(*_BOUNDS, (k, 2, N))
        return U[:, 0] + 1j * U[:, 1]

    def passes(X):
        return np.all(lattice_distance(math.pi * (X[:, iu] - X[:, ju]), nome) > 1e-3, axis=1)

    return _first_passing(draw, passes, D, "configuration")


def _draw_pairs(rng: np.random.Generator, D: int, N: int, nome) -> np.ndarray:
    """D species pairs, shape (D, 2, N): consecutive sets (ws, zs) of
    ``_draw_points``, rejecting pairs with a cross separation w_j - z_k
    within 1e-3 of a lattice point. A rejected pair's two sets are dropped
    and the next two sets form the next candidate."""
    nome = Nome.coerce(nome)

    def draw(k):
        return _draw_points(rng, 2 * k, N, nome).reshape(k, 2, N)

    def passes(WZ):
        cross = WZ[:, 0, :, None] - WZ[:, 1, None, :]
        return np.all(lattice_distance(cross, nome) > 1e-3, axis=(1, 2))

    return _first_passing(draw, passes, D, "species pair")


def identity_draws(rng: np.random.Generator, q, vandermonde_sizes, frobenius_sizes, draws: int):
    """Seeded residuals of the theta-Vandermonde identity at every size in
    ``vandermonde_sizes``, then of the Frobenius identity at every size in
    ``frobenius_sizes``, ``draws`` random draws each. Yields
    ``(identity, N, IdentityResidual)`` once per size, the residual a stack
    over the draws: one stacked draw from ``rng``, the stream of drawing them
    in turn, evaluated as one stack."""
    for N in vandermonde_sizes:
        X = _draw_points(rng, draws, N, q)
        yield "vandermonde", N, IdentityResidual.from_sides(*_vandermonde_sides(X, 0.05 + 0.02j, q))
    for N in frobenius_sizes:
        WZ = _draw_pairs(rng, draws, N, q)
        sides = _frobenius_sides(WZ[:, 0], WZ[:, 1], 0.1 + 0.05j, q)
        yield "frobenius", N, IdentityResidual.from_sides(*sides)
