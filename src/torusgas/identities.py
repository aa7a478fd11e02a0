"""Numerical verification of the determinant identities behind the exact results.

Two families are covered: the theta-Vandermonde factorizations of N x N theta
determinants and the Frobenius determinant identity for theta4/theta1 kernels.
Each check returns an :class:`IdentityResidual` rather than a bare bool so
callers can log and threshold however they need. Both take one configuration
(N,), with scalar fields, or a (D, N) stack, with one theta call per kind and
one stacked determinant. ``identity_draws`` drives the gate's loop: per size,
one ``_draw``, which redraws only the rows that put a theta1 argument of the
identity within 1e-3 of the lattice, and one stack.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoints,
    DimensionMismatch,
    NomeOutOfRange,
    ParameterOutOfRange,
    PrecisionUnreachable,
    _check_count,
)
from .geometry import _pairs
from .theta import Nome, _theta_apart, f_N, lattice_distance, theta1, theta3, theta4

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


def _finite_sides(what: str, *sides):
    """The sides; PrecisionUnreachable where a value or its modulus leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not all(np.isfinite(np.abs(side)).all() for side in sides):
            raise PrecisionUnreachable(f"{what}: a side is out of double range")
    return sides


def _stack(points, alpha):
    """points as a (D, N) stack, and whether they were one configuration (N,);
    a nan or inf coordinate or alpha is refused before any theta call."""
    X = np.asarray(points, dtype=complex)
    if X.ndim not in (1, 2) or not X.shape[-1]:
        raise DimensionMismatch(f"points of shape {X.shape}: need (N,) or (D, N), N >= 1")
    if not (np.isfinite(X).all() and cmath.isfinite(alpha)):
        raise ParameterOutOfRange("coordinates and alpha must be finite")
    return np.atleast_2d(X), X.ndim == 1


def _result(one: bool, *sides) -> IdentityResidual:
    """The IdentityResidual of a stack's sides, or of its one row if ``one``."""
    return IdentityResidual.from_sides(*((side[0] for side in sides) if one else sides))


def theta_vandermonde_residual(xs, alpha: complex, nome) -> IdentityResidual:
    """Determinant of theta3/theta1 columns against its factorized form.

    lhs: det[ theta_s(pi*(x_j + alpha - l/N); q^(1/N)) ], s = 3 for N odd and
    s = 1 for N even, j, l = 1..N.
    rhs: theta_{3|4}(pi*sum(x_j + alpha); q) * f_N(q) * prod_{j<k}
    theta1(pi*(x_k - x_j); q), with theta3 on the right for N odd and theta4
    for N even.

    ``xs`` is one configuration (N,), giving scalar fields, or a (D, N) stack.
    """
    X, one = _stack(xs, alpha)
    nome = Nome.coerce(nome)
    N = X.shape[1]
    column, head = (theta3, theta3) if N % 2 == 1 else (theta1, theta4)
    args = math.pi * (X[:, :, None] + alpha - np.arange(1, N + 1) / N)
    root = nome.root(N)
    try:
        mat = column(args, root)
    except NomeOutOfRange as exc:
        raise NomeOutOfRange(f"size N = {N} takes q^(1/N) = {root.q:.4g} of q = {nome.q:.4g}: {exc}")
    iu, ju = _pairs(N)
    rhs = head(math.pi * (X + alpha).sum(axis=1), nome) * f_N(N, nome)
    rhs = rhs * theta1(math.pi * (X[:, ju] - X[:, iu]), nome).prod(axis=1)
    scale = np.abs(mat).max(axis=2).prod(axis=1)
    lhs, rhs = _finite_sides("theta-Vandermonde identity", np.linalg.det(mat), rhs)
    return _result(one, lhs, rhs, scale)


def frobenius_residual(ws, zs, alpha: complex, nome) -> IdentityResidual:
    """Frobenius identity for the theta4/theta1 Cauchy-type determinant.

    lhs: theta4(sum(w_j - z_j) - alpha) * F(w; z) with
    F = (-1)^(N(N-1)/2) prod_{j<k} theta1(w_k-w_j) theta1(z_k-z_j)
        / prod_{j,k} theta1(w_j-z_k).
    rhs: theta4(alpha) * det[ theta4(w_j-z_k-alpha) / (theta4(alpha)
         theta1(w_j-z_k)) ].

    ``ws`` and ``zs`` are one configuration each (N,), giving scalar fields,
    or (D, N) stacks: one theta1 call, one theta4 call, one determinant. A
    w_j - z_k within 1e-9 of the lattice raises CoincidentPoints, read off that
    theta1 call's reduction before any refusal of theta; a coincidence among
    the w or the z alone is a zero of F.
    """
    if np.shape(ws) != np.shape(zs):
        raise DimensionMismatch(f"ws of shape {np.shape(ws)} but zs of shape {np.shape(zs)}")
    (Ws, one), (Zs, _) = _stack(ws, alpha), _stack(zs, alpha)
    nome = Nome.coerce(nome)
    D, N = Ws.shape
    sep = (Ws[:, :, None] - Zs[:, None, :]).reshape(D, N * N)
    iu, ju = _pairs(N)
    args = np.hstack([sep, Ws[:, ju] - Ws[:, iu], Zs[:, ju] - Zs[:, iu]])
    wz = np.arange(args.shape[1]) < N * N   # the w - z columns
    t1 = _theta_apart(1, args, nome, wz)
    if t1 is None:
        raise CoincidentPoints("some w_j - z_k lies on the lattice")
    t1_sep = t1[:, : N * N]
    heads = (Ws - Zs).sum(axis=1) - alpha
    t4 = theta4(np.hstack([heads[:, None], np.full((D, 1), alpha), sep - alpha]), nome)
    norm = t4[:, 1]
    mat = (t4[:, 2:] / (norm[:, None] * t1_sep)).reshape(D, N, N)
    scale = np.abs(mat).max(axis=2).prod(axis=1) * np.abs(norm)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        F = (-1.0) ** (N * (N - 1) // 2) * t1[:, N * N :].prod(axis=1) / t1_sep.prod(axis=1)
        lhs, rhs = _finite_sides("Frobenius identity", t4[:, 0] * F, norm * np.linalg.det(mat))
    return _result(one, lhs, rhs, scale)


def _filled_level_phase(N: int) -> complex:
    """i^((N-1)(3N/2+1)): the phase of the plain Fourier determinant and of the
    filled Landau level's product form."""
    return 1j ** ((((N - 1) * (3 * N + 2)) // 2) % 4)


_BOUNDS = (np.array([[0.0], [-0.2]]), np.array([[1.0], [0.2]]))  # (Re, Im) ranges of a point
_MAX_REDRAWS = 1000   # redraws after which a rejected row is refused


def _draw(rng: np.random.Generator, D: int, sets: int, N: int, nome, scale: float) -> np.ndarray:
    """D rows of ``sets`` point sets, shape (D, sets, N), Re in [0, 1) and Im in
    [-0.2, 0.2], from one ``rng.uniform`` block (D, sets, 2, N): each set its N
    real parts, then its N imaginary parts. The rows where some theta1
    argument scale * (p_j - p_k), over the pairs of their sets * N points, lies
    within 1e-3 of pi*Z + pi*tau*Z are redrawn, in order, as one block; a row
    still rejected after 1000 redraws raises CoincidentPoints."""
    nome = Nome.coerce(nome)
    iu, ju = _pairs(sets * N)
    P = np.empty((D, sets, N), dtype=complex)
    bad = np.arange(D)
    for _ in range(1 + _MAX_REDRAWS):
        U = rng.uniform(*_BOUNDS, (len(bad), sets, 2, N))
        P[bad] = U[:, :, 0] + 1j * U[:, :, 1]
        flat = P[bad].reshape(len(bad), sets * N)
        dist = lattice_distance(scale * (flat[:, iu] - flat[:, ju]), nome)
        bad = bad[~np.all(dist > 1e-3, axis=1)]
        if not len(bad):
            return P
    what = ("configuration", "species pair")[sets - 1]
    raise CoincidentPoints(f"could not draw a well-separated {what}")


def identity_draws(rng: np.random.Generator, q, vandermonde_sizes, frobenius_sizes, draws: int):
    """Seeded residuals of the theta-Vandermonde identity at every size in
    ``vandermonde_sizes``, then of the Frobenius identity at every size in
    ``frobenius_sizes``, ``draws`` random draws each. Yields
    ``(identity, N, IdentityResidual)`` once per size, the residual a stack
    over the draws: one ``_draw`` from ``rng``, evaluated as one stack. The
    draws keep off the lattice each pi (x_j - x_k) of a Vandermonde set and
    every difference among the 2N points w, z of a Frobenius pair, unscaled.
    A bad ``draws`` or nome is refused at the call, before the generator runs."""
    _check_count(draws, "draws")
    nome = Nome.coerce(q)

    def residuals():
        for N in vandermonde_sizes:
            X = _draw(rng, draws, 1, N, nome, math.pi)[:, 0]
            yield "vandermonde", N, theta_vandermonde_residual(X, 0.05 + 0.02j, nome)
        for N in frobenius_sizes:
            WZ = _draw(rng, draws, 2, N, nome, 1.0)
            yield "frobenius", N, frobenius_residual(WZ[:, 0], WZ[:, 1], 0.1 + 0.05j, nome)

    return residuals()
