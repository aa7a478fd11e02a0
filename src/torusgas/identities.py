"""Numerical verification of the determinant identities behind the exact results.

Two families are covered: the theta-Vandermonde factorizations of N x N theta
determinants and the Frobenius determinant identity for theta4/theta1 kernels.
Each check returns an :class:`IdentityResidual` rather than a bare bool so
callers can log and threshold however they need. Both take one configuration
(N,), with scalar fields, or a (D, N) stack, and are the one-size case of one
evaluation core, ``_sides``, which takes any number of sizes of both
identities at one nome: one theta call per Vandermonde size for its columns
at q^(1/N), one theta1 call at q per identity and one theta3 and one theta4
call at q for every size together, and one determinant per size.

``identity_draws`` drives the gate's loop one nome at a time. One ``_draw``
takes the first block of every size from one ``rng.random`` call and tests
them all by one ``lattice_distance`` call; then, size by size, it redraws
only the rows that put a theta1 argument of the identity within 1e-3 of the
lattice. One ``_sides`` call evaluates every size, and one
``IdentityResidual.from_sides`` makes every size's residual.
"""

from __future__ import annotations

import cmath
import functools
import itertools
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


def _joined(pieces):
    """The pieces, each flattened, as one flat array in order (a lone piece's view)."""
    return pieces[0].ravel() if len(pieces) == 1 else np.concatenate([p.ravel() for p in pieces])


def _cut(values, pieces):
    """An iterator over the flat ``values`` cut back into the shapes of ``pieces``."""
    if len(pieces) == 1:
        return iter((values.reshape(pieces[0].shape),))
    ends = itertools.accumulate(p.size for p in pieces)
    return (values[end - p.size : end].reshape(p.shape) for p, end in zip(pieces, ends))


def _columns(X, alpha: complex, nome: Nome):
    """The (D, N, N) Vandermonde matrices theta_s(pi*(x_j + alpha - l/N); q^(1/N))
    of the stack X, s = 3 for N odd and 1 for N even: one theta call."""
    N = X.shape[1]
    root = nome.root(N)
    try:
        return (theta3 if N % 2 else theta1)(
            math.pi * (X[:, :, None] + alpha - np.arange(1, N + 1) / N), root)
    except NomeOutOfRange as exc:
        raise NomeOutOfRange(f"size N = {N} takes q^(1/N) = {root.q:.4g} of q = {nome.q:.4g}: {exc}")


@functools.lru_cache(maxsize=64)
def _differences(N: int):
    """Flat indices into the (2N, 2N) table p_a - p_b of the points p = (w, z)
    of a Frobenius pair: every w_j - z_k, j major, then w_k - w_j and z_k - z_j
    over the pairs j < k."""
    iu, ju = _pairs(N)
    j, k = np.divmod(np.arange(N * N), N)
    rows, cols = np.concatenate([j, ju, N + ju]), np.concatenate([N + k, iu, N + iu])
    flat = rows * (2 * N) + cols
    flat.setflags(write=False)
    return flat


def _sides(nome: Nome, vandermonde=(), frobenius=()):
    """(lhs, rhs, scale, ends): the two sides and the scale of the
    theta-Vandermonde identity at each (X, alpha) of ``vandermonde`` and then
    of the Frobenius identity at each (Ws, Zs, alpha) of ``frobenius``, every
    stack (D, N) of any D and N, all at one nome, as flat arrays in which size
    i ends at ends[i]: the evaluation behind both public residuals and
    ``identity_draws``. A side out of double range raises PrecisionUnreachable.

    One theta call per Vandermonde size takes its columns at q^(1/N)
    (``_columns``). At q, one theta1 call takes every Vandermonde pair and one
    every Frobenius difference, tested for a lattice coincidence on the w - z
    columns only; one theta3 call takes the Vandermonde heads of odd N and one
    theta4 call those of even N with every Frobenius theta4 argument. Each
    size then takes one determinant. One theta1 call for both identities,
    8,500 points a gate nome, cost 1.5 ms a gate pass more than the two on a
    2-core Xeon, in part from page faults as its temporaries grow the heap
    past glibc's trim threshold.

    theta's array path and the determinants work point by point, so a size's
    entries are those of its own one-size call wherever each of that call's
    theta calls holds more than ``theta._POINT_MAX`` points; a smaller call
    runs theta's point kernel, whose values round apart from the array
    path's by a few eps.
    """
    columns = [_columns(X, alpha, nome) for X, alpha in vandermonde]
    pairs, diffs, tested = [], [], []   # theta1's arguments at q and the lattice test's mask
    at_q = {3: [], 4: []}               # theta3's and theta4's arguments at q
    for X, alpha in vandermonde:
        iu, ju = _pairs(X.shape[1])
        pairs.append(math.pi * (X[:, ju] - X[:, iu]))
        at_q[3 if X.shape[1] % 2 else 4].append(math.pi * (X + alpha).sum(axis=1))
    for Ws, Zs, alpha in frobenius:
        D, N = Ws.shape
        P = np.concatenate([Ws, Zs], axis=1)
        diffs.append((P[:, :, None] - P[:, None, :]).reshape(D, 4 * N * N)[:, _differences(N)])
        sep = diffs[-1][:, : N * N]
        tested.append(np.zeros(diffs[-1].shape, dtype=bool))
        tested[-1][:, : N * N] = True   # the w - z columns
        heads = (Ws - Zs).sum(axis=1) - alpha
        at_q[4].append(np.concatenate([heads[:, None], np.full((D, 1), alpha), sep - alpha],
                                      axis=1))
    if vandermonde:
        t1_pairs = _cut(theta1(_joined(pairs), nome), pairs)
    if frobenius:
        t1 = _theta_apart(1, _joined(diffs), nome, _joined(tested))
        if t1 is None:
            raise CoincidentPoints("some w_j - z_k lies on the lattice")
        t1_diffs = _cut(t1, diffs)
    values = {kind: _cut(theta(_joined(at_q[kind]), nome), at_q[kind])
              for kind, theta in ((3, theta3), (4, theta4)) if at_q[kind]}
    lhs, rhs, scale = [], [], []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for mat, (X, _) in zip(columns, vandermonde):
            N = X.shape[1]
            head = next(values[3 if N % 2 else 4])
            lhs.append(np.linalg.det(mat))
            rhs.append(head * f_N(N, nome) * next(t1_pairs).prod(axis=1))
            scale.append(np.abs(mat).max(axis=2).prod(axis=1))
        for Ws, _, alpha in frobenius:
            D, N = Ws.shape
            t1, t4 = next(t1_diffs), next(values[4])
            t1_sep, norm = t1[:, : N * N], t4[:, 1]
            mat = (t4[:, 2:] / (norm[:, None] * t1_sep)).reshape(D, N, N)
            F = (-1.0) ** (N * (N - 1) // 2) * t1[:, N * N :].prod(axis=1) / t1_sep.prod(axis=1)
            lhs.append(t4[:, 0] * F)
            rhs.append(norm * np.linalg.det(mat))
            scale.append(np.abs(mat).max(axis=2).prod(axis=1) * np.abs(norm))
    ends = list(itertools.accumulate(len(side) for side in lhs))
    lhs, rhs = _joined(lhs), _joined(rhs)
    v = ends[len(vandermonde) - 1] if vandermonde else 0   # the Vandermonde entries
    if vandermonde:
        _finite_sides("theta-Vandermonde identity", lhs[:v], rhs[:v])
    if frobenius:
        _finite_sides("Frobenius identity", lhs[v:], rhs[v:])
    return lhs, rhs, _joined(scale), ends


def theta_vandermonde_residual(xs, alpha: complex, nome) -> IdentityResidual:
    """Determinant of theta3/theta1 columns against its factorized form.

    lhs: det[ theta_s(pi*(x_j + alpha - l/N); q^(1/N)) ], s = 3 for N odd and
    s = 1 for N even, j, l = 1..N.
    rhs: theta_{3|4}(pi*sum(x_j + alpha); q) * f_N(q) * prod_{j<k}
    theta1(pi*(x_k - x_j); q), with theta3 on the right for N odd and theta4
    for N even.

    ``xs`` is one configuration (N,), giving scalar fields, or a (D, N) stack:
    the one-size case of ``_sides``.
    """
    X, one = _stack(xs, alpha)
    return _result(one, *_sides(Nome.coerce(nome), [(X, alpha)])[:3])


def frobenius_residual(ws, zs, alpha: complex, nome) -> IdentityResidual:
    """Frobenius identity for the theta4/theta1 Cauchy-type determinant.

    lhs: theta4(sum(w_j - z_j) - alpha) * F(w; z) with
    F = (-1)^(N(N-1)/2) prod_{j<k} theta1(w_k-w_j) theta1(z_k-z_j)
        / prod_{j,k} theta1(w_j-z_k).
    rhs: theta4(alpha) * det[ theta4(w_j-z_k-alpha) / (theta4(alpha)
         theta1(w_j-z_k)) ].

    ``ws`` and ``zs`` are one configuration each (N,), giving scalar fields,
    or (D, N) stacks: the one-size case of ``_sides``, one theta1 call, one
    theta4 call, one determinant. A w_j - z_k within 1e-9 of the lattice
    raises CoincidentPoints, read off that theta1 call's reduction before any
    refusal of theta; a coincidence among the w or the z alone is a zero of F.
    """
    if np.shape(ws) != np.shape(zs):
        raise DimensionMismatch(f"ws of shape {np.shape(ws)} but zs of shape {np.shape(zs)}")
    (Ws, one), (Zs, _) = _stack(ws, alpha), _stack(zs, alpha)
    return _result(one, *_sides(Nome.coerce(nome), frobenius=[(Ws, Zs, alpha)])[:3])


def _filled_level_phase(N: int) -> complex:
    """i^((N-1)(3N/2+1)): the phase of the plain Fourier determinant and of the
    filled Landau level's product form."""
    return 1j ** ((((N - 1) * (3 * N + 2)) // 2) % 4)


_BOUNDS = (np.array([[0.0], [-0.2]]), np.array([[1.0], [0.2]]))  # (Re, Im) ranges of a point
_MAX_REDRAWS = 1000   # redraws after which a rejected row is refused


def _pair_args(P, scale: float):
    """scale * (p_j - p_k) over the pairs j < k of the points of each row of P."""
    flat = P.reshape(len(P), math.prod(P.shape[1:]))
    iu, ju = _pairs(flat.shape[1])
    return scale * (flat[:, iu] - flat[:, ju])


def _complex(B):
    """The points of a (rows, sets, 2, N) block: each set its N real parts,
    then its N imaginary parts."""
    return B[:, :, 0] + 1j * B[:, :, 1]


def _draw(rng: np.random.Generator, D: int, blocks, nome) -> list[np.ndarray]:
    """Per (sets, N, scale) of ``blocks``, D rows of ``sets`` point sets, shape
    (D, sets, N), Re in [0, 1) and Im in [-0.2, 0.2]. One ``rng.random`` call
    draws the first (D, sets, 2, N) block of every size, in order, each set its
    N real parts, then its N imaginary parts, scaled as ``rng.uniform`` scales
    it, bit for bit; one ``lattice_distance`` call tests them all. Then, block
    by block, the rows where some theta1 argument scale * (p_j - p_k), over
    the pairs of their sets * N points, lies within 1e-3 of pi*Z + pi*tau*Z
    are redrawn, in order, as one ``rng.uniform`` block; a row still rejected
    after 1000 redraws raises CoincidentPoints. A lone block draws the stream
    of one ``rng.uniform`` block and its redraws."""
    nome = Nome.coerce(nome)
    shapes = [(D, sets, 2, N) for sets, N, _ in blocks]
    ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
    low, high = _BOUNDS
    U = rng.random(ends[-1])
    P = [_complex(low + (high - low) * U[a:b].reshape(shape))
         for a, b, shape in zip([0] + ends, ends, shapes)]
    args = [_pair_args(p, scale) for p, (_, _, scale) in zip(P, blocks)]
    near = ~(lattice_distance(_joined(args), nome) > 1e-3)
    if near.any():
        for p, (sets, N, scale), rows in zip(P, blocks, _cut(near, args)):
            bad = np.flatnonzero(rows.any(axis=1))
            for _ in range(_MAX_REDRAWS):
                if not len(bad):
                    break
                p[bad] = _complex(rng.uniform(low, high, (len(bad), sets, 2, N)))
                dist = lattice_distance(_pair_args(p[bad], scale), nome)
                bad = bad[~np.all(dist > 1e-3, axis=1)]
            if len(bad):
                what = ("configuration", "species pair")[sets - 1]
                raise CoincidentPoints(f"could not draw a well-separated {what}")
    return P


def identity_draws(rng: np.random.Generator, q, vandermonde_sizes, frobenius_sizes, draws: int):
    """Seeded residuals of the theta-Vandermonde identity at every size in
    ``vandermonde_sizes``, then of the Frobenius identity at every size in
    ``frobenius_sizes``, ``draws`` random draws each. Yields
    ``(identity, N, IdentityResidual)`` once per size, the residual a stack
    over the draws. Every size is drawn by one ``_draw`` from ``rng`` and
    evaluated by one ``_sides``, so the nome costs one draw round, one
    theta call per Vandermonde size and four at q. The draws keep off
    the lattice each pi (x_j - x_k) of a Vandermonde set and every difference
    among the 2N points w, z of a Frobenius pair, unscaled. A bad ``draws``
    or nome is refused at the call, before the generator runs."""
    _check_count(draws, "draws")
    nome = Nome.coerce(q)
    V, F = list(vandermonde_sizes), list(frobenius_sizes)

    def residuals():
        if not V + F:
            return
        P = _draw(rng, draws, [(1, N, math.pi) for N in V] + [(2, N, 1.0) for N in F], nome)
        lhs, rhs, scale, ends = _sides(nome, [(p[:, 0], 0.05 + 0.02j) for p in P[: len(V)]],
                                       [(p[:, 0], p[:, 1], 0.1 + 0.05j) for p in P[len(V) :]])
        r = IdentityResidual.from_sides(lhs, rhs, scale)
        fields = (r.lhs, r.rhs, r.abs_residual, r.rel_residual, r.scale, r.near_zero)
        names = [("vandermonde", N) for N in V] + [("frobenius", N) for N in F]
        for (name, N), a, b in zip(names, [0] + ends, ends):
            yield name, N, IdentityResidual(*(field[a:b] for field in fields))

    return residuals()
