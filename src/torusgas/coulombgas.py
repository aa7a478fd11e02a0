"""Two-component Coulomb gas at coupling Gamma = 2 on the torus.

The grand partition function is a Fredholm determinant of an integral operator
whose kernel is theta4/theta1 of the pair separation. Antiperiodicity in x
splits the operator into independent Fourier modes mu = pi(2n+1)/L, n in Z;
within each mode the eigenvalue condition inverts in closed form,

    cosh( W sqrt(mu^2 + v^2) ) = 1,   lambda = 2*pi/v,

giving v_k = +/- i sqrt(mu^2 + (2 pi k/W)^2). The determinant per mode is then
a ratio of cosh factors and the full grand partition function is a product
over |mu| values with squared multiplicity (the two signed Fourier modes). An
independent oracle discretizes the coupled one-dimensional integral equations
per mode into [[0, A], [A^T, 0]] with A = iB, B real, whose spectrum is
+/- i times the singular values of B. B is circulant (the kernel is W-periodic
in y), so they are |FFT| of its first column, which is real: the M/2 + 1
entries of its real FFT, the interior ones twice, in O(M log M) time and O(M)
memory; closed form and oracle are compared.

The product over modes diverges logarithmically with the mode cutoff (the
short-distance +/- collapse at Gamma = 2), so extensive quantities are defined
at fixed cutoff density: n_max = Lambda * L modes for a torus of width L. The
O(1) remainder of -log Xi after removing the fitted extensive part is cutoff
independent and equals -2 log( q^{1/12} prod(1-q^{2n}) ) at q = exp(-pi W/L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParameterOutOfRange,
    PrecisionUnreachable,
    _check_count,
    _check_finite,
    _check_real,
)
from .geometry import TorusGeometry
from .theta import _LOG_MAX, theta1_prime0, theta4

_LADDER_CUTOFF_DENSITY = 8   # Lambda: a finite-size ladder rung of width L sums Lambda * L modes


def _check_mode(n) -> None:
    """Refuse a signed mode index n that is not an integer, or |n| >= 2^52,
    past which 2n + 1 is no longer exact in a double (the bound
    ``pressure_sum`` puts on its mode count), with ParameterOutOfRange."""
    _check_count(n, "n", -math.inf)
    if abs(n) >= 2**52:
        raise ParameterOutOfRange(f"mode index n must satisfy |n| < 2^52, got a "
                                  f"{int(n).bit_length()}-bit integer")


def _theta_constants(geom: TorusGeometry) -> tuple[float, float]:
    """Real (theta1'(0), theta4(0)) at q = exp(-pi W/L)."""
    nome = geom.nome_WL
    return theta1_prime0(nome).real, theta4(0.0, nome).real


def _g_branches(n: int, y: np.ndarray, geom: TorusGeometry) -> np.ndarray:
    """The real, theta-free part of g_n(y): g_n = 2i (theta4(0)/theta1'(0))
    times this, whose lower branch (-W < y < 0) is its upper one at y + W;
    y = 0 entries get the jump midpoint. Each entry takes one exponential,
    e^(-pi b (y + offset)/L) with b = 2n + 1 and its own branch's offset, whose
    exponent is at most 0; the other branch's would overflow at large |b|."""
    _check_mode(n)
    L, W = geom.L, geom.W
    b = 2 * n + 1
    denom = 1.0 - math.exp(-math.pi * abs(b) * W / L)   # 1 - q^|b|
    upper, lower = (0.0, W) if b > 0 else (-W, 0.0)      # offsets for 0 < y < W and -W < y < 0

    def branch(y, offset):
        value = np.exp(-math.pi * b * (y + offset) / L) / denom
        return -value if b > 0 else value

    vals = branch(y, np.where(y > 0, upper, lower))
    mid = y == 0
    if mid.any():
        vals[mid] = 0.5 * (branch(y[mid], upper) + branch(y[mid], lower))
    return vals


@dataclass(frozen=True)
class ModeSpectrum:
    """Closed-form eigenvalue data of one Fourier mode.

    roots are the v values (in +/- i pairs) solving
    cosh(W sqrt(mu^2 + v^2)) = 1; lambdas are 2*pi/v. The k-th root pair has
    |lambda| = 2*pi/sqrt(mu^2 + (2*pi*k/W)^2); k = 0 appears once per signed
    mode and k >= 1 twice (left/right movers along y).
    """

    n: int
    mu: float
    roots: np.ndarray
    lambdas: np.ndarray
    W: float

    @property
    def residuals(self) -> np.ndarray:
        return np.abs(np.cosh(self.W * np.sqrt(self.mu**2 + self.roots**2 + 0j)) - 1.0)

    @property
    def abs_lambda(self) -> np.ndarray:
        """The distinct |lambda|, one per k = 0..k_max, descending and
        unrounded: the +i half of the root pairs."""
        return np.abs(self.lambdas[: len(self.lambdas) // 2])


def eigen_roots(n: int, geom: TorusGeometry, k_max: int) -> ModeSpectrum:
    """Analytic inversion of the eigenvalue condition for Fourier mode n.

    Returns the +/- i pairs v_k = +/- i sqrt(mu^2 + (2 pi k/W)^2) for
    k = 0..k_max and the corresponding lambdas 2*pi/v. A root whose square
    leaves double range (a cell near L = 1e-154) raises PrecisionUnreachable.
    """
    _check_mode(n)
    _check_count(k_max, "k_max", 0)
    mu = math.pi * (2 * n + 1) / geom.L
    ks = np.arange(0, k_max + 1)
    try:
        with np.errstate(over="raise"):
            mags = np.sqrt(mu**2 + (2.0 * math.pi * ks / geom.W) ** 2)
    except (OverflowError, FloatingPointError):   # mu^2 as a float, the rest as an array
        raise PrecisionUnreachable(f"the roots of mode {n} at L = {geom.L}, W = {geom.W} "
                                   f"leave double range when squared") from None
    roots = np.concatenate([1j * mags, -1j * mags])
    lambdas = 2.0 * math.pi / roots
    return ModeSpectrum(n=n, mu=mu, roots=roots, lambdas=lambdas, W=geom.W)


def _grid_step(geom: TorusGeometry, M: int) -> float:
    """Step W/M of the M-point mode grid of at least 16 points."""
    _check_count(M, "M", 16)
    return geom.W / M


def _mode_fft_magnitudes(n: int, geom: TorusGeometry, M: int) -> np.ndarray:
    """|FFT| entries k = 0..M/2 of the first column of the circulant B, B_i0 =
    2 pi h _g_branches(i h) (the jump midpoint at i = 0), by the real FFT of
    that real column; the entries M/2 < k < M repeat them as entry M - k. No
    theta constant enters."""
    h = _grid_step(geom, M)
    column = 2.0 * math.pi * h * _g_branches(n, np.arange(M) * h, geom)
    return np.abs(np.fft.rfft(column))


def oracle_leading_magnitudes(n: int, geom: TorusGeometry, k_count: int, M: int) -> np.ndarray:
    """Richardson-extrapolated leading distinct |lambda| magnitudes, grids M and 2M.

    The discretized |lambda| are the singular values sigma_j(B); they converge
    with order ~2 (midpoint rule, jump on the diagonal handled by averaging),
    and (4 * fine - coarse) / 3 over M and 2M removes the leading error term. The k-th
    distinct one is entry k of the unsorted |FFT| (k >= 1 roots are doubly
    degenerate: entries k and M - k), which falls from k = 0 to M/2; past M/2
    a grid has no further distinct magnitude, so k_count > M/2 + 1 raises
    ParameterOutOfRange.
    """
    _check_count(k_count, "k_count")
    if k_count > M // 2 + 1:
        raise ParameterOutOfRange(f"{k_count} distinct magnitudes need a grid of at least "
                                  f"{2 * (k_count - 1)} points, got M = {M}")
    coarse, fine = (_mode_fft_magnitudes(n, geom, m)[:k_count] for m in (M, 2 * M))
    return (4.0 * fine - coarse) / 3.0


def mode_logdet(n: int, geom: TorusGeometry, M: int, zeta: float) -> float:
    """log det(1 + zeta K_n) of the discretized mode-n operator: its eigenvalues
    +/- i sigma_j pair into sum_j log(1 + (zeta sigma_j)^2) = log det(I + zeta^2 B B^T),
    summed over the |FFT| entries 0..M/2, the interior ones twice."""
    terms = np.log1p((zeta * _mode_fft_magnitudes(n, geom, M)) ** 2)
    return float(terms.sum() + terms[1:(M + 1) // 2].sum())


def mode_logdet_extrapolated(n: int, geom: TorusGeometry, M: int, zeta: float) -> float:
    """Three-grid Richardson value of log det(1 + zeta K_n).

    The determinant converges O(1/M) (spectrum tail), so grids M/2, M, 2M
    with weights (1, -6, 8)/3 remove the 1/M and 1/M^2 error terms around the
    nominal grid M, which must be even and at least 32 (M/2 takes 16 points).
    """
    _check_count(M, "M", 32)
    if M % 2 != 0:
        raise ParameterOutOfRange("M must be even for the three-grid ladder")
    d1 = mode_logdet(n, geom, M // 2, zeta)
    d2 = mode_logdet(n, geom, M, zeta)
    d3 = mode_logdet(n, geom, 2 * M, zeta)
    return (d1 - 6.0 * d2 + 8.0 * d3) / 3.0


def _log_cosh_ratio(X: float, Y: float) -> float:
    """log[(cosh X - 1)/(cosh Y - 1)] for X, Y > 0, overflow free."""
    return (X - Y) + 2.0 * (math.log1p(-math.exp(-X)) - math.log1p(-math.exp(-Y)))


def log_xi2_closed(zeta: float, geom: TorusGeometry, n_max: int) -> float:
    """log of the closed-form grand partition function with n_max mode pairs:

        log theta4(0;q)^2 + 2 sum_{j=1}^{n_max}
            log[ (cosh(W sqrt(mu_j^2 + (2 pi zeta)^2)) - 1)/(cosh(W mu_j) - 1) ]

    with mu_j = pi(2j-1)/L and q = exp(-pi W/L). Each factor is squared
    because the Fourier modes n = j-1 and n = -j share |mu|.
    """
    _check_count(n_max, "n_max")
    _check_real(zeta, "zeta", 0, closed=True)
    _, q4 = _theta_constants(geom)
    total = 2.0 * math.log(q4)
    for j in range(1, n_max + 1):
        mu = math.pi * (2 * j - 1) / geom.L
        X = geom.W * math.hypot(mu, 2.0 * math.pi * zeta)
        Y = geom.W * mu
        total += 2.0 * _log_cosh_ratio(X, Y) if zeta > 0 else 0.0
    return _check_finite(total, f"log Xi at zeta = {zeta!r}")


def xi2_closed(zeta: float, geom: TorusGeometry, n_max: int) -> float:
    """Closed-form grand partition function; equals theta4(0;q)^2 at zeta = 0.
    A value that overflows a double raises PrecisionUnreachable; its log is
    ``log_xi2_closed``."""
    log_xi = log_xi2_closed(zeta, geom, n_max)
    if zeta == 0.0:
        _, q4 = _theta_constants(geom)
        return q4 * q4
    if log_xi > _LOG_MAX:
        raise PrecisionUnreachable(f"Xi = e^{log_xi:.1f} overflows a double; see log_xi2_closed")
    return math.exp(log_xi)


def oracle_log_xi2(zeta: float, geom: TorusGeometry, n_pairs: int, M: int) -> float:
    """Oracle-assembled log Xi over the same modes as the closed form.

    Each pair j covers the signed Fourier modes n = j-1 and n = -j, whose
    discretized determinants are equal by the mu -> -mu symmetry, so each
    log-det enters twice. Per-mode determinants are Richardson extrapolated
    around the nominal grid M; a total out of double range is refused.
    """
    _check_real(zeta, "zeta", 0, closed=True)
    _check_count(n_pairs, "n_pairs")
    _, q4 = _theta_constants(geom)
    total = 2.0 * math.log(q4)
    with np.errstate(over="ignore"):
        for j in range(1, n_pairs + 1):
            total += 2.0 * mode_logdet_extrapolated(j - 1, geom, M, zeta)
    return _check_finite(total, f"the oracle's log Xi at zeta = {zeta!r}")


def pressure_sum(zeta: float, L: float, cutoff: int) -> float:
    """Regularized mode sum

        4 pi sum_{n=1}^{cutoff} [ sqrt(zeta^2 + ((n-1/2)/L)^2) - (n-1/2)/L ],

    written in the cancellation-free form zeta (zeta/(hypot(zeta, x) + x)), x =
    (n-1/2)/L, which forms no zeta^2: at zeta = 1e-160 that square is
    subnormal. Grows like b(Lambda) L with a log-divergent slope and carries a
    universal -pi/(6 L) finite-size term; ``fit_pressure`` extracts both. A
    zeta^2 + x^2 past double range, 2^52 modes (k - 1/2 no longer a double) or
    a mode count whose arrays the allocator refuses is refused.
    """
    _check_count(cutoff, "cutoff")
    _check_real(L, "L", 0)
    _check_real(zeta, "zeta", 0, closed=True)
    if cutoff >= 2**52:
        raise PrecisionUnreachable(f"{cutoff} modes: k - 1/2 is no longer a double past 2^52")
    with np.errstate(over="ignore"):
        try:
            x = (np.arange(1, cutoff + 1) - 0.5) / L
            s = np.hypot(zeta, x)
        except MemoryError:
            raise PrecisionUnreachable(f"{cutoff} modes do not fit in memory") from None
    x_max = float(x[-1])   # x grows with k; at zeta = 0 the sum is 0
    if zeta and not math.isfinite(zeta * zeta + x_max * x_max):
        raise PrecisionUnreachable(f"zeta^2 + x^2 at zeta = {zeta!r}, L = {L!r} leaves double range")
    return float(4.0 * math.pi * np.sum(zeta * (zeta / (s + x))))


def _least_squares(columns, values) -> tuple[list[float], float]:
    """Least-squares coefficients of the design matrix with these columns
    against ``values``, and the largest absolute residual of the fit; a
    rank-deficient design raises ParameterOutOfRange."""
    design = np.column_stack(columns)
    values = np.asarray(values, dtype=float)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < design.shape[1]:
        raise ParameterOutOfRange("ladder design matrix is rank deficient")
    return coeffs.tolist(), float(np.max(np.abs(design @ coeffs - values)))


@dataclass(frozen=True)
class PressureFit:
    """Coefficients of a + b L + c / L fitted to the regularized mode sum."""

    a: float
    b: float
    c: float
    residual: float


def fit_pressure(zeta: float, Ls, cutoff_density: int) -> PressureFit:
    """Fit a + b L + c/L over a ladder of widths at fixed cutoff density.

    The cutoff is Lambda * L modes, kept integer so the sharp cutoff does not
    alias into the 1/L coefficient.
    """
    _check_count(cutoff_density, "cutoff_density")
    for L in Ls:   # the rung and, before it is rounded, its mode count
        _check_real(L, "L", 0)
        _check_real(cutoff_density * L, "cutoff_density * L", 0)
    Ls = np.asarray(Ls, dtype=float)
    vals = [pressure_sum(zeta, L, int(round(cutoff_density * L))) for L in Ls]
    (a, b, c), resid = _least_squares([np.ones_like(Ls), Ls, 1.0 / Ls], vals)
    return PressureFit(a=a, b=b, c=c, residual=resid)


@dataclass(frozen=True)
class GrandPotentialBreakdown:
    """Fitted decomposition of -log Xi over a fixed-aspect geometry ladder.

    bulk is the fitted extensive part evaluated at the given geometry
    (-beta P * L W with beta P = -bulk_per_area); o1_fitted is the ladder
    remainder, which converges to -2 log(q^{1/12} prod(1-q^{2n})), the
    ``resolved_term`` of ``universality.casimir_report``.
    """

    bulk: float
    bulk_per_area: float
    o1_fitted: float
    fit_residual: float


def log_xi2_asymptotic(zeta: float, geom: TorusGeometry) -> GrandPotentialBreakdown:
    """Ladder fit of -log Xi = b * area + c at fixed aspect ratio and zeta.

    The rungs scale the torus by 1, 1.5, ..., 3 from a base of L = max(L, 4)
    at the aspect W/L of ``geom``, so the smallest rung has L >= 4. The mode
    cutoff is Lambda * L per rung (integer), Lambda = _LADDER_CUTOFF_DENSITY;
    the fitted constant c is the O(1) finite-size term. It is zeta independent
    for zeta > 0 and matches -2 log eta_q(e^{-pi W/L}); at zeta = 0 every rung
    is -2 log theta4(0), so zeta <= 0 is refused.
    """
    _check_real(zeta, "zeta", 0)
    L0, W0 = (geom.L, geom.W) if geom.L >= 4.0 else (4.0, 4.0 * geom.W / geom.L)
    areas, vals = [], []
    for s in (1.0, 1.5, 2.0, 2.5, 3.0):
        L, W = L0 * s, W0 * s
        n_max = int(round(_LADDER_CUTOFF_DENSITY * L))
        g = TorusGeometry(L, W, 1)
        vals.append(-log_xi2_closed(zeta, g, n_max))
        areas.append(L * W)
    (b, c), resid = _least_squares([areas, np.ones(len(areas))], vals)
    return GrandPotentialBreakdown(bulk=b * geom.area, bulk_per_area=b, o1_fitted=c,
                                   fit_residual=resid)
