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
in y), so they are |FFT| of its first column, in O(M log M) time and O(M)
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
    FitIllConditioned,
    GridTooCoarse,
    JumpPoint,
    ParameterOutOfRange,
    SingularSeparation,
    TruncationInsufficient,
)
from .geometry import TorusGeometry
from .theta import eta_q, lattice_distance, theta1, theta1_prime0, theta4


def _theta_constants(geom: TorusGeometry) -> tuple[float, float]:
    """Real (theta1'(0), theta4(0)) at q = exp(-pi W/L)."""
    nome = geom.nome_WL
    return theta1_prime0(nome).real, theta4(0.0, nome).real


def kernel_K(w: complex, z: complex, geom: TorusGeometry):
    """Two-point kernel (pi theta1'(0)/(L theta4(0))) * theta4(u)/theta1(u),
    u = pi (w - z)/L.

    Antiperiodic under w -> w + L; simple pole at w = z with residue 1, i.e.
    (w - z) * K -> 1.
    """
    nome = geom.nome_WL
    u = math.pi * (np.asarray(w, dtype=complex) - z) / geom.L
    if np.any(lattice_distance(u, nome) < 1e-9):
        raise SingularSeparation("w - z lies on the period lattice")
    tp, t4 = _theta_constants(geom)
    return math.pi * tp / (geom.L * t4) * theta4(u, nome) / theta1(u, nome)


def g_fourier(n: int, y, geom: TorusGeometry):
    """Fourier coefficient g_n(y) of theta4(pi(x+iy)/L)/theta1(pi(x+iy)/L)
    with respect to e^(i pi (2n+1) x/L), for -W < y < W, y != 0:

        g_n(y) = 2i (theta4(0)/theta1'(0)) e^(-pi(2n+1)y/L) / (1 - q^-(2n+1))

    times an extra q^-(2n+1) for 0 < y < W. Both branches are evaluated in the
    exponentially bounded rearrangement, so large |2n+1| is safe. The two
    one-sided limits at y = 0 differ by the jump ratio q^-(2n+1).
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    if np.any(np.abs(y_arr) >= geom.W):
        raise JumpPoint("y must lie in (-W, W)")
    if scalar and y_arr == 0.0:
        raise JumpPoint("g_n has a jump at y = 0; take one-sided limits")
    vals = _g_fourier_raw(n, np.atleast_1d(y_arr), geom)
    if scalar:
        return complex(vals[0])
    return vals


def _g_fourier_raw(n: int, y: np.ndarray, geom: TorusGeometry) -> np.ndarray:
    """Branchwise bounded evaluation; y = 0 entries get the jump midpoint."""
    tp, t4 = _theta_constants(geom)
    return 2j * t4 / tp * _g_branches(n, y, geom)


def _g_branches(n: int, y: np.ndarray, geom: TorusGeometry) -> np.ndarray:
    """The real, theta-free part of g_n(y): g_n = 2i (theta4(0)/theta1'(0))
    times this, whose lower branch (-W < y < 0) is its upper one at y + W."""
    L, W = geom.L, geom.W
    b = 2 * n + 1
    beta = abs(b)
    denom = 1.0 - geom.q_WL**beta
    if b > 0:
        upper = -np.exp(-math.pi * b * y / L) / denom          # 0 < y < W
        lower = -np.exp(-math.pi * b * (y + W) / L) / denom    # -W < y < 0
    else:
        upper = np.exp(math.pi * beta * (y - W) / L) / denom   # 0 < y < W
        lower = np.exp(math.pi * beta * y / L) / denom         # -W < y < 0
    return np.where(y > 0, upper, np.where(y < 0, lower, 0.5 * (upper + lower)))


def kernel_from_fourier(w: complex, z: complex, geom: TorusGeometry):
    """Resynthesize the kernel from its Fourier coefficients (oracle route),
    truncated where the dropped terms fall below 1e-12."""
    d = complex(w - z)
    x, y = d.real, d.imag
    if y == 0.0:
        raise JumpPoint("Fourier synthesis needs y != 0")
    depth = min(abs(y), geom.W - abs(y))
    bmax = max(3, math.ceil(geom.L * math.log(1e12) / (math.pi * depth)))
    n_lo = -(bmax + 1) // 2 - 1
    n_hi = (bmax + 1) // 2 + 1
    total = 0j
    for n in range(n_lo, n_hi + 1):
        total += g_fourier(n, y, geom) * np.exp(1j * math.pi * (2 * n + 1) * x / geom.L)
    tp, t4 = _theta_constants(geom)
    return math.pi * tp / (geom.L * t4) * total


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


def eigen_roots(n: int, geom: TorusGeometry, k_max: int) -> ModeSpectrum:
    """Analytic inversion of the eigenvalue condition for Fourier mode n.

    Returns the +/- i pairs v_k = +/- i sqrt(mu^2 + (2 pi k/W)^2) for
    k = 0..k_max and the corresponding lambdas 2*pi/v.
    """
    if k_max < 0:
        raise ParameterOutOfRange("k_max must be >= 0")
    mu = math.pi * (2 * n + 1) / geom.L
    ks = np.arange(0, k_max + 1)
    mags = np.sqrt(mu**2 + (2.0 * math.pi * ks / geom.W) ** 2)
    roots = np.concatenate([1j * mags, -1j * mags])
    lambdas = 2.0 * math.pi / roots
    return ModeSpectrum(n=n, mu=mu, roots=roots, lambdas=lambdas, W=geom.W)


def _mode_block(n: int, geom: TorusGeometry, M: int) -> np.ndarray:
    """Block A of the discretized coupled equations for mode n on the midpoint
    grid y_i = (i+1/2) W/M: the a-equation couples to b through g_n(y'-y) and
    the b-equation back through g_n(y-y'), so the operator is [[0, A], [A^T, 0]]
    with A_ij = (pi theta1'/theta4) h g_n(y_i - y_j). The theta constants
    cancel against those of g_n: A_ij = 2 pi i h _g_branches(y_i - y_j)."""
    if M < 16:
        raise GridTooCoarse("need at least 16 grid points")
    h = geom.W / M
    ys = (np.arange(M) + 0.5) * h
    diff = ys[:, None] - ys[None, :]
    return 2j * math.pi * h * _g_branches(n, diff.ravel(), geom).reshape(M, M)


def _mode_sigma(n: int, geom: TorusGeometry, M: int) -> np.ndarray:
    """Singular values sigma_j, descending, of the real B = A/i for mode n: g_n
    is 2i times a real function, so [[0, A], [A^T, 0]] has eigenvalues +/- i sigma_j.

    g_n is W-periodic in y (its lower branch is the upper one at y + W), so on
    the midpoint grid B_ij depends only on (i - j) mod M: B is circulant, and
    its singular values are |FFT| of its first column, B_i0 = 2 pi h
    _g_branches(i h) (the jump midpoint at i = 0); no theta constant enters."""
    if M < 16:
        raise GridTooCoarse("need at least 16 grid points")
    h = geom.W / M
    column = 2.0 * math.pi * h * _g_branches(n, np.arange(M) * h, geom)
    return np.sort(np.abs(np.fft.fft(column)))[::-1]


def mode_matrix(n: int, geom: TorusGeometry, M: int) -> np.ndarray:
    """Dense 2M x 2M operator [[0, A], [A^T, 0]] of mode n (test reference)."""
    A = _mode_block(n, geom, M)
    return np.block([[np.zeros_like(A), A], [A.T, np.zeros_like(A)]])


def mode_oracle(n: int, geom: TorusGeometry, M: int) -> np.ndarray:
    """Discretized mode-n spectrum +/- i sigma_j(B), sorted by |lambda| desc."""
    return np.outer(_mode_sigma(n, geom, M), [1j, -1j]).ravel()


def oracle_leading_magnitudes(
    n: int, geom: TorusGeometry, k_count: int, Ms=(100, 200)
) -> np.ndarray:
    """Richardson-extrapolated leading distinct |lambda| magnitudes.

    The discretized |lambda| are the singular values sigma_j(B); they converge
    with order ~2 (midpoint rule, jump on the diagonal handled by averaging),
    and extrapolating M and 2M removes the leading error term. They are
    de-duplicated (k >= 1 roots are doubly degenerate) with a relative tolerance.
    """
    coarse, fine = (_distinct_magnitudes(_mode_sigma(n, geom, M), k_count) for M in Ms)
    return (4.0 * fine - coarse) / 3.0


def _distinct_magnitudes(mags: np.ndarray, count: int) -> np.ndarray:
    out = []
    for m in mags:
        if not out or abs(m - out[-1]) > 1e-6 * max(out[-1], 1e-30):
            out.append(float(m))
        if len(out) == count:
            break
    return np.array(out)


def mode_logdet(n: int, geom: TorusGeometry, M: int, zeta: float) -> float:
    """log det(1 + zeta K_n) of the discretized mode-n operator: its eigenvalues
    +/- i sigma_j pair into sum_j log(1 + (zeta sigma_j)^2) = log det(I + zeta^2 B B^T)."""
    return float(np.sum(np.log1p((zeta * _mode_sigma(n, geom, M)) ** 2)))


def mode_logdet_extrapolated(n: int, geom: TorusGeometry, M: int, zeta: float) -> float:
    """Three-grid Richardson value of log det(1 + zeta K_n).

    The determinant converges O(1/M) (spectrum tail), so grids M/2, M, 2M
    with weights (1, -6, 8)/3 remove the 1/M and 1/M^2 error terms around the
    nominal grid M.
    """
    if M % 2 != 0:
        raise GridTooCoarse("M must be even for the three-grid ladder")
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
    if n_max < 1:
        raise TruncationInsufficient("need at least one mode pair")
    if zeta < 0:
        raise ParameterOutOfRange("zeta must be >= 0")
    _, q4 = _theta_constants(geom)
    total = 2.0 * math.log(q4)
    for j in range(1, n_max + 1):
        mu = math.pi * (2 * j - 1) / geom.L
        X = geom.W * math.hypot(mu, 2.0 * math.pi * zeta)
        Y = geom.W * mu
        total += 2.0 * _log_cosh_ratio(X, Y) if zeta > 0 else 0.0
    return total


def xi2_closed(zeta: float, geom: TorusGeometry, n_max: int) -> float:
    """Closed-form grand partition function; equals theta4(0;q)^2 at zeta = 0."""
    if zeta == 0.0:
        if n_max < 1:
            raise TruncationInsufficient("need at least one mode pair")
        _, q4 = _theta_constants(geom)
        return q4 * q4
    return math.exp(log_xi2_closed(zeta, geom, n_max))


def oracle_log_xi2(zeta: float, geom: TorusGeometry, n_pairs: int, M: int) -> float:
    """Oracle-assembled log Xi over the same modes as the closed form.

    Each pair j covers the signed Fourier modes n = j-1 and n = -j, whose
    discretized determinants are equal by the mu -> -mu symmetry, so each
    log-det enters twice. Per-mode determinants are Richardson extrapolated
    around the nominal grid M.
    """
    _, q4 = _theta_constants(geom)
    total = 2.0 * math.log(q4)
    for j in range(1, n_pairs + 1):
        total += 2.0 * mode_logdet_extrapolated(j - 1, geom, M, zeta)
    return total


def dlog_xi2_dzeta_sq(geom: TorusGeometry, n_max: int) -> float:
    """d log Xi / d(zeta^2) at zeta = 0 from the closed-form roots:

        2 sum_{j<=n_max} sum_k m_k (2 pi)^2/(mu_j^2 + (2 pi k/W)^2),

    m_0 = 1 and m_k = 2, summed in closed form via the coth identity.
    """
    total = 0.0
    W = geom.W
    for j in range(1, n_max + 1):
        mu = math.pi * (2 * j - 1) / geom.L
        a = W * mu / (2.0 * math.pi)
        # sum_{k>=1} 1/(k^2 + a^2) = (pi coth(pi a) - 1/a)/(2a), so the k >= 1
        # pairs (multiplicity 2) contribute 2 W^2 ksum on top of the k = 0 term
        ksum = (math.pi / math.tanh(math.pi * a) - 1.0 / a) / (2.0 * a)
        per_mode = (2.0 * math.pi) ** 2 / mu**2 + 2.0 * W**2 * ksum
        total += 2.0 * per_mode
    return total


def pressure_sum(zeta: float, L: float, cutoff: int) -> float:
    """Regularized mode sum

        4 pi sum_{n=1}^{cutoff} [ sqrt(zeta^2 + ((n-1/2)/L)^2) - (n-1/2)/L ],

    written in the cancellation-free form zeta^2/(sqrt(..) + x). Grows like
    b(Lambda) L with a log-divergent slope and carries a universal -pi/(6 L)
    finite-size term; ``fit_pressure`` extracts both.
    """
    if cutoff < 1:
        raise ParameterOutOfRange("cutoff must be >= 1")
    if zeta == 0.0:
        return 0.0
    x = (np.arange(1, cutoff + 1) - 0.5) / L
    s = np.sqrt(zeta * zeta + x * x)
    return float(4.0 * math.pi * np.sum(zeta * zeta / (s + x)))


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
    Ls = np.asarray(Ls, dtype=float)
    vals = np.array(
        [pressure_sum(zeta, L, int(round(cutoff_density * L))) for L in Ls]
    )
    design = np.column_stack([np.ones_like(Ls), Ls, 1.0 / Ls])
    coeffs, res, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < 3:
        raise FitIllConditioned("pressure ladder design matrix is rank deficient")
    resid = float(np.max(np.abs(design @ coeffs - vals)))
    return PressureFit(a=float(coeffs[0]), b=float(coeffs[1]), c=float(coeffs[2]), residual=resid)


@dataclass(frozen=True)
class GrandPotentialBreakdown:
    """Fitted decomposition of -log Xi over a fixed-aspect geometry ladder.

    bulk is the fitted extensive part evaluated at the base geometry
    (-beta P * L W with beta P = -bulk_per_area); o1_fitted is the ladder
    remainder; o1_resolved is the exact value -2 log(q^{1/12} prod(1-q^{2n}))
    it converges to, and o1_printed the opposite-sign closed form kept for the
    convention report.
    """

    bulk: float
    bulk_per_area: float
    o1_fitted: float
    o1_resolved: float
    o1_printed: float
    zeta: float
    cutoff_density: int
    fit_residual: float


def log_xi2_asymptotic(
    zeta: float, geom: TorusGeometry, cutoff_density: int
) -> GrandPotentialBreakdown:
    """Ladder fit of -log Xi = b * area + c at fixed aspect ratio and zeta.

    The mode cutoff is Lambda * L per rung (integer); the fitted constant c is
    the O(1) finite-size term. It is zeta independent and matches
    -2 log eta_q(e^{-pi W/L}).
    """
    areas, vals = [], []
    for s in (1.0, 1.5, 2.0, 2.5, 3.0):
        L, W = geom.L * s, geom.W * s
        n_max = int(round(cutoff_density * L))
        g = TorusGeometry(L, W, 1)
        vals.append(-log_xi2_closed(zeta, g, n_max))
        areas.append(L * W)
    areas = np.asarray(areas)
    vals = np.asarray(vals)
    design = np.column_stack([areas, np.ones_like(areas)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < 2:
        raise FitIllConditioned("ladder design matrix is rank deficient")
    resid = float(np.max(np.abs(design @ coeffs - vals)))
    b, c = float(coeffs[0]), float(coeffs[1])
    eta = eta_q(geom.q_WL)
    return GrandPotentialBreakdown(
        bulk=b * geom.area,
        bulk_per_area=b,
        o1_fitted=c,
        o1_resolved=-2.0 * math.log(eta),
        o1_printed=2.0 * math.log(eta),
        zeta=zeta,
        cutoff_density=cutoff_density,
        fit_residual=resid,
    )
