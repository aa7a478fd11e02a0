"""Reference routes that only the tests use.

The two-component gas's kernel K and its Fourier resynthesis, the Fourier
coefficients g_n, the dense mode operator and its circulant spectrum, the
closed-form d log Xi / d(zeta^2), and the Fourier determinant constants. Each
checks a library closed form or the library's own oracle from outside; none
is a public ``torusgas`` name. Test modules import them as ``from oracles
import ...``: pytest puts this directory on the import path.
"""

import math

import numpy as np

from torusgas.coulombgas import _g_branches, _grid_step, _mode_fft_magnitudes, _theta_constants
from torusgas.errors import CoincidentPoints, ParameterOutOfRange, _check_count
from torusgas.geometry import TorusGeometry
from torusgas.identities import IdentityResidual, _filled_level_phase
from torusgas.theta import _theta_apart, theta1


def kernel_K(w: complex, z: complex, geom: TorusGeometry):
    """Two-point kernel (pi theta1'(0)/(L theta4(0))) * theta4(u)/theta1(u),
    u = pi (w - z)/L.

    Antiperiodic under w -> w + L; simple pole at w = z with residue 1, i.e.
    (w - z) * K -> 1. A u within 1e-9 of the lattice (a zero of theta1)
    raises CoincidentPoints, read off the reduction theta4(u) is summed at,
    which theta1(u) shares, before any refusal of theta.
    """
    nome = geom.nome_WL
    with np.errstate(invalid="ignore"):   # a nan or inf w or z gives nan
        u = math.pi * (np.asarray(w, dtype=complex) - z) / geom.L
    t4u = _theta_apart(4, u, nome)
    if t4u is None:
        raise CoincidentPoints("w - z lies on the period lattice")
    tp, t4 = _theta_constants(geom)
    return math.pi * tp / (geom.L * t4) * t4u / theta1(u, nome)


def g_fourier(n: int, y, geom: TorusGeometry):
    """Fourier coefficient g_n(y) of theta4(pi(x+iy)/L)/theta1(pi(x+iy)/L)
    with respect to e^(i pi (2n+1) x/L), for -W < y < W, y != 0:

        g_n(y) = 2i (theta4(0)/theta1'(0)) e^(-pi(2n+1)y/L) / (1 - q^-(2n+1))

    times an extra q^-(2n+1) for 0 < y < W. Both branches are evaluated in the
    exponentially bounded rearrangement, so large |2n+1| is safe. The two
    one-sided limits at y = 0 differ by the jump ratio q^-(2n+1).
    """
    y_arr = np.asarray(y)
    scalar = y_arr.ndim == 0
    if y_arr.dtype.kind not in "iuf" or np.any(np.abs(y_arr) >= geom.W):
        raise ParameterOutOfRange("y must be real and lie in (-W, W)")
    if scalar and y_arr == 0.0:
        raise ParameterOutOfRange("g_n has a jump at y = 0; take one-sided limits")
    tp, t4 = _theta_constants(geom)
    vals = 2j * t4 / tp * _g_branches(n, np.atleast_1d(y_arr), geom)
    if scalar:
        return complex(vals[0])
    return vals


def kernel_from_fourier(w: complex, z: complex, geom: TorusGeometry):
    """Resynthesize the kernel from its Fourier coefficients (oracle route),
    truncated where the dropped terms fall below 1e-12."""
    d = complex(w - z)
    x, y = d.real, d.imag
    if y == 0.0:
        raise ParameterOutOfRange("Fourier synthesis needs y != 0")
    depth = min(abs(y), geom.W - abs(y))
    bmax = max(3, math.ceil(geom.L * math.log(1e12) / (math.pi * depth)))
    n_lo = -(bmax + 1) // 2 - 1
    n_hi = (bmax + 1) // 2 + 1
    total = 0j
    for n in range(n_lo, n_hi + 1):
        total += g_fourier(n, y, geom) * np.exp(1j * math.pi * (2 * n + 1) * x / geom.L)
    tp, t4 = _theta_constants(geom)
    return math.pi * tp / (geom.L * t4) * total


def _mode_block(n: int, geom: TorusGeometry, M: int) -> np.ndarray:
    """Block A of the discretized coupled equations for mode n on the midpoint
    grid y_i = (i+1/2) W/M: the a-equation couples to b through g_n(y'-y) and
    the b-equation back through g_n(y-y'), so the operator is [[0, A], [A^T, 0]]
    with A_ij = (pi theta1'/theta4) h g_n(y_i - y_j). The theta constants
    cancel against those of g_n: A_ij = 2 pi i h _g_branches(y_i - y_j)."""
    h = _grid_step(geom, M)
    ys = (np.arange(M) + 0.5) * h
    diff = ys[:, None] - ys[None, :]
    return 2j * math.pi * h * _g_branches(n, diff.ravel(), geom).reshape(M, M)


def mode_matrix(n: int, geom: TorusGeometry, M: int) -> np.ndarray:
    """Dense 2M x 2M operator [[0, A], [A^T, 0]] of mode n (test reference)."""
    A = _mode_block(n, geom, M)
    return np.block([[np.zeros_like(A), A], [A.T, np.zeros_like(A)]])


def mode_oracle(n: int, geom: TorusGeometry, M: int) -> np.ndarray:
    """Discretized mode-n spectrum +/- i sigma_j(B), sorted by |lambda| desc.

    g_n is 2i times a real function, so [[0, A], [A^T, 0]] has eigenvalues
    +/- i sigma_j, the singular values of the real B = A/i. g_n is W-periodic
    in y (its lower branch is the upper one at y + W), so on the midpoint grid
    B_ij depends only on (i - j) mod M: B is circulant, and its singular values
    are |FFT| of its first column, entry k equal to entry M - k: the half
    ``_mode_fft_magnitudes`` with its interior taken twice."""
    half = _mode_fft_magnitudes(n, geom, M)
    sigma = np.sort(np.concatenate([half, half[1:(M + 1) // 2]]))[::-1]
    return np.outer(sigma, [1j, -1j]).ravel()


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


def fourier_det_constant(N: int, half_shift: bool = False) -> IdentityResidual:
    """det[e^(2*pi*i*l*k/N)] (or the k+1/2 variant) against its closed form.

    The plain constant is N^(N/2) i^((N-1)(3N/2+1)); the half-shift variant
    carries an extra i^(N+1).
    """
    _check_count(N)
    ls = np.arange(1, N + 1)
    ks = np.arange(0, N) + (0.5 if half_shift else 0.0)
    det = complex(np.linalg.det(np.exp(2j * math.pi * np.outer(ls, ks) / N)))
    const = N ** (N / 2.0) * _filled_level_phase(N)
    if half_shift:
        const *= 1j ** ((N + 1) % 4)
    return IdentityResidual.from_sides(det, complex(const))
