"""Exact partition function and free energy of the augmented periodic plasma.

At coupling Gamma = 2 the quasi-periodic one-component plasma, multiplied by
the center-of-mass weight, integrates in closed form. The chain of closed
forms is evaluated three ways:

* ``middle`` - the prefactor form (pi theta1'(0;q)/L)^N
  e^{-(N^2/3) log(theta1'(0;q)/2)} (L N (2 rho)^{-1/2})^N f_N(q)^{-2} at
  q = exp(-pi W/L);
* the product form pi^N (rho/2)^{-N/2} q^{1/6} prod(1-q^{2k})^2 evaluated
  under both candidate nomes exp(-pi W/L) and exp(-pi L/W).

``zn_closed`` reports which candidate reproduces the middle form; the match is
exact (all N, all aspect ratios) for q = exp(-pi W/L) with the (rho/2)^{-N/2}
normalization, which fixes both the nome convention and the overall constant
of the product form. The defining 2N-dimensional integral is verified by
adaptive quadrature (N = 1) and seeded Monte Carlo (N = 2, 3).

The Monte Carlo draws its samples in batches of 100,000 rows but evaluates the
integrand over row blocks of ``_MC_BLOCK`` rows. A 1e5-row theta call builds
1.6-3.2 MB complex temporaries that the allocator hands back to the operating
system when freed, so every call faults them in again as zero-filled pages
(about 12,000 minor faults per 1e5-row call at N = 2); an 8192-row block
reuses the same memory and takes none, and a Monte Carlo call at 1e5 samples
takes 55-66% of its former time (2-core Xeon, N = 2 and 3, W/L 0.5-2).
Every row is evaluated by the same elementwise arithmetic, so the values are
bit-identical to a single call over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    QuadratureNonConvergence,
    SeedRequired,
)
from .geometry import TorusGeometry
from .theta import eta_q, f_N, qpochhammer_sq, theta1, theta1_prime0


@dataclass(frozen=True)
class ZnChain:
    """Closed-form partition function evaluated along the identity chain."""

    N: int
    middle_form: float
    final_form: float
    final_form_WL: float
    final_form_LW: float
    printed_final_WL: float
    printed_final_LW: float
    resolved_nome: str
    log_middle: float
    log_final: float

    @property
    def rel_mismatch_WL(self) -> float:
        return abs(self.middle_form - self.final_form_WL) / self.middle_form

    @property
    def rel_mismatch_LW(self) -> float:
        return abs(self.middle_form - self.final_form_LW) / self.middle_form


@dataclass(frozen=True)
class FreeEnergyBreakdown:
    """beta*F split into extensive and O(1) pieces; surface term vanishes."""

    bulk: float
    surface: float
    casimir: float
    total: float


@dataclass(frozen=True)
class IntegralEstimate:
    """A numerical integral value with its error measure and provenance."""

    value: float
    std_error: float
    samples: int
    seed: int


@dataclass(frozen=True)
class PartitionCheck:
    """Numerical estimate of the defining integral against its closed form."""

    estimate: IntegralEstimate
    closed_form: float
    rel_deviation: float

    @property
    def pull(self) -> float:
        """|estimate - closed form| in units of the estimate's error measure."""
        return abs(self.estimate.value - self.closed_form) / self.estimate.std_error


def _log_middle(N: int, geom: TorusGeometry) -> float:
    q = geom.q_WL
    tp = theta1_prime0(geom.nome_WL).real
    rho = N / geom.area
    val = N * math.log(math.pi * tp / geom.L)
    val -= (N * N / 3.0) * math.log(tp / 2.0)
    val += N * math.log(geom.L * N) - (N / 2.0) * math.log(2.0 * rho)
    val -= 2.0 * math.log(f_N(N, q))
    return val


def _log_product_form(N: int, rho: float, q: float) -> float:
    """log of pi^N (rho/2)^{-N/2} q^{1/6} prod(1-q^{2k})^2."""
    return (
        N * math.log(math.pi)
        - (N / 2.0) * math.log(rho / 2.0)
        + math.log(q) / 6.0
        + 2.0 * math.log(qpochhammer_sq(q))
    )


def zn_closed(N: int, geom: TorusGeometry) -> ZnChain:
    """Evaluate the partition-function chain and resolve its nome convention.

    The printed product form carries (2 rho)^{-N/2}; the chain actually closes
    with (rho/2)^{-N/2} (a factor 2^N from theta1'(0) = 2 q^{1/4} (q^2;q^2)^3),
    and with the nome q = exp(-pi W/L), the same one the prefactor form uses.
    Both corrected candidates and both literal printed candidates are reported.
    """
    if N < 1:
        raise DimensionMismatch("N must be >= 1")
    geom = TorusGeometry(geom.L, geom.W, N)
    rho = geom.rho
    lm = _log_middle(N, geom)
    lf_wl = _log_product_form(N, rho, geom.q_WL)
    lf_lw = _log_product_form(N, rho, geom.q_LW)
    resolved = "W/L" if abs(lm - lf_wl) <= abs(lm - lf_lw) else "L/W"
    lf = lf_wl if resolved == "W/L" else lf_lw
    return ZnChain(
        N=N,
        middle_form=math.exp(lm),
        final_form=math.exp(lf),
        final_form_WL=math.exp(lf_wl),
        final_form_LW=math.exp(lf_lw),
        printed_final_WL=math.exp(lf_wl - N * math.log(2.0)),
        printed_final_LW=math.exp(lf_lw - N * math.log(2.0)),
        resolved_nome=resolved,
        log_middle=lm,
        log_final=lf,
    )


def free_energy(N: int, geom: TorusGeometry) -> FreeEnergyBreakdown:
    """beta*F = -log Z_N, split as bulk + surface + finite-size term.

    bulk is (N/2) log(rho/(2 pi^2)) per the disk-geometry value; the surface
    term vanishes identically on the torus; the O(1) term is
    -2 log( q^{1/12} prod(1-q^{2k}) ) at q = exp(-pi W/L). Note the sign: Z_N
    is proportional to eta^2, so -log Z_N subtracts the eta term.
    """
    geom = TorusGeometry(geom.L, geom.W, N)
    bulk = (N / 2.0) * math.log(geom.rho / (2.0 * math.pi**2))
    casimir = -2.0 * math.log(eta_q(geom.q_WL))
    return FreeEnergyBreakdown(
        bulk=bulk, surface=0.0, casimir=casimir, total=bulk + casimir
    )


def partition_integral_closed(N: int, geom: TorusGeometry) -> float:
    """Closed form of the defining 2N-dim integral:

        N! (L N (2 rho)^{-1/2})^N f_N(q)^{-2},   q = exp(-pi W/L).
    """
    rho = N / geom.area
    return (
        math.factorial(N)
        * (geom.L * N / math.sqrt(2.0 * rho)) ** N
        * f_N(N, geom.q_WL) ** -2
    )


def _integrand_batch(x: np.ndarray, y: np.ndarray, geom: TorusGeometry) -> np.ndarray:
    """Vectorized integrand over a (batch, N) block of coordinates:

        e^{-2 pi rho sum (y_j - W/2)^2}
        |theta1(pi sum (conj(z_j) - (L - iW)/2)/L; q)|^2
        prod_{j<k} |theta1(pi (z_k - z_j)/L; q)|^2
    """
    L, W = geom.L, geom.W
    N = x.shape[1]
    rho = N / geom.area
    nome = geom.nome_WL
    z = x + 1j * y
    gauss = np.exp(-2.0 * math.pi * rho * np.sum((y - W / 2.0) ** 2, axis=1))
    com_arg = math.pi * np.sum(np.conj(z) - (L - 1j * W) / 2.0, axis=1) / L
    vals = gauss * _abs2(theta1(com_arg, nome))
    for j in range(N):
        for k in range(j + 1, N):
            vals *= _abs2(theta1(math.pi * (z[:, k] - z[:, j]) / L, nome))
    return vals


def _abs2(t: np.ndarray) -> np.ndarray:
    """|t|^2 as re^2 + im^2, without the square root np.abs takes."""
    return t.real**2 + t.imag**2


def verify_partition_quadrature(geom: TorusGeometry) -> PartitionCheck:
    """Adaptive 2d quadrature of the N = 1 integral against the closed form."""
    if geom.N != 1:
        raise DimensionMismatch("quadrature check is for N = 1")

    def f(y, x):
        return float(
            _integrand_batch(np.array([[x]]), np.array([[y]]), geom)[0]
        )

    value, err = integrate.dblquad(
        f, 0.0, geom.L, 0.0, geom.W, epsabs=1e-9, epsrel=1e-10
    )
    closed = partition_integral_closed(1, geom)
    if err > max(1e-9, 1e-7 * abs(value)) * 100:
        raise QuadratureNonConvergence(f"dblquad error estimate {err}")
    est = IntegralEstimate(value=value, std_error=err, samples=0, seed=0)
    return PartitionCheck(est, closed, abs(value - closed) / closed)


# Rows per integrand call in the Monte Carlo: small enough that the theta
# temporaries are reused rather than page-faulted in afresh (4096-16384 time
# the same at N = 2; N = 3 at W/L = 0.5 is slower from 16384 up).
_MC_BLOCK = 8192


def verify_partition_mc(geom: TorusGeometry, samples: int, seed: int | None) -> PartitionCheck:
    """Uniform-sampling Monte Carlo for the N in {2, 3} integral.

    Plain uniform sampling is unbiased and the integrand is bounded on the
    torus, so the standard error scales as 1/sqrt(samples). Deterministic for
    a given seed: the coordinates are drawn in batches of 100,000 rows, and
    each batch is evaluated in row blocks of ``_MC_BLOCK``, which gives the
    same values as one call over the batch without page-faulting its
    temporaries in afresh (see the module docstring).
    """
    if geom.N not in (2, 3):
        raise DimensionMismatch("Monte Carlo check is for N in {2, 3}")
    if seed is None:
        raise SeedRequired("pass an explicit integer seed")
    if samples < 100_000:
        raise InsufficientSamples(f"{samples} < 1e5 samples")

    rng = np.random.default_rng(seed)
    N = geom.N
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(100_000, samples - done)
        x = rng.uniform(0.0, geom.L, (b, N))
        y = rng.uniform(0.0, geom.W, (b, N))
        vals = np.concatenate([
            _integrand_batch(x[i:i + _MC_BLOCK], y[i:i + _MC_BLOCK], geom)
            for i in range(0, b, _MC_BLOCK)
        ])
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    vol = geom.area**N
    value = vol * mean
    std_error = vol * math.sqrt(var / samples)
    closed = partition_integral_closed(N, geom)
    est = IntegralEstimate(value=value, std_error=std_error, samples=samples, seed=seed)
    return PartitionCheck(est, closed, abs(value - closed) / closed)
