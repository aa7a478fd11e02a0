"""End-to-end verification suite.

Each check pins one family of closed forms against an independent numerical
route at a fixed tolerance and returns a :class:`CriterionResult`; ``run_all``
executes the whole gate. The CLI ``selftest`` subcommand and the acceptance
test module both drive these functions. The CLI ``verify-identities``,
``landau`` and ``ocp`` subcommands run the same loops at user-chosen sizes
through ``identities.identity_draws`` with ``IDENTITY_MAX_REL``,
``factorization_spread`` with ``FACTORIZATION_MAX_SPREAD`` and
``plasma.PartitionCheck.passed``, so the pass/fail logic lives in exactly one
place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coulombgas import (
    eigen_roots,
    fit_pressure,
    log_xi2_closed,
    oracle_leading_magnitudes,
    oracle_log_xi2,
    xi2_closed,
)
from .electrostatics import phi_periodic, phi_quasi
from .errors import _check_count
from .geometry import TorusGeometry
from .identities import identity_draws
from .landau import MagneticSetup, factorization_ratio
from .plasma import verify_partition_lattice, zn_closed
from .theta import theta4
from .universality import casimir_report


IDENTITY_MAX_REL = 1e-9          # a well-conditioned identity draw passes below this
FACTORIZATION_MAX_SPREAD = 1e-9  # the Slater/product ratio spread passes below this


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(name, passed, detail, time.perf_counter() - t0)


def factorization_spread(setup: MagneticSetup, rng: np.random.Generator, draws: int):
    """Slater/product ratio over ``draws`` >= 1 uniform configurations in the
    cell: returns the spread max|r - mean|/|mean| and the mean ratio. One
    ``rng.uniform`` call draws every configuration, each its N x then its N y
    coordinates, the stream of drawing them one after another."""
    _check_count(draws, "draws")
    U = rng.uniform(0.0, [[setup.L], [setup.W2]], (draws, 2, setup.N))
    ratios = factorization_ratio(U[:, 0] + 1j * U[:, 1], setup)
    mean = np.mean(ratios)
    return float(np.max(np.abs(ratios - mean)) / abs(mean)), mean


def check_identity_suite(seed: int = 2024) -> CriterionResult:
    """Vandermonde-type and Cauchy-type theta determinant identities:
    100 random draws per size, relative residual < 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for qv in (0.1, 0.3, 0.5):
        for _, _, r in identity_draws(rng, qv, range(2, 7), range(1, 5), 100):
            failures += np.count_nonzero(~r.passes(IDENTITY_MAX_REL))
            worst = max(worst, np.max(r.rel_residual, where=~r.near_zero, initial=0.0))
    return _result(
        "identity-suite",
        failures == 0,
        f"worst well-conditioned relative residual {worst:.3e} (tol {IDENTITY_MAX_REL:.0e}); "
        f"{failures} draws out of tolerance",
        t0,
    )


def check_wavefunction_factorization(seed: int = 7) -> CriterionResult:
    """Determinant and product forms of the filled-level state agree up to one
    configuration-independent constant, 50 random draws per N <= 5, 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    constants = {}
    for N in range(1, 6):
        spread, mean = factorization_spread(MagneticSetup.plasma_mapping(L=1.2, N=N), rng, 50)
        worst = max(worst, spread)
        constants[N] = complex(np.round(mean, 12)) + 0j   # + 0j turns -0.0 into 0.0
    return _result(
        "wavefunction-factorization",
        worst < FACTORIZATION_MAX_SPREAD,
        f"worst ratio spread {worst:.3e} (tol {FACTORIZATION_MAX_SPREAD:.0e}); "
        f"constants {constants}",
        t0,
    )


def check_electrostatics() -> CriterionResult:
    """Double periodicity to 1e-10, five-point Laplacian equals 2*pi/(LW) to
    1e-4 relative at h = 1e-3, and the -log|z-z'| short-distance law."""
    t0 = time.perf_counter()
    geom = TorusGeometry(1.3, 0.9, 1)
    z, zp = 0.41 + 0.23j, 0.87 + 0.55j
    ok = True
    details = []

    per = max(
        abs(phi_periodic(z + geom.L, zp, geom) - phi_periodic(z, zp, geom)),
        abs(phi_periodic(z + 1j * geom.W, zp, geom) - phi_periodic(z, zp, geom)),
    )
    ok &= per < 1e-10
    details.append(f"periodicity {per:.2e}")

    h = 1e-3
    target = 2.0 * math.pi / geom.area
    lap = (
        phi_periodic(z + h, zp, geom)
        + phi_periodic(z - h, zp, geom)
        + phi_periodic(z + 1j * h, zp, geom)
        + phi_periodic(z - 1j * h, zp, geom)
        - 4.0 * phi_periodic(z, zp, geom)
    ) / h**2
    rel = abs(lap - target) / target
    ok &= rel < 1e-4
    details.append(f"laplacian rel {rel:.2e}")

    rem = [phi_quasi(zp + d, zp, geom) + math.log(d) for d in (1e-3, 1e-4)]
    ok &= abs(rem[1]) < 1e-6 and abs(rem[1]) < abs(rem[0])
    details.append(f"short-distance remainders {rem[0]:.2e}, {rem[1]:.2e}")

    return _result("electrostatics", bool(ok), "; ".join(details), t0)


def check_partition_integrals() -> CriterionResult:
    """Defining integral against its closed form by the midpoint lattice rule,
    N = 1 at (L, W) = (1, 1) and (2, 1) and N = 2 at (1, 1): relative
    deviation < QUAD_MAX_REL (``PartitionCheck.passed``)."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for N, L, W in ((1, 1.0, 1.0), (1, 2.0, 1.0), (2, 1.0, 1.0)):
        chk = verify_partition_lattice(TorusGeometry(L, W, N))
        ok &= chk.passed
        nx, ny = chk.estimate.grid
        details.append(f"N={N} L={L} W={W}: rel {chk.rel_deviation:.2e} on {nx}x{ny}")
    return _result("partition-integrals", bool(ok), "; ".join(details), t0)


def check_partition_chain() -> CriterionResult:
    """The prefactor and product closed forms agree to 1e-10 under exactly one
    nome convention, uniformly over N in 1..6 and W/L in {0.5, 1, 2}."""
    t0 = time.perf_counter()
    tol = 1e-10
    worst_resolved = 0.0
    other_min = math.inf
    for N in range(1, 7):
        for WL in (0.5, 1.0, 2.0):
            chain = zn_closed(N, TorusGeometry(1.0, WL, N))
            worst_resolved = max(worst_resolved, chain.rel_mismatch_WL)
            if WL != 1.0:
                other_min = min(other_min, chain.rel_mismatch_LW)
    passed = worst_resolved < tol and other_min > 1e-2
    return _result(
        "partition-chain",
        passed,
        f"q=exp(-pi W/L) convention: worst rel {worst_resolved:.3e}; "
        f"alternative nome off by >= {other_min:.3f} away from the square",
        t0,
    )


def check_mode_spectrum() -> CriterionResult:
    """Closed-form eigenvalue roots against the discretized operator spectrum,
    Richardson extrapolated from M in {1600, 3200}: < 1e-9 relative."""
    t0 = time.perf_counter()
    geom = TorusGeometry(1.0, 1.0, 1)
    worst = 0.0
    for n in (0, 1, 2):
        exact = eigen_roots(n, geom, 2).abs_lambda
        got = oracle_leading_magnitudes(n, geom, 3, Ms=(1600, 3200))
        worst = max(worst, float(np.max(np.abs(got - exact) / exact)))
    return _result(
        "mode-spectrum",
        worst < 1e-9,
        f"worst first-three-roots rel deviation {worst:.3e} at M=1600,3200 (tol 1e-9)",
        t0,
    )


def check_grand_partition() -> CriterionResult:
    """Grand partition function: empty-gas value theta4(0;q)^2 exactly, and the
    closed form against the oracle determinant at zeta*L = 0.5 and grid
    M = 3200 within 1e-7."""
    t0 = time.perf_counter()
    geom = TorusGeometry(1.0, 1.0, 1)
    empty = abs(xi2_closed(0.0, geom, 8) - theta4(0.0, geom.nome_WL).real ** 2)
    lc = log_xi2_closed(0.5, geom, 8)
    lo = oracle_log_xi2(0.5, geom, 8, M=3200)
    rel = abs(math.exp(lc) - math.exp(lo)) / math.exp(lc)
    passed = empty < 1e-14 and rel < 1e-7
    return _result(
        "grand-partition",
        passed,
        f"empty-gas abs dev {empty:.1e}; closed vs oracle rel {rel:.3e} at M=3200 (tol 1e-7)",
        t0,
    )


def check_pressure_term() -> CriterionResult:
    """The 1/L coefficient of the regularized mode sum has magnitude pi/6
    within 1% and is stable within 1% between cutoff densities 40 and 80.
    The sum itself carries the coefficient with a minus sign."""
    t0 = time.perf_counter()
    Ls = np.arange(4, 17, dtype=float)
    target = math.pi / 6.0
    c40 = fit_pressure(1.0, Ls, 40).c
    c80 = fit_pressure(1.0, Ls, 80).c
    ok = (
        abs(abs(c40) - target) < 0.01 * target
        and abs(c40 - c80) < 0.01 * target
        and c40 < 0
    )
    return _result(
        "pressure-term",
        bool(ok),
        f"c(40) = {c40:.6f}, c(80) = {c80:.6f}, pi/6 = {target:.6f}",
        t0,
    )


def check_universality() -> CriterionResult:
    """On rectangles the O(1) term at the printed nome exp(-pi L/W) differs
    from the resolved term's negative by exactly log(W/L) (to 1e-10). Ladder
    fits reproduce the resolved term within 2%."""
    t0 = time.perf_counter()
    ok = True
    details = []

    for W in (0.5, 2.0):
        r = casimir_report(TorusGeometry(1.0, W, 1))
        gap = abs(r.discrepancies["ocp_vs_tcg_printed"] - r.modular_shift)
        ok &= gap < 1e-10
        details.append(f"W/L={W}: shift residual {gap:.1e}")

    for W in (4.0, 8.0):
        r = casimir_report(TorusGeometry(4.0, W, 1), zeta=0.5, run_ladders=True)
        rel_tcg = abs(r.fitted["tcg_ladder_vs_resolved"]) / abs(r.resolved_term)
        rel_ocp = abs(r.fitted["ocp_ladder_vs_resolved"]) / abs(r.resolved_term)
        ok &= rel_tcg < 0.02 and rel_ocp < 0.02
        details.append(f"ladders aspect {W/4:.0f}: tcg {rel_tcg:.4f}, ocp {rel_ocp:.1e}")

    return _result("universality", bool(ok), "; ".join(details), t0)


ALL_CHECKS: tuple[tuple[str, Callable[[], CriterionResult]], ...] = (
    ("identity-suite", check_identity_suite),
    ("wavefunction-factorization", check_wavefunction_factorization),
    ("electrostatics", check_electrostatics),
    ("partition-integrals", check_partition_integrals),
    ("partition-chain", check_partition_chain),
    ("mode-spectrum", check_mode_spectrum),
    ("grand-partition", check_grand_partition),
    ("pressure-term", check_pressure_term),
    ("universality", check_universality),
)


def run_all() -> list[CriterionResult]:
    """Run every criterion."""
    return [fn() for _, fn in ALL_CHECKS]
