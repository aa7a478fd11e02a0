"""Exactly solvable two-dimensional Coulomb systems on a torus.

The package provides the theta-function core with certified truncation, the
determinant identities behind the exact results, doubly periodic
electrostatics, torus lowest-Landau-level states, the exact one-component
plasma free energy, the two-component Coulomb-gas grand potential with its
spectral oracle, and the finite-size term shared by all of them. Every closed
form ships with an independent numerical route; ``torusgas.selftest`` runs the
whole verification gate.
"""

from .coulombgas import (
    GrandPotentialBreakdown,
    ModeSpectrum,
    PressureFit,
    eigen_roots,
    fit_pressure,
    g_fourier,
    kernel_K,
    log_xi2_asymptotic,
    log_xi2_closed,
    mode_oracle,
    oracle_log_xi2,
    pressure_sum,
    xi2_closed,
)
from .electrostatics import (
    background_I,
    nbody_weight,
    ocp_log_boltzmann,
    phi_periodic,
    phi_quasi,
)
from .geometry import ParticleConfig, TorusGeometry
from .identities import (
    IdentityResidual,
    fourier_det_constant,
    frobenius_residual,
    theta_vandermonde_residual,
)
from .landau import (
    MagneticSetup,
    factored_state,
    flux_constraint,
    psi_lll,
    slater_state,
)
from .plasma import (
    FreeEnergyBreakdown,
    IntegralEstimate,
    ZnChain,
    free_energy,
    verify_partition_lattice,
    verify_partition_mc,
    zn_closed,
)
from .theta import (
    Nome,
    eta_q,
    f_N,
    theta1,
    theta1_prime0,
    theta1_product,
    theta3,
    theta4,
    theta4_product,
)
from .universality import CasimirReport, casimir_report

__all__ = [
    "CasimirReport",
    "FreeEnergyBreakdown",
    "GrandPotentialBreakdown",
    "IdentityResidual",
    "IntegralEstimate",
    "MagneticSetup",
    "ModeSpectrum",
    "Nome",
    "ParticleConfig",
    "PressureFit",
    "TorusGeometry",
    "ZnChain",
    "background_I",
    "casimir_report",
    "eigen_roots",
    "eta_q",
    "f_N",
    "factored_state",
    "fit_pressure",
    "flux_constraint",
    "fourier_det_constant",
    "free_energy",
    "frobenius_residual",
    "g_fourier",
    "kernel_K",
    "log_xi2_asymptotic",
    "log_xi2_closed",
    "mode_oracle",
    "nbody_weight",
    "ocp_log_boltzmann",
    "oracle_log_xi2",
    "phi_periodic",
    "phi_quasi",
    "pressure_sum",
    "psi_lll",
    "slater_state",
    "theta1",
    "theta1_prime0",
    "theta1_product",
    "theta3",
    "theta4",
    "theta4_product",
    "theta_vandermonde_residual",
    "verify_partition_lattice",
    "verify_partition_mc",
    "xi2_closed",
    "zn_closed",
]

__version__ = "0.1.0"
