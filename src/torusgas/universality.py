"""The shared O(1) finite-size term and its convention report.

Three closed forms produce the same geometry-dependent constant: the exact
plasma free energy, the Coulomb-gas grand potential asymptote, and the
Gaussian-free-field torus determinant (zero mode excluded). All three are
built from log( q^{1/12} prod(1-q^{2n}) ), but the source formulas disagree
about which nome (exp(-pi W/L) versus exp(-pi L/W)) and about the overall
sign. The report states the resolved form that the ladder fits converge to,

    -2 log( q^{1/12} prod(1-q^{2n}) )  at  q = exp(-pi W/L),

positive for every geometry and equal for all three models, beside the term
at the other nome and the exact log(W/L) modular shift between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coulombgas import _least_squares, log_xi2_asymptotic
from .errors import _check_real
from .geometry import TorusGeometry
from .plasma import free_energy
from .theta import eta_q


@dataclass(frozen=True)
class CasimirReport:
    """The O(1) term, the nome convention's gap, and the ladder fits.

    ``resolved_term`` is the value the free energy and grand potential
    contain. ``ocp_term`` is the plasma's quoted form 2 log(q^{1/12}
    prod(1-q^{2n})) at q = exp(-pi L/W); ``modular_shift`` = log(W/L) is
    exactly its gap to the same form at exp(-pi W/L), which is
    -``resolved_term``.
    """

    ocp_term: float
    modular_shift: float
    resolved_term: float
    discrepancies: dict = field(default_factory=dict)
    fitted: dict = field(default_factory=dict)


def casimir_report(
    geom: TorusGeometry, zeta: float = 0.5, run_ladders: bool = False
) -> CasimirReport:
    """Assemble the O(1) term and the gap between the two nome conventions.

    With ``run_ladders`` the Coulomb-gas ladder fit and the exact plasma
    extensivity difference are evaluated as well, each compared against the
    resolved term.
    """
    _check_real(zeta, "zeta", 0)
    ocp_printed = 2.0 * math.log(eta_q(geom.nome_LW))   # quoted with q = exp(-pi L/W)
    resolved = -2.0 * math.log(eta_q(geom.nome_WL))

    discrepancies = {
        "ocp_vs_tcg_printed": ocp_printed + resolved,
        # 0.0 by construction, kept for its one reader, perfbench/workloads.py's
        # _check_casimir; item 8 of ROADMAP.md removes both
        "ocp_vs_tcg_resolved_nome": 0.0,
    }

    fitted = {}
    if run_ladders:
        br = log_xi2_asymptotic(zeta, geom)
        fitted["tcg_ladder_remainder"] = br.o1_fitted
        fitted["tcg_ladder_vs_resolved"] = br.o1_fitted - resolved
        fitted["ocp_ladder_remainder"] = _ocp_ladder_remainder(geom)
        fitted["ocp_ladder_vs_resolved"] = fitted["ocp_ladder_remainder"] - resolved

    return CasimirReport(
        ocp_term=ocp_printed,
        modular_shift=math.log(geom.W / geom.L),
        resolved_term=resolved,
        discrepancies=discrepancies,
        fitted=fitted,
    )


def _ocp_ladder_remainder(geom: TorusGeometry) -> float:
    """Intercept of beta*F(N) over an N ladder at unit density and the given
    aspect ratio; the bulk term is linear in N so the fit is exact."""
    ns = (2, 3, 4, 5, 6, 8)
    totals = []
    for N in ns:
        L = math.sqrt(N * geom.L / geom.W)
        totals.append(free_energy(N, TorusGeometry(L, N / L, N)).total)
    (_, intercept), _ = _least_squares([ns, np.ones(len(ns))], totals)
    return intercept
