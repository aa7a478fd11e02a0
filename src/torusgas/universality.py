"""The shared O(1) finite-size term and its convention report.

Three closed forms produce the same geometry-dependent constant: the exact
plasma free energy, the Coulomb-gas grand potential asymptote, and the
Gaussian-free-field torus determinant (zero mode excluded). All three are
built from log( q^{1/12} prod(1-q^{2n}) ), but the source formulas disagree
about which nome (exp(-pi W/L) versus exp(-pi L/W)) and about the overall
sign. The report never silently picks: it evaluates every convention, shows
the exact log(W/L) modular shift that reconciles the two nomes, and states the
resolved form that the ladder fits actually converge to, namely

    -2 log( q^{1/12} prod(1-q^{2n}) )  at  q = exp(-pi W/L),

positive for every geometry and equal for all three models.
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


def gff_constant(nome) -> float:
    """Gaussian-free-field constant 2 log( q^{1/12} prod(1-q^{2n}) ).

    This is the literal closed form quoted for the field-theory prediction;
    see :func:`casimir_report` for the sign adjudication against the models.
    """
    return 2.0 * math.log(eta_q(nome))


@dataclass(frozen=True)
class CasimirReport:
    """Every convention of the O(1) term, with reconciliation data.

    ``ocp_term``/``tcg_term``/``gff_term`` are the literal closed forms at
    their quoted nomes (exp(-pi L/W) for the plasma, exp(-pi W/L) for the gas
    and the field theory). ``modular_shift`` = log(W/L) is exactly the gap
    between the two nome conventions; applying it (i.e. evaluating everything
    at exp(-pi W/L)) makes all printed terms equal. ``resolved_term`` is the
    sign-resolved value the free energy and grand potential actually contain.
    """

    ocp_term: float
    tcg_term: float
    gff_term: float
    ocp_term_resolved_nome: float
    modular_shift: float
    resolved_term: float
    discrepancies: dict = field(default_factory=dict)
    fitted: dict = field(default_factory=dict)


def casimir_report(
    geom: TorusGeometry, zeta: float = 0.5, run_ladders: bool = False
) -> CasimirReport:
    """Assemble the three O(1) terms and quantify every convention gap.

    With ``run_ladders`` the Coulomb-gas ladder fit and the exact plasma
    extensivity difference are evaluated as well, each compared against the
    resolved term.
    """
    _check_real(zeta, "zeta", 0)
    nome_wl = geom.nome_WL

    ocp_printed = 2.0 * math.log(eta_q(geom.nome_LW))   # quoted with q = exp(-pi L/W)
    tcg_printed = 2.0 * math.log(eta_q(nome_wl))   # quoted with q = exp(-pi W/L)
    gff_printed = gff_constant(nome_wl)
    ocp_at_wl = 2.0 * math.log(eta_q(nome_wl))
    resolved = -2.0 * math.log(eta_q(nome_wl))

    discrepancies = {
        "ocp_vs_tcg_printed": ocp_printed - tcg_printed,
        "ocp_vs_tcg_resolved_nome": ocp_at_wl - tcg_printed,
        "tcg_vs_gff": tcg_printed - gff_printed,
        "printed_vs_resolved_sign": tcg_printed - resolved,
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
        tcg_term=tcg_printed,
        gff_term=gff_printed,
        ocp_term_resolved_nome=ocp_at_wl,
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
