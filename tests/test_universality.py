"""The shared finite-size constant across plasma, Coulomb gas, and free field."""

import math

import pytest
from scipy.special import gamma

from torusgas.geometry import TorusGeometry
from torusgas.theta import eta_q
from torusgas.universality import casimir_report


class TestCasimirReport:
    def test_square_torus_all_equal(self):
        """On the square both nomes are e^-pi, so the shift is 0 and the
        term at either nome is 2 log(Gamma(1/4)/(2 pi^(3/4)))."""
        r = casimir_report(TorusGeometry(1.0, 1.0, 1))
        ref = 2.0 * math.log(gamma(0.25) / (2 * math.pi**0.75))
        assert abs(r.ocp_term - ref) < 1e-12
        assert abs(r.resolved_term + ref) < 1e-12
        assert r.modular_shift == 0.0

    @pytest.mark.parametrize("W", [0.5, 2.0])
    def test_printed_conventions_differ_by_modular_shift(self, W):
        r = casimir_report(TorusGeometry(1.0, W, 1))
        assert abs(r.discrepancies["ocp_vs_tcg_printed"] - math.log(W)) < 1e-10

    @pytest.mark.parametrize("W", [0.5, 1.3, 2.0])
    def test_resolved_nome_restores_equality(self, W):
        """The term at the printed nome exp(-pi L/W), moved by the shift
        log(W/L), is the term at exp(-pi W/L): the resolved term's negative."""
        r = casimir_report(TorusGeometry(1.0, W, 1))
        assert abs(r.ocp_term - r.modular_shift + r.resolved_term) < 1e-10

    def test_resolved_term_is_sign_flipped(self):
        """The resolved term is -2 log(q^(1/12) prod(1-q^(2n))) at
        q = exp(-pi W/L), positive, as the module docstring states."""
        g = TorusGeometry(1.0, 1.0, 1)
        r = casimir_report(g)
        assert abs(r.resolved_term + 2.0 * math.log(eta_q(g.nome_WL))) < 1e-14
        assert r.resolved_term > 0

    def test_ladder_fits_match_resolved_term(self):
        r = casimir_report(TorusGeometry(4.0, 4.0, 1), zeta=0.5, run_ladders=True)
        tol = 0.02 * abs(r.resolved_term)
        assert abs(r.fitted["tcg_ladder_vs_resolved"]) < tol
        assert abs(r.fitted["ocp_ladder_vs_resolved"]) < tol
