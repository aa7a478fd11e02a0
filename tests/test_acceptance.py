"""Acceptance gate: every verification criterion at its contract tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see the summary, or ``torusgas selftest`` for the same gate from the CLI.
"""

import pytest

from torusgas import selftest


def _run(fn, *args, **kwargs):
    result = fn(*args, **kwargs)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status} {result.name} [{result.seconds:.1f}s] {result.detail}")
    assert result.passed, result.detail


def test_identity_suite():
    """Determinant identity residuals < 1e-9 over 100 draws per size and nome."""
    _run(selftest.check_identity_suite)


def test_wavefunction_factorization():
    """Slater determinant equals the theta product form up to one constant."""
    _run(selftest.check_wavefunction_factorization)


def test_electrostatics():
    """Double periodicity, Poisson balance, and the short-distance log law."""
    _run(selftest.check_electrostatics)


def test_partition_integrals():
    """Defining integral by the midpoint lattice rule at N = 1 and 2, 1e-12 relative."""
    _run(selftest.check_partition_integrals)


def test_partition_chain():
    """Closed-form chain equality under exactly one nome convention, uniformly."""
    _run(selftest.check_partition_chain)


def test_mode_spectrum():
    """Closed-form roots vs discretized spectra at M = 1600, 3200, < 1e-9 after extrapolation."""
    _run(selftest.check_mode_spectrum)


def test_grand_partition():
    """Empty-gas value exact; closed form vs oracle determinant at M = 3200 < 1e-7."""
    _run(selftest.check_grand_partition)


def test_pressure_term():
    """|1/L coefficient| = pi/6 within 1%, stable between cutoff densities."""
    _run(selftest.check_pressure_term)


def test_universality():
    """The O(1) term's two nomes an exact log(W/L) apart; both ladders within 2%."""
    _run(selftest.check_universality)


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
