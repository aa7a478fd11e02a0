"""The domain contract of the public surface, held by one table.

Every name in ``torusgas.__all__`` has a row in ``TABLE`` or a reason in
``REASONS``. A row is a call with in-domain defaults and, for each argument
it varies, the argument's kind. Each kind has one hypothesis strategy that
mixes in-domain draws with ``EDGES``: nan, +-inf, +-0, subnormals, +-1e300,
bools, non-integers and complex values. Under warnings as errors, every draw
ends one of three ways:

- a value of the documented type whose numbers are all finite, and only for
  a value in the kind's domain;
- nan and no inf, exactly where the coordinate rule gives it: a nan or inf
  coordinate (``errors`` states the rule);
- a TorusGasError.

So a value outside its domain is refused by name, never returned as a
number and never met by a raw exception or a numpy warning. ``test_edges``
runs every edge at every argument, so that no gap there hangs on what the
derandomized draws happen to be.
"""

import cmath
import dataclasses
import math
import numbers
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgas
from torusgas import (
    CasimirReport,
    FreeEnergyBreakdown,
    GrandPotentialBreakdown,
    IdentityResidual,
    MagneticSetup,
    ModeSpectrum,
    Nome,
    ParticleConfig,
    PressureFit,
    TorusGeometry,
    ZnChain,
)
from torusgas.errors import TorusGasError

CONTRACT = settings(max_examples=6, deadline=None, derandomize=True, database=None)

GEOM = TorusGeometry(1.0, 1.5, 2)
SETUP = MagneticSetup.plasma_mapping(1.0, 3)

EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 0, -1, 5e-324, -5e-324, 1e300, -1e300,
         True, False, 2.0, 2.5, -2.5, 1 + 0j, 1j, complex(1.0, 1.0), complex(math.nan, 0.0),
         complex(0.0, math.inf))
# and, for a real parameter, values whose square or product with an O(1) factor
# leaves double range
WIDE = EDGES + (1e154, -1e154, 1.7e308, -1.7e308)


class Kind(NamedTuple):
    """An argument kind: its strategy, which mixes in-domain draws with
    ``EDGES``, and the test of its domain."""

    draws: st.SearchStrategy
    accepts: Callable[[object], bool]
    coordinate: bool = False
    edges: tuple = EDGES


def _kind(domain: st.SearchStrategy, accepts, coordinate: bool = False, edges=EDGES) -> Kind:
    return Kind(st.one_of(st.sampled_from(edges), domain), accepts, coordinate, edges)


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def count(least: int) -> Kind:
    """An integer >= least: a particle number, a level, a grid or a seed."""
    return _kind(st.integers(least, least + 8), lambda x: _integer(x) and x >= least)


# a signed mode index: 2n + 1 is a double below 2^52, and +-400 makes a wrong
# branch's exponential overflow
INDEX = _kind(st.integers(-20, 20), lambda x: _integer(x) and abs(x) < 2**52,
              edges=EDGES + (400, -400, 2**52, -2**52, 10**400, -10**400))
LENGTH = _kind(st.floats(0.25, 8.0), lambda x: _real(x) and 0 < x < math.inf, edges=WIDE)
FUGACITY = _kind(st.floats(0.0, 4.0), lambda x: _real(x) and 0 <= x < math.inf, edges=WIDE)
LADDER_FUGACITY = _kind(st.floats(0.05, 4.0), lambda x: _real(x) and 0 < x < math.inf,
                        edges=WIDE)
COUPLING = _kind(st.floats(-4.0, 4.0), lambda x: _real(x) and math.isfinite(x), edges=WIDE)
HEIGHT = _kind(st.floats(-3.0, 3.0), lambda x: _real(x) and math.isfinite(x), edges=WIDE)
COORDINATE = _kind(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
                   lambda x: isinstance(x, numbers.Number), coordinate=True)
NOME = _kind(st.one_of(st.floats(-0.9, 0.9).filter(bool),
                       st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9)),
             lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool)
             and 0 < abs(x) < 1)


class Row(NamedTuple):
    """A public name: the call with in-domain defaults, the kinds of the
    arguments it varies, and the documented type of its value."""

    call: Callable
    kinds: dict
    returns: type | tuple


def _config(z):
    return ParticleConfig(np.array([z, 0.7 + 1.1j]), GEOM)


TABLE = {
    "TorusGeometry": Row(lambda L=1.0, W=1.5, N=2: TorusGeometry(L, W, N),
                         {"L": LENGTH, "W": LENGTH, "N": count(1)}, TorusGeometry),
    "ParticleConfig": Row(lambda z=0.3 + 0.4j: ParticleConfig.from_raw([z, 0.7 + 1.1j], GEOM),
                          {"z": COORDINATE}, ParticleConfig),
    "MagneticSetup": Row(lambda l=0.4, L=1.0, N=3: MagneticSetup(l=l, L=L, N=N),
                         {"l": LENGTH, "L": LENGTH, "N": count(1)}, MagneticSetup),
    "flux_constraint": Row(lambda N=3, l=0.4, L=1.0: torusgas.flux_constraint(N, l, L),
                           {"N": count(1), "l": LENGTH, "L": LENGTH}, float),
    "Nome": Row(lambda q=0.3: Nome.from_q(q), {"q": NOME}, Nome),
    "psi_lll": Row(lambda m=1, z=0.3 + 0.4j: torusgas.psi_lll(m, z, SETUP),
                   {"m": count(0), "z": COORDINATE}, complex),
    "slater_state": Row(
        lambda z=0.3 + 0.4j: torusgas.slater_state([z, 0.5 + 1.2j, 0.8 + 2.1j], SETUP),
        {"z": COORDINATE}, complex),
    "factored_state": Row(
        lambda z=0.3 + 0.4j: torusgas.factored_state([z, 0.5 + 1.2j, 0.8 + 2.1j], SETUP),
        {"z": COORDINATE}, complex),
    "theta_vandermonde_residual": Row(
        lambda x=0.1, alpha=0.05, q=0.3:
            torusgas.theta_vandermonde_residual([x, 0.4, 0.7], alpha, q),
        {"x": COORDINATE, "alpha": COORDINATE, "q": NOME}, IdentityResidual),
    "frobenius_residual": Row(
        lambda w=0.1, z=0.35, alpha=0.1, q=0.3:
            torusgas.frobenius_residual([w, 0.6], [z, 0.85], alpha, q),
        {"w": COORDINATE, "z": COORDINATE, "alpha": COORDINATE, "q": NOME}, IdentityResidual),
    "fourier_det_constant": Row(lambda N=3: torusgas.fourier_det_constant(N),
                                {"N": count(1)}, IdentityResidual),
    **{name: Row(lambda z=0.3 + 0.1j, q=0.3, fn=getattr(torusgas, name): fn(z, q),
                 {"z": COORDINATE, "q": NOME}, complex)
       for name in ("theta1", "theta3", "theta4", "theta1_product", "theta4_product")},
    "theta1_prime0": Row(lambda q=0.3: torusgas.theta1_prime0(q), {"q": NOME}, complex),
    "eta_q": Row(lambda q=0.3: torusgas.eta_q(q), {"q": NOME}, float),
    "f_N": Row(lambda N=3, q=0.3: torusgas.f_N(N, q), {"N": count(1), "q": NOME},
               (float, complex)),
    "eigen_roots": Row(lambda n=0, k_max=3: torusgas.eigen_roots(n, GEOM, k_max),
                       {"n": INDEX, "k_max": count(0)}, ModeSpectrum),
    "g_fourier": Row(lambda n=0, y=0.3: torusgas.g_fourier(n, y, GEOM),
                     {"n": INDEX, "y": COORDINATE}, complex),
    "kernel_K": Row(lambda w=0.3 + 0.2j, z=0.1 + 0.5j: torusgas.kernel_K(w, z, GEOM),
                    {"w": COORDINATE, "z": COORDINATE}, complex),
    "mode_oracle": Row(lambda n=0, M=16: torusgas.mode_oracle(n, GEOM, M),
                       {"n": INDEX, "M": count(16)}, np.ndarray),
    "log_xi2_closed": Row(lambda zeta=0.5, n_max=4: torusgas.log_xi2_closed(zeta, GEOM, n_max),
                          {"zeta": FUGACITY, "n_max": count(1)}, float),
    "xi2_closed": Row(lambda zeta=0.5, n_max=4: torusgas.xi2_closed(zeta, GEOM, n_max),
                      {"zeta": FUGACITY, "n_max": count(1)}, float),
    "oracle_log_xi2": Row(
        lambda zeta=0.5, n_pairs=2, M=32: torusgas.oracle_log_xi2(zeta, GEOM, n_pairs, M),
        {"zeta": FUGACITY, "n_pairs": count(1), "M": count(32)}, float),
    "pressure_sum": Row(lambda zeta=0.5, L=4.0, cutoff=8: torusgas.pressure_sum(zeta, L, cutoff),
                        {"zeta": FUGACITY, "L": LENGTH, "cutoff": count(1)}, float),
    "fit_pressure": Row(
        lambda zeta=0.5, L=6.0, cutoff_density=8:
            torusgas.fit_pressure(zeta, [4.0, 5.0, L], cutoff_density),
        {"zeta": FUGACITY, "L": LENGTH, "cutoff_density": count(1)}, PressureFit),
    "log_xi2_asymptotic": Row(lambda zeta=0.5: torusgas.log_xi2_asymptotic(zeta, GEOM),
                              {"zeta": LADDER_FUGACITY}, GrandPotentialBreakdown),
    "casimir_report": Row(lambda zeta=0.5: torusgas.casimir_report(GEOM, zeta),
                          {"zeta": LADDER_FUGACITY}, CasimirReport),
    "background_I": Row(lambda yp=0.3: torusgas.background_I(yp, GEOM), {"yp": HEIGHT}, float),
    "nbody_weight": Row(lambda z=0.3 + 0.4j: torusgas.nbody_weight(_config(z), GEOM),
                        {"z": COORDINATE}, float),
    "ocp_log_boltzmann": Row(
        lambda z=0.3 + 0.4j, Gamma=2.0: torusgas.ocp_log_boltzmann(_config(z), Gamma, GEOM),
        {"z": COORDINATE, "Gamma": COUPLING}, float),
    "phi_quasi": Row(lambda z=0.3 + 0.4j, zp=0.7 + 1.1j: torusgas.phi_quasi(z, zp, GEOM),
                     {"z": COORDINATE, "zp": COORDINATE}, float),
    "phi_periodic": Row(lambda z=0.3 + 0.4j, zp=0.7 + 1.1j: torusgas.phi_periodic(z, zp, GEOM),
                        {"z": COORDINATE, "zp": COORDINATE}, float),
    "zn_closed": Row(lambda N=2: torusgas.zn_closed(N, GEOM), {"N": count(1)}, ZnChain),
    "free_energy": Row(lambda N=2: torusgas.free_energy(N, GEOM), {"N": count(1)},
                       FreeEnergyBreakdown),
}

RESULT = "a result type, built by the library from arguments its function checked"
REASONS = {
    "CasimirReport": RESULT,
    "FreeEnergyBreakdown": RESULT,
    "GrandPotentialBreakdown": RESULT,
    "IdentityResidual": RESULT,
    "IntegralEstimate": RESULT,
    "ModeSpectrum": RESULT,
    "PressureFit": RESULT,
    "ZnChain": RESULT,
    "verify_partition_lattice": "its one argument is a TorusGeometry, whose periods and "
                                "count are drawn in that row",
    "verify_partition_mc": "its arguments are a TorusGeometry and two counts, each a "
                           "test_errors.COUNTS row; one in-domain call samples 1e5 points",
}

def _numbers(value) -> np.ndarray:
    """Every number a value holds, as one complex array: a dataclass's fields
    and a dict's or tuple's items, recursively; a string or a flag holds none."""
    if dataclasses.is_dataclass(value):
        parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        parts = list(value.values())
    elif isinstance(value, (tuple, list)):
        parts = list(value)
    elif value is None or isinstance(value, (str, bool, np.bool_)):
        return np.empty(0, dtype=complex)
    else:
        return np.ravel(np.asarray(value, dtype=complex))
    return np.concatenate([np.empty(0, dtype=complex)] + [_numbers(p) for p in parts])


def _holds(name: str, argument: str, value) -> None:
    """One draw against the contract: refused by name, nan by the coordinate
    rule, or a finite value of the documented type for an in-domain draw."""
    row = TABLE[name]
    kind = row.kinds[argument]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = row.call(**{argument: value})
        except TorusGasError:
            return
    got = _numbers(out)
    if kind.coordinate and not cmath.isfinite(value):
        assert np.isnan(got).any() and not np.isinf(got).any(), (name, argument, value, out)
    else:
        assert kind.accepts(value), f"{name} accepted {argument} = {value!r}: {out!r}"
        assert np.isfinite(got).all(), (name, argument, value, out)
    assert isinstance(out, row.returns), (name, argument, value, type(out))


def test_every_public_name_has_a_row_or_a_reason():
    assert not set(TABLE) & set(REASONS)
    assert set(TABLE) | set(REASONS) == set(torusgas.__all__)


PAIRS = [(name, argument) for name, row in TABLE.items() for argument in row.kinds]


@pytest.mark.parametrize("name, argument", PAIRS)
@CONTRACT
@given(data=st.data())
def test_contract(name, argument, data):
    _holds(name, argument, data.draw(TABLE[name].kinds[argument].draws, label=argument))


@pytest.mark.parametrize("name, argument", PAIRS)
def test_edges(name, argument):
    """Every edge value at every argument, whatever the strategies draw."""
    for value in TABLE[name].kinds[argument].edges:
        _holds(name, argument, value)
