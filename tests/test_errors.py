"""Every count a caller passes is refused by name through ``errors._check_count``:
an integer below its least value, a bool and a float all raise
ParameterOutOfRange naming the count."""

import re

import numpy as np
import pytest

from torusgas import cli
from torusgas.coulombgas import (
    eigen_roots,
    fit_pressure,
    log_xi2_closed,
    mode_logdet,
    mode_logdet_extrapolated,
    oracle_leading_magnitudes,
    oracle_log_xi2,
    pressure_sum,
)
from torusgas.errors import ParameterOutOfRange
from torusgas.geometry import TorusGeometry
from torusgas.identities import identity_draws
from torusgas.landau import MagneticSetup
from torusgas.plasma import verify_partition_mc
from torusgas.selftest import factorization_spread

GEOM = TorusGeometry(1.0, 1.0, 1)
PAIR = TorusGeometry(1.0, 1.0, 2)

# (id, count name in the message, least accepted value, call taking the count)
COUNTS = [
    ("log_xi2_closed-n_max", "n_max", 1, lambda c: log_xi2_closed(0.5, GEOM, c)),
    ("eigen_roots-k_max", "k_max", 0, lambda c: eigen_roots(0, GEOM, c)),
    ("mode_oracle-M", "M", 16, lambda c: mode_logdet(0, GEOM, c, 0.5)),
    ("mode_logdet_extrapolated-M", "M", 32, lambda c: mode_logdet_extrapolated(0, GEOM, c, 0.5)),
    ("oracle_leading_magnitudes-k_count", "k_count", 1,
     lambda c: oracle_leading_magnitudes(0, GEOM, c, 16)),
    ("pressure_sum-cutoff", "cutoff", 1, lambda c: pressure_sum(1.0, 4.0, c)),
    ("fit_pressure-cutoff_density", "cutoff_density", 1,
     lambda c: fit_pressure(1.0, [4.0, 5.0, 6.0], c)),
    ("oracle_log_xi2-n_pairs", "n_pairs", 1, lambda c: oracle_log_xi2(0.5, GEOM, c, 32)),
    ("identity_draws-draws", "draws", 1,
     lambda c: next(identity_draws(np.random.default_rng(1), 0.3, [2], [1], c))),
    ("factorization_spread-draws", "draws", 1,
     lambda c: factorization_spread(MagneticSetup.plasma_mapping(L=1.0, N=2),
                                    np.random.default_rng(1), c)),
    ("verify_partition_mc-samples", "samples", 100_000,
     lambda c: verify_partition_mc(PAIR, samples=c, seed=1)),
    ("verify_partition_mc-seed", "seed", 0,
     lambda c: verify_partition_mc(PAIR, samples=100_000, seed=c)),
    ("cli-grid", "grid", 1, lambda c: cli._grid(1.0, 1.0, c)),
]


@pytest.mark.parametrize("kind", ["bool", "float", "below-least"])
@pytest.mark.parametrize("name, least, call", [row[1:] for row in COUNTS],
                         ids=[row[0] for row in COUNTS])
def test_count_refused_by_name(name, least, call, kind):
    count = {"bool": True, "float": 2.5, "below-least": least - 1}[kind]
    message = rf"^{re.escape(name)} must be an integer >= {least}, got {re.escape(repr(count))}$"
    with pytest.raises(ParameterOutOfRange, match=message):
        call(count)
