"""Shared fixtures: closed forms re-evaluated with mpmath theta values."""

import mpmath as mp
import numpy as np
import pytest

from torusgas.theta import Nome


def _mp_nome(nome) -> mp.mpf:
    nome = Nome.coerce(nome)
    assert nome.tau.real == 0, "real nomes only"
    return mp.exp(-mp.pi * mp.mpf(nome.tau.imag))


def _pointwise(value):
    """Lift a scalar mpmath-backed function of (z, q) to the theta signature."""

    def theta(z, nome, precision=None):
        q = _mp_nome(nome)
        z = np.asarray(z, dtype=complex)
        vals = np.array([value(mp.mpc(v.real, v.imag), q) for v in z.ravel()]).reshape(z.shape)
        return vals[()] if z.ndim == 0 else vals

    return theta


_MP_THETA = {
    "theta1": _pointwise(lambda z, q: complex(mp.jtheta(1, z, q))),
    "theta4": _pointwise(lambda z, q: complex(mp.jtheta(4, z, q))),
    "log_abs_theta1": _pointwise(lambda z, q: float(mp.log(abs(mp.jtheta(1, z, q))))),
    "theta1_prime0": lambda nome, precision=None: complex(mp.jtheta(1, 0, _mp_nome(nome), 1)),
}


@pytest.fixture
def mpmath_reference(monkeypatch):
    """reference(call, *modules) runs call() with every theta function that
    the given modules import replaced by mpmath at 40 digits, so a closed form
    is compared with itself on exact theta values."""

    def reference(call, *modules):
        with monkeypatch.context() as patch, mp.workdps(40):
            for module in modules:
                for name, fn in _MP_THETA.items():
                    if hasattr(module, name):
                        patch.setattr(module, name, fn)
            return call()

    return reference
