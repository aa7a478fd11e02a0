"""Torus geometry and particle configurations.

The fundamental domain is the rectangle [0, L) x [0, W); particle coordinates
are complex z = x + i y and are stored canonically reduced into that domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPoints, DimensionMismatch, _check_count, _check_real
from .theta import Nome, _on_lattice

# A closed form reads a geometry's nome many times: build and validate it once.
_nome = functools.lru_cache(maxsize=64)(Nome.from_aspect)


@functools.lru_cache(maxsize=64)
def _pairs(N: int):
    """Read-only (iu, ju) index arrays of the pairs j < k of N points, j major."""
    iu, ju = np.triu_indices(N, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


@dataclass(frozen=True)
class TorusGeometry:
    """Rectangular torus with periods L (x) and W (y) and particle count N."""

    L: float
    W: float
    N: int = 1

    def __post_init__(self):
        _check_real(self.L, "L", 0)
        _check_real(self.W, "W", 0)
        _check_count(self.N)

    @property
    def rho(self) -> float:
        """Number density N / (L W)."""
        return self.N / (self.L * self.W)

    @property
    def area(self) -> float:
        return self.L * self.W

    @property
    def nome_WL(self) -> Nome:
        """q = exp(-pi W / L), the nome of theta arguments scaled by pi/L."""
        return _nome(self.W, self.L)

    @property
    def nome_LW(self) -> Nome:
        """q = exp(-pi L / W), the modularly transformed candidate."""
        return _nome(self.L, self.W)

    def canonicalize(self, zs) -> np.ndarray:
        """Reduce coordinates into the fundamental domain [0,L) x [0,W); inf gives nan."""
        zs = np.asarray(zs, dtype=complex)
        with np.errstate(invalid="ignore"):
            return np.mod(zs.real, self.L) + 1j * np.mod(zs.imag, self.W)

    def check_distinct(self, zs) -> None:
        """Raise CoincidentPoints if any pair coincides modulo the lattice: some
        theta1 argument pi (z_k - z_j)/L, j < k, lies within 1e-9 of it. No theta
        is summed here, so ``theta._on_lattice`` reduces the arguments itself."""
        zs = np.asarray(zs, dtype=complex)
        if len(zs) < 2:
            return
        iu, ju = _pairs(len(zs))
        if _on_lattice(np.pi * (zs[ju] - zs[iu]) / self.L, self.nome_WL):
            raise CoincidentPoints("two coordinates coincide modulo the lattice")


def _config_count(zs, geometry: TorusGeometry) -> int:
    """N = len(zs), or DimensionMismatch: also where a closed form takes the
    config and its geometry apart (the density from one, the prefactor from the other)."""
    if len(zs) != geometry.N:
        raise DimensionMismatch(f"{len(zs)} coordinates for geometry with N = {geometry.N}")
    return geometry.N


@dataclass(frozen=True)
class ParticleConfig:
    """N complex coordinates, canonically reduced into the fundamental domain."""

    zs: np.ndarray
    geometry: TorusGeometry = field(repr=False)

    @classmethod
    def from_raw(cls, zs, geometry: TorusGeometry) -> "ParticleConfig":
        zs = geometry.canonicalize(zs)
        _config_count(zs, geometry)
        return cls(zs, geometry)

    @classmethod
    def random(cls, geometry: TorusGeometry, rng: np.random.Generator) -> "ParticleConfig":
        x = rng.uniform(0.0, geometry.L, geometry.N)
        y = rng.uniform(0.0, geometry.W, geometry.N)
        return cls(x + 1j * y, geometry)

    def __len__(self) -> int:
        return len(self.zs)

    @property
    def xs(self) -> np.ndarray:
        return self.zs.real

    @property
    def ys(self) -> np.ndarray:
        return self.zs.imag
