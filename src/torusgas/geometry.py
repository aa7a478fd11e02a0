"""Torus geometry and particle configurations.

The fundamental domain is the rectangle [0, L) x [0, W); particle coordinates
are complex z = x + i y and are stored canonically reduced into that domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPoints, DimensionMismatch, ParameterOutOfRange
from .theta import Nome, lattice_distance

# A closed form reads a geometry's nome many times: build and validate it once.
_nome = functools.lru_cache(maxsize=64)(Nome.from_aspect)


@dataclass(frozen=True)
class TorusGeometry:
    """Rectangular torus with periods L (x) and W (y) and particle count N."""

    L: float
    W: float
    N: int = 1

    def __post_init__(self):
        if self.L <= 0 or self.W <= 0:
            raise ParameterOutOfRange("periods L, W must be positive")
        if self.N < 1:
            raise ParameterOutOfRange("N must be >= 1")

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
        """Reduce coordinates into the fundamental domain [0,L) x [0,W)."""
        zs = np.asarray(zs, dtype=complex)
        x = np.mod(zs.real, self.L)
        y = np.mod(zs.imag, self.W)
        return x + 1j * y

    def check_distinct(self, zs) -> None:
        """Raise CoincidentPoints if any pair coincides modulo the lattice."""
        zs = np.asarray(zs, dtype=complex)
        if len(zs) < 2:
            return
        diffs = np.pi * (zs[:, None] - zs[None, :]) / self.L
        dist = lattice_distance(diffs, self.nome_WL)
        np.fill_diagonal(dist, np.inf)
        if np.any(dist < 1e-9):
            raise CoincidentPoints("two coordinates coincide modulo the lattice")


@dataclass(frozen=True)
class ParticleConfig:
    """N complex coordinates, canonically reduced into the fundamental domain."""

    zs: np.ndarray
    geometry: TorusGeometry = field(repr=False)

    @classmethod
    def from_raw(cls, zs, geometry: TorusGeometry) -> "ParticleConfig":
        zs = geometry.canonicalize(zs)
        if len(zs) != geometry.N:
            raise DimensionMismatch(
                f"{len(zs)} coordinates for geometry with N = {geometry.N}"
            )
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
