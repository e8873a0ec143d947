"""Seeded synthetic samples for the normal / gamma / uniform experiments.

Draws come from a counter-based 64-bit generator (SplitMix64), so a given
(spec, n, seed) always produces the identical sequence, on any platform and
with no generator state to carry around.  Normals use the Box-Muller
transform of uniform pairs; gammas use Marsaglia-Tsang squeeze/acceptance
with the shape < 1 boost (draw Gamma(shape + 1), multiply by U^(1/shape)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DistributionSpec", "sample", "normal", "gamma", "uniform"]

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FAMILIES = ("normal", "gamma", "uniform")


@dataclass(frozen=True)
class DistributionSpec:
    """A distribution family with its two parameters.

    normal: (mean, std-dev); gamma: (shape, scale); uniform: (lower, upper).
    """

    family: str
    param1: float
    param2: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected {_FAMILIES}")
        if self.family == "normal" and self.param2 <= 0:
            raise ValueError("normal std-dev must be positive")
        if self.family == "gamma" and (self.param1 <= 0 or self.param2 <= 0):
            raise ValueError("gamma shape and scale must be positive")
        if self.family == "uniform" and self.param2 <= self.param1:
            raise ValueError("uniform upper bound must exceed lower bound")


def normal(mean: float, std: float) -> DistributionSpec:
    return DistributionSpec("normal", mean, std)


def gamma(shape: float, scale: float) -> DistributionSpec:
    return DistributionSpec("gamma", shape, scale)


def uniform(lower: float, upper: float) -> DistributionSpec:
    return DistributionSpec("uniform", lower, upper)


class _Counter:
    """SplitMix64 output stream: out_i = mix(seed + i * golden_gamma)."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._i = 0

    def raw(self, k: int) -> np.ndarray:
        idx = np.arange(self._i + 1, self._i + k + 1, dtype=np.uint64)
        self._i += k
        z = self._seed + idx * _GAMMA64
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def open_uniforms(self, k: int) -> np.ndarray:
        """Uniforms in the open interval (0, 1); safe under log."""
        return ((self.raw(k) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def half_open_uniforms(self, k: int) -> np.ndarray:
        """Uniforms in [0, 1)."""
        return (self.raw(k) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, k: int) -> np.ndarray:
        pairs = (k + 1) // 2
        u1 = self.open_uniforms(pairs)
        u2 = self.open_uniforms(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:k]


def _gamma_shape_ge1(stream: _Counter, shape: float, k: int) -> np.ndarray:
    # Marsaglia-Tsang: propose d*(1 + c*x)^3 from a normal x, squeeze test
    # on a uniform, redraw rejects in batches.
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(k)
    filled = 0
    while filled < k:
        need = k - filled
        x = stream.normals(need)
        u = stream.open_uniforms(need)
        v = (1.0 + c * x) ** 3
        ok = v > 0
        accept = ok & (u < 1.0 - 0.0331 * (x * x) * (x * x))
        # the log test runs only on the proposals the squeeze rejected
        slow = np.flatnonzero(ok & ~accept)
        xs, vs = x[slow], v[slow]
        accept[slow] = np.log(u[slow]) < 0.5 * xs**2 + d * (1.0 - vs + np.log(vs))
        got = d * v[accept]
        out[filled : filled + got.size] = got
        filled += got.size
    return out


def sample(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """n independent draws from spec; identical for identical (spec, n, seed)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    stream = _Counter(seed)
    if spec.family == "uniform":
        u = stream.half_open_uniforms(n)
        return spec.param1 + (spec.param2 - spec.param1) * u
    if spec.family == "normal":
        return spec.param1 + spec.param2 * stream.normals(n)
    shape, scale = spec.param1, spec.param2
    if shape >= 1.0:
        return scale * _gamma_shape_ge1(stream, shape, n)
    boost = stream.open_uniforms(n) ** (1.0 / shape)
    return scale * _gamma_shape_ge1(stream, shape + 1.0, n) * boost
