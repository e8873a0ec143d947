"""Seeded synthetic samples for the normal / gamma / uniform experiments.

Each call reseeds its thread's one ``numpy.random.RandomState``, whose
output stream numpy keeps frozen across versions (NEP 19), so a given
(spec, n, seed) always produces the identical sequence: the draw of a new
generator with that seed, since ``seed`` also drops the Gaussian a normal
draw of odd length leaves cached.  The generator is seeded with
``init_by_array`` on the two 32-bit words of ``seed & (2**64 - 1)``, low
word first, so seeds of 2**32 and above and negative seeds are accepted.
Reseeding skips what constructing a generator costs: a ``SeedSequence``
seeded from OS entropy before the seed replaces it.  ``RandomState``
computes its values with the platform's scalar libm calls (log, sqrt,
exp, ...), which is where a different platform could differ in the last
bits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["DistributionSpec", "sample", "normal", "gamma", "uniform"]

_FAMILIES = ("normal", "gamma", "uniform")

# each thread's ``RandomState``, reseeded by `sample`; made at the thread's
# first draw, so that importing this module does not load numpy.random,
# which numpy 2 loads only at its first use (~15 ms)
_THREAD = threading.local()


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


def sample(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """n independent draws from spec; identical for identical (spec, n, seed)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    word = seed & 0xFFFFFFFFFFFFFFFF
    rs = getattr(_THREAD, "rs", None)
    if rs is None:
        rs = _THREAD.rs = np.random.RandomState()
    rs.seed([word & 0xFFFFFFFF, word >> 32])
    # the family names are RandomState's method names: normal, gamma, uniform
    return getattr(rs, spec.family)(spec.param1, spec.param2, n)
