"""Approximate two-sample KS testing built on epsilon-approximate quantiles.

The package exports each module's `__all__`; those lists are the one
declaration of the public API.
"""

from . import approx_cdf, gk_sketch, ks, synth
from .approx_cdf import *
from .gk_sketch import *
from .ks import *
from .synth import *

__version__ = "0.1.0"

__all__ = sorted(approx_cdf.__all__ + gk_sketch.__all__ + ks.__all__ + synth.__all__)
