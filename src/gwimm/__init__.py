"""Exact, simulated and asymptotic distributions of critical branching
processes with immigration."""

from .models import (
    Law,
    Model,
    classify_xlogx,
    make_law,
    make_model,
)
from .pgf import (
    DeficitError,
    IterateCache,
    TruncatedPmf,
    charfn_modulus,
    exact_pmf_Y,
    exact_pmf_Z,
    extinction_iterates,
)

__all__ = [
    "Law",
    "Model",
    "classify_xlogx",
    "make_law",
    "make_model",
    "DeficitError",
    "IterateCache",
    "TruncatedPmf",
    "charfn_modulus",
    "exact_pmf_Y",
    "exact_pmf_Z",
    "extinction_iterates",
]

__version__ = "0.1.0"
