"""Exact symbolic verification engine for a three-dimensional
pseudo-Hermitian quadratic oscillator.

The package computes everything in the Laurent ring Q(i)[lam^±1, g^±1] of
the two model parameters, so every verified identity is an exact statement,
not a numerical one.
"""

from .coeff import ParamScalar, LAM, G, I
from .weyl import WeylOperator, GaussianState, Poly3
from .operators import catalogue, op, IdentityRecord
from .fock import CreationPolynomial, wick_inner, gaussian_moment_inner
from .jordan import JordanLabel, AssociatedState, build_state, ladder_apply

__version__ = "0.1.0"

__all__ = [
    "ParamScalar", "LAM", "G", "I",
    "WeylOperator", "GaussianState", "Poly3",
    "catalogue", "op", "IdentityRecord",
    "CreationPolynomial", "wick_inner", "gaussian_moment_inner",
    "JordanLabel", "AssociatedState", "build_state", "ladder_apply",
    "normalization", "gram", "orthogonalize",
    "__version__",
]


def __getattr__(name):
    """``normalization``, ``gram`` and ``orthogonalize``, read from
    :mod:`quadosc.biortho`, which loads on first use: importing the package
    does not compile it."""
    if name in ("normalization", "gram", "orthogonalize"):
        from . import biortho
        return getattr(biortho, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
