"""Additive-polynomial arithmetic over finite fields, complete decomposition
through the skew-polynomial correspondence, and a desk-scale HFE cryptosystem
with its common-left-divisor key-recovery attack.

Importing the package loads no submodule.  Each public name is resolved
from its submodule on first access (PEP 562), so ``from skewlin import
FiniteField`` loads the field module and what it needs, and nothing of the
decomposition or HFE layers.  ``__all__`` and ``from skewlin import *``
list and bind every public name.
"""

import importlib

__version__ = "0.1.0"

# (submodule, the public names it defines)
_EXPORTS = (
    (
        "decompose",
        (
            "Decomposition",
            "EigenRing",
            "Indecomposable",
            "Split",
            "SplitStats",
            "ZeroDivisor",
            "decompose_complete",
            "eigen_ring",
            "estimate_split_success",
            "find_zero_divisor",
            "minimal_polynomial",
            "oracle_decompose",
            "split_once",
        ),
    ),
    ("fields", ("FiniteField", "FqElem")),
    ("fqpoly", ("FqPoly",)),
    (
        "hfe",
        (
            "AttackResult",
            "DOPoly",
            "DOShapeResult",
            "FailedLinearity",
            "HFEKeyPair",
            "HFEPublicKey",
            "HFESecretKey",
            "MultivariateKey",
            "check_do_shape",
            "decrypt_with_factors",
            "dense_difference",
            "difference_poly",
            "do_compose_lin",
            "gcldf_attack",
            "hfe_decrypt",
            "hfe_encrypt",
            "hfe_keygen",
            "lin_to_dense",
            "to_multivariate",
            "try_left_factor",
        ),
    ),
    ("linpoly", ("LinPoly",)),
    ("skew", ("SkewPoly", "gcd_left", "gcd_right", "gcldf")),
)

__all__ = sorted(name for _, names in _EXPORTS for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS:
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
