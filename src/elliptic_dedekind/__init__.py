"""Elliptic Dedekind sums over imaginary quadratic orders.

Exact order arithmetic and coset enumeration, exponentially convergent
evaluation of the Kronecker-Eisenstein E1 / E2(0) / j-invariant, the Phi
homomorphism with its three-term closed form, and a constructive density
search approximating rationals by normalized sums.
"""

from .cosets import CosetSystem, MultMatrix, mult_matrix
from .dedekind import (
    SumContext,
    d_norm,
    d_norm_exact,
    d_sum,
    gen_sl2_triple,
    three_term_closed_form,
    normalize_value,
    phi,
    three_term_residual,
)
from .density import ApproxStep, Target, approximate, approximate_real, construct, find_prime
from .errors import (
    ConstructionError,
    DedekindError,
    DegenerateLatticeError,
    ExcludedRingError,
    GenerationError,
    InadmissibleTargetError,
    InvalidModulusError,
    ModularArithmeticError,
    NoSquareRootError,
    NotAMultiplierError,
    NotUnimodularError,
    OrderMismatchError,
    PoleError,
    PrecisionLossError,
    PreconditionError,
    SearchLimitError,
    UnsupportedOrderError,
    ZeroDivisorError,
)
from .lattice import Lattice
from .ring import (
    OrderElem,
    QuadOrder,
    crt,
    egcd,
    egcd_order,
    inverse_mod,
    is_probable_prime,
    legendre_symbol,
    sqrt_discriminant,
    sqrt_mod,
)
from .sl2 import Mat2

__version__ = "0.1.0"

__all__ = [
    "QuadOrder",
    "OrderElem",
    "sqrt_discriminant",
    "egcd",
    "inverse_mod",
    "crt",
    "legendre_symbol",
    "sqrt_mod",
    "is_probable_prime",
    "egcd_order",
    "Lattice",
    "MultMatrix",
    "mult_matrix",
    "CosetSystem",
    "Mat2",
    "SumContext",
    "d_sum",
    "d_norm",
    "d_norm_exact",
    "normalize_value",
    "phi",
    "three_term_residual",
    "three_term_closed_form",
    "gen_sl2_triple",
    "Target",
    "ApproxStep",
    "find_prime",
    "construct",
    "approximate",
    "approximate_real",
    "DedekindError",
    "OrderMismatchError",
    "InvalidModulusError",
    "NoSquareRootError",
    "ModularArithmeticError",
    "UnsupportedOrderError",
    "DegenerateLatticeError",
    "PoleError",
    "NotAMultiplierError",
    "ZeroDivisorError",
    "NotUnimodularError",
    "PreconditionError",
    "GenerationError",
    "ExcludedRingError",
    "PrecisionLossError",
    "InadmissibleTargetError",
    "SearchLimitError",
    "ConstructionError",
]
