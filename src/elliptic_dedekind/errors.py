"""Exception types shared across the package."""


class DedekindError(Exception):
    """Base class for all library errors."""


class OrderMismatchError(DedekindError):
    """Operands belong to different quadratic orders."""


class InvalidModulusError(DedekindError):
    """Modulus is not an odd prime (or otherwise unusable)."""


class NoSquareRootError(DedekindError):
    """Quadratic non-residue passed to a modular square root."""


class ModularArithmeticError(DedekindError):
    """Non-invertible element or incompatible moduli."""


class UnsupportedOrderError(DedekindError):
    """Operation requires a norm-Euclidean order (d_K in {-3,-4,-7,-8,-11}, f = 1)."""


class DegenerateLatticeError(DedekindError):
    """Basis vectors do not span an oriented lattice (or precision collapsed)."""


class PoleError(DedekindError):
    """Evaluation point collides with a lattice point."""


class NotAMultiplierError(DedekindError):
    """Element does not map the lattice into itself."""


class ZeroDivisorError(DedekindError):
    """Zero modulus or denominator."""


class NotUnimodularError(DedekindError):
    """Matrix determinant is not 1."""


class PreconditionError(DedekindError):
    """Caller violated an exact precondition (e.g. A1 != A2*A3)."""


class GenerationError(DedekindError):
    """Randomized search exhausted its attempt budget."""


class ExcludedRingError(DedekindError):
    """E2(0) vanishes, so normalized sums are undefined for this ring."""


class PrecisionLossError(DedekindError):
    """A residual exceeded its numerical tolerance."""


class InadmissibleTargetError(DedekindError):
    """Rational target violates the admissibility rules."""


class SearchLimitError(DedekindError):
    """The prime search (density.find_prime) exceeded its bound."""


class ConstructionError(DedekindError):
    """An exact invariant failed during matrix construction (internal bug signal)."""
