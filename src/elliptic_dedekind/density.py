"""Constructive approximation of rationals by normalized elliptic Dedekind sums.

For a target x = a/b in lowest terms with gcd(b, 2d) = 1 (d the order
discriminant, d < 0), primes are drawn from the arithmetic progression

    p = 1 (mod 4*|4*b^2*d + d^2|),     p = a^{-1} (mod b),

which forces e := (a*p - 1)/b to be an integer and d^2*e^2 + 4*d to be a
square mod p.  From a root the construction produces l and k = l^{-1} mod p
with k*(k+e)*d = 1 (mod p), sets a1 = k*sqrt(d), a2 = (k+e)*sqrt(d), completes
both to unimodular matrices with bottom-left entry p via integer Bezout
coefficients, and takes A3 = A2^{-1} @ A1, whose bottom-left entry is
c3 = p*e*sqrt(d).

Normalized closed form (derived symbolically from the collapsed three-term
relation with c = p, c3 = p*e*sqrt(d), sqrt(d) = i*sqrt(|d|)):

    2/c3 + c3/c^2 = t*sqrt(d),      t = 2/(p*e*d) + e/p  (a rational),
    I(t*sqrt(d))  = 2*t*sqrt(d)     (the argument is purely imaginary),
    Dtilde        = I(t*sqrt(d)) / (i*sqrt(|d|)) = 2*t = 2*e/p + 4/(p*e*d).

Hence |Dtilde - 2a/b| = |2/(b*p) + 4/(p*e*d)| <= (2/b + 1)/p, and Dtilde -> 2x
as p grows.  Note the doubling contributed by I on purely imaginary arguments
and the 1/d factor on the small term; simplifications that drop either factor
change the finite values but not the limit.  Dtilde is computed here in exact
rational arithmetic, never by coset summation (norm(c3) = p^2*e^2*|d| is
astronomically large).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dedekind import Mat2
from .errors import (
    ConstructionError,
    InadmissibleTargetError,
    SearchLimitError,
)
from .ring import (
    QuadOrder,
    crt,
    egcd,
    inverse_mod,
    is_probable_prime,
    legendre_symbol,
    sqrt_discriminant,
    sqrt_mod,
)

__all__ = ["Target", "ApproxStep", "find_prime", "construct", "approximate", "approximate_real"]

# Progression terms one prime search tests before it gives up.
_MAX_CANDIDATES = 2_000_000


@dataclass(frozen=True)
class Target:
    """Rational target a/b paired with the order whose sums approximate 2a/b."""

    a: int
    b: int
    order: QuadOrder

    def __post_init__(self):
        if self.b < 1:
            raise InadmissibleTargetError(f"denominator must be positive, got {self.b}")
        if math.gcd(self.a, self.b) != 1:
            raise InadmissibleTargetError(f"gcd({self.a}, {self.b}) != 1")
        d = self.order.discriminant
        if math.gcd(self.b, 2 * abs(d)) != 1:
            raise InadmissibleTargetError(f"gcd(b, 2d) = gcd({self.b}, {2 * d}) != 1")
        if d in (-3, -4):
            raise InadmissibleTargetError(
                f"discriminant {d} has E2(0) = 0; normalized sums are undefined"
            )

    @property
    def x(self) -> Fraction:
        return Fraction(self.a, self.b)


@dataclass(frozen=True)
class ApproxStep:
    """One step of the construction, with exact witnesses and the closed-form value."""

    p: int
    e: int
    ell: int
    k: int
    x1: int
    y1: int
    x2: int
    y2: int
    A1: Mat2
    A2: Mat2
    A3: Mat2
    dtilde: float
    err_bound: float
    dtilde_exact: Fraction
    err_exact: Fraction


def _progression(target: Target) -> tuple[int, int]:
    d = target.order.discriminant
    m1 = 4 * abs(4 * target.b * target.b * d + d * d)
    if m1 == 0:
        raise ConstructionError("degenerate progression modulus (unreachable for d < 0)")
    a_bar = 0 if target.b == 1 else inverse_mod(target.a % target.b, target.b)
    return crt([(1, m1), (a_bar, target.b)])


def find_prime(target: Target, *, after: int = 0) -> int:
    """The smallest prime of the target's arithmetic progression greater than `after`.

    Chaining `p = find_prime(target, after=p)` walks the progression's primes
    in order.  At most _MAX_CANDIDATES terms above `after` are tested, so a
    search that cannot succeed raises SearchLimitError.  Every returned prime
    is re-checked to make d^2*e^2 + 4*d a square mod p.
    """
    r, m = _progression(target)
    d = target.order.discriminant
    lo = max(after, 1)  # 1 is no prime
    candidate = lo + 1 + (r - lo - 1) % m  # the first term above lo
    for _ in range(_MAX_CANDIDATES):
        if is_probable_prime(candidate):
            e = (target.a * candidate - 1) // target.b
            if legendre_symbol((d * d * e * e + 4 * d) % candidate, candidate) != 1:
                raise ConstructionError(f"reciprocity guarantee failed at p={candidate} (arithmetic bug)")
            return candidate
        candidate += m
    raise SearchLimitError(
        f"no prime above {after} within {_MAX_CANDIDATES} candidates of the progression {r} mod {m}"
    )


def construct(target: Target, p: int) -> ApproxStep:
    """Build the matrices and closed-form value for one prime of the progression.

    Raises ConstructionError unless |dtilde - 2a/b| <= (2/b + 1)/p.
    """
    order = target.order
    a, b = target.a, target.b
    d = order.discriminant
    if (a * p - 1) % b != 0:
        raise ConstructionError(f"p={p} is not in the residue class a^-1 mod b")
    e = (a * p - 1) // b

    root = sqrt_mod((d * d * e * e + 4 * d) % p, p)
    inv2 = inverse_mod(2, p)
    ell = ((root + d * e) * inv2) % p
    if ell == 0:
        ell = ((p - root + d * e) * inv2) % p
    if ell == 0:
        raise ConstructionError("both square roots produced l = 0 (impossible for p coprime to 4d)")
    if (2 * ell - d * e) ** 2 % p != (d * d * e * e + 4 * d) % p:
        raise ConstructionError("l does not satisfy the root congruence")
    k = inverse_mod(ell, p)
    if (k * (k + e) * d) % p != 1 % p:
        raise ConstructionError("k*(k+e)*d != 1 mod p")

    g1, x1, y1 = egcd(p, k * d)
    if g1 != 1:
        raise ConstructionError(f"gcd(p, k*d) = {g1} != 1")
    g2, x2, y2 = egcd(p, (k + e) * d)
    if g2 != 1:
        raise ConstructionError(f"gcd(p, (k+e)*d) = {g2} != 1")

    sqrt_d = sqrt_discriminant(order)
    a1 = k * sqrt_d
    a2 = (k + e) * sqrt_d
    p_elem = order.element(p)
    one = order.one()
    m1 = Mat2(a1, order.element(-x1), p_elem, y1 * sqrt_d)
    m2 = Mat2(a2, order.element(-x2), p_elem, y2 * sqrt_d)
    m3 = m2.inverse() @ m1

    # Exact invariant suite; a failure is an arithmetic bug, not bad input.
    if m1.det() != one or m2.det() != one or m3.det() != one:
        raise ConstructionError("a constructed matrix is not unimodular")
    if m3.c != (p * e) * sqrt_d:
        raise ConstructionError("c3 != p*e*sqrt(d)")
    if (a1 * a2 - one).exact_div(p_elem) is None:
        raise ConstructionError("a1*a2 != 1 mod p")
    if e * b != a * p - 1:
        raise ConstructionError("e*b != a*p - 1")

    dtilde_exact = Fraction(2 * e, p) + Fraction(4, p * e * d)
    err_exact = abs(dtilde_exact - Fraction(2 * a, b))
    if err_exact > (Fraction(2, b) + 1) / p:
        raise ConstructionError(f"error bound violated at p={p}: {err_exact} > (2/{b} + 1)/{p}")
    return ApproxStep(
        p=p,
        e=e,
        ell=ell,
        k=k,
        x1=x1,
        y1=y1,
        x2=x2,
        y2=y2,
        A1=m1,
        A2=m2,
        A3=m3,
        dtilde=float(dtilde_exact),
        err_bound=float(err_exact),
        dtilde_exact=dtilde_exact,
        err_exact=err_exact,
    )


def approximate(target: Target, steps: int) -> list[ApproxStep]:
    """ApproxSteps for the target's first `steps` progression primes, in order."""
    out = []
    p = 0
    for _ in range(steps):
        p = find_prime(target, after=p)
        out.append(construct(target, p))
    return out


def approximate_real(r: float, order: QuadOrder, tol: float = 1e-2) -> tuple[Target, ApproxStep]:
    """A target and a single step whose dtilde lands within tol of the real r.

    Picks an odd prime denominator b > 4/tol coprime to 2d, so the grid
    {2a/b} meets every tol-ball and one progression prime finishes the job.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = abs(order.discriminant)
    b = max(5, int(math.ceil(4.0 / tol)) | 1)
    while not (is_probable_prime(b) and (2 * d) % b != 0):
        b += 2
    a = round(r * b / 2.0)
    if a % b == 0:
        a += 1
    target = Target(a, b, order)
    step = construct(target, find_prime(target))
    if abs(step.dtilde - r) >= tol:
        raise ConstructionError(f"approximation missed: |{step.dtilde} - {r}| >= {tol}")
    return target, step
