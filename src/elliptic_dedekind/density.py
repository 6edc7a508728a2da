"""Constructive approximation of rationals by normalized elliptic Dedekind sums.

For a target x = a/b in lowest terms with gcd(b, 2d) = 1 (d the order
discriminant, d < 0), primes are drawn from the arithmetic progression

    p = 1 (mod 4*|4*b^2*d + d^2|),     p = a^{-1} (mod b),

which forces e := (a*p - 1)/b to be an integer and d^2*e^2 + 4*d to be a
square mod p.  From a root the construction produces l and k = l^{-1} mod p
with k*(k+e)*d = 1 (mod p), sets a1 = k*sqrt(d), a2 = (k+e)*sqrt(d), completes
both to unimodular matrices with bottom-left entry p via integer Bezout
coefficients, and takes A3 = A2^{-1} @ A1 (in closed form, see construct),
whose bottom-left entry is c3 = p*e*sqrt(d).

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

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    ConstructionError,
    InadmissibleTargetError,
    NotUnimodularError,
    SearchLimitError,
)
from .ring import (
    OrderElem,
    QuadOrder,
    crt,
    inverse_mod,
    is_probable_prime,
    sqrt_mod,
)
from .sl2 import Mat2

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

    @functools.cached_property
    def progression(self) -> tuple[int, int]:
        """(r, m): the primes drawn are those of r + m*Z, found once per target."""
        d = self.order.discriminant
        m1 = 4 * abs(4 * self.b * self.b * d + d * d)
        a_bar = 0 if self.b == 1 else inverse_mod(self.a % self.b, self.b)
        return crt([(1, m1), (a_bar, self.b)])


@dataclass(frozen=True)
class ApproxStep:
    """One step of the construction: its integers and the closed-form value.

    construct has checked every fact the witnesses rest on.  The matrices
    A1, A2, A3 and the exact rationals dtilde_exact, err_exact are built from
    the stored integers on first read (see construct for their formulas);
    a consumer that prints only the integers and floats builds none of them.
    """

    p: int
    e: int
    ell: int
    k: int
    dtilde: float
    abs_err: float
    target: Target
    # The Bezout pairs p*x1 + k*d*y1 = 1 and p*x2 + (k+e)*d*y2 = 1, as (x1, y1, x2, y2).
    _bezout: tuple[int, int, int, int] = field(repr=False)

    def _elem(self, n: int, c: int) -> OrderElem:
        """n + c*sqrt(d), with sqrt(d) = -f*d_k + 2*theta."""
        order = self.target.order
        return OrderElem(n - c * order.f * order.d_k, 2 * c, order)

    @functools.cached_property
    def A1(self) -> Mat2:
        x1, y1, _, _ = self._bezout
        return Mat2(self._elem(0, self.k), self._elem(-x1, 0), self._elem(self.p, 0), self._elem(0, y1))

    @functools.cached_property
    def A2(self) -> Mat2:
        _, _, x2, y2 = self._bezout
        k2 = self.k + self.e
        return Mat2(self._elem(0, k2), self._elem(-x2, 0), self._elem(self.p, 0), self._elem(0, y2))

    @functools.cached_property
    def A3(self) -> Mat2:
        x1, y1, x2, y2 = self._bezout
        p, k, e, d = self.p, self.k, self.e, self.target.order.discriminant
        return Mat2(
            self._elem(k * d * y2 + p * x2, 0),
            self._elem(0, x2 * y1 - x1 * y2),
            self._elem(0, p * e),
            self._elem(p * x1 + (k + e) * d * y1, 0),
        )

    @functools.cached_property
    def dtilde_exact(self) -> Fraction:
        return Fraction(*_dtilde_parts(self.p, self.e, self.target.order.discriminant))

    @functools.cached_property
    def err_exact(self) -> Fraction:
        return Fraction(*_err_parts(self.p, self.e, self.target.b, self.target.order.discriminant))


def _dtilde_parts(p: int, e: int, d: int) -> tuple[int, int]:
    """(num, den) of dtilde = 2e/p + 4/(p*e*d)."""
    return 2 * e * e * d + 4, p * e * d


def _err_parts(p: int, e: int, b: int, d: int) -> tuple[int, int]:
    """(num, den) of |dtilde - 2a/b| = |4b - 2ed| / |p*b*e*d|, as e*b = a*p - 1."""
    return abs(4 * b - 2 * e * d), abs(p * b * e * d)


def _centred(y: int, p: int) -> int:
    """The representative of y mod the odd p in (-p/2, p/2)."""
    y %= p
    return y - p if 2 * y > p else y


def find_prime(target: Target, *, after: int = 0) -> int:
    """The smallest prime of the target's arithmetic progression greater than `after`.

    Chaining `p = find_prime(target, after=p)` walks the progression's primes
    in order.  At most _MAX_CANDIDATES terms above `after` are tested, so a
    search that cannot succeed raises SearchLimitError.  Only the primality test
    runs (ring.is_probable_prime, a proof below 3.3e24): reciprocity makes
    d^2*e^2 + 4*d a square mod every progression prime.
    """
    r, m = target.progression
    lo = max(after, 1)  # 1 is no prime
    candidate = lo + 1 + (r - lo - 1) % m  # the first term above lo
    for _ in range(_MAX_CANDIDATES):
        if is_probable_prime(candidate):
            return candidate
        candidate += m
    raise SearchLimitError(
        f"no prime above {after} within {_MAX_CANDIDATES} candidates of the progression {r} mod {m}"
    )


def construct(target: Target, p: int) -> ApproxStep:
    """Check one prime of the progression and return its step.

    Every check runs here, on integers.  Raises ConstructionError unless
    p = a^-1 (mod b), (2l - d*e)^2 = d^2*e^2 + 4*d and k*(k+e)*d = 1 (mod p),
    and |dtilde - 2a/b| <= (2/b + 1)/p.  The congruences reject a p off the
    progression; sqrt_mod trusts p to be prime.

    The step's witnesses are built on first read.  With Bezout pairs
    p*x1 + k*d*y1 = 1 and p*x2 + (k+e)*d*y2 = 1, and
    sqrt(d) = -f*d_k + 2*theta,

        A1 = [[k*sqrt(d), -x1], [p, y1*sqrt(d)]],
        A2 = [[(k+e)*sqrt(d), -x2], [p, y2*sqrt(d)]],
        A3 = A2^-1 @ A1 = [[k*d*y2 + p*x2, (x2*y1 - x1*y2)*sqrt(d)],
                           [p*e*sqrt(d), p*x1 + (k+e)*d*y1]],

    A3 in closed form.  The pairs are those of ring.egcd(p, k*d) and
    ring.egcd(p, (k+e)*d), found with no Euclid: y1 = k+e and y2 = k are the
    inverses of k*d and (k+e)*d mod p, each centred mod p (_centred), and
    x1 = (1 - k*d*y1)/p, x2 = (1 - (k+e)*d*y2)/p.  det A2 = p*x2 + (k+e)*d*y2
    is checked here to be 1 (else NotUnimodularError), as inverting A2
    requires; that A1 and A3 are unimodular follows and is left to the tests.
    dtilde and abs_err are the correctly rounded floats of the exact
    dtilde_exact and err_exact.
    """
    order = target.order
    a, b = target.a, target.b
    d = order.discriminant
    if (a * p - 1) % b != 0:
        raise ConstructionError(f"p={p} is not in the residue class a^-1 mod b")
    e = (a * p - 1) // b

    # l = 0 needs p | 4d: no progression prime (p > 4|d|), and inverse_mod rejects it.
    # sqrt_mod refuses an even p, so (p + 1) // 2 is the inverse of 2 mod p.
    square = (d * d * e * e + 4 * d) % p
    ell = ((sqrt_mod(square, p) + d * e) * ((p + 1) // 2)) % p
    if (2 * ell - d * e) ** 2 % p != square:
        raise ConstructionError("l does not satisfy the root congruence")
    k = inverse_mod(ell, p)
    if (k * (k + e) * d) % p != 1 % p:
        raise ConstructionError("k*(k+e)*d != 1 mod p")

    # k*(k+e)*d = 1 (mod p): k+e inverts k*d and k inverts (k+e)*d.  Centred mod p they are
    # egcd's y, as both products exceed 2 in absolute value (|d| >= 7).
    y1, y2 = _centred(k + e, p), _centred(k, p)
    x1, x2 = (1 - k * d * y1) // p, (1 - (k + e) * d * y2) // p
    det2 = p * x2 + (k + e) * d * y2
    if det2 != 1:
        raise NotUnimodularError(f"determinant of A2 is {det2}, expected 1")

    # Int true division rounds correctly, as float(Fraction) does.
    dt_num, dt_den = _dtilde_parts(p, e, d)
    err_num, err_den = _err_parts(p, e, b, d)
    if err_num > (2 + b) * abs(e * d):  # err_num/err_den > (2/b + 1)/p
        raise ConstructionError(
            f"error bound violated at p={p}: {err_num}/{err_den} > (2/{b} + 1)/{p}"
        )
    return ApproxStep(
        p=p,
        e=e,
        ell=ell,
        k=k,
        dtilde=dt_num / dt_den,
        abs_err=err_num / err_den,
        target=target,
        _bezout=(x1, y1, x2, y2),
    )


def approximate(target: Target, steps: int) -> Iterator[ApproxStep]:
    """Yield the ApproxSteps of the target's first `steps` progression primes, in order.

    Steps are built one at a time as they are taken, so a consumer that stops
    early searches no further prime.
    """
    p = 0
    for _ in range(steps):
        p = find_prime(target, after=p)
        yield construct(target, p)


def approximate_real(r: float, order: QuadOrder, tol: float = 1e-2) -> tuple[Target, ApproxStep]:
    """A target and a single step whose dtilde lands within tol of the real r.

    Picks an odd prime denominator b > 4/tol coprime to 2d, so the grid
    {2a/b} meets every tol-ball and one progression prime finishes the job;
    a = round(r*b/2) is exact.  Raises ValueError unless r is finite and tol
    positive (NaN is not) with 4/tol finite.
    """
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if math.isinf(4.0 / tol):
        raise ValueError(f"tol = {tol} is too small: 4/tol overflows a float")
    d = abs(order.discriminant)
    b = max(5, math.ceil(4.0 / tol) | 1)
    while not (is_probable_prime(b) and (2 * d) % b != 0):
        b += 2
    a = round(Fraction(r) * b / 2)
    if a % b == 0:
        a += 1
    target = Target(a, b, order)
    step = construct(target, find_prime(target))
    if abs(step.dtilde - r) >= tol:
        raise ConstructionError(f"approximation missed: |{step.dtilde} - {r}| >= {tol}")
    return target, step
