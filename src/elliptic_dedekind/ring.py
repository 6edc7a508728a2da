"""Exact arithmetic in imaginary quadratic orders plus modular number theory.

Elements are stored in the theta-basis u + v*theta with
theta = f*(d_K + sqrt(d_K))/2, so every ring formula is denominator-free
even when d_K is odd.  theta satisfies

    theta^2 = (f*d_K)*theta - f^2*(d_K^2 - d_K)/4,

both coefficients integers for any fundamental discriminant.  That rule, and
the product, conjugate product, norm and rounded quotient built on it, are
written once, on int pairs (u, v) (_mul, _times_conj, _norm, _rounded_coords):
OrderElem and the SL2(O) walk of sl2 both use them.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

from .errors import (
    InvalidModulusError,
    ModularArithmeticError,
    NoSquareRootError,
    OrderMismatchError,
    UnsupportedOrderError,
    ZeroDivisorError,
)

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
]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# OEIS A014233 (G. Jaeschke, Math. Comp. 61, 1993): psi_k, the least strong
# pseudoprime to each of the first k prime bases.  Below psi_k the first k
# witnesses make Miller-Rabin a proof.
_A014233 = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
# Largest n for which the 13-witness Miller-Rabin test is a proof.
_MR_DETERMINISTIC_BOUND = _A014233[-1]
# Random witnesses above that bound: a composite passes with odds below 4**-40.
_MR_RANDOM_ROUNDS = 40
# From psi_4 to 2^64 one strong base-2 round and one strong Lucas test (Baillie-PSW)
# are a proof, and cost less per prime than the 5 to 12 witnesses of the tiers.
# psi_4 is the first A014233 boundary past the crossover: near 1e9 to 2e9 a prime
# costs the same under Baillie-PSW and the 4-witness tier.
_BPSW_FROM = _A014233[3]
_BPSW_BELOW = 1 << 64

_EUCLIDEAN_DK = (-3, -4, -7, -8, -11)

# An element u + v*theta of an order as the int pair (u, v).
_Pair = tuple[int, int]


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = tuple(_sieve(1000))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# One gcd with this product does the trial division by every prime below 1000.
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def inverse_mod(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m)."""
    if m < 1:
        raise InvalidModulusError(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ModularArithmeticError(f"{a} is not invertible mod {m} (gcd={math.gcd(a, m)})") from None


def crt(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences x = r_i (mod m_i) with pairwise-coprime moduli.

    Returns (r, m) with 0 <= r < m = prod(m_i).
    """
    r, m = 0, 1
    for ri, mi in pairs:
        if mi < 1:
            raise InvalidModulusError(f"modulus must be positive, got {mi}")
        g = math.gcd(m, mi)
        if g != 1:
            raise ModularArithmeticError(f"moduli {m} and {mi} are not coprime")
        # r' = r (mod m), r' = ri (mod mi)
        t = ((ri - r) * inverse_mod(m, mi)) % mi
        r = r + m * t
        m = m * mi
        r %= m
    return r, m


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} via Euler's criterion."""
    if p <= 1 or p % 2 == 0:
        raise InvalidModulusError(f"p must be an odd prime, got {p}")
    a = a % p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    if t == 1:
        return 1
    if t == p - 1:
        return -1
    raise InvalidModulusError(f"{p} is not prime (Euler criterion gave {t})")


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) in {-1, 0, 1} for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _non_residue(p: int) -> int:
    """A quadratic non-residue mod the prime p = 1 (mod 4), by the Jacobi symbol.

    2 is one exactly when p = 5 (mod 8).  Otherwise 2 is a square, so the least
    non-residue is odd: the odd n from 3 on are tried by the Jacobi symbol.
    Raises InvalidModulusError when p is a perfect square (every Jacobi symbol
    mod p would be 0 or 1) or shares a factor with a tried n.  The caller
    confirms the pick by Euler's criterion.
    """
    if p % 8 == 5:
        return 2
    if math.isqrt(p) ** 2 == p:
        raise InvalidModulusError(f"{p} is a perfect square, not a prime")
    n, j = 3, _jacobi(3, p)
    while j == 1:
        n += 2
        j = _jacobi(n, p)
    if j == 0:
        raise InvalidModulusError(f"{p} is not prime (it shares a factor with {n})")
    return n


def _square_times(x: int, times: int, p: int) -> int:
    """x^(2^times) mod p, by repeated squaring."""
    for _ in range(times):
        x = x * x % p
    return x


def sqrt_mod(a: int, p: int) -> int:
    """Square root of a modulo an odd prime p.

    Returns the smaller of the two roots, min(r, p - r), so the result is
    deterministic.  Raises NoSquareRootError for non-residues, and
    InvalidModulusError (also for a = 0 mod p) when p is below 3, even, or
    exposed as composite by Euler's criterion or the Jacobi symbol.

    Tonelli-Shanks with two full-size modular powers per root.  With
    p - 1 = s*2^e, s odd, y = a^((s-1)/2) gives the start x = a^((s+1)/2) and
    b = a^s, and n^s for the non-residue n the other; each Euler criterion is
    then b or n^s squared e - 1 times.  For p = 3 (mod 4), e = 1: x is
    a^((p+1)/4), the root, and no non-residue is needed.
    """
    if p <= 1 or p % 2 == 0:
        raise InvalidModulusError(f"p must be an odd prime, got {p}")
    a = a % p
    if a == 0:
        return 0
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    y = pow(a, (s - 1) // 2, p)
    x = (y * a) % p
    b = (y * x) % p
    t = _square_times(b, e - 1, p)  # a^((p-1)/2)
    if t == p - 1:
        raise NoSquareRootError(f"{a} is not a square mod {p}")
    if t != 1:
        raise InvalidModulusError(f"{p} is not prime (Euler criterion gave {t})")
    if e == 1:  # t = b = 1, so x*x = a*b = a
        return min(x, p - x)
    n = _non_residue(p)
    g = pow(n, s, p)
    if _square_times(g, e - 1, p) != p - 1:
        raise InvalidModulusError(f"{p} is not prime (Euler's criterion fails for {n})")
    r = e
    while True:
        t, m = b, 0
        for m in range(r):
            if t == 1:
                break
            t = (t * t) % p
        if m == 0:
            return min(x, p - x)
        gs = pow(g, 1 << (r - m - 1), p)
        g = (gs * gs) % p
        x = (x * gs) % p
        b = (b * g) % p
        r = m


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of the odd n > 1, Selfridge's method A.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D|n) = -1, P = 1
    and Q = (1 - D)/4.  n passes when U_d = 0 or V_(d*2^r) = 0 (mod n) for some
    0 <= r < s, where n + 1 = d*2^s, d odd.  A perfect square has no such D and
    is rejected first; a Jacobi symbol 0 means gcd(D, n) > 1, so n is composite
    unless n = |D|.  Q is then a unit mod n: each odd prime factor of Q is below
    |D|, so it (or 9, for 3) was an earlier |D| coprime to n.

    The ladder runs on g = alpha/beta, alpha and beta the roots of
    x^2 - P*x + Q, whose traces W_k = g^k + g^-k = V_2k / Q^k obey
    W_2k = W_k^2 - 2 and W_(2k+1) = W_k*W_(k+1) - W_1, with W_1 = 1/Q - 2: two
    products per bit and no power of Q.  V_(d*2^r) = Q^(d*2^(r-1)) * W_(d*2^(r-1))
    for r >= 1.  For r = 0, U_d = 0 or V_d = 0 says alpha^d = +-beta^d, that is
    g^d = e with e = +-1, as alpha - beta (its square is D) is a unit.  g^d = e
    holds exactly when W_d = 2e and W_(d+1) = e*W_1, since the trace form on
    Z_n[g] has determinant D/Q^2, a unit.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return abs(D) == n
        D = -D - 2 if D > 0 else 2 - D
    w1 = (pow((1 - D) // 4, -1, n) - 2) % n
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    v, w = w1, (w1 * w1 - 2) % n  # (W_k, W_(k+1)) from k = 1, down the bits of d
    for bit in bin(d)[3:]:
        if bit == "1":
            v, w = (v * w - w1) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - w1) % n
    if (v == 2 and w == w1) or (v == n - 2 and w == n - w1):
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test: a proof below 3.3e24, 40 seeded Miller-Rabin rounds above.

    Five regimes, by the size of n.  Above 997, one gcd with _PRIMORIAL, the
    product of the primes below 1000, first does the trial division.

    - n <= 997: membership in the primes below 1000;
    - below _BPSW_FROM = psi_4: the first k of _MR_WITNESSES, k <= 4 the least
      with n < psi_k in A014233 (G. Jaeschke, Math. Comp. 61, 1993);
    - from psi_4 to 2^64: Baillie-PSW, a strong base-2 Miller-Rabin round and
      _strong_lucas (R. Baillie and S. S. Wagstaff Jr., Lucas pseudoprimes,
      Math. Comp. 35, 1980).  It is a proof there: no strong base-2
      pseudoprime in J. Feitsma and W. Galway's list of the base-2
      pseudoprimes below 2^64 passes the strong Lucas test;
    - from 2^64 to _MR_DETERMINISTIC_BOUND (3.3e24): the first 12 or 13
      witnesses, by A014233;
    - above: _MR_RANDOM_ROUNDS = 40 random witnesses seeded by n.
    """
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _PRIMORIAL) != 1:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    if _BPSW_FROM <= n < _BPSW_BELOW:
        return _miller_rabin_round(n, 2, d, s) and _strong_lucas(n)
    if n < _MR_DETERMINISTIC_BOUND:
        witnesses = _MR_WITNESSES[: bisect.bisect_right(_A014233, n) + 1]
    else:
        rng = random.Random(n)  # seeded by n: reproducible verdicts
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    for a in witnesses:
        if not _miller_rabin_round(n, a, d, s):
            return False
    return True


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    return True


def _is_fundamental(d: int) -> bool:
    if d >= 0:
        return False
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


@dataclass(frozen=True)
class QuadOrder:
    """Imaginary quadratic order Z[theta], theta = f*(d_k + sqrt(d_k))/2.

    d_k is the fundamental discriminant of the ambient field (d_k < 0),
    f >= 1 the conductor; the order's discriminant is f^2 * d_k.
    """

    d_k: int
    f: int = 1
    # Derived once, by __post_init__, as plain attributes that every context and walk reads;
    # equality, hashing and repr stay on (d_k, f).
    discriminant: int = field(init=False, repr=False, compare=False)  # f^2*d_k
    theta_trace: int = field(init=False, repr=False, compare=False)  # theta + conj(theta) = f*d_k
    theta_norm: int = field(init=False, repr=False, compare=False)  # theta*conj(theta) = f^2*(d_k^2 - d_k)/4

    def __post_init__(self):
        if self.d_k >= 0:
            raise ValueError(f"d_k must be negative, got {self.d_k}")
        if not _is_fundamental(self.d_k):
            raise ValueError(f"{self.d_k} is not a fundamental discriminant")
        if self.f < 1:
            raise ValueError(f"conductor must be >= 1, got {self.f}")
        d_k, f = self.d_k, self.f
        object.__setattr__(self, "discriminant", f * f * d_k)
        object.__setattr__(self, "theta_trace", f * d_k)
        object.__setattr__(self, "theta_norm", f * f * (d_k * d_k - d_k) // 4)

    def theta_embedding(self) -> complex:
        return complex(self.f * self.d_k / 2.0, self.f * math.sqrt(-self.d_k) / 2.0)

    def element(self, u: int, v: int = 0) -> "OrderElem":
        return OrderElem(u, v, self)

    def zero(self) -> "OrderElem":
        return OrderElem(0, 0, self)

    def one(self) -> "OrderElem":
        return OrderElem(1, 0, self)

    def theta(self) -> "OrderElem":
        return OrderElem(0, 1, self)

    def is_euclidean(self) -> bool:
        return self.f == 1 and self.d_k in _EUCLIDEAN_DK


@dataclass(frozen=True)
class OrderElem:
    """Exact element u + v*theta of a quadratic order."""

    u: int
    v: int
    order: QuadOrder

    def _check(self, other: "OrderElem") -> None:
        if self.order is not other.order and self.order != other.order:
            raise OrderMismatchError(f"elements of different orders: {self.order} vs {other.order}")

    def __add__(self, other: "OrderElem") -> "OrderElem":
        self._check(other)
        return OrderElem(self.u + other.u, self.v + other.v, self.order)

    def __sub__(self, other: "OrderElem") -> "OrderElem":
        self._check(other)
        return OrderElem(self.u - other.u, self.v - other.v, self.order)

    def __neg__(self) -> "OrderElem":
        return OrderElem(-self.u, -self.v, self.order)

    def __mul__(self, other):
        if isinstance(other, int):
            return OrderElem(self.u * other, self.v * other, self.order)
        if not isinstance(other, OrderElem):
            return NotImplemented
        self._check(other)
        order = self.order
        return OrderElem(*_mul((self.u, self.v), (other.u, other.v), order.theta_trace, order.theta_norm), order)

    def __rmul__(self, other):
        if isinstance(other, int):
            return OrderElem(self.u * other, self.v * other, self.order)
        return NotImplemented

    def conjugate(self) -> "OrderElem":
        return OrderElem(self.u + self.v * self.order.theta_trace, -self.v, self.order)

    def norm(self) -> int:
        return _norm((self.u, self.v), self.order.theta_trace, self.order.theta_norm)

    def embed(self) -> complex:
        o = self.order
        return complex(self.u + self.v * o.f * o.d_k / 2.0, self.v * o.f * math.sqrt(-o.d_k) / 2.0)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def exact_div(self, other: "OrderElem"):
        """Return self/other when it lies in the order, else None."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisorError("division by zero element")
        n = other.norm()
        num = self * other.conjugate()
        if num.u % n or num.v % n:
            return None
        return OrderElem(num.u // n, num.v // n, self.order)

    def __repr__(self) -> str:
        return f"OrderElem({self.u}, {self.v}; d_k={self.order.d_k}, f={self.order.f})"


def sqrt_discriminant(order: QuadOrder) -> OrderElem:
    """Element whose square is the order discriminant f^2*d_k.

    In the theta-basis this is (-f*d_k) + 2*theta, embedding to i*sqrt(|f^2 d_k|).
    """
    return OrderElem(-order.f * order.d_k, 2, order)


def _round_half_to_zero(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, ties toward zero; den > 0."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q < 0):
        return q + 1
    return q


def _rounded_coords(u: int, v: int, n: int, c0: int) -> tuple[int, int]:
    """(u + v*theta)/n rounded coordinate by coordinate in the reduced (1, omega) basis, ties toward zero.

    n > 0 and c0 = tr(theta) // 2.  omega = theta - c0 is f*sqrt(d_k/4) or
    (1 + f*sqrt(d_k))/2 on any conductor f; it differs from theta by an
    integer, so the change of coordinates is exact.  Returns the theta-basis
    coordinates of the rounded quotient.
    """
    t = _round_half_to_zero(v, n)
    return _round_half_to_zero(u + c0 * v, n) - c0 * t, t


def _mul(x: _Pair, y: _Pair, tr: int, nt: int) -> _Pair:
    """x*y, with theta^2 = tr*theta - nt."""
    (xu, xv), (yu, yv) = x, y
    return xu * yu - xv * yv * nt, xu * yv + xv * yu + xv * yv * tr


def _times_conj(x: _Pair, y: _Pair, tr: int, nt: int) -> _Pair:
    """x*conj(y), with conj(u + v*theta) = (u + v*tr) - v*theta."""
    (xu, xv), (yu, yv) = x, y
    return xu * yu + xu * yv * tr + xv * yv * nt, xv * yu - xu * yv


def _norm(x: _Pair, tr: int, nt: int) -> int:
    u, v = x
    return u * u + u * v * tr + v * v * nt


def _add(x: _Pair, y: _Pair) -> _Pair:
    return x[0] + y[0], x[1] + y[1]


def _sub(x: _Pair, y: _Pair) -> _Pair:
    return x[0] - y[0], x[1] - y[1]


def _combine(p: _Pair, x: _Pair, q: _Pair, y: _Pair, tr: int, nt: int) -> _Pair:
    """p*x + q*y."""
    return _add(_mul(p, x, tr, nt), _mul(q, y, tr, nt))


def _generates(x: _Pair, y: _Pair, tr: int, nt: int) -> bool:
    """Whether the ideal (x, y) is the whole order.

    (x, y) is the Z-span of x, x*theta, y and y*theta; its index in
    O = Z + Z*theta is the gcd of the 2x2 minors of their coordinates.  Those
    minors are N(x), N(y), the two coordinates of x*conj(y) up to sign, and
    integer combinations of these, so the index is their gcd.
    """
    u, v = _times_conj(x, y, tr, nt)
    return math.gcd(_norm(x, tr, nt), _norm(y, tr, nt), u, v) == 1


def egcd_order(alpha: OrderElem, beta: OrderElem) -> tuple[OrderElem, OrderElem, OrderElem]:
    """Extended gcd in a norm-Euclidean order: alpha*x + beta*y = g.

    g generates the ideal (alpha, beta).  Division rounds the quotient
    (_rounded_coords); in the corner cases of d_k = -7, -11 where that does
    not lower the norm, the nearest point of the 3x3 block around it is taken.
    """
    alpha._check(beta)
    order = alpha.order
    if not order.is_euclidean():
        raise UnsupportedOrderError(
            f"egcd_order needs a norm-Euclidean order, got d_k={order.d_k}, f={order.f}"
        )
    r0, r1 = alpha, beta
    x0, x1 = order.one(), order.zero()
    y0, y1 = order.zero(), order.one()
    c0 = order.theta_trace // 2
    while not r1.is_zero():
        n = r1.norm()
        num = r0 * r1.conjugate()
        q = OrderElem(*_rounded_coords(num.u, num.v, n, c0), order)
        if (r0 - q * r1).norm() >= n:
            near = (q + OrderElem(ds - c0 * dt, dt, order) for ds in (-1, 0, 1) for dt in (-1, 0, 1))
            q = min(near, key=lambda qq: (r0 - qq * r1).norm())
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return r0, x0, y0
