"""Exact SL2(O) algebra: 2x2 matrices, their completion, and the pseudo-Euclidean walk.

The walk serves d_sum on every pair (h, k) with h != 0 and (h, k) = O, on any
order.  (h, k) = O is decided up front and exactly (_generates_order): the
gcd of the 2x2 minors of the coordinates of h, h*theta, k and k*theta, the
index of (h, k) in O, is 1.  h is first replaced by its representative mod k
in a fixed box, up to sign (_signed_walk), so that the value is shift
invariant and odd in h bit for bit.  The walk is the pseudo-Euclidean
algorithm of modular symbols (J. E. Cremona, Compositio Math. 51, 1984):
each step applies M = [[alpha, beta], [gamma, delta]] in SL2(O) to the
column (a, c), starting at (h, k), and takes the first M with
N(gamma*a + delta*c) < N(c):

  - gamma = -1 and delta = q, the rounded quotient a/c, that is the
    Euclidean step M = [[0, 1], [-1, q]], whenever it lowers N(c);
  - otherwise gamma runs over -1, then the non-units up to the norm
    max(72, 8*|disc|) by increasing norm (_gammas), delta over the lattice
    points within distance 1 of -gamma*a/c, nearest first, and
    (gamma, delta) = O is required; _complete_row finds alpha and beta.
    The candidates are found and tested in integers (_extra_step).

On d_K = -7, -8, -11 every step has gamma = -1 (a neighbour of q in the
corner cases of -7 and -11), as in the Euclidean algorithm.  The walk ends
at (u, 0), u a unit, carrying the cofactor x0 of h (a = x0*h mod k), and
x = x0*conj(u) is the inverse of h mod k.  It returns
R = J((h + x)/k) + sum_i J((alpha_i + delta_i)/gamma_i) as an exact Fraction,
J(z/w) = v(z*conj(w))/N(w) with v the theta-coordinate (-J(q) = -v(q) on a
Euclidean step), and the (alpha_i, gamma_i) of the steps with N(gamma_i) > 1,
whose D_L(alpha_i, gamma_i) dedekind.d_sum subtracts.  A walk that finds no
gamma under the bound raises SearchLimitError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, NotUnimodularError, OrderMismatchError, SearchLimitError
from .ring import OrderElem, QuadOrder, _rounded_quotient, inverse_mod

__all__ = ["Mat2"]

# A walk step tries gamma up to the norm max(_GAMMA_NORM, _GAMMA_DISC*|disc|).  Random
# pairs on every fundamental d_K down to -300, and on orders with f > 1 up to
# |disc| = 507, needed at most 72 and 4.03*|disc|.
_GAMMA_NORM = 72
_GAMMA_DISC = 8


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over a quadratic order, with exact determinant."""

    a: OrderElem
    b: OrderElem
    c: OrderElem
    d: OrderElem

    def __post_init__(self):
        order = self.a.order
        for entry in (self.b, self.c, self.d):
            if entry.order != order:
                raise OrderMismatchError("matrix entries belong to different orders")

    @classmethod
    def identity(cls, order: QuadOrder) -> "Mat2":
        return cls(order.one(), order.zero(), order.zero(), order.one())

    @property
    def order(self) -> QuadOrder:
        return self.a.order

    def det(self) -> OrderElem:
        return self.a * self.d - self.b * self.c

    def is_unimodular(self) -> bool:
        return self.det() == self.order.one()

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        if not self.is_unimodular():
            raise NotUnimodularError(f"determinant is {self.det()!r}, expected 1")
        return Mat2(self.d, -self.b, -self.c, self.a)

    def max_entry_norm(self) -> int:
        return max(self.a.norm(), self.b.norm(), self.c.norm(), self.d.norm())


def _complete_column(a: OrderElem, c: OrderElem) -> Mat2 | None:
    """[[a, b], [c, d]] in SL2(O) for c != 0, or None unless gcd(N(a), N(c)) = 1.

    d = conj(a)*(N(a)^-1 mod N(c)) gives a*d = 1 (mod N(c)), so c divides
    a*d - 1 on any order, with no Euclidean algorithm; d is reduced by the
    rounded quotient d/c, as in a Euclidean step, to keep the entries small.
    """
    n_a, n_c = a.norm(), c.norm()
    if math.gcd(n_a, n_c) != 1:
        return None
    d = a.conjugate() * inverse_mod(n_a, n_c)
    d -= _rounded_quotient(d * c.conjugate(), n_c) * c
    return Mat2(a, (a * d - a.order.one()).exact_div(c), c, d)


def _generates_order(h: OrderElem, k: OrderElem) -> bool:
    """Whether the ideal (h, k) is the whole order, decided exactly.

    (h, k) is the Z-span of h, h*theta, k and k*theta; its index in
    O = Z + Z*theta is the gcd of the 2x2 minors of their coordinates.  Those
    minors are N(h), N(k), the two coordinates of h*conj(k) up to sign, and
    integer combinations of these, so the index is their gcd.
    """
    num = h * k.conjugate()
    return math.gcd(h.norm(), k.norm(), num.u, num.v) == 1


def _gamma_bound(order: QuadOrder) -> int:
    """The largest N(gamma) a walk step on this order tries."""
    return max(_GAMMA_NORM, _GAMMA_DISC * abs(order.discriminant))


@functools.cache
def _gammas(order: QuadOrder) -> tuple[OrderElem, ...]:
    """gamma = -1, then every non-unit up to _gamma_bound, one of each +-gamma.

    The non-units are sorted by norm, then by the coordinates s, t of
    gamma = s + t*omega in the reduced basis omega = theta - (tr theta // 2).
    A step with another unit gamma = u lowers N(c) exactly when one with -1
    does, so -1 stands for them all.  Built on the first walk that needs it.
    """
    bound = _gamma_bound(order)
    c0 = order.theta_trace // 2
    # N(s + t*omega) >= t^2*|d|/4, so |t| <= 2*sqrt(bound/|d|).
    t_max = math.isqrt(4 * bound // abs(order.discriminant))
    s_max = math.isqrt(bound) + t_max
    found = [
        (gamma.norm(), t, s, gamma)
        for t in range(t_max + 1)
        for s in range(-s_max if t else 2, s_max + 1)
        if 1 < (gamma := OrderElem(s - c0 * t, t, order)).norm() <= bound
    ]
    return (-order.one(),) + tuple(gamma for *_, gamma in sorted(found, key=lambda entry: entry[:3]))


def _extra_step(a: OrderElem, c: OrderElem, num: OrderElem, n: int) -> tuple[Mat2, OrderElem]:
    """(M, gamma*a + delta*c) for the first M = [[alpha, beta], [gamma, delta]] in SL2(O) that lowers N(c).

    num = a*conj(c) and n = N(c), so a/c = num/n = z0 + zf with z0 in the
    order and zf in [0, 1) + [0, 1)*theta.  gamma runs over _gammas.  For
    each, delta = delta' - gamma*z0, where delta' = s + t*theta runs over the
    lattice points within distance 1 of -gamma*zf, nearest first.  Then
    gamma*a + delta*c = c*(gamma*zf + delta'), and (gamma, delta) = O exactly
    when (gamma, delta') = O, so the completion runs on small numbers.  With
    x0 + y0*theta = gamma*n*zf, x = x0 + n*s and y = y0 + n*t, the candidate
    lowers N(c) exactly when x^2 + x*y*tr(theta) + y^2*N(theta) < n^2.  As
    Im(theta) >= sqrt(3)/2, such points lie in rows t0 - 1..t0 + 1 around the
    nearest row t0, each at s0 - 1..s0 + 1 around its nearest s0.  Raises
    SearchLimitError when no gamma up to _gamma_bound qualifies.
    """
    order = a.order
    trace, theta_norm = order.theta_trace, order.theta_norm
    z0 = OrderElem(num.u // n, num.v // n, order)
    frac = OrderElem(num.u % n, num.v % n, order)  # n*zf
    n2, nn = 2 * n, n * n
    for gamma in _gammas(order):
        g = gamma * frac
        x0, y0 = g.u, g.v
        near = []
        t0 = -((2 * y0 + n) // n2)
        for t in (t0 - 1, t0, t0 + 1):
            y = y0 + n * t
            s0 = -((2 * x0 + y * trace + n) // n2)
            for s in (s0 - 1, s0, s0 + 1):
                x = x0 + n * s
                norm = x * x + x * y * trace + y * y * theta_norm
                if norm < nn:
                    near.append((norm, s, t))
        for _, s, t in sorted(near):
            delta_f = OrderElem(s, t, order)
            m = _complete_row(gamma, delta_f)
            if m is not None:
                delta = delta_f - gamma * z0
                return Mat2(m.a, m.b - m.a * z0, gamma, delta), gamma * a + delta * c
    raise SearchLimitError(
        f"no gamma of norm <= {_gamma_bound(order)} lowers N(c) = {n} on the order "
        f"(d_K={order.d_k}, f={order.f}); the walk is stuck"
    )


def _complete_row(gamma: OrderElem, delta: OrderElem) -> Mat2 | None:
    """[[alpha, beta], [gamma, delta]] in SL2(O), or None unless (gamma, delta) = O.

    A unit gamma takes [[0, -1/gamma], [gamma, delta]].  Otherwise
    _complete_column(delta + gamma*m, gamma) = [[delta + gamma*m, beta'], [gamma, alpha]]
    gives beta = beta' - m*alpha.  It needs gcd(N(gamma), N(delta + gamma*m)) = 1:
    m = 0 where the norms are coprime already, else the first small m that
    avoids, for each prime ideal P over a prime dividing N(gamma), the one
    class of m mod P with delta + gamma*m in P.
    """
    order = gamma.order
    if gamma.is_unit():
        return Mat2(order.zero(), -gamma.conjugate(), gamma, delta)
    if not _generates_order(gamma, delta):
        return None
    for s in (0, 1, -1, 2, -2, 3, -3):
        for t in (0, 1, -1, 2, -2, 3, -3):
            m = OrderElem(s, t, order)
            col = _complete_column(delta + gamma * m, gamma)
            if col is not None:
                return Mat2(col.d, col.b - m * col.d, gamma, delta)
    raise ConstructionError(f"no small m completes (gamma, delta) = ({gamma!r}, {delta!r}), which generate O")


@dataclass(frozen=True)
class _Walk:
    """The walk of (h, k) (see the module docstring).

    r is the exact J((h + x)/k) + sum of J((alpha_i + delta_i)/gamma_i) over
    every step; constants holds the (alpha_i, gamma_i) of the steps with
    N(gamma_i) > 1, in walk order.
    """

    r: Fraction
    constants: tuple[tuple[OrderElem, OrderElem], ...]


def _walk(h: OrderElem, k: OrderElem) -> _Walk:
    """The walk of (h, k), for h != 0 with (h, k) = O; raises SearchLimitError when it is stuck."""
    order = h.order
    # The walk (a, c) -> M*(a, c) keeps a = x0*h and c = x1*h modulo k.
    a, c = h, k
    x0, x1 = order.one(), order.zero()
    q_sum = 0
    extra = 0
    constants = []
    while not c.is_zero():
        n = c.norm()
        num = a * c.conjugate()
        q = _rounded_quotient(num, n)
        r = q * c - a
        if r.norm() < n:
            # M = [[0, 1], [-1, q]], with J((0 + q)/-1) = -J(q) = -v(q).
            q_sum += q.v
            a, c = c, r
            x0, x1 = x1, q * x1 - x0
            continue
        m, c_new = _extra_step(a, c, num, n)
        n_gamma = m.c.norm()
        extra += Fraction(((m.a + m.d) * m.c.conjugate()).v, n_gamma)
        if n_gamma > 1:
            constants.append((m.a, m.c))
        a, c = m.a * a + m.b * c, c_new
        x0, x1 = m.a * x0 + m.b * x1, m.c * x0 + m.d * x1
    if not a.is_unit():
        raise ConstructionError(f"the walk of a pair with (h, k) = O ended at a non-unit {a!r}")
    x = x0 * a.conjugate()  # h*x = 1 (mod k): a is a unit of norm 1
    # J(z/w) = 2*Im(z/w)/sqrt(|d|) is the theta-coordinate of z/w, as Im(theta) = sqrt(|d|)/2.
    r = Fraction(((h + x) * k.conjugate()).v, k.norm()) - q_sum + extra
    return _Walk(r, tuple(constants))


def _signed_walk(h: OrderElem, k: OrderElem) -> tuple[int, _Walk]:
    """(sign, walk of (h', k)) with D_L(h, k) = sign*D_L(h', k), the same h' for every +-h + k*m.

    h' is the representative of sign*h mod k with h'*conj(k) = (s, t) in
    [0, N(k))^2, and sign picks the smaller (s, t); so the walk, and every
    bit of the value, are shift invariant and odd in h.
    """
    n = k.norm()
    num = h * k.conjugate()
    sign = -1 if ((-num.u) % n, (-num.v) % n) < (num.u % n, num.v % n) else 1
    h, num = sign * h, sign * num
    return sign, _walk(h - k * h.order.element(num.u // n, num.v // n), k)
