"""Elliptic Dedekind sums, the Phi homomorphism, and the three-term closed form.

The fundamental objects:

    D_L(h, k)   = (1/k) * sum over mu in L/kL of E1(h*mu/k) * E1(mu/k),
                  the division being by the complex embedding of k;
    Phi(A)      = E2(0)*I((a+d)/c) - D_L(a, c)   if c != 0,
                  E2(0)*I(b/d)                   if c == 0,
                  for A = [[a, b], [c, d]] in SL2(O_L), I(z) = z - conj(z);
    Dtilde(h,k) = D_L(h, k) / (i*sqrt(|disc|)*E2(0)), real when j(L) is real.

Phi is a homomorphism into (C, +); for triples A1 = A2*A3 with
c1 = c2 = c != 0 and a1*a2 = 1 (mod c) this collapses to the closed form
D_L(a3, c3) = E2(0)*I(2/c3 + c3/c^2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .cosets import CosetSystem, mult_matrix
from .errors import (
    ExcludedRingError,
    GenerationError,
    NotAMultiplierError,
    NotUnimodularError,
    OrderMismatchError,
    PrecisionLossError,
    PreconditionError,
    ZeroDivisorError,
)
from .lattice import Lattice
from .ring import OrderElem, QuadOrder, egcd_order

__all__ = [
    "Mat2",
    "SumContext",
    "i_map",
    "d_sum",
    "normalize_value",
    "d_norm",
    "phi",
    "three_term_residual",
    "three_term_closed_form",
    "gen_sl2_triple",
]

_CHUNK = 4096


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


class SumContext:
    """An order and a lattice it acts on, for sum evaluation.

    The lattice defaults to the order itself, basis (1, theta).  Construction
    checks that the order's generator actually multiplies the lattice into
    itself (so all OrderElem arguments are valid multipliers).
    """

    def __init__(self, order: QuadOrder, lattice: Lattice | None = None):
        self.order = order
        self.lattice = lattice if lattice is not None else Lattice.from_order(order)
        try:
            mult_matrix(order.theta(), self.lattice)
        except NotAMultiplierError as exc:
            raise NotAMultiplierError(f"order (d_k={order.d_k}, f={order.f}) does not act on this lattice") from exc

    def scaled(self, c: complex) -> "SumContext":
        return SumContext(self.order, self.lattice.scaled(c))


def i_map(z: complex) -> complex:
    """I(z) = z - conj(z) = 2i*Im(z)."""
    zc = complex(z)
    return zc - zc.conjugate()


def d_sum(h: OrderElem, k: OrderElem, ctx: SumContext) -> complex:
    """Elliptic Dedekind sum D_L(h, k) by direct coset summation.

    Cosets are processed in fixed-size chunks, which bounds peak memory; the
    partial sums are added in chunk-index order, which fixes the rounding.
    """
    if k.is_zero():
        raise ZeroDivisorError("zero modulus")
    lattice = ctx.lattice
    mu = CosetSystem(k, lattice).reps()
    kc = k.embed()
    z1 = (h.embed() * mu) / kc
    z2 = mu / kc
    partials = (
        complex(np.sum(lattice.e1_many(z1[i : i + _CHUNK]) * lattice.e1_many(z2[i : i + _CHUNK])))
        for i in range(0, len(mu), _CHUNK)
    )
    return sum(partials, 0.0 + 0.0j) / kc


def normalize_value(value: complex, ctx: SumContext) -> float:
    """Apply the Dtilde normalization 1/(i*sqrt(|disc|)*E2(0)) and take the real part.

    Raises ExcludedRingError when E2(0) vanishes (multiplier ring Z[i] or
    Z[rho]), and PrecisionLossError when j(L) is real but the normalized value
    keeps a residual imaginary part.  E2(0) has weight 2, so the vanishing test
    is on |E2(0)|*area, which does not change when the lattice is scaled.
    """
    e2 = ctx.lattice.e2_zero()
    if abs(e2) * ctx.lattice.area() < 1e-12:
        raise ExcludedRingError(
            f"E2(0) = {e2:.3e} vanishes for this ring; normalized sums are undefined"
        )
    denom = 1j * math.sqrt(abs(ctx.order.discriminant)) * e2
    w = complex(value) / denom
    jv = ctx.lattice.j_invariant()
    if abs(jv.imag) <= 1e-6 * (1.0 + abs(jv)) and abs(w.imag) > 1e-6 * (1.0 + abs(w)):
        raise PrecisionLossError(f"normalized sum kept imaginary part {w.imag:.3e}")
    return w.real


def d_norm(h: OrderElem, k: OrderElem, ctx: SumContext) -> float:
    """Normalized elliptic Dedekind sum Dtilde(h, k), a real number."""
    return normalize_value(d_sum(h, k, ctx), ctx)


def phi(a_mat: Mat2, ctx: SumContext) -> complex:
    """The Phi homomorphism SL2(O_L) -> (C, +)."""
    if not a_mat.is_unimodular():
        raise NotUnimodularError(f"determinant is {a_mat.det()!r}, expected 1")
    e2 = ctx.lattice.e2_zero()
    if a_mat.c.is_zero():
        return e2 * i_map(a_mat.b.embed() / a_mat.d.embed())
    head = e2 * i_map((a_mat.a.embed() + a_mat.d.embed()) / a_mat.c.embed())
    return head - d_sum(a_mat.a, a_mat.c, ctx)


def three_term_residual(a1: Mat2, a2: Mat2, a3: Mat2, ctx: SumContext) -> complex:
    """Phi(A1) - Phi(A2) - Phi(A3) for A1 = A2*A3 (checked exactly)."""
    if a2 @ a3 != a1:
        raise PreconditionError("A1 != A2 @ A3")
    return phi(a1, ctx) - phi(a2, ctx) - phi(a3, ctx)


def three_term_closed_form(c: OrderElem, c3: OrderElem, ctx: SumContext) -> complex:
    """Closed form E2(0)*I(2/c3 + c3/c^2) for the collapsed three-term relation."""
    if c.is_zero() or c3.is_zero():
        raise ZeroDivisorError("c and c3 must be nonzero")
    cc = c.embed()
    c3c = c3.embed()
    return ctx.lattice.e2_zero() * i_map(2.0 / c3c + c3c / (cc * cc))


def _unit_normalized_bezout(alpha: OrderElem, modulus: OrderElem):
    """x with alpha*x = 1 (mod modulus), alongside y with alpha*x + modulus*y = 1.

    Returns None when gcd(alpha, modulus) is not a unit.
    """
    g, x, y = egcd_order(alpha, modulus)
    if not g.is_unit():
        return None
    g_inv = g.conjugate()  # norm 1, so conj(g) is the inverse
    return x * g_inv, y * g_inv


def gen_sl2_triple(seed: int, ctx: SumContext, max_c3_norm: int = 300) -> tuple[Mat2, Mat2, Mat2]:
    """Random triple A1 = A2 @ A3 with c1 = c2 = c != 0 and a1*a2 = 1 (mod c).

    norm(c3) is kept below `max_c3_norm` so direct coset summation stays
    feasible.  Needs a norm-Euclidean order (completion via egcd_order).
    """
    order = ctx.order
    rng = random.Random(seed)
    one = order.one()
    for _ in range(800):
        c = order.element(rng.randint(-4, 4), rng.randint(-2, 2))
        if c.is_zero() or not 2 <= c.norm() <= 40:
            continue
        a1 = order.element(rng.randint(-4, 4), rng.randint(-2, 2))
        if a1.is_zero():
            continue
        pair = _unit_normalized_bezout(a1, c)
        if pair is None:
            continue
        x1, y1 = pair  # a1*x1 + c*y1 = 1
        a1_inv = x1
        best = None
        for mu in range(-2, 3):
            for mv in range(-2, 3):
                a2 = a1_inv + order.element(mu, mv) * c
                if a2 == a1:
                    continue
                n3 = (c * (a2 - a1)).norm()
                if n3 == 0 or n3 > max_c3_norm:
                    continue
                key = (n3, mu, mv)
                if best is None or key < best[0]:
                    best = (key, a2)
        if best is None:
            continue
        a2 = best[1]
        pair2 = _unit_normalized_bezout(a2, c)
        if pair2 is None:
            continue
        x2, y2 = pair2
        m1 = Mat2(a1, -y1, c, x1)
        m2 = Mat2(a2, -y2, c, x2)
        if not (m1.is_unimodular() and m2.is_unimodular()):
            continue
        m3 = m2.inverse() @ m1
        # Exact invariant checks of the construction.
        if m2 @ m3 != m1:
            continue
        if m3.c != c * (a2 - a1):
            continue
        if (a1 * a2 - one).exact_div(c) is None:
            continue
        return m1, m2, m3
    raise GenerationError(f"no admissible triple found for seed={seed}, budget={max_c3_norm}")
