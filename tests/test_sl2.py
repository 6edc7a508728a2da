"""Mat2, the two SL2(O) generators and the walk, which run on int pairs, against plain OrderElem arithmetic."""

import math
import random

import pytest

from elliptic_dedekind import (
    GenerationError,
    Mat2,
    NotUnimodularError,
    OrderMismatchError,
    QuadOrder,
    SumContext,
    d_sum,
    gen_sl2_triple,
    inverse_mod,
    phi,
)
from elliptic_dedekind.ring import _rounded_coords
from elliptic_dedekind.sl2 import _Walk, _walk
from elliptic_dedekind.verification import random_sl2

ORDERS = [(-3, 1), (-4, 1), (-7, 1), (-8, 1), (-11, 1), (-15, 1), (-20, 1), (-23, 1), (-163, 1), (-8, 3), (-4, 5), (-3, 7)]


def ref_matmul(x, y):
    return Mat2(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def ref_inverse(m):
    return Mat2(m.d, -m.b, -m.c, m.a)


def ref_column(a, c):
    """[[a, b], [c, d]] with d = conj(a)*(N(a)^-1 mod N(c)), reduced by the rounded quotient d/c."""
    n_a, n_c = a.norm(), c.norm()
    if math.gcd(n_a, n_c) != 1:
        return None
    d = a.conjugate() * inverse_mod(n_a, n_c)
    num = d * c.conjugate()
    d = d - a.order.element(*_rounded_coords(num.u, num.v, n_c, a.order.theta_trace // 2)) * c
    return Mat2(a, (a * d - a.order.one()).exact_div(c), c, d)


def ref_triple(seed, order):
    rng = random.Random(seed)
    for _ in range(800):
        c = order.element(rng.randint(-4, 4), rng.randint(-2, 2))
        if not 2 <= c.norm() <= 40:
            continue
        a1 = order.element(rng.randint(-4, 4), rng.randint(-2, 2))
        m1 = ref_column(a1, c)
        if m1 is None:
            continue
        best = None
        for mu in range(-2, 3):
            for mv in range(-2, 3):
                a2 = m1.d + order.element(mu, mv) * c
                n3 = (c * (a2 - a1)).norm()
                if 0 < n3 <= 300 and (best is None or (n3, mu, mv) < best[0]):
                    best = ((n3, mu, mv), a2)
        if best is None:
            continue
        m2 = ref_column(best[1], c)
        if m2 is None:
            continue
        return m1, m2, ref_matmul(ref_inverse(m2), m1)
    return None


def ref_random_sl2(rng, order):
    omega = order.theta() - order.element(order.theta_trace // 2)
    while True:
        a = order.element(rng.randint(-4, 4)) + rng.randint(-2, 2) * omega
        c = order.element(rng.randint(-4, 4)) + rng.randint(-2, 2) * omega
        if not c.is_zero() and (mat := ref_column(a, c)) is not None:
            return mat


def ref_sign(h, k):
    """The sign _walk gives h: -1 where -h*conj(k) mod N(k) is the smaller residue pair."""
    n = k.norm()
    num = h * k.conjugate()
    return -1 if ((-num.u) % n, (-num.v) % n) < (num.u % n, num.v % n) else 1


def negated(walk):
    """The walk with R, every count and w negated: the walk of -h for the walk of h."""
    cusp = walk.cusp and (*walk.cusp[:2], tuple(-x for x in walk.cusp[2]))
    return _Walk(-walk.r, tuple((key, -count) for key, count in walk.counts), cusp)


def ref_walk(h, k):
    """_walk(h, k) from the walk of the box representative h', its own representative with sign 1."""
    n = k.norm()
    sign = ref_sign(h, k)
    h, num = sign * h, sign * h * k.conjugate()
    walk = _walk(h - k * h.order.element(num.u // n, num.v // n), k)
    return walk if sign == 1 else negated(walk)


def entries(m):
    return [(e.u, e.v, e.order) for e in (m.a, m.b, m.c, m.d)]


@pytest.mark.parametrize("dk, f", ORDERS)
def test_generators_products_and_walks_match_the_order_elem_reference(dk, f):
    order = QuadOrder(dk, f)
    ctx = SumContext(order)
    one = order.one()
    walked = []
    for seed in range(300):
        try:
            triple = gen_sl2_triple(seed, ctx)
        except GenerationError:
            triple = None
        expected = ref_triple(seed, order)
        assert (triple is None) == (expected is None)
        if triple is not None:
            assert [entries(m) for m in triple] == [entries(m) for m in expected]
            walked.append((triple[2].a, triple[2].c))
    rng, ref_rng = random.Random(dk * f), random.Random(dk * f)
    mats = [random_sl2(rng, order) for _ in range(300)]
    assert [entries(m) for m in mats] == [entries(ref_random_sl2(ref_rng, order)) for _ in range(300)]
    assert rng.random() == ref_rng.random()
    for w1, w2 in zip(mats, mats[1:]):
        prod = w1 @ w2
        assert entries(prod) == entries(ref_matmul(w1, w2))
        assert entries(prod.inverse()) == entries(ref_inverse(prod))
        assert prod.is_unimodular() and prod.det() == one
        if not prod.a.is_zero() and not prod.c.is_zero():
            walked.append((prod.a, prod.c))
    for h, k in walked:
        assert _walk(h, k) == ref_walk(h, k)
    # Matrices with random entries, nearly all not unimodular.
    refused = 0
    for _ in range(300):
        m = Mat2(*(order.element(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(4)))
        assert m.is_unimodular() == (m.det() == one)
        if not m.is_unimodular():
            refused += 1
            with pytest.raises(NotUnimodularError):
                m.inverse()
    assert refused > 250


def test_mixed_orders_fail_loudly():
    o8, o7 = QuadOrder(-8), QuadOrder(-7)
    m8, m7 = Mat2.identity(o8), Mat2.identity(o7)
    with pytest.raises(OrderMismatchError):
        m8 @ m7
    with pytest.raises(OrderMismatchError):
        m7 @ m8
    ctx = SumContext(o8)
    for h in (o8.element(3, 1), o8.zero()):
        with pytest.raises(OrderMismatchError):
            d_sum(h, o7.element(7, 2), ctx)
    with pytest.raises(OrderMismatchError):
        d_sum(o7.element(3, 1), o8.element(7, 2), ctx)
    with pytest.raises(OrderMismatchError):
        phi(Mat2(o8.element(3, 1), o8.element(1), o7.element(7, 2), o8.element(5)), ctx)
