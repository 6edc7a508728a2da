import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from elliptic_dedekind import (
    CosetSystem,
    ExcludedRingError,
    GenerationError,
    Lattice,
    Mat2,
    NotUnimodularError,
    OrderMismatchError,
    PreconditionError,
    QuadOrder,
    SumContext,
    Target,
    ZeroDivisorError,
    approximate,
    d_norm,
    d_norm_exact,
    d_sum,
    egcd_order,
    gen_sl2_triple,
    i_map,
    normalize_value,
    three_term_closed_form,
    phi,
    sqrt_discriminant,
    three_term_residual,
)
from elliptic_dedekind import dedekind, mult_matrix, sl2
from elliptic_dedekind.cli import main
from elliptic_dedekind.dedekind import _d_sum_table, _e1_tables
from elliptic_dedekind.verification import random_sl2

SQRT2 = math.sqrt(2.0)

# Regression anchors over Z + Z*sqrt(-2), frozen from this implementation's own
# brute-force coset-summation run (they agree with small exact rationals, as
# the normalized values should).
DNORM_ANCHORS = [
    ((1, 0), (0, 1), Fraction(8, 9)),
    ((1, 1), (2, 1), Fraction(-2, 3)),
    ((4, 1), (1, 1), Fraction(15, 11)),
]


def count_e1_points(monkeypatch):
    """Patch Lattice._e1_reduced, which every E1 evaluation runs, to record the number of
    points of each call; returns that list."""
    calls = []
    original = Lattice._e1_reduced

    def counting(self, x, y, on_lattice):
        calls.append(len(x))
        return original(self, x, y, on_lattice)

    monkeypatch.setattr(Lattice, "_e1_reduced", counting)
    return calls


def e1_table(system):
    """The E1 table of one system, filled alone."""
    (table,) = _e1_tables([system])
    return table


def random_elem(rng, order, max_norm=60, bound=8):
    while True:
        e = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if 0 < e.norm() <= max_norm:
            return e


# --- I map -------------------------------------------------------------------


def test_i_map_examples():
    assert i_map(3.0) == 0.0
    assert i_map(3 + 2j) == 4j
    rng = random.Random(20)
    for _ in range(50):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert abs(i_map(z) + i_map(z.conjugate())) == 0.0
        assert i_map(z).real == 0.0


# --- d_sum --------------------------------------------------------------------


def test_d_sum_zero_modulus(ctx_m8):
    with pytest.raises(ZeroDivisorError):
        d_sum(ctx_m8.order.one(), ctx_m8.order.zero(), ctx_m8)


# The order lattice of Z[sqrt(-2)], the conductor-3 order, and a scaled basis.
EXACT_CONTEXTS = [(-8, 1, None), (-8, 3, None), (-8, 1, complex(1.3, 0.7))]


def make_ctx(dk, f, scale):
    ctx = SumContext(QuadOrder(dk, f))
    return ctx if scale is None else ctx.scaled(scale)


# Orders with Re tau = 0 (d = -4 and the conductor-3 order) and Re tau = 1/2
# (d = -7, -15, -23), and the conj-stable moduli k = p and k = p*sqrt(d) on them.
CONJ_STABLE_ORDERS = [(-7, 1), (-15, 1), (-23, 1), (-4, 1), (-8, 3)]


def conj_stable_moduli(order, primes=(2, 5, 13)):
    return [order.element(p) for p in primes] + [order.element(p) * sqrt_discriminant(order) for p in primes]


def table_cases():
    """(ctx, None) for EXACT_CONTEXTS, to draw random moduli, then (ctx, k) for each conj-stable modulus."""
    cases = [(make_ctx(dk, f, scale), None) for dk, f, scale in EXACT_CONTEXTS]
    for dk, f in CONJ_STABLE_ORDERS:
        ctx = SumContext(QuadOrder(dk, f))
        cases += [(ctx, k) for k in conj_stable_moduli(ctx.order)]
    return cases


def test_d_sum_shift_invariance():
    # h enters only mod k, so shifting h by k*m leaves every bit unchanged.
    rng = random.Random(21)
    for ctx, fixed_k in table_cases():
        order = ctx.order
        for i in range(20 if fixed_k is None else 3):
            h = random_elem(rng, order, 60)
            k = random_elem(rng, order, 60) if fixed_k is None else fixed_k
            bound = (2, 10**6, 10**15)[i % 3]
            m = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
            assert _d_sum_table(h + k * m, k, ctx) == _d_sum_table(h, k, ctx)


def test_d_sum_oddness():
    rng = random.Random(22)
    for ctx, fixed_k in table_cases():
        order = ctx.order
        for _ in range(10 if fixed_k is None else 2):
            h = random_elem(rng, order, 60)
            k = random_elem(rng, order, 60) if fixed_k is None else fixed_k
            assert _d_sum_table(-h, k, ctx) == -_d_sum_table(h, k, ctx)


def float_d_sum_reference(h, k, ctx):
    """D_L(h, k) with h*mu/k formed in floats: the earlier kernel, kept as a reference."""
    mu = CosetSystem(k, ctx.lattice).reps()
    kc = k.embed()
    return complex(np.sum(ctx.lattice.e1_many(h.embed() * mu / kc) * ctx.lattice.e1_many(mu / kc))) / kc


@pytest.mark.parametrize("dk, f, scale", EXACT_CONTEXTS + [(-7, 1, None), (-11, 1, None)])
def test_d_sum_matches_float_reference(dk, f, scale):
    ctx = make_ctx(dk, f, scale)
    rng = random.Random(30)
    order = ctx.order
    for _ in range(10):
        h = random_elem(rng, order, 300, bound=20)
        k = random_elem(rng, order, 300, bound=20)
        expected = float_d_sum_reference(h, k, ctx)
        assert abs(_d_sum_table(h, k, ctx) - expected) <= 1e-10 * (1 + abs(expected))


def test_d_sum_zero_numerator(ctx_m8):
    order = ctx_m8.order
    k = order.element(7, 2)
    assert d_sum(order.zero(), k, ctx_m8) == 0
    assert d_sum(k * order.element(3, -1), k, ctx_m8) == 0


def full_box_e1_table(system):
    """E1 over the whole box, indexed a*h22 + b, one evaluation per pair {mu, -mu}, kept as a reference."""
    n, h22 = system.size, system.h22
    table = np.zeros(n, dtype=complex)
    for start in range(0, n, 4096):
        idx = np.arange(start, min(start + 4096, n), dtype=np.int64)
        a, b = np.divmod(idx, h22)
        neg_a, neg_b = system.reduce_coords((-a, -b))
        neg = neg_a * h22 + neg_b
        first = idx < neg
        if first.any():
            values = system.lattice.e1_torsion(*system.torsion_key(a[first], b[first]), n)
            table[idx[first]] = values
            table[neg[first]] = -values
    return table


def full_box_d_sum(h, k, ctx):
    """D_L(h, k) summed over every coset of the box: the sum before the half-box sum, kept as a reference."""
    system = CosetSystem(k, ctx.lattice)
    n, h22 = system.size, system.h22
    hm = mult_matrix(h, ctx.lattice)
    x1, y1 = system.reduce_coords((hm.a11, hm.a21))
    x2, y2 = system.reduce_coords((hm.a12, hm.a22))
    table = full_box_e1_table(system)
    total = 0j
    for start in range(0, n, 4096):
        stop = min(start + 4096, n)
        a, b = np.divmod(np.arange(start, stop, dtype=np.int64), h22)
        hx, hy = system.reduce_coords((a * x1 + b * x2, a * y1 + b * y2))
        total += complex(np.sum(table[hx * h22 + hy] * table[start:stop]))
    return total / k.embed()


# Not conj-stable: (7, 2), (0, 1) = theta = -4 + sqrt(-2), (40, 9), (6, 3).
# conj(k) = k: (2, 0), whose points are all 2-torsion, and (7, 0), (9, 0);
# conj(k) = -k: (12, 3) = 3*sqrt(-2) and (20, 5) = 5*sqrt(-2).
@pytest.mark.parametrize("u, v", [(7, 2), (2, 0), (0, 1), (40, 9), (6, 3), (7, 0), (9, 0), (12, 3), (20, 5)])
def test_e1_table_evaluates_each_pair_once(ctx_m8, monkeypatch, u, v):
    k = ctx_m8.order.element(u, v)
    system = CosetSystem(k, ctx_m8.lattice)
    n = system.size
    points = count_e1_points(monkeypatch)
    table = e1_table(system)
    # mu = -mu modulo kL exactly when 2*mu lies in kL.
    coords = system.coords().tolist()
    fixed = np.array([system.torsion_key(2 * a, 2 * b) == (0, 0) for a, b in coords])
    assert sum(points) == (n - int(fixed.sum())) // 2
    assert 0 not in points
    assert np.all(table[fixed] == 0)
    # E1 is odd, bit for bit.
    neg = [b * system.h11 + a for a, b in (system.reduce_coords((-a, -b)) for a, b in coords)]
    assert np.array_equal(table[neg], -table)
    expected = ctx_m8.lattice.e1_many(system.reps() / k.embed())
    assert np.max(np.abs(table - expected)) <= 1e-12 * (1 + np.max(np.abs(expected)))


@pytest.mark.parametrize("dk, f, basis", [(-8, 3, None), (-20, 1, "form"), (-15, 1, "unreduced")])
def test_e1_tables_match_e1_torsion_bit_for_bit(dk, f, basis):
    # _torsion_coords with adj(M) gives the centred integers of torsion_key followed by
    # e1_torsion, so every table is bit-identical to that path, whether its systems
    # share one fill or each gets its own.
    order = QuadOrder(dk, f)
    theta = order.theta_embedding()
    lattice = {
        None: Lattice.from_order(order),
        "form": Lattice(2, complex(3.0, math.sqrt(5.0))),
        "unreduced": Lattice(7 + 3 * theta, 2 + theta),
    }[basis]
    assert lattice._w_coords != ((1, 0), (0, 1))
    rng = random.Random(25)
    systems = [CosetSystem(random_elem(rng, order, 400, 12), lattice) for _ in range(6)]
    for system, table in zip(systems, _e1_tables(systems)):
        idx, _, a, b = system.half
        assert np.array_equal(table, e1_table(system))
        assert np.array_equal(table[idx], lattice.e1_torsion(*system.torsion_key(a, b), system.size))


def test_e1_fill_of_several_systems_runs_in_chunks(ctx_m8, monkeypatch):
    # A fill of several systems evaluates E1 over all their half points in slices of _CHUNK,
    # and gives each system the table it gets when filled alone.
    order = ctx_m8.order
    systems = [
        CosetSystem(order.element(*k), ctx_m8.lattice) for k in ((7, 2), (150, 0), (2, 0), (40, 9), (3, 1), (1, 0))
    ]
    total = sum(system.half[0].size for system in systems)
    chunk = dedekind._CHUNK
    assert total > 2 * chunk and total % chunk
    evaluations = count_e1_points(monkeypatch)
    tables = _e1_tables(systems)
    assert evaluations == [chunk] * (total // chunk) + [total % chunk]
    monkeypatch.undo()
    assert all(np.array_equal(table, e1_table(system)) for system, table in zip(systems, tables))


@pytest.mark.parametrize("dk, f, basis", [(-8, 3, None), (-20, 1, "form"), (-15, 1, "unreduced")])
def test_torsion_coords_compose_the_matrix_before_reducing(dk, f, basis):
    # _torsion_coords(a, b, n, m) = _torsion_coords(m*(a, b) mod n, n, identity), centred.
    order = QuadOrder(dk, f)
    theta = order.theta_embedding()
    lattice = {
        None: Lattice.from_order(order),
        "form": Lattice(2, complex(3.0, math.sqrt(5.0))),
        "unreduced": Lattice(7 + 3 * theta, 2 + theta),
    }[basis]
    rng = random.Random(26)
    for _ in range(40):
        n = rng.choice((1, 2, 3, rng.randint(4, 10**4), rng.randint(10**4, 2**31 - 1)))
        m = tuple(rng.randint(-(10**12), 10**12) for _ in range(4))
        a = np.array([rng.randrange(n) for _ in range(50)], dtype=np.int64)
        b = np.array([rng.randrange(n) for _ in range(50)], dtype=np.int64)
        m11, m12, m21, m22 = (c % n for c in m)
        s, t = (m11 * a + m12 * b) % n, (m21 * a + m22 * b) % n
        x, y = lattice._torsion_coords(a, b, n, m)
        xi, yi = lattice._torsion_coords(s, t, n, (1, 0, 0, 1))
        assert np.array_equal(x, xi) and np.array_equal(y, yi)
        assert np.all(2 * np.abs(x) <= n) and np.all(2 * np.abs(y) <= n)


@pytest.mark.parametrize("dk, f", CONJ_STABLE_ORDERS)
def test_e1_table_matches_full_box_reference_on_conj_stable_moduli(dk, f):
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    rng = random.Random(24)
    for k in conj_stable_moduli(order):
        system = CosetSystem(k, ctx.lattice)
        table = e1_table(system)
        # The reference is indexed a*h22 + b, the table b*h11 + a.
        ref = full_box_e1_table(system).reshape(system.h11, system.h22).T.ravel()
        assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref))
        for _ in range(3):
            h = random_elem(rng, order, 10**6, 40)
            expected = full_box_d_sum(h, k, ctx)
            assert abs(_d_sum_table(h, k, ctx) - expected) <= 1e-12 * (1 + abs(expected))


# (dk, f, h, k, g): gcd(h, k) is a unit, so the walk sums (h, k); gcd(g*h, g*k) = g is
# not, so the E1 table sums (g*h, g*k), at N(g*k) from 4,050 to 40,000.
DISTRIBUTION_CASES = [
    (-8, 1, (3, 1), (100, 0), (2, 0)),  # conj(g*k) = g*k
    (-8, 1, (5, 2), (60, 15), (3, 0)),  # g*k = 45*sqrt(-2), conj(g*k) = -g*k
    (-8, 1, (3, 1), (50, 7), (7, 1)),  # neither
    (-7, 1, (3, 2), (100, 0), (2, 0)),
    (-7, 1, (5, 2), (60, 15), (3, 0)),
    (-8, 3, (5, 1), (50, 0), (2, 0)),
    (-8, 3, (7, 0), (0, 3), (2, 0)),
]


@pytest.mark.parametrize("dk, f, h, k, g", DISTRIBUTION_CASES)
def test_table_matches_walk_by_distribution_relation(dk, f, h, k, g):
    # D_L(g*h, g*k) = D_L(h, k): group the sum over mu in L/gkL by mu mod kL, and
    # E1's distribution relation sums each group to g*E1(mu/k).  d_sum walks both
    # pairs, g being principal; the table sums (g*h, g*k) at N(g*k).
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    h, k, g = order.element(*h), order.element(*k), order.element(*g)
    assert sl2._generates_order(h, k) and not sl2._generates_order(g * h, g * k)
    assert 4050 <= (g * k).norm() <= 40_000
    walk = d_sum(h, k, ctx)
    assert d_sum(g * h, g * k, ctx) == walk
    assert abs(_d_sum_table(g * h, g * k, ctx) - walk) <= 1e-12 * abs(walk)
    if (dk, f) == (-8, 1):
        exact = float(d_norm_exact(h, k, ctx))
        assert abs(normalize_value(walk, ctx) - exact) <= 1e-12 * abs(exact)


def test_d_sum_closed_form_at_realistic_size(ctx_m8):
    # c = p = 199, e = 1: c3 = p*e*sqrt(-8) = 398*sqrt(-2) and Dtilde = 2/199 - 1/398 = 3/398.
    order = ctx_m8.order
    h, k, c = order.element(-759), order.element(1592, 398), order.element(199)
    assert k.norm() == 316_808
    value = _d_sum_table(h, k, ctx_m8)
    expected = three_term_closed_form(c, k, ctx_m8)
    assert abs(value - expected) <= 1e-9 * abs(expected)
    assert abs(normalize_value(value, ctx_m8) - 3 / 398) <= 1e-9 * (3 / 398)


# E1 runs, and the partial sums are added, in slices of _CHUNK points: that grouping fixes
# the reference's bits at N(k) = 40,000 (gcd 2, CI's fixture) and 316,808 (the closed form above).
@pytest.mark.parametrize(
    "h, k, expected",
    [
        ((6, 2), (200, 0), complex(-4.547473508864641e-15, -100.67903263769242)),
        ((-759, 0), (1592, 398), complex(-3.029726151429998e-16, 0.022545667875421685)),
    ],
)
def test_reference_table_bits_are_pinned(ctx_m8, h, k, expected):
    assert _d_sum_table(ctx_m8.order.element(*h), ctx_m8.order.element(*k), ctx_m8) == expected


def test_d_sum_norm_bound_fails_loudly(monkeypatch):
    # On d = -20, 11 + theta = 1 + sqrt(-5) and (1 + sqrt(-5), 2*23173) is the prime over 2,
    # which is not principal.  46346**2 = 2147951716 >= 2**31: the reference table refuses
    # the pair before any table is allocated, and d_sum walks it to its stop cusp.  Its walk
    # takes no extra step, so it has no gamma to vary; a detour through one M in SL2(O) with
    # gamma = 3 + theta, which raises N(c), gives another walk of the pair, whose constant
    # and R differ, and its value agrees.
    ctx = SumContext(QuadOrder(-20))
    h, k = ctx.order.element(11, 1), ctx.order.element(46346)

    def forbidden(systems):
        raise AssertionError("the table must not be allocated")

    monkeypatch.setattr(dedekind, "_e1_tables", forbidden)
    with pytest.raises(PreconditionError, match="2147951716.*2147483648"):
        _d_sum_table(h, k, ctx)
    monkeypatch.undo()
    value = d_sum(h, k, ctx)
    extra_step, calls = sl2._extra_step, []
    tr, nt = ctx.order.theta_trace, ctx.order.theta_norm

    def detour(*args):
        calls.append(args)
        if len(calls) > 1:
            return extra_step(*args)
        alpha, beta = sl2._complete_row((3, 1), (1, 0), tr, nt, tr // 2)
        return alpha, beta, (3, 1), (1, 0)

    monkeypatch.setattr(sl2, "_extra_step", detour)
    other = sl2._walk(h, k)
    monkeypatch.undo()
    walk = sl2._walk(h, k)
    assert len(calls) == 2 and other.r != walk.r and other.counts != walk.counts == ()
    assert abs(dedekind._walk_value(other, ctx) - value) <= 1e-12 * abs(value)
    # Below the bound, the table matches the sum over the whole box (N(30) = 900 on d = -72).
    ctx = SumContext(QuadOrder(-8, 3))
    h, k = ctx.order.element(3, 3), ctx.order.element(30)
    expected = full_box_d_sum(h, k, ctx)
    assert abs(_d_sum_table(h, k, ctx) - expected) <= 1e-12 * (1 + abs(expected))


def test_d_sum_inverse_congruence(ctx_m8):
    # D(a1, c) = D(a2, c) whenever a1*a2 = 1 (mod c)
    rng = random.Random(23)
    order = ctx_m8.order
    checked = 0
    while checked < 50:
        a1 = random_elem(rng, order, 40)
        c = random_elem(rng, order, 40)
        g, x, y = egcd_order(a1, c)
        if not g.is_unit():
            continue
        a2 = x * g.conjugate()
        if (a1 * a2 - order.one()).exact_div(c) is None:
            continue
        v1 = _d_sum_table(a1, c, ctx_m8)
        v2 = _d_sum_table(a2, c, ctx_m8)
        assert abs(v1 - v2) < 1e-8 * (1 + abs(v1))
        checked += 1


# --- the walk on the Euclidean orders ---------------------------------------------

EUCLID_CONTEXTS = [(-7, 1, None), (-8, 1, None), (-11, 1, None), (-8, 1, complex(1.3, 0.7))]


def coprime_pair(rng, order, max_norm):
    """Random (h, k) with gcd(h, k) a unit and N(k) <= max_norm, over a wide spread of sizes."""
    while True:
        bound = rng.choice((10, 100, int(math.isqrt(max_norm))))
        h = random_elem(rng, order, 10**12, bound)
        k = random_elem(rng, order, max_norm, bound)
        if egcd_order(h, k)[0].is_unit():
            return h, k


@pytest.mark.parametrize("dk", [-7, -8, -11])
@pytest.mark.parametrize("a, b", [(1, 3), (1234, 10007)])
def test_d_norm_exact_equals_density_closed_form(dk, a, b):
    order = QuadOrder(dk)
    ctx = SumContext(order)
    for step in approximate(Target(a, b, order), 25):
        assert d_norm_exact(step.A3.a, step.A3.c, ctx) == step.dtilde_exact


@pytest.mark.parametrize("dk, f, scale", EUCLID_CONTEXTS)
def test_euclid_d_sum_matches_table(dk, f, scale, monkeypatch):
    ctx = make_ctx(dk, f, scale)
    rng = random.Random(31)
    for _ in range(40):
        h, k = coprime_pair(rng, ctx.order, 300_000)
        calls = count_e1_points(monkeypatch)
        value = d_sum(h, k, ctx)
        assert calls == []
        monkeypatch.undo()
        expected = _d_sum_table(h, k, ctx)
        assert abs(value - expected) <= 1e-12 * (1 + abs(expected))


@pytest.mark.parametrize("dk", [-7, -8, -11])
def test_euclid_path_is_one_walk_without_completion(dk, monkeypatch):
    # The walk finds the inverse of h mod k itself: no SL2 completion, no second egcd.
    ctx = SumContext(QuadOrder(dk))
    rng = random.Random(35)
    pairs = [coprime_pair(rng, ctx.order, 300_000) for _ in range(20)]

    def forbidden(*args):
        raise AssertionError("the walk must not complete (h, k) to an SL2 matrix on a Euclidean order")

    monkeypatch.setattr(dedekind, "egcd_order", forbidden)
    monkeypatch.setattr(sl2, "_column", forbidden)
    for step in approximate(Target(1, 3, ctx.order), 25):
        assert d_norm_exact(step.A3.a, step.A3.c, ctx) == step.dtilde_exact
    for h, k in pairs:
        expected = _d_sum_table(h, k, ctx)
        assert abs(d_sum(h, k, ctx) - expected) <= 1e-12 * (1 + abs(expected))


@pytest.mark.parametrize("dk", [-7, -8, -11])
def test_euclid_d_sum_shift_invariance(dk):
    ctx = SumContext(QuadOrder(dk))
    order = ctx.order
    rng = random.Random(33)
    for i in range(20):
        h, k = coprime_pair(rng, order, 10**6)
        bound = (2, 10**6, 10**15)[i % 3]
        m = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        assert d_sum(h + k * m, k, ctx) == d_sum(h, k, ctx)


@pytest.mark.parametrize(
    "f, h, k",
    [(1, (14, 4), (7, 2)), (3, (1, 0), (5, 1)), (3, (3, 1), (7, 2))],
)
def test_table_serves_non_unit_gcd_and_conductor(f, h, k, monkeypatch):
    # h = 2*k, so gcd(h, k) = 7 + 2*theta is no unit and D_L(h, k) = 0: the E1 table sums
    # the pair at N(k), and d_sum walks it, as the gcd is principal.  The conductor-3
    # pairs have unit gcd: the walk serves them, with no table at N(k).
    ctx = SumContext(QuadOrder(-8, f))
    h, k = ctx.order.element(*h), ctx.order.element(*k)
    sizes = []
    original = dedekind._e1_tables

    def recording(systems):
        sizes.extend(system.size for system in systems)
        return original(systems)

    monkeypatch.setattr(dedekind, "_e1_tables", recording)
    value = d_sum(h, k, ctx)
    if f == 1:
        assert sizes == []
        table = _d_sum_table(h, k, ctx)
        monkeypatch.undo()
        assert sizes == [k.norm()]
        assert abs(table - value) <= 1e-12 * (1 + abs(value))
        assert d_norm_exact(h, k, ctx) == 0
    else:
        monkeypatch.undo()
        assert all(n <= 72 for n in sizes)
        expected = _d_sum_table(h, k, ctx)
        assert abs(value - expected) <= 1e-12 * (1 + abs(expected))


def test_walk_builds_each_gammas_points_once(monkeypatch):
    # A walk at N(k) ~ 1e30 on d = -163 whose constants keep seven keys on four gammas.  Each
    # gamma's half points are built once and serve the fill and all its keys, and one E1
    # evaluation serves the walk.
    ctx = SumContext(QuadOrder(-163))
    h, k = ctx.order.element(-60728052818922, 77510101037827), ctx.order.element(-5868471523959, 30480562442566)
    walk = sl2._walk(h, k)
    keys = [sl2._key_pair(key, ctx.order) for key, _ in walk.counts]
    gammas = {gamma for _, gamma in keys}
    assert len(keys) > len(gammas) > 1
    built = []
    original = CosetSystem.half.func

    def recording(system):
        built.append(system.k)
        return original(system)

    half = functools.cached_property(recording)
    half.__set_name__(CosetSystem, "half")
    monkeypatch.setattr(CosetSystem, "half", half)
    evaluations = count_e1_points(monkeypatch)
    d_sum(h, k, ctx)
    assert len(built) == len(gammas) and set(built) == gammas
    assert len(evaluations) == 1


@pytest.mark.parametrize("entry", ["d_sum", "d_norm", "d_norm_exact", "_d_sum_table", "three_term_closed_form", "phi"])
def test_entry_points_refuse_elements_of_another_order(entry):
    # Elements of d = -8 against a context on d = -7: the walk would run on the elements'
    # order and read the discriminant, E2(0) and tables from the context's.
    ctx, other = SumContext(QuadOrder(-7)), QuadOrder(-8)
    h, k = other.element(3, 1), other.element(7, 2)
    pairs = [(h, k), (ctx.order.element(3, 1), k), (h, ctx.order.element(7, 2)), (other.zero(), k)]
    if entry == "phi":
        one, zero = other.one(), other.zero()
        calls = [lambda: phi(Mat2.identity(other), ctx), lambda: phi(Mat2(one, zero, one, one), ctx)]
    else:
        fn = {
            "d_sum": d_sum,
            "d_norm": d_norm,
            "d_norm_exact": d_norm_exact,
            "_d_sum_table": _d_sum_table,
            "three_term_closed_form": three_term_closed_form,
        }[entry]
        calls = [lambda h=h, k=k: fn(h, k, ctx) for h, k in pairs]
    for call in calls:
        with pytest.raises(OrderMismatchError):
            call()


def fake_memory(monkeypatch, pages):
    """Make os.sysconf report `pages` pages of 4096 bytes of physical memory."""
    sizes = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(dedekind.os, "sysconf", lambda name: sizes[name])


def test_tables_beyond_physical_memory_are_refused_before_allocation(ctx_m8, monkeypatch):
    # 4 MiB of memory at 72 bytes per coset holds 58,254 cosets: one table of 60,516 is refused,
    # and so are two of 36,100 and 25,600 together, each of which alone is summed.  No E1 table
    # is allocated for a refused call.
    order = ctx_m8.order
    h, big, k1, k2 = order.element(1, 1), order.element(246), order.element(190), order.element(160)
    expected = [_d_sum_table(h, k, ctx_m8) for k in (big, k1, k2)]
    fake_memory(monkeypatch, 1024)
    filled = []
    e1_tables = dedekind._e1_tables
    monkeypatch.setattr(dedekind, "_e1_tables", lambda systems: filled.append(len(systems)) or e1_tables(systems))
    for pairs in ([(h, big)], [(h, k1), (h, k2)]):
        with pytest.raises(PreconditionError, match="72 bytes per coset within 4194304 bytes"):
            dedekind._d_sum_tables(pairs, ctx_m8)
    assert filled == []
    assert [_d_sum_table(h, k, ctx_m8) for k in (k1, k2)] == expected[1:]
    # Where os.sysconf is missing, only the 2**31 bound applies.
    monkeypatch.delattr(dedekind.os, "sysconf")
    assert _d_sum_table(h, big, ctx_m8) == expected[0]
    with pytest.raises(PreconditionError, match="2\\*\\*31"):
        _d_sum_table(h, order.element(46341), ctx_m8)


def test_a_stop_table_beyond_memory_exits_2(monkeypatch, capsys):
    # d = -100004's pair with t = 12501 needs tables of 519,367 cosets, its stop's 25,002 among them:
    # about 37 MB at 72 bytes each.  With 16 MiB of memory the CLI refuses it with exit 2 before any
    # E1 table is allocated.  The pair times 10**5 walks as the primitive pair, so it needs the same
    # tables (not its stop's t*t = 156,275,001 cosets) and is refused with the same message.
    fake_memory(monkeypatch, 2**12)

    def forbidden(systems):
        raise AssertionError("the table must not be allocated")

    monkeypatch.setattr(dedekind, "_e1_tables", forbidden)
    errors = []
    for g in (1, 10**5):
        h, k = (-22411429 * g, -92013531 * g), (-81149524 * g, 51167348 * g)
        argv = ["sum", "--dk", "-100004", "--h=%d,%d" % h, "--k=%d,%d" % k, "--format", "json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bytes of physical memory" in err
        errors.append(err)
    assert errors[0] == errors[1] and "tables of 519367 cosets, the largest N(k) = 35202" in errors[0]


def test_euclid_d_sum_above_the_table_bound(ctx_m8):
    # k = 46341 has N(k) >= 2**31, which the table refuses; D(1, k) = 0 exactly.
    order = ctx_m8.order
    assert d_sum(order.one(), order.element(46341), ctx_m8) == 0
    with pytest.raises(PreconditionError):
        _d_sum_table(order.one(), order.element(46341), ctx_m8)


# --- d_norm --------------------------------------------------------------------


def test_d_norm_excluded_ring(ctx_gauss):
    with pytest.raises(ExcludedRingError):
        d_norm(ctx_gauss.order.element(1), ctx_gauss.order.element(2), ctx_gauss)


def test_d_norm_frozen_anchors(ctx_m8):
    order = ctx_m8.order
    for (hu, hv), (ku, kv), expected in DNORM_ANCHORS:
        val = d_norm(order.element(hu, hv), order.element(ku, kv), ctx_m8)
        assert abs(val - float(expected)) < 1e-8


def test_d_norm_scale_invariance(order_m8):
    rng = random.Random(24)
    base = SumContext(order_m8)
    h = order_m8.element(1, 1)
    k = order_m8.element(2, 1)
    v0 = d_norm(h, k, base)
    for _ in range(5):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(c) < 0.4:
            continue
        scaled = base.scaled(c)
        assert abs(d_norm(h, k, scaled) - v0) < 1e-8


def test_d_norm_refuses_a_lattice_whose_j_is_not_real():
    # The ideal (2, (1 + sqrt(-23))/2), form (2, 1, 3), is not an ambiguous
    # class: j(L) is not real and Dtilde would be -0.4295 - 0.1540i.
    order = QuadOrder(-23)
    ctx = SumContext(order, Lattice(2, complex(-0.5, 2.3979157616563596)))
    with pytest.raises(PreconditionError, match=r"j\(L\)"):
        d_norm(order.element(1, 1), order.element(3, 1), ctx)
    # The ambiguous class (2, 2, 3) of d = -20 has real j and is served.
    order = QuadOrder(-20)
    ctx = SumContext(order, Lattice(2, complex(-1.0, math.sqrt(5.0))))
    assert math.isfinite(d_norm(order.element(1, 1), order.element(3, 1), ctx))


# --- phi ---------------------------------------------------------------------------


def test_phi_identity(ctx_m8):
    assert phi(Mat2.identity(ctx_m8.order), ctx_m8) == 0.0


def test_phi_rejects_non_unimodular(ctx_m8):
    order = ctx_m8.order
    bad = Mat2(order.element(2), order.zero(), order.zero(), order.element(2))
    with pytest.raises(NotUnimodularError):
        phi(bad, ctx_m8)


def test_phi_upper_triangular(ctx_m8):
    order = ctx_m8.order
    e2 = ctx_m8.lattice.e2_zero()
    # rational-integer b: I(b) = 0
    upper = Mat2(order.one(), order.element(5), order.zero(), order.one())
    assert abs(phi(upper, ctx_m8)) < 1e-12
    # b = sqrt(d): Phi = 2*E2(0)*sqrt(d)
    from elliptic_dedekind import sqrt_discriminant

    rd = sqrt_discriminant(order)
    upper2 = Mat2(order.one(), rd, order.zero(), order.one())
    expected = 2.0 * e2 * rd.embed()
    assert abs(phi(upper2, ctx_m8) - expected) < 1e-10 * (1 + abs(expected))


def test_phi_trivial_on_gaussian_and_eisenstein(ctx_gauss, ctx_eisenstein):
    for ctx, seed in ((ctx_gauss, 25), (ctx_eisenstein, 26)):
        rng = random.Random(seed)
        for _ in range(20):
            w = random_sl2(rng, ctx.order)
            assert abs(phi(w, ctx)) < 1e-7


# --- three-term relation --------------------------------------------------------------


def test_three_term_inverse_pair(ctx_m8):
    rng = random.Random(27)
    for _ in range(10):
        w = random_sl2(rng, ctx_m8.order)
        res = three_term_residual(Mat2.identity(ctx_m8.order), w, w.inverse(), ctx_m8)
        assert abs(res) < 1e-7


def test_three_term_random_words(ctx_m8):
    rng = random.Random(28)
    for _ in range(15):
        w2 = random_sl2(rng, ctx_m8.order)
        w3 = random_sl2(rng, ctx_m8.order)
        w1 = w2 @ w3
        if w1.max_entry_norm() > 20000:
            continue
        res = three_term_residual(w1, w2, w3, ctx_m8)
        scale = 1 + abs(phi(w1, ctx_m8)) + abs(phi(w2, ctx_m8)) + abs(phi(w3, ctx_m8))
        assert abs(res) <= 1e-7 * scale


def test_three_term_with_identity_factor(ctx_m8):
    rng = random.Random(32)
    ident = Mat2.identity(ctx_m8.order)
    for _ in range(5):
        w = random_sl2(rng, ctx_m8.order)
        assert abs(three_term_residual(w, w, ident, ctx_m8)) < 1e-7


def test_three_term_precondition(ctx_m8):
    order = ctx_m8.order
    ident = Mat2.identity(order)
    shifted = Mat2(order.one(), order.element(1), order.zero(), order.one())
    with pytest.raises(PreconditionError):
        three_term_residual(shifted, ident, ident, ctx_m8)


# --- lemma closed form ------------------------------------------------------------------


def test_lemma_zero_denominators(ctx_m8):
    order = ctx_m8.order
    with pytest.raises(ZeroDivisorError):
        three_term_closed_form(order.zero(), order.one(), ctx_m8)
    with pytest.raises(ZeroDivisorError):
        three_term_closed_form(order.one(), order.zero(), ctx_m8)


def test_lemma_equality_on_generated_triples(ctx_m8):
    produced = 0
    seed = 0
    while produced < 8:
        seed += 1
        try:
            m1, m2, m3 = gen_sl2_triple(seed, ctx_m8)
        except GenerationError:
            continue
        lhs = d_sum(m3.a, m3.c, ctx_m8)
        rhs = three_term_closed_form(m1.c, m3.c, ctx_m8)
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))
        produced += 1


def test_lemma_sign_flip_in_c3(ctx_m8):
    # I flips the sign of the 2/c3 term only under c3 -> -c3 with c fixed.
    order = ctx_m8.order
    c = order.element(3, 1)
    c3 = order.element(2, 1)
    e2 = ctx_m8.lattice.e2_zero()
    plus = three_term_closed_form(c, c3, ctx_m8)
    minus = three_term_closed_form(c, -c3, ctx_m8)
    cc, c3c = c.embed(), c3.embed()
    expected = e2 * i_map(-2.0 / c3c - c3c / (cc * cc))
    assert abs(minus - expected) < 1e-12


def test_lemma_purely_imaginary_doubling(ctx_m8):
    # For purely imaginary w the map I doubles it; the closed form inherits that.
    order = ctx_m8.order
    from elliptic_dedekind import sqrt_discriminant

    rd = sqrt_discriminant(order)  # embeds to i*sqrt(8)
    c = order.element(3)
    c3 = 2 * rd
    w = 2.0 / c3.embed() + c3.embed() / c.embed() ** 2
    assert abs(w.real) < 1e-14
    val = three_term_closed_form(c, c3, ctx_m8)
    assert abs(val - ctx_m8.lattice.e2_zero() * 2.0 * w) < 1e-12


# --- exact heads at huge entries --------------------------------------------------------


def huge_pair(rng, digits):
    """An int pair whose coordinates have digits + 1 digits and random signs."""
    return tuple(rng.choice((-1, 1)) * rng.randrange(10**digits, 10 ** (digits + 1)) for _ in range(2))


def huge_sl2(rng, order, digits):
    """A random element of SL2(O) whose first column has coordinates of digits + 1 digits."""
    tr, nt = order.theta_trace, order.theta_norm
    while True:
        a, c = huge_pair(rng, digits), huge_pair(rng, digits)
        col = sl2._column(a, c, tr, nt, tr // 2)
        if col is not None:
            return Mat2._of_pairs(order, a, col[0], c, col[1])


def exact_j(z, w):
    """J(z/w) = v(z*conj(w))/N(w) for order elements, by OrderElem arithmetic."""
    return Fraction((z * w.conjugate()).v, w.norm())


def head_factor(ctx):
    return 1j * math.sqrt(abs(ctx.order.discriminant)) * ctx.lattice.e2_zero()


@pytest.mark.parametrize("digits", [0, 50, 100, 150])
def test_heads_round_the_exact_j_once(digits):
    # Each head is i*sqrt(|d|)*E2(0) times the exact J rounded once to a float.
    ctx = SumContext(QuadOrder(-20))
    rng = random.Random(digits)
    for _ in range(5):
        c, c3 = (ctx.order.element(*huge_pair(rng, digits)) for _ in range(2))
        j = exact_j(2 * ctx.order.one(), c3) + exact_j(c3, c * c)
        assert three_term_closed_form(c, c3, ctx) == head_factor(ctx) * float(j)
        m = huge_sl2(rng, ctx.order, digits)
        assert phi(m, ctx) == head_factor(ctx) * float(exact_j(m.a + m.d, m.c)) - d_sum(m.a, m.c, ctx)


@pytest.mark.parametrize("digits", [0, 155, 160, 200, 300, 400, 1500])
def test_closed_form_matches_a_high_precision_value(digits):
    # N(c3) ~ N(c)^2 keeps the value of order 1; c*c leaves the double range from entries near 1e155 on.
    mpmath = pytest.importorskip("mpmath")
    ctx = SumContext(QuadOrder(-20))
    e2 = ctx.lattice.e2_zero()
    rng = random.Random(digits)
    with mpmath.workdps(2 * digits + 60):
        theta = (-20 + mpmath.sqrt(-20)) / 2
        for _ in range(5):
            c = ctx.order.element(*huge_pair(rng, digits))
            c3 = ctx.order.element(*huge_pair(rng, 2 * digits))
            z = 2 / (c3.u + c3.v * theta) + (c3.u + c3.v * theta) / (c.u + c.v * theta) ** 2
            expected = complex(mpmath.mpc(e2) * 2j * mpmath.im(z))
            assert abs(expected) > 1e-3
            assert abs(three_term_closed_form(c, c3, ctx) - expected) <= 1e-15 * abs(expected)


def test_closed_form_of_a_rational_c_is_exact():
    # c*c = 10**320 is beyond the double range, and c3/c^2 = 1e-20*theta + 3e-320 is far from 0.
    ctx = SumContext(QuadOrder(-20))
    order = ctx.order
    c3 = order.element(3, 10**300)
    j = Fraction(-2 * 10**300, c3.norm()) + Fraction(10**300, 10**320)
    value = three_term_closed_form(order.element(10**160), c3, ctx)
    assert value == head_factor(ctx) * float(j)
    assert abs(value.imag - math.sqrt(20) * ctx.lattice.e2_zero().real * 1e-20) <= 1e-30


@pytest.mark.parametrize("dk", [-8, -20])
def test_phi_is_a_homomorphism_at_huge_entries(dk):
    # Entries near 1e400 are beyond the double range; only the heads' exact J are rounded.
    ctx = SumContext(QuadOrder(dk))
    rng = random.Random(400)
    for _ in range(2):
        w1, w2 = (huge_sl2(rng, ctx.order, 400) for _ in range(2))
        p1, p2, p12 = phi(w1, ctx), phi(w2, ctx), phi(w1 @ w2, ctx)
        assert abs(p12 - p1 - p2) <= 1e-12 * (1 + abs(p1) + abs(p2) + abs(p12))


@pytest.mark.parametrize(
    "b",
    [huge_pair(random.Random(400), 400), huge_pair(random.Random(1500), 1500), (0, 10**308)],
    ids=["1e400", "1e1500", "theta*1e308"],
)
def test_phi_refuses_a_head_beyond_the_double_range(b):
    # The head of [[1, b], [0, 1]] is E2(0)*I(b) = i*sqrt(20)*E2(0)*v(b).  v(b) leaves the double range at
    # entries near 1e400; at b = 10**308*theta it is a double, but the head is not.
    ctx = SumContext(QuadOrder(-20))
    order = ctx.order
    with pytest.raises(PreconditionError, match="double range"):
        phi(Mat2(order.one(), order.element(*b), order.zero(), order.one()), ctx)


@pytest.mark.parametrize("v", [10**400, 10**308], ids=["1e400", "1e308"])
def test_closed_form_refuses_a_head_beyond_the_double_range(v):
    # With c = 1 and c3 = 1 + v*theta, J(2/c3) + J(c3/c^2) is about v: beyond the double range at 1e400;
    # at 1e308 a double, but i*sqrt(20)*E2(0) times it is not.
    ctx = SumContext(QuadOrder(-20))
    order = ctx.order
    with pytest.raises(PreconditionError, match="double range"):
        three_term_closed_form(order.one(), order.element(1, v), ctx)


def test_d_sum_refuses_an_exact_r_beyond_the_double_range():
    # The walks finish; only R, the exact rational of the head, leaves the double range.
    ctx = SumContext(QuadOrder(-8))
    order = ctx.order
    n = 10**400
    for h, k in [((n, 1), (n + 1, 3)), ((n // 10, 0), (0, n + 1))]:
        with pytest.raises(PreconditionError, match="double range"):
            d_sum(order.element(*h), order.element(*k), ctx)


@pytest.mark.parametrize("dk", [-7, -8, -11])
def test_closed_form_equals_the_walk_bit_for_bit(dk):
    # These walks end at c = 0 with no constant, so D_L(a3, c3) is the head of R, and the lemma is an
    # identity of rationals: both sides round the same exact J once.
    ctx = SumContext(QuadOrder(dk))
    triples = []
    for seed in range(200):
        try:
            m1, _, m3 = gen_sl2_triple(seed, ctx)
        except GenerationError:
            continue
        triples.append((m1.c, m3.a, m3.c))
    triples += [(s.A1.c, s.A3.a, s.A3.c) for s in approximate(Target(1234, 10007, ctx.order), 40)]
    assert len(triples) == 240
    for c, a3, c3 in triples:
        assert three_term_closed_form(c, c3, ctx) == d_sum(a3, c3, ctx)


# --- triple generator -----------------------------------------------------------------------


# Orders the completion must serve without a Euclidean algorithm, as (d_K, f).
COMPLETION_ORDERS = [(-8, 1), (-15, 1), (-20, 1), (-23, 1), (-43, 1), (-8, 3), (-4, 3), (-3, 7)]


@pytest.mark.parametrize("dk, f", COMPLETION_ORDERS)
def test_complete_column_exactly_when_norms_coprime(dk, f):
    order = QuadOrder(dk, f)
    one = order.one()
    omega = order.theta() - order.element(order.theta_trace // 2)
    rng = random.Random(37)
    completed = refused = 0
    for _ in range(300):
        a = order.element(rng.randint(-30, 30), rng.randint(-10, 10))
        c = random_elem(rng, order, 10**6, 10)
        col = sl2._column((a.u, a.v), (c.u, c.v), order.theta_trace, order.theta_norm, order.theta_trace // 2)
        if math.gcd(a.norm(), c.norm()) > 1:
            assert col is None
            refused += 1
            continue
        mat = Mat2._of_pairs(order, (a.u, a.v), col[0], (c.u, c.v), col[1])
        assert (mat.a, mat.c) == (a, c)
        assert mat.det() == one
        assert (a * mat.d - one).exact_div(c) is not None
        # d is reduced mod c in the basis (1, omega) (see test_ring).
        assert 16 * mat.d.norm() <= c.norm() * (9 + 4 * omega.norm())
        completed += 1
    assert completed >= 50 and refused >= 20


@pytest.mark.parametrize("dk, f", [(-8, 1), (-15, 1), (-20, 1), (-23, 1), (-8, 3)])
def test_random_sl2_reaches_beyond_sl2_z(dk, f):
    # The elementary words this replaced had an entry outside Z in 5 of 100 draws at d = -20.
    order = QuadOrder(dk, f)
    rng = random.Random(39)
    draws = [random_sl2(rng, order) for _ in range(200)]
    assert all(w.det() == order.one() for w in draws)
    outside_z = sum(any(e.v != 0 for e in (w.a, w.b, w.c, w.d)) for w in draws)
    assert outside_z >= 160


@pytest.mark.parametrize("dk, f", [(-8, 1), (-15, 1), (-20, 1), (-23, 1), (-8, 3)])
def test_gen_sl2_triple_invariants(dk, f):
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    one = order.one()
    for seed in range(1, 12):
        try:
            m1, m2, m3 = gen_sl2_triple(seed, ctx)
        except GenerationError:
            continue
        assert m1.det() == one and m2.det() == one and m3.det() == one
        assert m1.c == m2.c and not m1.c.is_zero()
        assert m2 @ m3 == m1
        assert m3.c == m1.c * (m2.a - m1.a)
        assert m1.a != m2.a
        assert (m1.a * m2.a - one).exact_div(m1.c) is not None
        assert 0 < m3.c.norm() <= 300


@pytest.mark.parametrize("dk, f", [(-8, 1), (-15, 1), (-20, 1), (-23, 1), (-8, 3), (-3, 7)])
def test_gen_sl2_triple_takes_the_least_c3_by_norm_then_shift(dk, f):
    # a2 = d1 + m*c with m = mu + mv*theta, and c3 = c*(d1 - a1 + m*c): of the 25 m with
    # |mu|, |mv| <= 2 and 0 < N(c3) <= 300, the least (N(c3), mu, mv) wins, each norm taken directly.
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    produced = 0
    for seed in range(1, 40):
        try:
            m1, m2, m3 = gen_sl2_triple(seed, ctx)
        except GenerationError:
            continue
        produced += 1
        c, diff = m1.c, m1.d - m1.a
        m = (m2.a - m1.d).exact_div(c)
        candidates = [
            (n3, mu, mv)
            for mu in range(-2, 3)
            for mv in range(-2, 3)
            if 0 < (n3 := (c * (diff + order.element(mu, mv) * c)).norm()) <= 300
        ]
        assert min(candidates) == (m3.c.norm(), m.u, m.v)
    assert produced >= 20


def test_mat2_inverse_and_product(ctx_m8):
    rng = random.Random(29)
    for _ in range(20):
        w = random_sl2(rng, ctx_m8.order)
        assert w @ w.inverse() == Mat2.identity(ctx_m8.order)
