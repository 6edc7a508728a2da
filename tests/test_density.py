import itertools
import math
import random
from fractions import Fraction

import pytest

from elliptic_dedekind import (
    DedekindError,
    NotUnimodularError,
    density,
    egcd,
    InadmissibleTargetError,
    QuadOrder,
    SumContext,
    Target,
    approximate,
    approximate_real,
    construct,
    find_prime,
    is_probable_prime,
    three_term_closed_form,
    legendre_symbol,
    normalize_value,
    sqrt_discriminant,
)
from test_ring import thirteen_witness_test


# |d| <= 50 on maximal and non-maximal, Euclidean and non-Euclidean orders.
SIX_ORDERS = ((-7, 1), (-8, 1), (-11, 2), (-20, 1), (-8, 2), (-43, 1))


def bezout_pair(m, sqrt_d):
    """(x, y) of a constructed matrix [[a, -x], [p, y*sqrt(d)]]."""
    assert m.b.v == 0
    y = m.d.v // 2  # sqrt(d) = -f*d_k + 2*theta
    assert m.d == y * sqrt_d
    return -m.b.u, y


def test_target_validation():
    order = QuadOrder(-8)
    Target(1, 3, order)
    Target(0, 1, order)
    Target(-7, 9, order)
    with pytest.raises(InadmissibleTargetError):
        Target(2, 4, order)  # gcd(a, b) != 1
    with pytest.raises(InadmissibleTargetError):
        Target(1, 4, order)  # gcd(b, 2d) != 1 (b even)
    with pytest.raises(InadmissibleTargetError):
        Target(1, 3, QuadOrder(-4))  # excluded ring, E2(0) = 0
    with pytest.raises(InadmissibleTargetError):
        Target(1, 0, order)
    with pytest.raises(InadmissibleTargetError):
        Target(2, 5, QuadOrder(-20))  # 5 divides 2d = -40


def test_find_prime_worked_example():
    # modulus lcm(4*|4*9*(-8) + 64|, 3) = lcm(896, 3) = 2688, residue 1
    target = Target(1, 3, QuadOrder(-8))
    assert find_prime(target) == 2689


def test_find_prime_properties():
    target = Target(2, 5, QuadOrder(-8))
    d = target.order.discriminant
    p = 0
    for _ in range(3):
        previous = p
        p = find_prime(target, after=p)
        assert p > previous
        assert p % 4 == 1
        e = (target.a * p - 1) // target.b
        assert legendre_symbol((d * d * e * e + 4 * d) % p, p) == 1
    with pytest.raises(TypeError):
        find_prime(target, 1)  # `after` is keyword-only


@pytest.mark.parametrize("a, b, dk", [(1, 3, -8), (2, 5, -7), (5, 7, -11), (0, 1, -20)])
def test_find_prime_chain_matches_plain_scan(a, b, dk):
    target = Target(a, b, QuadOrder(dk))
    d = target.order.discriminant
    modulus = 4 * abs(4 * b * b * d + d * d)
    scanned = []
    candidate = 1
    while len(scanned) < 8:
        candidate += modulus
        if (a * candidate - 1) % b == 0 and is_probable_prime(candidate):
            scanned.append(candidate)
    chained = [0]
    for _ in range(8):
        chained.append(find_prime(target, after=chained[-1]))
    assert chained[1:] == scanned
    # Starting inside the progression resumes at the next prime.
    assert find_prime(target, after=scanned[2] - 1) == scanned[2]
    assert find_prime(target, after=scanned[2]) == scanned[3]


def test_find_prime_regressions():
    assert find_prime(Target(2, 5, QuadOrder(-8))) == 38273
    assert find_prime(Target(7, 9, QuadOrder(-8))) == 151681
    assert find_prime(Target(1, 3, QuadOrder(-20))) == 7681


def test_construct_worked_example():
    target = Target(1, 3, QuadOrder(-8))
    step = construct(target, 2689)
    assert step.e == 896
    assert step.p == 2689
    # dtilde = 1792/2689 - 4/(2689*896*8)
    expected = Fraction(1792, 2689) - Fraction(4, 2689 * 896 * 8)
    assert step.dtilde_exact == expected
    assert abs(step.dtilde - 0.6664185) < 1e-6
    assert abs(step.abs_err - 2.48e-4) < 1e-6


@pytest.mark.parametrize("dk, f", SIX_ORDERS)
def test_find_prime_makes_the_root_square_a_residue(dk, f):
    # construct's sqrt_mod relies on this; find_prime no longer checks it.
    order = QuadOrder(dk, f)
    d = order.discriminant
    for a, b in ((1, 3), (-7, 9), (4, 13)):
        target = Target(a, b, order)
        p = 0
        for _ in range(10):
            p = find_prime(target, after=p)
            e = (a * p - 1) // b
            assert legendre_symbol((d * d * e * e + 4 * d) % p, p) == 1


def test_construct_exact_invariants():
    # Every identity that construct leaves to construction, ten steps a target.
    for dk, f in SIX_ORDERS:
        order = QuadOrder(dk, f)
        d = order.discriminant
        sqrt_d = sqrt_discriminant(order)
        one = order.one()
        for a, b in ((1, 3), (7, 9)):
            target = Target(a, b, order)
            for step in approximate(target, 10):
                p, e, k = step.p, step.e, step.k
                p_elem = order.element(p)
                assert step.A1.det() == one and step.A2.det() == one and step.A3.det() == one
                assert e * b == a * p - 1
                assert (k * (k + e) * d) % p == 1
                assert (2 * step.ell - d * e) ** 2 % p == (d * d * e * e + 4 * d) % p
                assert (step.ell * k) % p == 1
                assert (step.A1.a, step.A1.c) == (k * sqrt_d, p_elem)
                assert (step.A2.a, step.A2.c) == ((k + e) * sqrt_d, p_elem)
                assert step.A3.c == (p * e) * sqrt_d
                assert step.A2.inverse() @ step.A1 == step.A3
                assert (step.A1.a * step.A2.a - one).exact_div(p_elem) is not None
                x1, y1 = bezout_pair(step.A1, sqrt_d)
                x2, y2 = bezout_pair(step.A2, sqrt_d)
                assert p * x1 + k * d * y1 == 1
                assert p * x2 + (k + e) * d * y2 == 1


def test_construct_a3_from_matrix_product():
    # a3 = x2*p + k*y2*d = 1 - e*d*y2, exactly as the product dictates.
    target = Target(1, 3, QuadOrder(-8))
    step = construct(target, 2689)
    d = target.order.discriminant
    _, y2 = bezout_pair(step.A2, sqrt_discriminant(target.order))
    a3 = step.A3.a
    assert (a3.u, a3.v) == (1 - step.e * d * y2, 0)


@pytest.mark.parametrize(
    "a, b, dk, steps, last_p",
    [
        (1, 3, -8, 150, 1532161),
        (2, 5, -7, 150, 6674053),
        (5, 7, -11, 150, 40496501),
        (1234, 10007, -8, 40, 54650868263746049),
        (4999, 10007, -7, 40, 41452197074611597),
    ],
)
def test_last_prime_of_long_chains(a, b, dk, steps, last_p):
    *_, last = approximate(Target(a, b, QuadOrder(dk)), steps)
    assert last.p == last_p


@pytest.mark.parametrize(
    "a, b, dk, steps",
    [(1, 3, -8, 150), (2, 5, -7, 150), (5, 7, -11, 150), (1234, 10007, -8, 40), (4999, 10007, -7, 40)],
)
def test_prime_chains_match_thirteen_witnesses(a, b, dk, steps):
    # The bench's targets: every candidate of the progression up to the last
    # prime gets the same verdict from the 13-witness reference.
    target = Target(a, b, QuadOrder(dk))
    r, m = target.progression
    reference, candidate = [], r
    while len(reference) < steps:
        if thirteen_witness_test(candidate):
            reference.append(candidate)
        candidate += m
    assert [step.p for step in approximate(target, steps)] == reference


def test_construct_a3_closed_form_at_large_primes():
    # p from 8e12 to 8e15: Baillie-PSW decides each candidate, and A3
    # is still A2^-1 @ A1.
    order = QuadOrder(-8)
    one = order.one()
    for step in approximate(Target(1234, 10007, order), 5):
        assert step.p > 10**12
        assert step.A2.inverse() @ step.A1 == step.A3
        assert step.A3.det() == one


@pytest.mark.parametrize("a, b, steps", [(1, 3, 150), (1234, 10007, 40)])
def test_step_floats_are_the_rounded_exact_values(a, b, steps):
    # construct divides ints; the floats must carry the same bits as the exact
    # rationals' (p up to 5.5e16 on 1234/10007).
    for step in approximate(Target(a, b, QuadOrder(-8)), steps):
        assert step.dtilde.hex() == float(step.dtilde_exact).hex()
        assert step.abs_err.hex() == float(step.err_exact).hex()


def test_approximate_builds_no_witness_it_is_not_asked_for():
    steps = list(approximate(Target(1234, 10007, QuadOrder(-8)), 5))
    for step in steps:
        built = vars(step)
        for name in ("A1", "A2", "A3", "dtilde_exact", "err_exact"):
            assert name not in built
    step = steps[0]
    assert step.A3 is step.A3 and "A3" in vars(step)


def test_construct_checks_the_bezout_pair_itself(monkeypatch):
    # The determinant of A2 is checked at construction, not when A2 is first read.
    # A y off by one leaves p*x + k*d*y = 1 unsolvable, whatever x the floor division gives.
    centred = density._centred
    monkeypatch.setattr(density, "_centred", lambda y, p: centred(y, p) + 1)
    with pytest.raises(NotUnimodularError):
        construct(Target(1, 3, QuadOrder(-8)), 2689)


# The five targets of the approximate benchmark, then d = -20 and the conductor-3 order of d = -8.
BEZOUT_TARGETS = (
    (1, 3, -8, 1, 150),
    (2, 5, -7, 1, 150),
    (5, 7, -11, 1, 150),
    (1234, 10007, -8, 1, 40),
    (4999, 10007, -7, 1, 40),
    (1, 3, -20, 1, 60),
    (1, 5, -8, 3, 60),
)


@pytest.mark.parametrize("a, b, dk, f, steps", BEZOUT_TARGETS)
def test_bezout_pairs_are_egcds(a, b, dk, f, steps):
    # construct finds the Bezout pairs without Euclid; they are exactly egcd's.
    d = QuadOrder(dk, f).discriminant
    for step in approximate(Target(a, b, QuadOrder(dk, f)), steps):
        p, k, e = step.p, step.k, step.e
        _, x1, y1 = egcd(p, k * d)
        _, x2, y2 = egcd(p, (k + e) * d)
        assert step._bezout == (x1, y1, x2, y2)


@pytest.mark.parametrize("p", [4, 10, 25, 91, 1105, 1729])
def test_construct_rejects_composite_p(p):
    # Each p is 1 mod 3, so it passes the residue-class check; sqrt_mod or
    # inverse_mod must still refuse it.
    with pytest.raises(DedekindError):
        construct(Target(1, 3, QuadOrder(-8)), p)


def test_approximate_error_bounds():
    for a, b, dk in ((1, 3, -8), (2, 5, -8), (1, 3, -20), (7, 9, -20)):
        order = QuadOrder(dk)
        target = Target(a, b, order)
        steps = approximate(target, 3)
        bound = Fraction(2, b) + 1
        previous_p = 0
        for step in steps:
            assert step.p > previous_p
            previous_p = step.p
            assert step.err_exact <= bound / step.p
            assert abs(step.dtilde - 2 * a / b) <= (2 / b + 1) / step.p + 1e-15


def test_approximate_searches_only_the_steps_taken(monkeypatch):
    calls = []

    def counting(target, *, after=0):
        calls.append(after)
        return find_prime(target, after=after)

    monkeypatch.setattr(density, "find_prime", counting)
    steps = list(itertools.islice(approximate(Target(1, 3, QuadOrder(-8)), 10), 2))
    assert calls == [0, steps[0].p]
    assert steps[0].p == 2689


def test_approximate_zero_target():
    target = Target(0, 1, QuadOrder(-8))
    steps = approximate(target, 2)
    for step in steps:
        assert step.e == -1
        assert abs(step.dtilde) <= 3.0 / step.p


def test_dtilde_consistency_with_lemma_normalization():
    # The exact-rational dtilde and the float path through the closed form +
    # Dtilde normalization must agree to 1e-10.
    order = QuadOrder(-8)
    ctx = SumContext(order)
    target = Target(1, 3, order)
    step = construct(target, find_prime(target))
    c3 = (step.p * step.e) * sqrt_discriminant(order)
    val = three_term_closed_form(order.element(step.p), c3, ctx)
    assert abs(normalize_value(val, ctx) - float(step.dtilde_exact)) < 1e-10


def test_approximate_real_density_realization():
    rng = random.Random(30)
    order = QuadOrder(-8)
    for _ in range(20):
        r = rng.uniform(-10.0, 10.0)
        target, step = approximate_real(r, order, tol=1e-2)
        assert abs(step.dtilde - r) < 1e-2
        assert math.gcd(target.b, 2 * abs(order.discriminant)) == 1


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_approximate_real_rejects_non_finite_r(r):
    with pytest.raises(ValueError, match="r must be finite"):
        approximate_real(r, QuadOrder(-8))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-2])
def test_approximate_real_rejects_tol_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        approximate_real(0.5, QuadOrder(-8), tol=tol)


@pytest.mark.parametrize("r", [1e308, -1e308, 1.7976931348623157e308])
def test_approximate_real_at_the_edge_of_the_double_range(r):
    # r*b overflows a float here; a = round(r*b/2) is exact, and 2a/b rounds back to r.
    target, step = approximate_real(r, QuadOrder(-8))
    assert target.b == 401
    assert step.dtilde == r


def test_approximate_real_rejects_tol_whose_grid_overflows():
    with pytest.raises(ValueError, match="tol = 5e-324 is too small"):
        approximate_real(0.5, QuadOrder(-8), tol=5e-324)


@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_approximate_real_keeps_the_float_roundings_steps(tol):
    # Reference: a = round(r*b/2.0) rounded in floats, with the same b and its prime p.
    # The exact rounding picks the same (a, b, p) on every r drawn.
    order = QuadOrder(-8)
    d = abs(order.discriminant)
    b = max(5, int(math.ceil(4.0 / tol)) | 1)
    while not (is_probable_prime(b) and (2 * d) % b != 0):
        b += 2
    primes = {}
    rng = random.Random(3110)
    for _ in range(2000):
        r = rng.uniform(-10.0, 10.0)
        a = round(r * b / 2.0)
        if a % b == 0:
            a += 1
        if a not in primes:
            primes[a] = find_prime(Target(a, b, order))
        target, step = approximate_real(r, order, tol=tol)
        assert (target.a, target.b, step.p) == (a, b, primes[a]), r


def test_convergence_random_admissible_targets():
    # |a|, b <= 20 and |d| <= 50: five steps inside the (2/b+1)/p envelope.
    rng = random.Random(31)
    orders = [QuadOrder(dk, f) for dk, f in SIX_ORDERS]
    assert all(abs(o.discriminant) <= 50 for o in orders)
    produced = 0
    while produced < 6:
        order = rng.choice(orders)
        a = rng.randint(-20, 20)
        b = rng.randint(1, 20)
        try:
            target = Target(a, b, order)
        except InadmissibleTargetError:
            continue
        produced += 1
        bound = Fraction(2, b) + 1
        for step in approximate(target, 5):
            assert step.err_exact <= bound / step.p
