import itertools
import math
import random

import pytest

from elliptic_dedekind import (
    InvalidModulusError,
    ModularArithmeticError,
    NoSquareRootError,
    OrderMismatchError,
    QuadOrder,
    UnsupportedOrderError,
    crt,
    egcd,
    egcd_order,
    inverse_mod,
    is_probable_prime,
    legendre_symbol,
    sqrt_discriminant,
    sqrt_mod,
)
from elliptic_dedekind.ring import (
    _BPSW_BELOW,
    _BPSW_FROM,
    _jacobi,
    _rounded_coords,
    _sieve,
    _strong_lucas,
)


def primes_below(n):
    flags = [True] * n
    flags[0] = flags[1] = False
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            for m in range(p * p, n, p):
                flags[m] = False
    return [i for i, f in enumerate(flags) if f]


# --- egcd / inverse / crt ---------------------------------------------------


def test_egcd_identity_random():
    rng = random.Random(1)
    for _ in range(200):
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**9, 10**9)
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


def test_inverse_mod_basic():
    assert inverse_mod(1, 7) == 1
    for m in (5, 97, 2688):
        for a in (2, 3, 5):
            if math.gcd(a, m) == 1:
                assert (a * inverse_mod(a, m)) % m == 1


def test_inverse_mod_not_invertible():
    with pytest.raises(ModularArithmeticError, match=r"gcd=3"):
        inverse_mod(6, 9)
    with pytest.raises(ModularArithmeticError, match=r"gcd=9"):
        inverse_mod(-9, 9)


def test_inverse_mod_edge_moduli():
    assert inverse_mod(5, 1) == 0
    assert inverse_mod(-3, 7) == 2  # -3*2 = -6 = 1 (mod 7)
    for m in (0, -5):
        with pytest.raises(InvalidModulusError):
            inverse_mod(1, m)


def test_inverse_mod_is_the_least_residue():
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randrange(2, 2**57)
        a = rng.randrange(-(2**60), 2**60)
        if math.gcd(a, m) != 1:
            continue
        inv = inverse_mod(a, m)
        assert 0 <= inv < m and (a * inv) % m == 1


def test_crt_worked_example():
    # The density-search modulus for (a, b, d) = (1, 3, -8).
    assert crt([(1, 896), (1, 3)]) == (1, 2688)


def test_crt_consistency_random():
    rng = random.Random(2)
    for _ in range(100):
        m1 = rng.randint(2, 500)
        m2 = rng.randint(2, 500)
        if math.gcd(m1, m2) != 1:
            continue
        r1, r2 = rng.randrange(m1), rng.randrange(m2)
        r, m = crt([(r1, m1), (r2, m2)])
        assert m == m1 * m2
        assert r % m1 == r1 and r % m2 == r2


def test_crt_rejects_non_coprime():
    with pytest.raises(ModularArithmeticError):
        crt([(1, 6), (2, 9)])


# --- legendre / sqrt_mod -----------------------------------------------------


def test_legendre_one_is_square():
    for p in (3, 7, 101, 2689):
        assert legendre_symbol(1, p) == 1


def test_legendre_small_cases():
    # squares mod 7 are {1, 2, 4}
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1


def test_legendre_matches_enumeration_below_200():
    for p in primes_below(200):
        if p == 2:
            continue
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, p) == expected


def test_legendre_rejects_bad_modulus():
    for p in (-3, 0, 1, 2, 10):
        with pytest.raises(InvalidModulusError):
            legendre_symbol(3, p)


def test_sqrt_mod_basic():
    assert sqrt_mod(0, 7) == 0
    assert sqrt_mod(2, 7) == 3  # roots are {3, 4}; the smaller one wins


def test_sqrt_mod_random_residues():
    rng = random.Random(3)
    ps = [p for p in primes_below(10**6) if p > 2]
    checked = 0
    while checked < 1000:
        p = rng.choice(ps)
        a = rng.randrange(p)
        if a != 0 and legendre_symbol(a, p) == -1:
            continue
        r = sqrt_mod(a, p)
        assert (r * r) % p == a % p
        assert r <= p - r
        checked += 1


def test_sqrt_mod_non_residue():
    with pytest.raises(NoSquareRootError):
        sqrt_mod(3, 7)


@pytest.mark.parametrize("p", [65537, 7340033, 998244353, 2013265921])
def test_sqrt_mod_high_two_adic_valuation(p):
    # p - 1 = s * 2^e with e = 16, 20, 23 and 27: long Tonelli-Shanks loops and
    # long Euler squaring chains.
    rng = random.Random(p)
    for _ in range(200):
        a = rng.randrange(1, p)
        if legendre_symbol(a, p) == -1:
            with pytest.raises(NoSquareRootError):
                sqrt_mod(a, p)
            continue
        r = sqrt_mod(a, p)
        assert (r * r) % p == a and r <= p - r


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 9, 25, 65])
def test_sqrt_mod_on_odd_composites_refuses_or_returns_a_root(n):
    # Carmichael numbers pass every coprime Fermat test; sqrt_mod must still
    # never return a wrong root.
    for a in range(n):
        try:
            r = sqrt_mod(a, n)
        except (InvalidModulusError, NoSquareRootError):
            continue
        assert (r * r) % n == a


@pytest.mark.parametrize("a, p", [(0, 4), (0, 2), (0, 1), (4, 4), (1, 4), (3, 9)])
def test_sqrt_mod_rejects_bad_modulus_before_the_zero_shortcut(a, p):
    with pytest.raises(InvalidModulusError):
        sqrt_mod(a, p)


@pytest.mark.parametrize("p", [9, 25, 49, 81, 121, 169, 225, 625, 1089])
def test_sqrt_mod_rejects_square_modulus(p):
    # Every Jacobi symbol mod a square is 0 or 1: a non-residue search would never end.
    with pytest.raises(InvalidModulusError):
        sqrt_mod(1, p)


def test_sqrt_mod_matches_brute_force_when_two_is_a_square():
    # p = 1 (mod 8) is where the non-residue is searched by the Jacobi symbol.
    for p in primes_below(2000):
        if p % 8 != 1:
            continue
        least_root = {}
        for r in range(p):
            least_root.setdefault(r * r % p, min(r, p - r))
        for a in range(p):
            if a in least_root:
                assert sqrt_mod(a, p) == least_root[a]
            else:
                with pytest.raises(NoSquareRootError):
                    sqrt_mod(a, p)


@pytest.mark.parametrize("a, p", [(3, 9), (6, 9), (5, 25), (7, 49)])
def test_legendre_rejects_composite_modulus_sharing_a_factor_with_a(a, p):
    # a^((p-1)/2) = 0 (mod p) with a != 0 (mod p) happens only for composite p.
    with pytest.raises(InvalidModulusError):
        legendre_symbol(a, p)


# --- primality ---------------------------------------------------------------


def test_is_probable_prime_2689_by_trial_division():
    n = 2689
    assert all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_probable_prime(n)


def test_is_probable_prime_even():
    assert not is_probable_prime(2688)


def certified_prime_32bit(rng):
    # Independent certification by trial division (sufficient below 2^32).
    while True:
        n = rng.randrange(2**31 + 1, 2**32, 2)
        if all(n % d for d in range(3, int(n**0.5) + 1, 2)):
            return n


def test_is_probable_prime_semiprime_32bit():
    rng = random.Random(4)
    for _ in range(3):
        n = certified_prime_32bit(rng) * certified_prime_32bit(rng)
        assert not is_probable_prime(n)


# OEIS A014233: psi_k, the least strong pseudoprime to each of the first k prime bases.
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMES_BELOW_1000 = primes_below(1000)


def is_strong_probable_prime(n, bases):
    """Whether odd n > 1 passes the strong (Miller-Rabin) test to each base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def thirteen_witness_test(n):
    """The reference: trial division by the primes below 1000, then all 13 prime witnesses."""
    if n < 2:
        return False
    for p in PRIMES_BELOW_1000:
        if n == p:
            return True
        if n % p == 0:
            return False
    return is_strong_probable_prime(n, FIRST_13_PRIMES)


def test_is_probable_prime_matches_sieve_below_300000():
    limit = 300_000
    primes = set(_sieve(limit))
    assert [n for n in range(-5, limit) if is_probable_prime(n)] == sorted(primes)


@pytest.mark.parametrize("k", range(1, 14))
def test_is_probable_prime_rejects_the_least_strong_pseudoprimes(k):
    # psi_k passes the first k witnesses, so the tier taken at psi_k must run more.
    psi = A014233[k - 1]
    assert is_strong_probable_prime(psi, FIRST_13_PRIMES[:k])
    assert not is_probable_prime(psi)


def test_is_probable_prime_matches_thirteen_witnesses():
    rng = random.Random(6)
    primes = 0
    for _ in range(20_000):
        n = rng.randrange(10**6 + 1, 4 * 10**18, 2)
        verdict = is_probable_prime(n)
        assert verdict == thirteen_witness_test(n), n
        primes += verdict
    assert primes > 500  # the witnesses ran on many primes, not just trial division


def test_is_probable_prime_known_values():
    assert is_probable_prime(2)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(1)


# --- Baillie-PSW, from psi_4 to 2^64 -------------------------------------------

# OEIS A217255: the strong Lucas pseudoprimes of Selfridge's method A, from the start.
A217255_START = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439, 100127, 113573
)


def textbook_strong_lucas(n):
    """The reference: strong Lucas test of the odd n > 1 on the (U_k, V_k, Q^k) ladder."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2
    u, v, qk = 1, 1, Q % n  # k = 1, P = 1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def test_strong_lucas_pseudoprimes_below_200000():
    limit = 200_000
    primes = set(_sieve(limit))
    passed = [n for n in range(3, limit, 2) if _strong_lucas(n)]
    assert primes - set(passed) == {2}
    pseudoprimes = [n for n in passed if n not in primes]
    assert pseudoprimes[: len(A217255_START)] == list(A217255_START)
    # Baillie-PSW: none of them is also a strong pseudoprime to base 2.
    assert not any(is_strong_probable_prime(n, (2,)) for n in pseudoprimes)
    # The W_k ladder gives the textbook verdict, pseudoprimes included.
    assert all(textbook_strong_lucas(n) == _strong_lucas(n) for n in range(3, 50_000, 2))
    assert all(textbook_strong_lucas(n) for n in pseudoprimes)


def random_factor_pair(rng, m, bits):
    """p*(m*p - m + 1) with both factors prime and p about `bits` bits long."""
    while True:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        q = m * p - m + 1
        if is_strong_probable_prime(p, (2,)) and is_strong_probable_prime(q, (2,)):
            if thirteen_witness_test(p) and thirteen_witness_test(q):
                return p * q


@pytest.fixture(scope="module")
def bpsw_range_composites():
    """Composites in [_BPSW_FROM, 2^64) of the shapes that fool single tests."""
    rng = random.Random(7)
    limit = 4_400_000
    is_prime = bytearray([1]) * limit
    is_prime[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, limit, p)))
    out = []
    # p*(2p - 1) and p*(4p - 3), both factors prime: the shapes of most strong
    # pseudoprimes.  The first 1000 such products from the cut up, then random ones to 2^64.
    for m in (2, 4):
        pairs = (p * (m * p - m + 1) for p in itertools.count(3, 2) if is_prime[p] and is_prime[m * p - m + 1])
        out += itertools.islice((n for n in pairs if n >= _BPSW_FROM), 1000)
        out += [random_factor_pair(rng, m, rng.randrange(23, 32)) for _ in range(100)]  # m*p^2 < 2^64
    # Chernick's Carmichael numbers (6k + 1)(12k + 1)(18k + 1).
    for k in range(1, 242_000):
        if is_prime[6 * k + 1] and is_prime[12 * k + 1] and is_prime[18 * k + 1]:
            n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
            if _BPSW_FROM <= n < _BPSW_BELOW:
                out.append(n)
    # Squares of primes, for which Selfridge's search finds no D.
    out += [p * p for p in range(math.isqrt(_BPSW_FROM) + 1, limit) if is_prime[p]][:300]
    out += [p * p for p in (4294967291, 4294967279, 4294967231)]  # the largest primes below 2^32
    # psi_5 ... psi_9 of A014233, strong pseudoprimes to base 2.
    out += A014233[4:9]
    assert all(_BPSW_FROM <= n < _BPSW_BELOW and not thirteen_witness_test(n) for n in out)
    return out


def test_bpsw_range_structured_composites(bpsw_range_composites):
    assert len(bpsw_range_composites) > 2000
    assert all(is_strong_probable_prime(psi, (2,)) for psi in A014233[4:9])
    assert not any(is_probable_prime(n) for n in bpsw_range_composites)
    assert all(_strong_lucas(n) == textbook_strong_lucas(n) for n in bpsw_range_composites[::5])


def test_is_probable_prime_matches_thirteen_witnesses_in_the_bpsw_range():
    rng = random.Random(8)
    low = _BPSW_FROM.bit_length()
    primes = 0
    for _ in range(20_000):
        bits = rng.randrange(low, 65)  # every size of the range, not only its top octave
        n = rng.randrange(max(_BPSW_FROM, 1 << (bits - 1)), min(_BPSW_BELOW, 1 << bits)) | 1
        verdict = is_probable_prime(n)
        assert verdict == thirteen_witness_test(n), n
        primes += verdict
    assert primes > 400
    # Every odd n within 4 of either end of the range, on both sides of it.
    ends = [n for c in (_BPSW_FROM, _BPSW_BELOW) for n in range(c - 4, c + 5) if n % 2]
    assert len(ends) == 9
    assert [is_probable_prime(n) for n in ends] == [thirteen_witness_test(n) for n in ends]
    assert _BPSW_FROM == A014233[3]


def test_is_probable_prime_agrees_with_sympy(bpsw_range_composites):
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.primetest import is_strong_lucas_prp

    assert all(is_strong_lucas_prp(n) == _strong_lucas(n) for n in range(3, 10_000, 2))
    assert all(is_strong_lucas_prp(n) == _strong_lucas(n) for n in bpsw_range_composites[::10])
    rng = random.Random(9)
    for _ in range(2_000):
        n = rng.randrange(_BPSW_FROM, _BPSW_BELOW)
        assert is_probable_prime(n) == sympy.isprime(n), n


# --- QuadOrder / OrderElem ----------------------------------------------------


def test_quad_order_validation():
    for d in (8, 0, -5, -12, -16):  # positive, zero, wrong residue, non-fundamental
        with pytest.raises(ValueError):
            QuadOrder(d)
    with pytest.raises(ValueError):
        QuadOrder(-8, 0)
    for d in (-3, -4, -7, -8, -11, -20, -163):
        QuadOrder(d)


def test_theta_reduction_m8(order_m8):
    # theta^2 = -8*theta - 18 for d_K = -8, f = 1
    theta = order_m8.theta()
    sq = theta * theta
    assert (sq.u, sq.v) == (-18, -8)


def test_elem_mul_matches_embedding(order_m8, order_m7):
    rng = random.Random(5)
    for order in (order_m8, order_m7, QuadOrder(-3, 2)):
        for _ in range(100):
            a = order.element(rng.randint(-9, 9), rng.randint(-9, 9))
            b = order.element(rng.randint(-9, 9), rng.randint(-9, 9))
            lhs = (a * b).embed()
            rhs = a.embed() * b.embed()
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_elem_identity_and_norm_multiplicativity(order_m8):
    rng = random.Random(6)
    one = order_m8.one()
    for _ in range(100):
        a = order_m8.element(rng.randint(-9, 9), rng.randint(-9, 9))
        b = order_m8.element(rng.randint(-9, 9), rng.randint(-9, 9))
        assert a * one == a
        assert (a * b).norm() == a.norm() * b.norm()
        assert a.norm() >= 0
        assert abs(a.norm() - abs(a.embed()) ** 2) <= 1e-9 * (1 + a.norm())


def test_elem_order_mismatch(order_m8, order_m7):
    with pytest.raises(OrderMismatchError):
        order_m8.one() + order_m7.one()
    with pytest.raises(OrderMismatchError):
        order_m8.one() * order_m7.theta()


def test_exact_div(order_m8):
    a = order_m8.element(3, 2)
    b = order_m8.element(1, 1)
    assert (a * b).exact_div(b) == a
    assert order_m8.element(1, 0).exact_div(order_m8.element(0, 1)) is None


# --- sqrt of the discriminant ---------------------------------------------------


def test_sqrt_discriminant_m8(order_m8):
    r = sqrt_discriminant(order_m8)
    assert (r.u, r.v) == (8, 2)
    assert abs(r.embed() - 1j * math.sqrt(8)) < 1e-12
    sq = r * r
    assert (sq.u, sq.v) == (order_m8.discriminant, 0)


def test_sqrt_discriminant_conductor_two():
    order = QuadOrder(-3, 2)
    r = sqrt_discriminant(order)
    assert (r.u, r.v) == (6, 2)
    assert abs(r.embed() - 2j * math.sqrt(3)) < 1e-12
    sq = r * r
    assert (sq.u, sq.v) == (-12, 0)


def test_sqrt_discriminant_all_small_orders():
    for d in (-3, -4, -7, -8, -11, -20):
        for f in (1, 2, 3):
            order = QuadOrder(d, f)
            r = sqrt_discriminant(order)
            assert r * r == order.element(order.discriminant, 0)


# --- egcd_order -------------------------------------------------------------------


def test_egcd_order_zero_second_arg(order_m8):
    a = order_m8.element(3, 1)
    g, x, y = egcd_order(a, order_m8.zero())
    assert g == a and x == order_m8.one() and y == order_m8.zero()


def test_egcd_order_gaussian_ideal(order_gauss):
    # (1+i, 2) = (1+i): the gcd has norm 2.  1+i = theta + 3 in the theta basis.
    one_plus_i = order_gauss.element(3, 1)
    assert abs(one_plus_i.embed() - (1 + 1j)) < 1e-12
    g, x, y = egcd_order(one_plus_i, order_gauss.element(2, 0))
    assert g.norm() == 2
    assert one_plus_i * x + order_gauss.element(2, 0) * y == g


@pytest.mark.parametrize("dk", [-3, -4, -7, -8, -11])
def test_egcd_order_bezout_random(dk):
    order = QuadOrder(dk)
    rng = random.Random(100 + dk)
    for _ in range(60):
        a = order.element(rng.randint(-8, 8), rng.randint(-8, 8))
        b = order.element(rng.randint(-8, 8), rng.randint(-8, 8))
        if a.is_zero() and b.is_zero():
            continue
        g, x, y = egcd_order(a, b)
        assert a * x + b * y == g
        if not a.is_zero():
            assert a.exact_div(g) is not None
        if not b.is_zero():
            assert b.exact_div(g) is not None


def test_egcd_order_rejects_non_euclidean():
    order = QuadOrder(-20)
    with pytest.raises(UnsupportedOrderError):
        egcd_order(order.one(), order.theta())
    order = QuadOrder(-4, 2)
    with pytest.raises(UnsupportedOrderError):
        egcd_order(order.one(), order.theta())


@pytest.mark.parametrize("dk, f", [(-3, 1), (-8, 1), (-7, 1), (-20, 1), (-8, 3), (-4, 3), (-3, 7), (-7, 2)])
def test_nearest_quotient_rounds_in_reduced_basis(dk, f):
    # a/b - q = x + y*omega with |x|, |y| <= 1/2 and Re(omega) in {0, 1/2}, so
    # N(a - q*b) <= N(b)*(9/16 + N(omega)/4), on every order and conductor.
    order = QuadOrder(dk, f)
    omega = order.theta() - order.element(order.theta_trace // 2)
    rng = random.Random(41)
    for _ in range(300):
        a = order.element(rng.randint(-10**6, 10**6), rng.randint(-10**4, 10**4))
        b = order.element(rng.randint(-100, 100), rng.randint(-30, 30))
        if b.is_zero():
            continue
        num = a * b.conjugate()
        q = order.element(*_rounded_coords(num.u, num.v, b.norm(), order.theta_trace // 2))
        assert 16 * (a - q * b).norm() <= b.norm() * (9 + 4 * omega.norm())


@pytest.mark.parametrize("dk, f", [(-3, 1), (-4, 1), (-7, 1), (-8, 1), (-11, 1), (-20, 1), (-8, 3), (-4, 3)])
def test_nearest_quotient_rounds_ties_toward_zero(dk, f):
    # a/b = m/2 in one coordinate of the reduced basis (1, omega), both sides
    # scaled by g, and a*conj(b) = m*g*conj(b): the rounding takes m/2 toward zero.
    order = QuadOrder(dk, f)
    c0 = order.theta_trace // 2
    omega = order.theta() - order.element(c0)
    for g in (order.one(), order.element(2, 1), order.element(-3, 2)):
        two = order.element(2) * g
        num, n = g * two.conjugate(), two.norm()
        for m, q in ((1, 0), (-1, 0), (3, 1), (-3, -1)):
            x, y = m * num, m * omega * num
            assert order.element(*_rounded_coords(x.u, x.v, n, c0)) == order.element(q)
            assert order.element(*_rounded_coords(y.u, y.v, n, c0)) == q * omega
