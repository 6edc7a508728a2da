"""30-digit mpmath references for E1 and D_L, independent of the float kernels.

E1 on Z*omega1 + Z*omega2 comes from Jacobi's theta function: with
tau = omega2/omega1, q = exp(i*pi*tau) and u = z/omega1,

    E1(z) = (pi*theta1'(pi*u | q)/theta1(pi*u | q) + 2*pi*i*Im(u)/Im(tau)) / omega1,

because zeta(z) = eta1*z + pi*theta1'/theta1 and E1 = zeta - s2*z - (pi/A)*conj(z)
(the G2 terms cancel; Sczech's identity).  D_L(h, k) is then summed over the
box with exact rational torsion coordinates M^-1*(a, b) and M^-1*H*(a, b).

zeta, E2(0) and j come from the same theta function and from Klein's j, with
no reduced basis: G2(tau) = -(pi^2/3)*theta1^(3)(0)/theta1'(0),

    zeta(z) = (G2(tau)*u + pi*theta1'(pi*u | q)/theta1(pi*u | q)) / omega1,
    E2(0)   = (G2(tau) - pi/Im(tau)) / omega1^2,
    j       = 1728*kleinj(tau).
"""

import math
import random
from fractions import Fraction

import pytest

from elliptic_dedekind import CosetSystem, Lattice, QuadOrder, SumContext, d_sum, mult_matrix
from elliptic_dedekind.dedekind import _d_sum_table
from elliptic_dedekind.oracles import e1_ewald
from elliptic_dedekind.sl2 import _key_pair, _walk

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DPS = 30


def mp_e1(z, w1, w2):
    tau = w2 / w1
    q = mp.exp(1j * mp.pi * tau)
    u = z / w1
    ratio = mp.jtheta(1, mp.pi * u, q, 1) / mp.jtheta(1, mp.pi * u, q)
    return (mp.pi * ratio + 2j * mp.pi * mp.im(u) / mp.im(tau)) / w1


def mp_g2(tau):
    q = mp.exp(1j * mp.pi * tau)
    return -(mp.pi**2 / 3) * mp.jtheta(1, 0, q, 3) / mp.jtheta(1, 0, q, 1)


def mp_zeta(z, w1, w2):
    tau = w2 / w1
    q = mp.exp(1j * mp.pi * tau)
    u = z / w1
    ratio = mp.jtheta(1, mp.pi * u, q, 1) / mp.jtheta(1, mp.pi * u, q)
    return (mp_g2(tau) * u + mp.pi * ratio) / w1


def mp_e2_zero(w1, w2):
    tau = w2 / w1
    return (mp_g2(tau) - mp.pi / mp.im(tau)) / w1**2


def mp_j(w1, w2):
    return 1728 * mp.kleinj(w2 / w1)


def mp_embed(elem):
    order = elem.order
    theta = order.f * (order.d_k + mp.sqrt(mp.mpf(order.d_k))) / 2
    return elem.u + elem.v * theta


def mp_d_sum(h, k, lattice):
    """D_L(h, k) at DPS digits over the box transversal of L/kL."""
    system = CosetSystem(k, lattice)
    m = system.mult
    det = m.det
    hm = mult_matrix(h, lattice)
    w1, w2 = mp.mpc(lattice.omega1), mp.mpc(lattice.omega2)

    def e1_at(a, b):
        # mu/k for mu = a*omega1 + b*omega2 has coordinates M^-1 (a, b).
        x = Fraction(m.a22 * a - m.a12 * b, det) % 1
        y = Fraction(m.a11 * b - m.a21 * a, det) % 1
        if x == 0 and y == 0:
            return mp.mpc(0)
        return mp_e1(x.numerator / mp.mpf(x.denominator) * w1 + y.numerator / mp.mpf(y.denominator) * w2, w1, w2)

    total = mp.mpc(0)
    for a, b in system.coords().tolist():
        total += e1_at(hm.a11 * a + hm.a12 * b, hm.a21 * a + hm.a22 * b) * e1_at(a, b)
    return total / mp_embed(k)


LATTICES = {
    "sqrt-2": Lattice(1.0, 1j * math.sqrt(2.0)),
    "d-7-order": Lattice.from_order(QuadOrder(-7)),
    "hexagonal-scaled": Lattice(complex(1.3, 0.7), complex(1.3, 0.7) * complex(-0.5, math.sqrt(3.0) / 2.0)),
    "conductor-3": Lattice.from_order(QuadOrder(-8, 3)),
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_e1_matches_theta_reference(name):
    lattice = LATTICES[name]
    rng = random.Random(41)
    worst = 0.0
    with mp.workdps(DPS):
        w1, w2 = mp.mpc(lattice.omega1), mp.mpc(lattice.omega2)
        for _ in range(40):
            x, y = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            z = x * lattice.omega1 + y * lattice.omega2
            ref = complex(mp_e1(mp.mpc(z), w1, w2))
            worst = max(worst, abs(lattice.e1(z) - ref) / abs(ref))
    assert worst <= 1e-13


def mp_rel_err(value, ref):
    return abs(value - complex(ref)) / abs(complex(ref))


def test_e1_near_lattice_points():
    lattice = LATTICES["sqrt-2"]
    with mp.workdps(DPS):
        w1, w2 = mp.mpc(lattice.omega1), mp.mpc(lattice.omega2)
        for z in (1e-6 * complex(0.3, 0.7), -1e-6 * complex(0.3, 0.7), 1e-9 * complex(0.5, -0.2)):
            assert mp_rel_err(lattice.e1(z), mp_e1(mp.mpc(z), w1, w2)) <= 1e-14
        ref = mp_e1(w1 / (2**31 - 1), w1, w2)
        assert mp_rel_err(lattice.e1(lattice.omega1 / (2**31 - 1)), ref) <= 1e-14
        assert mp_rel_err(lattice.e1_torsion([1], [0], 2**31 - 1)[0], ref) <= 1e-14


@pytest.mark.parametrize("im_tau", [40.0, 1000.0])
def test_e1_elongated_lattice(im_tau):
    # At Im tau = 1000, exp(2*pi*i*tau) and exp(2*pi*i*u) both underflow to 0.
    lattice = Lattice(1.0, complex(0.2, im_tau))
    with mp.workdps(DPS):
        w1, w2 = mp.mpc(lattice.omega1), mp.mpc(lattice.omega2)
        for z in (complex(0.3, 0.45 * im_tau), complex(0.3, -0.45 * im_tau), complex(0.1, 0.02 * im_tau)):
            assert mp_rel_err(lattice.e1(z), mp_e1(mp.mpc(z), w1, w2)) <= 1e-14


@pytest.mark.parametrize("im_tau", [12.0, 11 * math.sqrt(7) / 2, 20.0])
def test_e1_at_half_height_of_tall_lattices(im_tau):
    # Where Re v = +-1/2 and Im v = +-Im(tau)/2, |w| = exp(-pi*Im tau) lies
    # below the rounding of 1 + expm1(2*pi*i*v), and beta = qbar/w is as large
    # as w.  E1 itself nearly cancels there, so the error is measured against
    # |E1| + 1/|omega1|.  Im tau = 11*sqrt(7)/2 is the order of discriminant
    # -7*11^2, whose torsion point (4 + 8*theta)/16 lies there.
    lattice = Lattice(1.0, complex(-0.5, im_tau))
    points = [complex(re, im * im_tau / 2) for re in (0.5, -0.5) for im in (1, -1)]
    points += [complex(re, 0.499 * im_tau) for re in (0.5, 0.3)]
    with mp.workdps(DPS):
        w1, w2 = mp.mpc(lattice.omega1), mp.mpc(lattice.omega2)
        for z in points:
            ref = complex(mp_e1(mp.mpc(z), w1, w2))
            assert abs(lattice.e1(z) - ref) <= 1e-14 * (abs(ref) + 1.0), z
    order = Lattice.from_order(QuadOrder(-7, 11))
    with mp.workdps(DPS):
        ref = complex(mp_e1(mp.mpc((4 * order.omega1 + 8 * order.omega2) / 16), mp.mpc(order.omega1), mp.mpc(order.omega2)))
    assert abs(order.e1_torsion([4], [8], 16)[0] - ref) <= 1e-14


# Lattices with E2(0) != 0 and j != 0: Re tau = 0 and 1/2, a conductor-3 order,
# a skew basis, and Im tau = 40, where w = exp(2*pi*i*u) reaches exp(-40*pi).
ANALYTIC_LATTICES = {
    "sqrt-2": LATTICES["sqrt-2"],
    "d-7-order": LATTICES["d-7-order"],
    "d-23-order": Lattice.from_order(QuadOrder(-23)),
    "conductor-3": LATTICES["conductor-3"],
    "skew": Lattice(complex(1.0, 0.5), complex(5.2, 3.1)),
    "elongated-40": Lattice(1.0, 40j),
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_LATTICES))
def test_zeta_matches_theta_reference(name):
    # Points x*r1 + y*r2 of the reduced basis, on the strip edges y = +-1/2 and
    # inside, some moved by a period so that the quasi-periods enter.
    lattice = ANALYTIC_LATTICES[name]
    r1, r2 = lattice._r1, lattice._r2
    rng = random.Random(44)
    worst = 0.0
    with mp.workdps(DPS):
        w1, w2 = mp.mpc(lattice.omega1), mp.mpc(lattice.omega2)
        for i in range(30):
            x = rng.uniform(-0.5, 0.5)
            y = (0.5, -0.5, rng.uniform(-0.5, 0.5))[i % 3]
            m, n = (0, 0) if i < 15 else (rng.randint(-2, 2), rng.randint(-2, 2))
            z = (x + m) * r1 + (y + n) * r2
            worst = max(worst, mp_rel_err(lattice.weierstrass_zeta(z), mp_zeta(mp.mpc(z), w1, w2)))
    assert worst <= 1e-13


@pytest.mark.parametrize("name", sorted(ANALYTIC_LATTICES))
def test_e2_zero_and_j_match_theta_reference(name):
    lattice = ANALYTIC_LATTICES[name]
    with mp.workdps(DPS):
        w1, w2 = mp.mpc(lattice.omega1), mp.mpc(lattice.omega2)
        assert mp_rel_err(lattice.e2_zero(), mp_e2_zero(w1, w2)) <= 1e-13
        assert mp_rel_err(lattice.j_invariant(), mp_j(w1, w2)) <= 1e-13


def ewald_rel_err(lattice, z, w1, w2):
    """|e1_ewald - E1| relative to max(|E1|, 1/sqrt(area)), as in the e1 suite."""
    ref = complex(mp_e1(mp.mpc(z), w1, w2))
    return abs(e1_ewald(z, lattice) - ref) / max(abs(ref), 1.0 / math.sqrt(lattice.area()))


@pytest.mark.parametrize("name", sorted(ANALYTIC_LATTICES))
def test_e1_ewald_matches_theta_reference(name):
    # The points of test_zeta_matches_theta_reference: strip edges and inside,
    # half of them moved by a period.
    lattice = ANALYTIC_LATTICES[name]
    r1, r2 = lattice._r1, lattice._r2
    rng = random.Random(44)
    worst = 0.0
    with mp.workdps(DPS):
        w1, w2 = mp.mpc(lattice.omega1), mp.mpc(lattice.omega2)
        for i in range(30):
            x = rng.uniform(-0.5, 0.5)
            y = (0.5, -0.5, rng.uniform(-0.5, 0.5))[i % 3]
            m, n = (0, 0) if i < 15 else (rng.randint(-2, 2), rng.randint(-2, 2))
            worst = max(worst, ewald_rel_err(lattice, (x + m) * r1 + (y + n) * r2, w1, w2))
    assert worst <= 1e-13


def test_e1_ewald_at_the_half_height_witness():
    # (4 + 8*theta)/16 on the order of discriminant -7*11^2, where a rounded
    # w = 1 + expm1(2*pi*i*v) once put E1 off by 2.7e-3.
    order = Lattice.from_order(QuadOrder(-7, 11))
    with mp.workdps(DPS):
        w1, w2 = mp.mpc(order.omega1), mp.mpc(order.omega2)
        assert ewald_rel_err(order, (4 * order.omega1 + 8 * order.omega2) / 16, w1, w2) <= 1e-13


def test_e1_torsion_on_basis_with_large_reduction_matrix():
    # omega1 = 1000*r1 + 1001*r2 and omega2 = 999*r1 + 1000*r2 for the reduced
    # basis (r1, r2) = (1, 1/4 + 9i/8); every number here is exact in binary.
    r1, r2 = 1.0, complex(0.25, 1.125)
    lattice = Lattice(1000 * r1 + 1001 * r2, 999 * r1 + 1000 * r2)
    assert lattice._w_coords == ((1000, 999), (1001, 1000))
    rng = random.Random(43)
    worst = 0.0
    with mp.workdps(DPS):
        w1, w2 = mp.mpc(lattice.omega1), mp.mpc(lattice.omega2)
        for n in (7, 1009, 65537, 2**31 - 1):
            s = [rng.randrange(-(2**40), 2**40) for _ in range(10)]
            t = [rng.randrange(-(2**40), 2**40) for _ in range(10)]
            got = lattice.e1_torsion(s, t, n)
            for si, ti, value in zip(s, t, got):
                ref = mp_e1((si * w1 + ti * w2) / n, mp.mpc(r1), mp.mpc(r2))
                worst = max(worst, mp_rel_err(value, ref))
    assert worst <= 1e-14


# (d_k, conductor, h, k): N(k) <= 60, with h coprime to k, h sharing a factor
# with k, h = 0 (mod k), and k = 2.
SUM_CASES = [
    (-8, 1, (3, 1), (7, 2)),
    (-8, 1, (1, 0), (0, 1)),
    (-8, 1, (4, 1), (2, 0)),
    (-8, 1, (14, 4), (7, 2)),
    (-8, 1, (3, 1), (2, 0)),
    (-7, 1, (2, 1), (3, 1)),
    (-7, 1, (4, 0), (2, 0)),
    (-4, 1, (2, 1), (3, 2)),
    (-4, 1, (1, 1), (4, 0)),
    (-3, 1, (1, 2), (5, 1)),
    (-3, 1, (3, 0), (3, 3)),
    (-8, 3, (1, 1), (12, 1)),
    (-4, 3, (5, 1), (6, 1)),
]


@pytest.mark.parametrize("dk, f, h, k", SUM_CASES)
def test_d_sum_matches_30_digit_sum(dk, f, h, k):
    order = QuadOrder(dk, f)
    ctx = SumContext(order)
    he, ke = order.element(*h), order.element(*k)
    assert 0 < ke.norm() <= 60
    with mp.workdps(DPS):
        ref = complex(mp_d_sum(he, ke, ctx.lattice))
    value = d_sum(he, ke, ctx)
    assert abs(value - ref) <= 1e-12 * (1.0 + abs(ref))


def test_walk_constants_match_30_digit_sums():
    # A conductor-3 walk at N(k) ~ 1e30 whose constants keep four keys with a nonzero net count;
    # each key's D_L(alpha, gamma) is a table sum at N(gamma) <= 72.
    order = QuadOrder(-8, 3)
    ctx = SumContext(order)
    walk = _walk(order.element(-9044522756396, 55413830901490), order.element(105942611429219, 67534340783344))
    keys = [_key_pair(key, order) for key, _ in walk.counts]
    assert len(keys) == 4
    for alpha, gamma in keys:
        assert gamma.norm() <= 72
        with mp.workdps(DPS):
            ref = complex(mp_d_sum(alpha, gamma, ctx.lattice))
        assert abs(_d_sum_table(alpha, gamma, ctx) - ref) <= 1e-13 * (1.0 + abs(ref))
