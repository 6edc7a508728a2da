import cmath
import copy
import math
import random

import numpy as np
import pytest

from elliptic_dedekind import (
    DegenerateLatticeError,
    Lattice,
    NotAMultiplierError,
    PoleError,
    PreconditionError,
    QuadOrder,
    SumContext,
    area,
    d_sum,
    e1,
    e2_zero,
    j_invariant,
    weierstrass_zeta,
)
from elliptic_dedekind import dedekind
from elliptic_dedekind import lattice as lattice_module
from elliptic_dedekind.oracles import _points_in_disk, e1_ewald_many, e2_hecke_limit, weierstrass_zeta_direct

SQRT2 = math.sqrt(2.0)
RHO = complex(-0.5, math.sqrt(3.0) / 2.0)

# Regression anchor from this implementation's own q-series run, cross-checked
# against the Hecke-limit oracle to 1e-12.
S2_SQRT2 = 1.0574989111915336


def rand_points(seed, n, spread=1.4):
    rng = random.Random(seed)
    return [complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread)) for _ in range(n)]


# --- construction / area ------------------------------------------------------


def test_area_examples():
    assert abs(area(Lattice(1.0, 1j)) - 1.0) < 1e-15
    assert abs(area(Lattice(1.0, 1j * SQRT2)) - SQRT2) < 1e-15


def test_area_scaling():
    rng = random.Random(7)
    base = Lattice(1.0, 1j * SQRT2)
    for _ in range(20):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(c) < 0.1:
            continue
        assert abs(area(base.scaled(c)) - abs(c) ** 2 * area(base)) < 1e-12 * abs(c) ** 2


def test_degenerate_and_misoriented_bases():
    with pytest.raises(DegenerateLatticeError):
        Lattice(1.0, 2.0)
    with pytest.raises(DegenerateLatticeError):
        Lattice(1.0, -1j)  # negatively oriented


@pytest.mark.parametrize(
    "omega1, omega2, message",
    [
        pytest.param(1.0, omega2, "E2\\(0\\) is not a finite double", id=str(omega2))
        for omega2 in (1e-320j, 1e-200j, 1e-160j, 5e-324j)
    ]
    + [
        pytest.param(1e-170, 1e-170j, "leaves the double range: its area is 0.0", id="area-underflows"),
        pytest.param(1e160, 1.4142135623730951e160j, "leaves the double range: its area is inf", id="area-overflows"),
    ],
)
def test_basis_whose_square_leaves_the_double_range(omega1, omega2, message):
    # With omega1 = 1, the reduced basis vector omega2 squares to 0 or to a subnormal, so E2(0) is
    # no finite double; the last two bases are independent, but their area underflows or overflows.
    with pytest.raises(DegenerateLatticeError, match=message):
        Lattice(omega1, omega2)


# --- weierstrass zeta ---------------------------------------------------------


def test_zeta_oddness():
    lat = Lattice(1.0, 1j * SQRT2)
    for z in rand_points(8, 50):
        assert abs(lat.weierstrass_zeta(z) + lat.weierstrass_zeta(-z)) < 1e-10


def test_zeta_pole_error():
    lat = Lattice(1.0, 1j * SQRT2)
    with pytest.raises(PoleError):
        weierstrass_zeta(0.0, lat)
    with pytest.raises(PoleError):
        weierstrass_zeta(2 + 3j * SQRT2, lat)


def test_legendre_relation():
    for om2 in (1j * SQRT2, complex(0.5, 0.5 * math.sqrt(7)), complex(0.3, 1.9)):
        lat = Lattice(1.0, om2)
        eta1, eta2 = lat.quasi_periods()
        assert abs(eta1 * lat.omega2 - eta2 * lat.omega1 - 2j * math.pi) < 1e-8


def test_zeta_quasi_periodicity():
    lat = Lattice(1.0, 1j * SQRT2)
    eta1, eta2 = lat.quasi_periods()
    z = 0.31 + 0.4j
    base = lat.weierstrass_zeta(z)
    assert abs(lat.weierstrass_zeta(z + lat.omega1) - base - eta1) < 1e-10
    assert abs(lat.weierstrass_zeta(z + lat.omega2) - base - eta2) < 1e-10


def test_zeta_homogeneity():
    lat = Lattice(1.0, 1j * SQRT2)
    rng = random.Random(9)
    for _ in range(20):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(c) < 0.3:
            continue
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) + 0.13 + 0.07j
        lhs = lat.scaled(c).weierstrass_zeta(c * z)
        rhs = lat.weierstrass_zeta(z) / c
        assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


def zeta_tau_reference(u: complex, tau: complex, n_terms: int = 200) -> complex:
    """zeta(u; Z + Z*tau) from the cotangent + q-power series, n_terms terms of each series."""
    q = cmath.exp(2j * math.pi * tau)
    sigma1 = [sum(d for d in range(1, m + 1) if m % d == 0) for m in range(n_terms + 1)]
    g2 = (math.pi**2 / 3.0) * (1.0 - 24.0 * sum(sigma1[m] * q**m for m in range(1, n_terms + 1)))
    alpha = cmath.exp(2j * math.pi * (tau + u))
    beta = cmath.exp(2j * math.pi * (tau - u))
    tail = sum((alpha**n - beta**n) / (1.0 - q**n) for n in range(1, n_terms + 1))
    return g2 * u + math.pi * cmath.cos(math.pi * u) / cmath.sin(math.pi * u) - 2j * math.pi * tail


def test_zeta_series_length_matches_long_reference():
    # Reduced points on the strip edge |y| = 1/2 are where alpha, beta are largest.
    lattices = [Lattice(1.0, RHO), Lattice(1.0, 1j), Lattice(1.0, 1j * SQRT2), Lattice.from_order(QuadOrder(-8, 3))]
    for lat in lattices:
        tau = lat._tau
        us = [x + y * tau for y in (0.5, -0.5, 0.49, -0.49) for x in (-0.5, -0.31, 0.0, 0.17, 0.5)]
        got = lat._theta_quotient(np.asarray(us)) + lat._eta1_tau * np.asarray(us)
        for u, val in zip(us, got):
            ref = zeta_tau_reference(u, tau)
            assert abs(val - ref) <= 1e-14 * abs(ref)


def wide_grid_points(lat, radius, centre):
    """Integer coordinates in (omega1, omega2) of the points with |w - centre| <= radius."""
    a = lat.area()
    bound = 2 * int((radius + abs(centre)) * max(abs(lat.omega1), abs(lat.omega2)) / a) + 3
    m, n = np.meshgrid(np.arange(-bound, bound + 1), np.arange(-bound, bound + 1), indexing="ij")
    z = m * lat.omega1 + n * lat.omega2
    keep = np.abs(z - centre) <= radius
    return set(zip(m[keep].tolist(), n[keep].tolist()))


@pytest.mark.parametrize(
    "lat",
    [Lattice.from_order(QuadOrder(-8)), Lattice.from_order(QuadOrder(-8, 3)), Lattice(complex(1.0, 0.5), complex(5.2, 3.1))],
)
def test_lattice_points_in_disk_matches_wide_grid(lat):
    # Radii whose square is no norm of the lattice, so no point sits on the circle.
    # The disk is centred at 0, where it holds 0 as well, and at an off-lattice
    # point several cells out in coordinates of the given basis.
    a = lat.area()
    radius = 30.3 * math.sqrt(a)
    for centre in (0j, 3.37 * lat.omega1 - 5.81 * lat.omega2):
        pts = np.array(list(_points_in_disk(lat.omega1, lat.omega2, a, radius * radius, centre)))
        x = -(pts * np.conj(lat.omega2)).imag / a
        y = (pts * np.conj(lat.omega1)).imag / a
        m, n = np.round(x).astype(int), np.round(y).astype(int)
        assert np.max(np.abs(x - m)) < 1e-6 and np.max(np.abs(y - n)) < 1e-6
        got = set(zip(m.tolist(), n.tolist()))
        assert len(got) == len(pts)
        assert got == wide_grid_points(lat, radius, centre)


def test_zeta_against_direct_sum():
    lat = Lattice(1.0, 1j * SQRT2)
    for z in (0.31 + 0.27j, -0.21 + 0.55j):
        direct = weierstrass_zeta_direct(z, lat)
        assert abs(lat.weierstrass_zeta(z) - direct) < 1e-12


def test_zeta_direct_depends_on_the_lattice_not_the_basis():
    # The order of discriminant -163 named by (1, theta), |theta| ~ 82, and by
    # the nearly reduced (1, theta + 81): one lattice, so one value of zeta.
    order_lat = Lattice.from_order(QuadOrder(-163))
    near = Lattice(1.0, order_lat.omega2 + 81)
    for z in (0.31 + 0.27j, -0.4 + 3.1j):
        far, close = weierstrass_zeta_direct(z, order_lat), weierstrass_zeta_direct(z, near)
        assert abs(far - close) <= 1e-13 * max(abs(close), 1.0 / math.sqrt(near.area()))


# --- E2(0) ----------------------------------------------------------------------


def test_e2_zero_vanishes_for_square_and_hexagonal():
    assert abs(e2_zero(Lattice(1.0, 1j))) < 1e-10
    assert abs(e2_zero(Lattice(1.0, RHO))) < 1e-10


def test_e2_zero_sqrt2_regression():
    val = e2_zero(Lattice(1.0, 1j * SQRT2))
    assert abs(val.imag) < 1e-12
    assert abs(val.real - S2_SQRT2) < 1e-8


def test_e2_zero_hecke_oracle(hecke_lattices):
    # Relative to max(|E2(0)|, 1/area), which has E2(0)'s weight and does not
    # vanish with it on d = -3, -4.
    for lat in hecke_lattices:
        s2 = lat.e2_zero()
        assert abs(s2 - e2_hecke_limit(lat)) <= 1e-12 * max(abs(s2), 1.0 / lat.area()), lat


def test_e2_homogeneity():
    lat = Lattice(1.0, 1j * SQRT2)
    rng = random.Random(10)
    for _ in range(20):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(c) < 0.3:
            continue
        assert abs(lat.scaled(c).e2_zero() * c * c - lat.e2_zero()) < 1e-8 * abs(lat.e2_zero())


# --- E1 ----------------------------------------------------------------------------


def test_e1_half_period_zero():
    for om2 in (1j * SQRT2, complex(0.5, 0.5 * math.sqrt(7))):
        lat = Lattice(1.0, om2)
        assert abs(e1(lat.omega1 / 2.0, lat)) < 1e-9
        assert abs(e1(lat.omega2 / 2.0, lat)) < 1e-9


def test_e1_periodicity():
    lat = Lattice(1.0, 1j * SQRT2)
    rng = random.Random(11)
    worst = 0.0
    for z in rand_points(12, 100):
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        v0 = lat.e1(z)
        v1 = lat.e1(z + m * lat.omega1 + n * lat.omega2)
        worst = max(worst, abs(v1 - v0) / (1 + abs(v0)))
    assert worst < 1e-8


def test_e1_oddness():
    lat = Lattice(1.0, 1j * SQRT2)
    for z in rand_points(13, 100):
        assert abs(lat.e1(z) + lat.e1(-z)) < 1e-9


def test_e1_lattice_points_are_zero():
    lat = Lattice(1.0, 1j * SQRT2)
    assert lat.e1(0.0) == 0.0
    assert lat.e1(3 - 2j * SQRT2) == 0.0


def test_e1_near_lattice_torsion_point_is_not_a_pole():
    # (1/N)*omega1 with N just below 2**31 is a torsion point d_sum may evaluate.
    lat = Lattice(1.0, 1j * math.sqrt(2.0))
    z = lat.omega1 / (2**31 - 1)
    assert abs(lat.e1(z) * z - 1.0) < 1e-6


@pytest.mark.parametrize(
    "lat",
    [Lattice(1.0, 1j * SQRT2), Lattice.from_order(QuadOrder(-7)), Lattice(complex(1250.25, 1126.125), complex(1249, 1125))],
)
def test_e1_torsion_matches_e1_many(lat):
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 97, 1000):
        s = rng.integers(-5000, 5000, 200)
        t = rng.integers(-5000, 5000, 200)
        got = lat.e1_torsion(s, t, n)
        on_lattice = (s % n == 0) & (t % n == 0)
        assert np.all(got[on_lattice] == 0)
        expected = lat.e1_many(((s % n) * lat.omega1 + (t % n) * lat.omega2) / n)
        assert np.max(np.abs(got - expected)) <= 1e-11 * (1 + np.max(np.abs(expected)))


def test_e1_where_qbar_underflows_matches_ewald():
    # On d = -1000003, Im tau = 500 and qbar underflows to 0.  At (s*omega1 + 81*omega2)/356,
    # Im v = 113.8, w = exp(2*pi*i*v) is subnormal, and numpy's 0/w is NaN: beta must be 0 there.
    order = QuadOrder(-1000003)
    lattice = Lattice.from_order(order)
    s = np.arange(0, 356, 5)
    got = lattice.e1_torsion(s, np.full(s.size, 81), 356)
    expected = np.array(e1_ewald_many((s * lattice.omega1 + 81 * lattice.omega2) / 356, lattice))
    assert np.all(np.abs(got - expected) <= 1e-14 * (1 + np.abs(expected)))
    # A walk whose constant tables hold such points.
    assert cmath.isfinite(d_sum(order.element(12345, 678), order.element(91011, 1213), SumContext(order)))


def test_e1_torsion_order_out_of_range():
    lat = Lattice(1.0, 1j * SQRT2)
    for n in (0, -3, 2**31):
        with pytest.raises(PreconditionError):
            lat.e1_torsion([1], [0], n)


def test_e1_homogeneity():
    lat = Lattice(1.0, 1j * SQRT2)
    rng = random.Random(14)
    for _ in range(20):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(c) < 0.3:
            continue
        z = 0.23 + 0.31j
        assert abs(lat.scaled(c).e1(c * z) - lat.e1(z) / c) < 1e-8


# --- j invariant ----------------------------------------------------------------------


def test_j_square_lattice():
    j = j_invariant(Lattice(1.0, 1j))
    assert abs(j - 1728.0) < 1e-6 * 1728.0


def test_j_hexagonal_lattice():
    assert abs(j_invariant(Lattice(1.0, RHO))) < 1e-6


def test_j_real_for_conjugation_symmetric_bases():
    rng = random.Random(15)
    for _ in range(15):
        y = rng.uniform(0.35, 3.0)
        for om2 in (1j * y, complex(0.5, y / 2.0)):
            j = j_invariant(Lattice(1.0, om2))
            assert abs(j.imag) < 1e-8


def test_j_from_order_lattice_real():
    j = j_invariant(Lattice.from_order(QuadOrder(-8)))
    assert abs(j.imag) < 1e-8


# --- Lattice setup: divisor-sum table, lazy weights ----------------------------------


def divisor_sums(n_max, power):
    """sigma_power(m) for m = 0..n_max, by the double loop each construction once ran."""
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dp = d**power
        for m in range(d, n_max + 1, d):
            sig[m] += dp
    return sig


def eager_copy(lat):
    """A copy of lat whose series are prepared as construction once prepared them, eagerly and with its own divisor sums."""
    ref = copy.copy(lat)
    tau = ref._tau
    n_terms = math.ceil(18.0 * math.log(10.0) / (math.pi * tau.imag))
    qbar = cmath.exp(2j * math.pi * tau)
    sig1 = divisor_sums(n_terms, 1)
    acc = 0.0 + 0.0j
    qn = 1.0 + 0.0j
    for m in range(1, n_terms + 1):
        qn *= qbar
        acc += sig1[m] * qn
    g2 = (math.pi**2 / 3.0) * (1.0 - 24.0 * acc)
    r1_sq = ref._r1 * ref._r1
    ref._n_terms, ref._qbar = n_terms, qbar
    ref._s2 = (g2 - math.pi / tau.imag) / r1_sq if r1_sq else complex("inf")
    ref._eta1_tau, ref._eta2_tau = g2, g2 * tau - 2j * math.pi
    coef = [-2j * math.pi / (1.0 - qbar**n) for n in range(1, n_terms + 1)]
    ref._coef, ref._coef_alpha = coef, coef[: (n_terms + 1) // 2]
    sig3 = divisor_sums(n_terms, 3)
    e4, delta, qn = 1.0 + 0.0j, qbar, 1.0 + 0.0j
    for m in range(1, n_terms + 1):
        qn *= qbar
        e4 += 240.0 * sig3[m] * qn
        delta *= (1.0 - qn) ** 24
    ref._j = e4**3 / delta if delta != 0 else complex("inf")
    return ref


def same_bits(a, b):
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


CI_ORDERS = [(d, 1) for d in (-8, -7, -11, -4, -3, -20, -23, -15, -163, -43, -19, -67)]
CI_ORDERS += [(-8, 3), (-4, 3), (-3, 7), (-7, 11), (-4, 5)]
# Im tau of each n_terms from 1 to 16: ceil(C/y) = n at y = C/(n - 1/2), C = 18*ln(10)/pi, and y up to 120.
SETUP_HEIGHTS = [math.sqrt(3.0) / 2.0] + [18.0 * math.log(10.0) / math.pi / (n - 0.5) for n in range(1, 16)] + [120.0]
SETUP_LATTICES = (
    [pytest.param(lambda d=d, f=f: Lattice.from_order(QuadOrder(d, f)), id=f"order{d},{f}") for d, f in CI_ORDERS]
    + [pytest.param(lambda y=y: Lattice(1.0, 1j * y), id=f"iy{y:.4g}") for y in SETUP_HEIGHTS]
    + [pytest.param(lambda y=y: Lattice(1.0, complex(0.5, y)), id=f"half+iy{y:.4g}") for y in SETUP_HEIGHTS]
    + [pytest.param(lambda: Lattice.from_order(QuadOrder(-20)).scaled(complex(0.3, -1.7)), id="scaled-20")]
)


def test_the_divisor_sum_table_equals_the_loops():
    assert lattice_module._SIGMA1 == divisor_sums(lattice_module._MAX_TERMS, 1)
    assert lattice_module._SIGMA3 == divisor_sums(lattice_module._MAX_TERMS, 3)


def test_the_setup_heights_run_n_terms_from_16_down_to_1():
    n_terms = {Lattice(1.0, om2)._n_terms for y in SETUP_HEIGHTS for om2 in (1j * y, complex(0.5, y))}
    assert n_terms == set(range(1, 17))


@pytest.mark.parametrize("make", SETUP_LATTICES)
def test_lazy_setup_equals_the_eager_series_bit_for_bit(make):
    lat = make()
    ref = eager_copy(make())
    assert lat._coef is None
    assert same_bits(lat.e2_zero(), ref.e2_zero())
    assert same_bits(lat.quasi_periods(), ref.quasi_periods())
    try:
        j = lat.j_invariant()
    except DegenerateLatticeError:
        assert not cmath.isfinite(ref.j_invariant())
    else:
        assert same_bits(j, ref.j_invariant())
    # Nothing so far has read the theta-quotient weights.
    assert lat._coef is None
    xy = [(0.1, 0.2), (-0.45, 0.3), (0.5, -0.5), (0.0, 0.25), (3.3, -2.05), (1e-7, 0.0), (2.0, 1.0)]
    z = np.array([x * lat.omega1 + y * lat.omega2 for x, y in xy])
    assert same_bits(lat.e1_many(z), ref.e1_many(z))
    s, t = np.arange(-9, 12), np.arange(30, 9, -1)
    for n in (1, 2, 7, 360):
        assert same_bits(lat.e1_torsion(s, t, n), ref.e1_torsion(s, t, n))
    for x, y in xy[:5]:
        zeta = x * lat.omega1 + y * lat.omega2
        assert same_bits(lat.weierstrass_zeta(zeta), ref.weierstrass_zeta(zeta))
    assert same_bits(lat._coef, ref._coef) and same_bits(lat._coef_alpha, ref._coef_alpha)


def test_the_order_context_builds_no_multiplier_matrix(monkeypatch):
    calls = []
    mult_matrix = dedekind.mult_matrix
    monkeypatch.setattr(dedekind, "mult_matrix", lambda *args: calls.append(args) or mult_matrix(*args))
    for d, f in CI_ORDERS:
        ctx = SumContext(QuadOrder(d, f))
        assert ctx.lattice.order == ctx.order
    assert calls == []
    # A lattice the caller gives is checked, once.
    order = QuadOrder(-20)
    SumContext(order, Lattice(2, complex(1.0, math.sqrt(5.0))))
    assert len(calls) == 1
    for lat in (Lattice(1.0, 1.3j), Lattice(2, complex(-0.5, 2.3979157616563596)), Lattice.from_order(QuadOrder(-8))):
        with pytest.raises(NotAMultiplierError, match="does not act on this lattice"):
            SumContext(order, lat)
