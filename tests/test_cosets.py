import math
import random

import numpy as np
import pytest

from elliptic_dedekind import (
    CosetSystem,
    Lattice,
    NotAMultiplierError,
    QuadOrder,
    ZeroDivisorError,
    mult_matrix,
)
from elliptic_dedekind import cosets
from elliptic_dedekind.cosets import MultMatrix, _colon_lattice, _theta_matrix

SQRT2 = math.sqrt(2.0)


def random_nonzero(rng, order, max_norm):
    while True:
        k = order.element(rng.randint(-12, 12), rng.randint(-4, 4))
        if 0 < k.norm() <= max_norm:
            return k


def test_mult_matrix_scalar_two(order_m8):
    lat = Lattice(1.0, 1j * SQRT2)
    m = mult_matrix(order_m8.element(2), lat)
    assert (m.a11, m.a12, m.a21, m.a22) == (2, 0, 0, 2)
    assert m.det == 4


def test_mult_matrix_one_plus_sqrt_m2(order_m8):
    # k = 1 + sqrt(-2) on basis (1, sqrt(-2)): columns (1,1) and (-2,1).
    lat = Lattice(1.0, 1j * SQRT2)
    k = order_m8.element(5, 1)  # embeds to 1 + i*sqrt(2)
    assert abs(k.embed() - (1 + 1j * SQRT2)) < 1e-12
    m = mult_matrix(k, lat)
    assert (m.a11, m.a12, m.a21, m.a22) == (1, -2, 1, 1)
    assert m.det == 3 == k.norm()


def test_mult_matrix_gaussian_unit(order_gauss):
    lat = Lattice(1.0, 1j)
    i_unit = order_gauss.element(2, 1)  # embeds to i
    assert abs(i_unit.embed() - 1j) < 1e-12
    assert mult_matrix(i_unit, lat).det == 1 == i_unit.norm()


def test_mult_matrix_rejects_non_multiplier(order_m7):
    lat = Lattice(1.0, 1j)  # Z[i]: theta of Q(sqrt(-7)) does not act
    with pytest.raises(NotAMultiplierError):
        mult_matrix(order_m7.theta(), lat)


def test_mult_matrix_large_multiplier(order_m8):
    # Coordinates ~1e10 are beyond a float solve for k's own columns.
    k = order_m8.element(10**10 + 7, 3333333333)
    m = mult_matrix(k, Lattice.from_order(order_m8))
    assert m.det == k.norm()


def float_solve_reference(k, lattice):
    """Matrix of k recovered column by column from the real 2x2 system, rounded."""
    kc, w1, w2, a = k.embed(), lattice.omega1, lattice.omega2, lattice.area()
    cols = []
    for wj in (w1, w2):
        target = kc * wj
        x = -(target * w2.conjugate()).imag / a
        y = (target * w1.conjugate()).imag / a
        assert abs(x - round(x)) < 1e-6 and abs(y - round(y)) < 1e-6
        cols.append((round(x), round(y)))
    return cols[0][0], cols[1][0], cols[0][1], cols[1][1]


@pytest.mark.parametrize("dk,f", [(-8, 1), (-7, 1), (-11, 1), (-4, 3), (-3, 2), (-20, 1), (-15, 2), (-8, 3)])
def test_mult_matrix_matches_float_solve_reference(dk, f):
    order = QuadOrder(dk, f)
    theta = order.theta_embedding()
    c = complex(1.3, 0.7)
    bases = [(1.0, theta), (c, c * theta), (c * (2 + theta), c * (1 + theta))]
    rng = random.Random(1000 + dk * f)
    for w1, w2 in bases:
        lat = Lattice(w1, w2)
        for _ in range(40):
            k = random_nonzero(rng, order, 10**6)
            m = mult_matrix(k, lat)
            assert (m.a11, m.a12, m.a21, m.a22) == float_solve_reference(k, lat)


THETA_ORDERS = [(-3, 1), (-4, 1), (-7, 1), (-8, 1), (-15, 1), (-20, 1), (-8, 3), (-3, 7)]


@pytest.mark.parametrize("dk,f", THETA_ORDERS)
def test_theta_matrix_is_exact_on_order_lattices(dk, f, monkeypatch):
    order = QuadOrder(dk, f)
    lattice = Lattice.from_order(order)
    assert lattice.order == order

    def forbidden(self):
        raise AssertionError("the order lattice must not be solved in floats")

    monkeypatch.setattr(Lattice, "area", forbidden)
    exact = _theta_matrix(order, lattice)
    monkeypatch.undo()
    assert exact == MultMatrix(0, -order.theta_norm, 1, order.theta_trace)
    # The same basis without the record, and a scaled copy, take the float solve.
    c = complex(1.3, 0.7)
    for other in (Lattice(1.0, order.theta_embedding()), lattice.scaled(c), Lattice(c, c * order.theta_embedding())):
        assert other.order is None
        assert _theta_matrix(order, other) == exact
    # The record names one order: theta of O_f acting on the maximal order's lattice is solved in floats.
    if f > 1:
        maximal = Lattice.from_order(QuadOrder(dk))
        m = _theta_matrix(order, maximal)
        assert (m.a11, m.a12, m.a21, m.a22) == float_solve_reference(order.theta(), maximal)


def test_mult_matrix_rejects_zero(order_m8):
    lat = Lattice(1.0, 1j * SQRT2)
    with pytest.raises(ZeroDivisorError):
        mult_matrix(order_m8.zero(), lat)


def test_coset_reps_gaussian_two(order_gauss):
    lat = Lattice(1.0, 1j)
    reps = CosetSystem(order_gauss.element(2), lat).reps()
    assert sorted((round(z.real), round(z.imag)) for z in reps) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_coset_reps_index_three(order_m8):
    lat = Lattice(1.0, 1j * SQRT2)
    system = CosetSystem(order_m8.element(5, 1), lat)
    assert system.size == 3
    coords = system.coords()
    for i in range(3):
        for j in range(i + 1, 3):
            delta = (int(coords[i, 0] - coords[j, 0]), int(coords[i, 1] - coords[j, 1]))
            assert system.torsion_key(*delta) != (0, 0)


def test_coset_reps_zero_error(order_m8):
    lat = Lattice(1.0, 1j * SQRT2)
    with pytest.raises(ZeroDivisorError):
        CosetSystem(order_m8.zero(), lat).reps()


@pytest.mark.parametrize("dk,f", [(-8, 1), (-7, 1), (-4, 3)])
def test_coset_count_and_structure_random(dk, f):
    order = QuadOrder(dk, f)
    lat = Lattice.from_order(order)
    rng = random.Random(160 + dk * f)
    for _ in range(50):
        k = random_nonzero(rng, order, 200)
        system = CosetSystem(k, lat)
        assert system.size == k.norm()
        assert len(system.reps()) == k.norm()
        # Spot-check inequivalence on sampled pairs.
        coords = system.coords()
        n = len(coords)
        for _ in range(min(40, n * (n - 1) // 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            delta = (int(coords[i, 0] - coords[j, 0]), int(coords[i, 1] - coords[j, 1]))
            assert system.torsion_key(*delta) != (0, 0)


def test_coset_reduction_completeness(order_m8):
    lat = Lattice.from_order(order_m8)
    rng = random.Random(17)
    for _ in range(20):
        k = random_nonzero(rng, order_m8, 150)
        system = CosetSystem(k, lat)
        for _ in range(min(k.norm(), 30)):
            pt = (rng.randint(-100, 100), rng.randint(-100, 100))
            a, b = system.reduce_coords(pt)
            assert 0 <= a < system.h11 and 0 <= b < system.h22
            assert system.torsion_key(pt[0] - a, pt[1] - b) == (0, 0)
            # idempotent
            assert system.reduce_coords((a, b)) == (a, b)


@pytest.mark.parametrize("dk,f", [(-8, 1), (-7, 1), (-4, 3)])
def test_coset_arithmetic_on_arrays_matches_ints(dk, f):
    order = QuadOrder(dk, f)
    lat = Lattice.from_order(order)
    rng = np.random.default_rng(18)
    for k in (order.element(7, 2), order.element(2), order.element(-31, 5)):
        system = CosetSystem(k, lat)
        pts = rng.integers(-10**6, 10**6, size=(50, 2))
        keys = system.torsion_key(pts[:, 0], pts[:, 1])
        boxed = system.reduce_coords((pts[:, 0], pts[:, 1]))
        for i, (x, y) in enumerate(pts.tolist()):
            assert (int(keys[0][i]), int(keys[1][i])) == system.torsion_key(x, y)
            assert (int(boxed[0][i]), int(boxed[1][i])) == system.reduce_coords((x, y))
            # Points share a torsion key exactly when they share a coset.
            assert system.torsion_key(*system.reduce_coords((x, y))) == system.torsion_key(x, y)


def test_coset_reps_column_major_order(order_m8):
    # Index b*h11 + a, the layout of the E1 table.
    lat = Lattice.from_order(order_m8)
    system = CosetSystem(order_m8.element(2), lat)
    coords = system.coords()
    assert [tuple(map(int, c)) for c in coords] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    reps = system.reps()
    assert np.array_equal(reps, coords[:, 0] * lat.omega1 + coords[:, 1] * lat.omega2)


HALF_ORDERS = [(-8, 1), (-7, 1), (-20, 1), (-23, 1), (-163, 1), (-4, 1), (-3, 1), (-8, 3), (-3, 7), (-4, 5)]


def test_half_pairs_each_mu_with_minus_mu():
    # half keeps mu = a*omega1 + b*omega2 at idx = b*h11 + a and -mu at neg, one pair each,
    # in increasing idx; the rest of the box is the 2-torsion (2*mu in kL), 1, 2 or 4 points.
    rng = random.Random(26)
    seen = set()
    for dk, f in HALF_ORDERS:
        order = QuadOrder(dk, f)
        lat = Lattice.from_order(order)
        small = [order.element(u, v) for u in range(-5, 6) for v in range(-2, 3)]
        ks = [k for k in small if 0 < k.norm() <= 2000] + [random_nonzero(rng, order, 5000) for _ in range(4)]
        for k in ks:
            system = CosetSystem(k, lat)
            idx, neg, a, b = system.half
            n, h11 = system.size, system.h11
            assert idx.dtype == neg.dtype == a.dtype == b.dtype == np.int64
            assert np.array_equal(b * h11 + a, idx) and np.all((0 <= a) & (a < h11))
            assert np.all(np.diff(idx) > 0) and np.all(idx < neg)
            nb, na = np.divmod(neg, h11)
            assert np.array_equal(system.index((-na, -nb)), idx)
            fixed = [i for i in range(n) if system.torsion_key(2 * (i % h11), 2 * (i // h11)) == (0, 0)]
            assert len(fixed) in (1, 2, 4)
            assert np.array_equal(np.sort(np.concatenate([idx, neg, fixed])), np.arange(n))
            # index gives the same result on ints as on arrays.
            negated = [(int(x), int(y)) for x, y in zip(-a[:20], -b[:20])]
            assert [system.index(p) for p in negated] == neg[:20].tolist()
            pts = negated + [(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)) for _ in range(20)]
            xs, ys = (np.array(c, dtype=np.int64) for c in zip(*pts))
            assert [system.index(p) for p in pts] == system.index((xs, ys)).tolist()
            seen.add((n if n in (1, 2, 4) else None, system.h22 % 2, system.h12 > 0, len(fixed)))
    assert {s[0] for s in seen} == {1, 2, 4, None}
    assert {s[1] for s in seen} == {0, 1} and {s[2] for s in seen} == {False, True}
    assert {s[3] for s in seen} == {1, 2, 4}


def test_colon_lattice_of_a_principal_ideal_is_the_scaled_lattice():
    # B = (g, N(g)) = g*(1, conj(g)) = g*O, so B^-1 L = L/g: area A/N(g) and E2(0) times g^2.
    order = QuadOrder(-20)
    c = 1.3 + 0.7j
    for lat in (Lattice.from_order(order), Lattice(c, c * order.theta_embedding())):
        for u, v in ((3, 1), (-2, 1), (7, 0), (11, 1)):
            g = order.element(u, v)
            colon = _colon_lattice(g, g.norm(), lat)
            assert abs(colon.area() * g.norm() - lat.area()) <= 1e-12 * lat.area()
            expected = g.embed() ** 2 * lat.e2_zero()
            assert abs(colon.e2_zero() - expected) <= 1e-12 * abs(expected)


def test_colon_lattice_kappa_of_the_prime_over_two():
    # kappa = E2(0; B^-1 O)/E2(0; O) for B = (1 + sqrt(-5), 2) on d = -20 is 7 - 3*sqrt(5).
    order = QuadOrder(-20)
    lat = Lattice.from_order(order)
    colon = _colon_lattice(order.element(11, 1), 2, lat)
    assert abs(colon.area() * 2 - lat.area()) <= 1e-12 * lat.area()
    kappa = colon.e2_zero() / lat.e2_zero()
    assert abs(kappa - (7 - 3 * math.sqrt(5.0))) <= 1e-14


def scan_colon_hnf(m, t):
    """The column HNF (h11, h12, h22) of {(x, z) : m*(x, z) = 0 (mod t)} as _colon_lattice read it
    before, off the points with 0 <= x, z <= t in (z, x) order, kept as a reference: h11 is the
    least x > 0 of row z = 0, and (h12, h22) the first point of a row z > 0, scanned row by row."""
    h11 = next(x for x in range(1, t + 1) if (m.a11 * x) % t == 0 == (m.a21 * x) % t)
    xs = np.arange(t + 1, dtype=np.int64)
    for z in range(1, t + 1):
        row = xs[((m.a11 * xs + m.a12 * z) % t == 0) & ((m.a21 * xs + m.a22 * z) % t == 0)]
        if row.size:
            return h11, int(row[0]), z


def assert_colon_lattice_is_the_scan(r, t, lattice):
    """_colon_lattice(r, t, lattice) is the lattice of the scan's HNF, bit for bit."""
    h11, h12, h22 = scan_colon_hnf(cosets.mult_matrix(r, lattice), t)
    colon = _colon_lattice(r, t, lattice)
    assert colon.omega1 == h11 * lattice.omega1 / t
    assert colon.omega2 == (h12 * lattice.omega1 + h22 * lattice.omega2) / t


def test_colon_lattice_hnf_matches_the_scan_on_random_matrices(monkeypatch):
    # The HNF read off m's gcds, Smith invariants and one congruence is the scan's, on integer
    # matrices of either sign of det, with t from 1 to 60.
    lat = Lattice(1.0, 1j)
    rng = random.Random(54)
    seen = set()
    for _ in range(1500):
        m = MultMatrix(*(rng.randint(-60, 60) for _ in range(4)))
        if m.det == 0:
            continue
        t = rng.randint(1, 60)
        monkeypatch.setattr(cosets, "mult_matrix", lambda r, lattice: m)
        assert_colon_lattice_is_the_scan(None, t, lat)
        h11, h12, h22 = scan_colon_hnf(m, t)
        seen.add((h11 < t, h12 > 0, 1 < h22 < t, m.det < 0))
    assert {len({s[i] for s in seen}) for i in range(4)} == {2}
