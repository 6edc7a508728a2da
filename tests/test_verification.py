import numpy as np
import pytest

from elliptic_dedekind import CosetSystem, Lattice, QuadOrder
from elliptic_dedekind.verification import _colliding_pairs, run_cosets_suite, run_e1_suite, run_phi_suite, run_suite


def in_kl(m, dx, dy):
    """dx*omega1 + dy*omega2 lies in kL when M^-1 (dx, dy) = adj(M) (dx, dy)/det is integral."""
    return (m.a22 * dx - m.a12 * dy) % m.det == 0 and (m.a11 * dy - m.a21 * dx) % m.det == 0


def pair_loop_collisions(system, coords):
    """Reference count: every pair whose difference lies in kL."""
    count = 0
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            if in_kl(system.mult, int(coords[i, 0] - coords[j, 0]), int(coords[i, 1] - coords[j, 1])):
                count += 1
    return count


@pytest.mark.parametrize("dk, seed", [(-11, 12345), (-8, 2)])
def test_phi_suite_generates_words_on_hard_seeds(dk, seed):
    checks = run_phi_suite(QuadOrder(dk), seed=seed)
    assert len(checks) == 50
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("dk", [-4, -3])
def test_all_suites_pass_where_e2_vanishes(dk):
    # E2(0) = 0 on Z[i] and Z[rho]; e2-homogeneity is relative to 1/area there.
    checks = run_suite("all", QuadOrder(dk), seed=12345)
    assert [c.name for c in checks if not c.passed] == []
    (homogeneity,) = [c for c in checks if c.name == "e2-homogeneity"]
    assert homogeneity.residual < 1e-14


@pytest.mark.parametrize("dk, f", [(-15, 1), (-20, 1), (-23, 1), (-43, 1), (-8, 3), (-4, 3)])
def test_all_suites_pass_beyond_euclidean_orders(dk, f):
    # The lemma and phi suites complete their matrices without a Euclidean algorithm.
    checks = run_suite("all", QuadOrder(dk, f), seed=12345)
    assert [c.name for c in checks if not c.passed] == []


@pytest.mark.parametrize("dk, f", [(-8, 1), (-7, 1), (-4, 3), (-8, 3), (-3, 7), (-20, 1), (-163, 1)])
def test_cosets_suite_checks_the_order_it_is_given(dk, f):
    checks = run_cosets_suite(QuadOrder(dk, f), seed=12345)
    assert [c.name for c in checks] == [
        f"coset-{kind}-d{dk}f{f}" for kind in ("count", "inequivalence", "completeness")
    ]
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("dk, f", [(-8, 1), (-4, 1), (-7, 11), (-163, 1)])
def test_e1_suite_records_and_hecke_tolerance(dk, f):
    checks = run_e1_suite(QuadOrder(dk, f), seed=12345)
    assert [c.name for c in checks] == [
        "e1-periodicity",
        "e1-oddness",
        "e1-half-period-zero",
        "legendre-relation",
        "quasi-period-omega1",
        "quasi-period-omega2",
        "e2-homogeneity",
        "zeta-direct-crosscheck",
        "e1-ewald",
        "e2-hecke-sqrt2",
        "e2-hecke-sqrt5",
        f"e2-hecke-d{dk}f{f}",
        "j-gauss-1728",
        "j-eisenstein-0",
        "j-reality-symmetric-bases",
    ]
    assert all(c.passed for c in checks)
    assert {c.tolerance for c in checks if c.name.startswith("e2-hecke-")} == {1e-12}
    # Both Ewald oracles stay ten times inside their 1e-12.
    ewald = [c for c in checks if c.name in ("zeta-direct-crosscheck", "e1-ewald")]
    assert [c.tolerance for c in ewald] == [1e-12, 1e-12]
    assert all(c.residual <= c.tolerance / 10 for c in ewald)


@pytest.mark.parametrize("dk, f", [(-8, 1), (-7, 1), (-4, 3)])
def test_colliding_pairs_matches_pair_loop(dk, f):
    order = QuadOrder(dk, f)
    lattice = Lattice.from_order(order)
    rng = np.random.default_rng(7)
    for u, v in ((3, 1), (7, 2), (-5, 3), (2, 0), (1, 0)):
        system = CosetSystem(order.element(u, v), lattice)
        coords = system.coords()
        assert _colliding_pairs(system, coords) == pair_loop_collisions(system, coords) == 0
        # Inject representatives shifted by elements of kL (columns of M) and
        # arbitrary points, which collide with the box and with each other.
        m = system.mult
        shifts = rng.integers(-3, 4, size=(6, 2))
        picks = coords[rng.integers(0, len(coords), size=6)]
        moved = picks + shifts[:, :1] * [m.a11, m.a21] + shifts[:, 1:] * [m.a12, m.a22]
        noisy = np.concatenate([coords, moved, moved[:2], rng.integers(-20, 20, size=(5, 2))])
        expected = pair_loop_collisions(system, noisy)
        assert expected >= 8
        assert _colliding_pairs(system, noisy) == expected
