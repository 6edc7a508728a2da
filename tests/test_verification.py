import cmath
import math
import random

import numpy as np
import pytest

from elliptic_dedekind import CosetSystem, Lattice, QuadOrder, SumContext, dedekind, oracles, verification
from elliptic_dedekind.dedekind import _d_sum_table, _d_sum_tables, d_sum, gen_sl2_triple, three_term_closed_form
from elliptic_dedekind.errors import GenerationError, PreconditionError
from elliptic_dedekind.oracles import e1_ewald, e1_ewald_many
from elliptic_dedekind.verification import (
    _check,
    _colliding_pairs,
    _random_elem,
    run_cosets_suite,
    run_e1_suite,
    run_lemma_suite,
    run_phi_suite,
    run_suite,
)

# The orders each batched path is checked on against its per-item form.
BATCH_ORDERS = [(-8, 1), (-20, 1), (-8, 3), (-3, 7)]


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


def test_phi_suite_walks_products_of_any_size(monkeypatch):
    # Every drawn pair is checked: on d = -163 some products have an entry of norm above 20,000.
    norms = []
    phi = verification.phi

    def recording(w, ctx):
        norms.append(max(entry.norm() for entry in (w.a, w.b, w.c, w.d)))
        return phi(w, ctx)

    monkeypatch.setattr(verification, "phi", recording)
    checks = run_phi_suite(QuadOrder(-163), seed=12345)
    assert len(norms) == 150 and max(norms) > 20_000
    assert len(checks) == 50 and all(c.passed for c in checks)


@pytest.mark.parametrize("dk", [-4, -3])
def test_all_suites_pass_where_e2_vanishes(dk):
    # E2(0) = 0 on Z[i] and Z[rho]; e2-homogeneity is relative to 1/area there.
    checks = run_suite("all", QuadOrder(dk), seed=12345)
    assert [c.name for c in checks if not c.passed] == []
    # The lemma suite compares the walk with the table there too; only the density steps are skipped.
    assert sum(c.name.startswith("lemma-euclid-") for c in checks) == 20
    assert not any(c.name == "euclid-density-steps" for c in checks)
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
    groups, total = [], 0
    for u, v in ((3, 1), (7, 2), (-5, 3), (2, 0), (1, 0)):
        system = CosetSystem(order.element(u, v), lattice)
        coords = system.coords()
        assert _colliding_pairs([(system, coords)]) == pair_loop_collisions(system, coords) == 0
        # Inject representatives shifted by elements of kL (columns of M) and
        # arbitrary points, which collide with the box and with each other.
        m = system.mult
        shifts = rng.integers(-3, 4, size=(6, 2))
        picks = coords[rng.integers(0, len(coords), size=6)]
        moved = picks + shifts[:, :1] * [m.a11, m.a21] + shifts[:, 1:] * [m.a12, m.a22]
        noisy = np.concatenate([coords, moved, moved[:2], rng.integers(-20, 20, size=(5, 2))])
        expected = pair_loop_collisions(system, noisy)
        assert expected >= 8
        assert _colliding_pairs([(system, noisy)]) == expected
        groups.append((system, noisy))
        total += expected
    # Several moduli at once: each gets its own key range, so their origins,
    # whose keys s*det + t are all 0 before the offset, do not collide.
    assert _colliding_pairs(groups) == total


def lemma_triples(ctx, seed):
    """The lemma suite's triples: seeds seed + 1, seed + 2, ..., skipping failures, 20 at most."""
    triples = []
    for attempt in range(1, 801):
        try:
            triples.append(gen_sl2_triple(seed + attempt, ctx))
        except GenerationError:
            continue
        if len(triples) == 20:
            break
    return triples


@pytest.mark.parametrize("dk, f", BATCH_ORDERS)
def test_lemma_references_from_one_fill_match_single_pairs(dk, f, monkeypatch):
    ctx = SumContext(QuadOrder(dk, f))
    pairs = [(m3.a, m3.c) for _, _, m3 in lemma_triples(ctx, 12345)]
    assert len(pairs) == 20
    # A repeated pair and an h = 0 pair ride along.
    pairs += [pairs[0], (ctx.order.zero(), pairs[1][1])]
    fills = []
    original = dedekind._e1_tables

    def recording(systems):
        fills.append(len(systems))
        return original(systems)

    sums = []
    table_sum = dedekind._table_sum

    def recording_sum(h, system, table, ctx):
        sums.append((h, system.k))
        return table_sum(h, system, table, ctx)

    monkeypatch.setattr(dedekind, "_e1_tables", recording)
    monkeypatch.setattr(dedekind, "_table_sum", recording_sum)
    values = _d_sum_tables(pairs, ctx)
    assert fills == [len({k for h, k in pairs if not h.is_zero()})]
    # One table sum per distinct pair with h != 0, in first-seen order; one value per input pair.
    assert sums == list(dict.fromkeys((h, k) for h, k in pairs if not h.is_zero()))
    assert len(values) == len(pairs) and values[-2] == values[0]
    assert values == [_d_sum_table(h, k, ctx) for h, k in pairs]
    assert values[-1] == 0


def test_lemma_references_refuse_a_large_modulus_before_any_fill(ctx_m8, monkeypatch):
    def forbidden(systems):
        raise AssertionError("no table may be built")

    monkeypatch.setattr(dedekind, "_e1_tables", forbidden)
    one = ctx_m8.order.one()
    with pytest.raises(PreconditionError):
        _d_sum_tables([(one, ctx_m8.order.element(3, 1)), (one, ctx_m8.order.element(46341))], ctx_m8)


def e1_ewald_one_point(z, lattice):
    """E1(z) by Ewald's theta split with its own enumeration of both halves, point by point."""
    w1, w2, a = lattice.omega1, lattice.omega2, lattice.area()
    width = math.pi / a
    direct = 0j
    for w in oracles._points_in_disk(w1, w2, a, oracles._EWALD_CUTOFF / width, -z):
        v = z + w
        if v:
            direct += math.exp(-width * abs(v) ** 2) / v
    terms = oracles._dual_terms(lattice)
    dual = sum((cmath.exp(2j * math.pi * (z * xi.conjugate()).real) * g / xi for xi, g in terms), 0j)
    return direct - 1j / a * dual


@pytest.mark.parametrize("dk, f", BATCH_ORDERS)
def test_e1_ewald_many_matches_single_calls_at_the_suites_points(dk, f, monkeypatch):
    lattice = Lattice.from_order(QuadOrder(dk, f))
    seen = []
    original = verification.e1_ewald_many

    def recording(points, lat):
        seen.append((list(points), lat))
        return original(points, lat)

    monkeypatch.setattr(verification, "e1_ewald_many", recording)
    run_e1_suite(lattice.order, seed=12345)
    ((points, lat),) = seen
    assert len(points) == 30 and lat.omega2 == lattice.omega2
    sqrt5 = Lattice(1.0, 1j * math.sqrt(5.0))
    for lat in (lattice, sqrt5):
        values = e1_ewald_many(points, lat)
        assert values == [e1_ewald(z, lat) for z in points]
        assert values == [e1_ewald_one_point(complex(z), lat) for z in points]


def cosets_per_point_loop(order, seed):
    """The cosets suite with one reduction and one np.unique per modulus, point by point."""
    rng = random.Random(seed)
    lattice = Lattice.from_order(order)
    count_fail = inequiv_fail = complete_fail = 0
    for _ in range(50):
        k = _random_elem(rng, order)
        system = CosetSystem(k, lattice)
        coords = system.coords()
        if len(coords) != k.norm():
            count_fail += 1
        s, t = system.torsion_key(coords[:, 0], coords[:, 1])
        _, sizes = np.unique(s * system.size + t, return_counts=True)
        inequiv_fail += int(np.sum(sizes * (sizes - 1) // 2))
        for _ in range(min(k.norm(), 40)):
            pt = (rng.randint(-100, 100), rng.randint(-100, 100))
            red = system.reduce_coords(pt)
            in_box = 0 <= red[0] < system.h11 and 0 <= red[1] < system.h22
            if not in_box or system.torsion_key(pt[0] - red[0], pt[1] - red[1]) != (0, 0):
                complete_fail += 1
    tag = f"d{order.d_k}f{order.f}"
    return [
        _check(f"coset-count-{tag}", float(count_fail), 0.0),
        _check(f"coset-inequivalence-{tag}", float(inequiv_fail), 0.0),
        _check(f"coset-completeness-{tag}", float(complete_fail), 0.0),
    ]


@pytest.mark.parametrize("seed", [12345, 7])
@pytest.mark.parametrize("dk, f", BATCH_ORDERS)
def test_cosets_suite_matches_per_point_loop(dk, f, seed):
    order = QuadOrder(dk, f)
    assert run_cosets_suite(order, seed) == cosets_per_point_loop(order, seed)


def corrupt_systems(monkeypatch, corrupt):
    """Let every CosetSystem built from here on pass through corrupt(system) after its own __init__."""
    init = CosetSystem.__init__

    def corrupted_init(self, *args):
        init(self, *args)
        corrupt(self)

    monkeypatch.setattr(CosetSystem, "__init__", corrupted_init)


def cosets_residuals(order):
    """{"count": ..., "inequivalence": ..., "completeness": ...} of the cosets suite at seed 12345."""
    return {c.name.split("-")[1]: c.residual for c in run_cosets_suite(order, seed=12345)}


@pytest.mark.parametrize("dk, f", BATCH_ORDERS)
def test_cosets_suite_sees_a_wrong_hnf_entry(dk, f, monkeypatch):
    # A wrong h12 reduces points into the box, but not into their own cosets.
    order = QuadOrder(dk, f)
    assert cosets_residuals(order) == {"count": 0, "inequivalence": 0, "completeness": 0}

    def shift_h12(system):
        system.h12 = (system.h12 + 1) % system.h11

    corrupt_systems(monkeypatch, shift_h12)
    assert cosets_residuals(order)["completeness"] > 0


@pytest.mark.parametrize("dk, f", BATCH_ORDERS)
def test_cosets_suite_sees_a_wrong_adj_entry(dk, f, monkeypatch):
    # A wrong adj(M) keys members of kL off zero, or gives two box points one key.
    order = QuadOrder(dk, f)

    def shift_adj(system):
        s11, *rest = system.adj
        system.adj = ((s11 + 1) % system.size, *rest)

    corrupt_systems(monkeypatch, shift_adj)
    residuals = cosets_residuals(order)
    assert residuals["completeness"] > 0 or residuals["inequivalence"] > 0


def test_suites_keep_no_cache_between_calls(monkeypatch):
    order = QuadOrder(-8)
    enumerations, fills = [], []
    dual_terms, e1_tables = oracles._dual_terms, dedekind._e1_tables

    def counting_dual_terms(lattice):
        enumerations.append(lattice)
        return dual_terms(lattice)

    def counting_fill(systems):
        fills.append(len(systems))
        return e1_tables(systems)

    monkeypatch.setattr(oracles, "_dual_terms", counting_dual_terms)
    monkeypatch.setattr(dedekind, "_e1_tables", counting_fill)
    run_e1_suite(order, seed=12345)
    once = len(enumerations)
    run_e1_suite(order, seed=12345)
    assert len(enumerations) == 2 * once
    # zeta-direct (e1 and E2), e1-ewald and the three Hecke checks: one enumeration each.
    assert once == 6
    # Every walk on d = -8 is exact, so the reference tables make the only fill.
    run_lemma_suite(order, seed=12345)
    assert len(fills) == 1
    run_lemma_suite(order, seed=12345)
    assert fills == 2 * fills[:1]


def lemma_loop_reference(ctx, seed, generate):
    """The lemma suite's triple records as one loop: generate, sum, record, triple by triple."""
    results, produced, attempt = [], 0, 0
    while produced < 20 and attempt < 800:
        attempt += 1
        try:
            m1, _, m3 = generate(seed + attempt, ctx)
        except GenerationError:
            continue
        rhs = three_term_closed_form(m1.c, m3.c, ctx)
        table = _d_sum_table(m3.a, m3.c, ctx)
        info = f"norm(c3)={m3.c.norm()}"
        results.append(_check(f"lemma-triple-{produced:02d}", abs(table - rhs) / (1.0 + abs(rhs)), 1e-6, info))
        residual = abs(d_sum(m3.a, m3.c, ctx) - table) / (1.0 + abs(table))
        results.append(_check(f"lemma-euclid-{produced:02d}", residual, 1e-12, info))
        produced += 1
    if produced < 20:
        results.append(_check("lemma-generation", float(20 - produced), 0.0, info="triples missing"))
    return results


@pytest.mark.parametrize(
    "failing, produced",
    [
        # A few attempts fail: the 20 triples still appear, from later seeds.
        (lambda attempt: attempt in (1, 2, 5, 11), 20),
        # Only every 50th attempt may succeed: at most 16 of 800 attempts.
        (lambda attempt: attempt % 50 != 0, None),
    ],
)
def test_lemma_suite_shortfall(failing, produced, monkeypatch):
    seed = 12345
    ctx = SumContext(QuadOrder(-8))
    attempts = []

    def generate(s, c):
        attempts.append(s - seed)
        if failing(s - seed):
            raise GenerationError(f"no triple for seed={s}")
        return gen_sl2_triple(s, c)

    monkeypatch.setattr(verification, "gen_sl2_triple", generate)
    results = run_lemma_suite(ctx.order, seed)
    expected = lemma_loop_reference(ctx, seed, generate)
    assert results[:-1] == expected
    assert results[-1].name == "euclid-density-steps" and results[-1].passed
    made = sum(r.name.startswith("lemma-triple-") for r in results)
    if produced is not None:
        assert made == produced
        assert not any(r.name == "lemma-generation" for r in results)
    else:
        assert made < 20 and attempts[:800] == list(range(1, 801))
        (generation,) = [r for r in results if r.name == "lemma-generation"]
        assert generation.residual == 20 - made and not generation.passed


# --- Random inputs: dedekind._randint draws what random.Random.randint draws -----------

# The (lo, hi) of every integer draw of the suites and of gen_sl2_triple.
SUITE_RANGES = [(-4, 4), (-2, 2), (-12, 12), (-3, 3), (0, 996), (-100, 100)]
# Every width from 1 to 300, and 2**k - 1, 2**k, 2**k + 1 up to widths that take several 32-bit words a draw.
WIDTHS = sorted(set(range(1, 301)) | {2**k + s for k in range(1, 100) for s in (-1, 0, 1)})


def test_randint_equals_randint_and_leaves_the_same_state():
    ranges = SUITE_RANGES + [(lo, lo + width - 1) for width in WIDTHS for lo in (-(width // 2), 0, 7)]
    for i, (lo, hi) in enumerate(ranges):
        ours, theirs = random.Random(i), random.Random(i)
        for n in range(1, 42):
            assert dedekind._randint(ours, lo, hi) == theirs.randint(lo, hi), (lo, hi, n)
            if n in (1, 2, 41):
                assert ours.getstate() == theirs.getstate(), (lo, hi, n)


def test_randint_refuses_an_empty_range():
    with pytest.raises(ValueError):
        dedekind._randint(random.Random(1), 1, 0)


def test_random_points_equal_uniform_draws():
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        expected = np.array([complex(theirs.uniform(-1.5, 1.5), theirs.uniform(-1.5, 1.5)) for _ in range(100)])
        points = verification._random_points(ours)
        assert points.dtype == expected.dtype and points.tobytes() == expected.tobytes()
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("dk, f", [(-8, 1), (-20, 1), (-8, 3)])
def test_suites_keep_their_records_with_randint_draws(dk, f, monkeypatch):
    order = QuadOrder(dk, f)
    ours = run_suite("all", order, seed=12345)
    ranges = set()

    def stand_in(rng, lo, hi):
        ranges.add((lo, hi))
        return rng.randint(lo, hi)

    for module in (dedekind, verification):
        monkeypatch.setattr(module, "_randint", stand_in)
    assert run_suite("all", order, seed=12345) == ours
    assert ranges == set(SUITE_RANGES)
