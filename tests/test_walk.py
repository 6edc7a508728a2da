"""The pseudo-Euclidean walk that d_sum takes on every pair with h != 0.

It is checked against the E1 table on many orders and lattices, on pairs whose
ideal (h, k) is principal and on pairs whose walk stops at a cusp, wherever
that cusp is, for its exact symmetries and step counts, and for its exact
values.
"""

import cmath
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from elliptic_dedekind import (
    ExcludedRingError,
    Lattice,
    Mat2,
    OrderElem,
    PreconditionError,
    QuadOrder,
    SearchLimitError,
    SumContext,
    Target,
    approximate,
    d_norm,
    d_norm_exact,
    d_sum,
    normalize_value,
)
from elliptic_dedekind import dedekind, sl2
from elliptic_dedekind.cli import main
from elliptic_dedekind.cosets import CosetSystem
from elliptic_dedekind.dedekind import _d_sum_table, _d_sum_tables, _walk_value
from elliptic_dedekind.ring import _generates, _is_fundamental, _mul, _norm, _sub, _times_conj
from elliptic_dedekind.sl2 import _complete_row, _gamma_bound, _gammas, _generates_order, _key_pair, _walk
from test_cosets import assert_colon_lattice_is_the_scan
from test_fold import merge_conj, three_symmetry_counts
from test_sl2 import ref_sign

# Class-number-one orders with E2(0) != 0 (maximal and f > 1), orders of
# class number 2 and 4, and two lattices other than an order's own (1, theta):
# a scaled basis and the ideal class (2, 2, 3) of d = -20, whose j is real.
WALK_CONTEXTS = [
    (-7, 1, None),
    (-8, 1, None),
    (-11, 1, None),
    (-19, 1, None),
    (-43, 1, None),
    (-67, 1, None),
    (-163, 1, None),
    (-8, 3, None),
    (-4, 3, None),
    (-7, 2, None),
    (-3, 7, None),
    (-15, 1, None),
    (-20, 1, None),
    (-23, 1, None),
    (-24, 1, None),
    (-15, 1, "scaled"),
    (-20, 1, "form"),
]
EUCLIDEAN_DK = (-7, -8, -11)


# Bases of lattices other than an order's own: the ideal classes (2, 1 + sqrt(-5)) of
# d = -20, (2, (1 + sqrt(-15))/2) of d = -15 and (2, (-1 + sqrt(-23))/2) of d = -23, whose
# j is not real, and Z[i], on which Z[3i] acts.
LATTICES = {
    "form": (2, complex(-1.0, math.sqrt(5.0))),
    "form15": (2, complex(0.5, math.sqrt(15.0) / 2)),
    "form23": (2, complex(-0.5, math.sqrt(23.0) / 2)),
    "gauss": (1, 1j),
}


def make_ctx(dk, f, lattice):
    order = QuadOrder(dk, f)
    if lattice in LATTICES:
        return SumContext(order, Lattice(*LATTICES[lattice]))
    ctx = SumContext(order)
    return ctx.scaled(complex(1.3, 0.7)) if lattice == "scaled" else ctx


def unit_gcd_pair(rng, order, max_norm):
    """Random (h, k) with h != 0, (h, k) = O and N(k) <= max_norm, over a spread of sizes."""
    while True:
        bound = rng.choice((6, 40, 150))
        h = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        k = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if not h.is_zero() and 0 < k.norm() <= max_norm and _generates_order(h, k):
            return h, k


def cusp_pair(rng, order, max_norm):
    """Random (h, k) with h != 0 and N(k) <= max_norm whose walk stops at a cusp: (h, k) is not principal."""
    while True:
        bound = rng.choice((6, 40, 150))
        h = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        k = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if not h.is_zero() and 0 < k.norm() <= max_norm and _walk(h, k).cusp is not None:
            return h, k


def random_elem(rng, order, max_norm=50_000):
    while True:
        k = order.element(rng.randint(-150, 150), rng.randint(-150, 150))
        if 0 < k.norm() <= max_norm:
            return k


def walk_constants(monkeypatch, h, k):
    """(walk, constants) of _walk(h, k); constants are the int pairs (alpha, delta, gamma)
    of its extra steps with N(gamma) > 1, in walk order, recorded from sl2._extra_step."""
    with monkeypatch.context() as patch:
        steps = record_extra_steps(patch)
        walk = _walk(h, k)
    tr, nt = h.order.theta_trace, h.order.theta_norm
    constants = []
    for _, step in steps:
        # A walk that stops at a cusp ends on a step that found nothing.
        if step is not None and _norm(step[2], tr, nt) > 1:
            alpha, _, gamma, delta = step
            constants.append((alpha, delta, gamma))
    return walk, constants


def stop_key(monkeypatch, h, k):
    """(walk, (gamma, x, n)) of _walk(h, k): for a walk that stops at a cusp, the arguments of its
    last sl2._orbit_key call, the table of N(gamma) = n cosets its D_L(r, t) is keyed on; else None."""
    calls = []
    orbit_key = sl2._orbit_key

    def recording(gamma, x, y, n, tr):
        calls.append((gamma, x, n))
        return orbit_key(gamma, x, y, n, tr)

    with monkeypatch.context() as patch:
        patch.setattr(sl2, "_orbit_key", recording)
        walk = _walk(h, k)
    return walk, calls[-1] if walk.cusp else None


def record_table_sizes(monkeypatch):
    """Patch dedekind._e1_tables to record N(k) of each table it fills; returns that list."""
    sizes = []
    original = dedekind._e1_tables

    def recording(systems):
        sizes.extend(system.size for system in systems)
        return original(systems)

    monkeypatch.setattr(dedekind, "_e1_tables", recording)
    return sizes


@pytest.mark.parametrize("dk, f, lattice", WALK_CONTEXTS)
def test_walk_matches_table(dk, f, lattice, monkeypatch):
    ctx = make_ctx(dk, f, lattice)
    bound = _gamma_bound(ctx.order)
    rng = random.Random(41)
    with_constants = 0
    for _ in range(40):
        h, k = unit_gcd_pair(rng, ctx.order, 20_000)
        table_sizes = record_table_sizes(monkeypatch)
        value = d_sum(h, k, ctx)
        monkeypatch.undo()
        # Only the keys of the constants D_L(alpha, gamma) come from a table, at N(gamma).
        assert all(n <= bound for n in table_sizes)
        with_constants += bool(walk_constants(monkeypatch, h, k)[1])
        expected = _d_sum_table(h, k, ctx)
        assert abs(value - expected) <= 1e-12 * (1 + abs(expected))
    if f == 1 and dk in EUCLIDEAN_DK:
        assert with_constants == 0
    else:
        assert with_constants > 0


PRINCIPAL_GCD_ORDERS = [
    (-8, 1), (-7, 1), (-11, 1), (-8, 3), (-15, 1), (-20, 1), (-23, 1), (-163, 1), (-3, 7), (-4, 3), (-19, 1), (-43, 1),
]


@pytest.mark.parametrize("dk, f", PRINCIPAL_GCD_ORDERS)
def test_walk_serves_a_principal_gcd_bit_for_bit(dk, f, monkeypatch):
    # (g*h, g*k) takes the steps of (h, k), so D_L(g*h, g*k) = D_L(h, k) bit for bit,
    # with no table at N(g*k); the table agrees by E1's distribution relation.
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    rng = random.Random(48)
    checked = 0
    while checked < 6:
        h, k = unit_gcd_pair(rng, order, 2_000)
        g = order.element(rng.randint(-6, 6), rng.randint(-2, 2))
        if g.norm() <= 1 or (g * k).norm() > 60_000:
            continue
        checked += 1
        value = d_sum(h, k, ctx)
        table_sizes = record_table_sizes(monkeypatch)
        assert d_sum(g * h, g * k, ctx) == value
        monkeypatch.undo()
        assert all(n <= _gamma_bound(order) for n in table_sizes)
        expected = _d_sum_table(g * h, g * k, ctx)
        assert abs(value - expected) <= 1e-12 * (1 + abs(expected))


def test_non_principal_pair_goes_to_the_table(monkeypatch):
    # On d = -20, 11 + theta = 1 + sqrt(-5), and (1 + sqrt(-5), 10) is the prime over 2,
    # which is not principal: the walk stops at the cusp (1 + theta)/2, and d_sum fills no
    # table, as D_L(r, 2) = 0 folds away.  The N(k)-entry table agrees.
    ctx = SumContext(QuadOrder(-20))
    h, k = ctx.order.element(11, 1), ctx.order.element(10)
    assert not _generates_order(h, k)
    walk = _walk(h, k)
    r, t, _ = walk.cusp
    assert (r.u, r.v, t.u, t.v) == (1, 1, 2, 0) and walk.counts == ()
    sizes = record_table_sizes(monkeypatch)
    value = d_sum(h, k, ctx)
    monkeypatch.undo()
    assert sizes == []
    expected = _d_sum_table(h, k, ctx)
    assert abs(value - expected) <= 1e-12 * (1 + abs(expected))
    with pytest.raises(PreconditionError, match="c = 0"):
        d_norm_exact(h, k, ctx)


# Orders of class number > 1 and lattices other than O, where the walk of a
# non-principal pair stops at a cusp: the ideal classes of d = -20 and -15, a
# scaled and rotated d = -20, a class of d = -23 whose j is not real, and Z[3i]
# on Z[i], where E2(0) = 0.
CUSP_CONTEXTS = [
    (-20, 1, None),
    (-15, 1, None),
    (-23, 1, None),
    (-8, 3, None),
    (-4, 3, None),
    (-3, 7, None),
    (-20, 1, "form"),
    (-15, 1, "form15"),
    (-20, 1, "scaled"),
    (-23, 1, "form23"),
    (-4, 3, "gauss"),
]


@pytest.mark.parametrize("dk, f, lattice", CUSP_CONTEXTS)
def test_walk_matches_table_at_a_stop_cusp(dk, f, lattice, monkeypatch):
    # Only the constants and the cusp's D_L(r, t) come from a table, with t*t within the gamma bound.
    ctx = make_ctx(dk, f, lattice)
    bound = _gamma_bound(ctx.order)
    rng = random.Random(51)
    for _ in range(8):
        h, k = cusp_pair(rng, ctx.order, 100_000)
        table_sizes = record_table_sizes(monkeypatch)
        value = d_sum(h, k, ctx)
        monkeypatch.undo()
        assert all(n <= bound for n in table_sizes)
        expected = _d_sum_table(h, k, ctx)
        assert abs(value - expected) <= 1e-12 * (1 + abs(expected))


@pytest.mark.parametrize("dk, f", [(-20, 1), (-8, 3), (-3, 7)])
def test_the_cusp_law_holds_wherever_the_walk_stops(dk, f, monkeypatch):
    # With -1 as the only gamma, walks stop early, on principal pairs too, at cusps r/t with
    # t from 47 to 13813, most keyed on (a_n, c_n) as N(c_n) < t*t.  The law at every such
    # cusp still matches the E1 table: accepting a stop never costs correctness.  Each stop's
    # two colon lattices are those of the HNF the (t+1)^2 scan read.
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    rng = random.Random(53)
    checked, principal, stops, on_column = 0, 0, set(), 0
    while checked < 10:
        h, k = random_elem(rng, order), random_elem(rng, order)
        with monkeypatch.context() as patch:
            patch.setattr(sl2, "_gammas", lambda o: ((-1, 0),))
            walk, key = stop_key(patch, h, k)
            value = d_sum(h, k, ctx)
        if walk.cusp is not None:
            checked += 1
            principal += _generates_order(h, k)
            r, t, _ = walk.cusp
            stops.add(t.u)
            on_column += key[2] < t.u**2
            expected = _d_sum_table(h, k, ctx)
            assert abs(value - expected) <= 1e-12 * (1 + abs(expected))
            for b in (r, r.conjugate()):
                assert_colon_lattice_is_the_scan(b, t.u, ctx.lattice)
    assert len(stops) > 2 and principal > 0 and on_column > 0


# Stops whose t*t was above the gamma bound 8*|d|, which the walk refused as stuck:
# r/155 with N(c_n) = 310 on d = -1240, and r/233 with N(c_n) = 466 on d = -1860.
STOP_WITNESSES = [(-1240, (-48, -1), (52, 0), 155, 310), (-1860, (25, -1), (-42, 0), 233, 466)]


@pytest.mark.parametrize("dk, h, k, t, n", STOP_WITNESSES, ids=["d-1240", "d-1860"])
def test_a_stop_beyond_the_gamma_bound_keys_on_its_column(dk, h, k, t, n, monkeypatch, capsys):
    # D_L(r, t) = D_L(a_n, c_n), keyed on the listed one of +-c_n: a table of N(c_n) cosets in
    # place of t*t.  d_sum matches the E1 table at N(k), and the CLI prints it with exit 0.
    ctx = SumContext(QuadOrder(dk))
    order = ctx.order
    h, k = order.element(*h), order.element(*k)
    walk, (gamma, _, n_key) = stop_key(monkeypatch, h, k)
    assert walk.cusp[1].u == t and n_key == n == _norm(gamma, order.theta_trace, order.theta_norm) < t * t
    assert gamma[1] > 0
    sizes = record_table_sizes(monkeypatch)
    value = d_sum(h, k, ctx)
    monkeypatch.undo()
    assert n in sizes and t * t not in sizes
    expected = _d_sum_table(h, k, ctx)
    assert abs(value - expected) <= 1e-12 * (1 + abs(expected))
    argv = ["sum", "--dk", str(dk), "--h=%d,%d" % (h.u, h.v), "--k=%d,%d" % (k.u, k.v), "--format", "json"]
    assert main(argv) == 0
    d_norm_printed = json.loads(capsys.readouterr().out)["records"][0]["d_norm"]
    assert abs(d_norm_printed - normalize_value(expected, ctx)) <= 1e-12 * (1 + abs(d_norm_printed))


def test_a_stop_at_t_954_agrees_with_another_walk(monkeypatch):
    # On (-212, 3) this pair, N(k) ~ 3.6e20, stops at r/954 with N(c_n) = 1908.  Its D_L(r, t), a
    # table of 910,116 cosets, equals D_L(a_n, c_n), the table of 1908 the walk keys it on.  With
    # the non-unit gammas tried in reverse, the pair takes another walk, to a stop r/2, and the
    # values agree.
    ctx = SumContext(QuadOrder(-212, 3))
    order = ctx.order
    h, k = order.element(14340079, -73932835), order.element(19953539, 59214481)
    walk, (gamma, x, n) = stop_key(monkeypatch, h, k)
    r, t, _ = walk.cusp
    assert (t.u, n) == (954, 1908)
    by_t, by_column = _d_sum_tables([(r, t), _key_pair((gamma, x, x), order)], ctx)
    assert abs(by_t - by_column) <= 1e-12 * (1 + abs(by_t))
    value = d_sum(h, k, ctx)
    gammas = _gammas(order)
    monkeypatch.setattr(sl2, "_gammas", lambda o: gammas[:1] + gammas[:0:-1])
    other = _walk(h, k)
    monkeypatch.undo()
    assert other.cusp[1].u == 2 and other.counts != walk.counts
    assert abs(_walk_value(other, ctx) - value) <= 1e-12 * (1 + abs(value))


def test_a_stop_at_t_12501_keys_on_a_table_of_25002(monkeypatch, capsys):
    # On d = -100004 this pair, N(k) ~ 6.5e24, stops at r/12501 with N(c_n) = 25002: its D_L(r, t)
    # is keyed on (a_n, c_n), a table of 25,002 cosets in place of 156,275,001, and the CLI prints
    # the sum with exit 0, filling no table above the gamma bound.
    order = QuadOrder(-100004)
    h, k = order.element(-22411429, -92013531), order.element(-81149524, 51167348)
    walk, (_, _, n) = stop_key(monkeypatch, h, k)
    assert (walk.cusp[1].u, n) == (12501, 25002)
    sizes = record_table_sizes(monkeypatch)
    assert main(["sum", "--dk", "-100004", "--h=%d,%d" % (h.u, h.v), "--k=%d,%d" % (k.u, k.v), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"] == {"status": "ok"}
    assert 25002 in sizes and max(sizes) <= _gamma_bound(order)


def test_a_pair_with_integer_content_walks_as_its_primitive_part(monkeypatch, capsys):
    # The t = 12501 pair times 10**5 has N(c_n) = 10**10 * 25002 > t*t at its stop, so without its
    # content divided out the stop keyed on (r, t), 156,275,001 cosets, which the memory check refused.
    # It takes the primitive pair's walk and keys, and the CLI prints the primitive pair's d_norm.
    order = QuadOrder(-100004)
    h, k = order.element(-22411429, -92013531), order.element(-81149524, 51167348)
    gh, gk = h * 10**5, k * 10**5
    walk, key = stop_key(monkeypatch, gh, gk)
    assert (walk, key) == stop_key(monkeypatch, h, k) and (walk.cusp[1].u, key[2]) == (12501, 25002)
    argv = ["sum", "--dk", "-100004", "--h=%d,%d" % (gh.u, gh.v), "--k=%d,%d" % (gk.u, gk.v), "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["records"][0]["d_norm"] == -0.021774382754761852


@pytest.mark.parametrize("dk, h, k, t, n", STOP_WITNESSES, ids=["d-1240", "d-1860"])
def test_a_stop_keyed_on_its_column_keeps_its_key_under_integer_content(dk, h, k, t, n, monkeypatch):
    # The stop keys on (a_n, c_n), N(c_n) = n < t*t.  Times g with g*g*n > t*t, the pair's own c_n
    # would key it on (r, t); the walk divides g out and keeps the primitive key, walk and bits.
    ctx = SumContext(QuadOrder(dk))
    h, k = ctx.order.element(*h), ctx.order.element(*k)
    walk, key = stop_key(monkeypatch, h, k)
    g = math.isqrt(t * t // n) + 1
    assert key[2] == n and g * g * n > t * t
    for c in (g, 101 * g):
        assert stop_key(monkeypatch, h * c, k * c) == (walk, key)
        assert d_sum(h * c, k * c, ctx) == d_sum(h, k, ctx)


CONTENT_ORDERS = [(-8, 1), (-7, 1), (-20, 1), (-8, 3), (-23, 1), (-1240, 1)]


@pytest.mark.parametrize("dk, f", CONTENT_ORDERS)
def test_integer_content_leaves_the_walk_and_the_value(dk, f):
    # D_L(g*h, g*k) = D_L(h, k): (g*h, g*k) walks as (h, k) and gives the same bits.
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    rng = random.Random(57)
    stops = 0
    for _ in range(12):
        h, k = (order.element(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)) for _ in range(2))
        content = math.gcd(h.u, h.v, k.u, k.v)
        h, k = order.element(h.u // content, h.v // content), order.element(k.u // content, k.v // content)
        walk = _walk(h, k)
        stops += walk.cusp is not None
        value = d_sum(h, k, ctx)
        for g in (2, 3, 6, 10, 101):
            assert _walk(h * g, k * g) == walk
            assert d_sum(h * g, k * g, ctx) == value
    assert stops > 0 or dk in (-8, -7)


HOMOGENEITY_ORDERS = [(-20, 1), (-23, 1), (-8, 3), (-1240, 1)]


def test_d_sum_is_homogeneous_across_the_stop_tables(monkeypatch):
    # D_L(g*h, g*k) = D_L(h, k) (dedekind's docstring).  (g*h, g*k) takes the steps of (h, k) to
    # g*(a_n, c_n): the same t, and N(g)*N(c_n) > t*t.  A stop keyed on the same table gives the same
    # bits; one keyed on (a_n, c_n), as some on d = -1240 are, moves to (r, t), and the values agree.
    moved = 0
    for dk, f in HOMOGENEITY_ORDERS:
        ctx = SumContext(QuadOrder(dk, f))
        order = ctx.order
        rng = random.Random(56)
        bound = math.isqrt(10**30 // abs(order.discriminant))
        checked = 0
        while checked < 4 or (dk == -1240 and not moved):
            h = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
            k = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
            walk, key = stop_key(monkeypatch, h, k)
            if walk.cusp is None:
                continue
            checked += 1
            t = walk.cusp[1].u
            g = order.zero()
            while g.norm() <= t * t:
                g = order.element(rng.randint(-4 * t, 4 * t), rng.randint(-4 * t, 4 * t))
            scaled_walk, scaled_key = stop_key(monkeypatch, g * h, g * k)
            assert scaled_walk.cusp[1].u == t and scaled_key[0] == (t, 0)
            value, scaled = d_sum(h, k, ctx), d_sum(g * h, g * k, ctx)
            if key[0] == (t, 0):
                assert scaled == value
            else:
                moved += 1
                assert abs(scaled - value) <= 1e-12 * (1 + abs(value))
    assert moved > 0


def test_walk_serves_every_fundamental_order_from_800_to_2000(monkeypatch):
    # Two pairs at coordinates up to 1e8 on each of the 366 fundamental d_K in [-2000, -800],
    # where stops reach t = |d|/8 and t*t passes the gamma bound: every value is served, and two
    # stops here are keyed on (a_n, c_n), on d = -1096 and -1780.
    rng = random.Random(60)
    orders, on_column = 0, []
    for dk in range(-800, -2001, -1):
        if not _is_fundamental(dk):
            continue
        orders += 1
        ctx = SumContext(QuadOrder(dk))
        order = ctx.order
        for _ in range(2):
            h = order.element(rng.randint(-(10**8), 10**8), rng.randint(-(10**8), 10**8))
            k = order.element(rng.randint(-(10**8), 10**8), rng.randint(-(10**8), 10**8))
            walk, key = stop_key(monkeypatch, h, k)
            assert cmath.isfinite(_walk_value(walk, ctx))
            # A stop keys on gamma = t or on the one of +-c_n that _gammas would list.
            if walk.cusp is not None and key[2] < walk.cusp[1].u ** 2:
                assert (key[0][1], key[0][0]) > (0, 0)
                on_column.append(dk)
    assert (orders, on_column) == (366, [-1096, -1780])


# Non-principal pairs at N(k) ~ 1e30, drawn with random.Random(50).
CUSP_FIXTURES = [
    (-20, 1, (20948339510481, -110416775244488), (25621181444001, 103569605090892)),
    (-3, 7, (50581241962738, 69102935605111), (-36804964795070, 78787644574887)),
]


@pytest.mark.parametrize("dk, f, h, k", CUSP_FIXTURES, ids=["d-20-1e30", "d-3f7-1e30"])
def test_walk_of_a_non_principal_pair_at_large_norm(dk, f, h, k, monkeypatch):
    # With the non-unit gammas tried in reverse, the pair takes another walk, with other
    # constants and R, to a stop cusp; its value agrees with d_sum's at a norm no table
    # reaches.  h + k*m, for three m, take the walk of h, and d_sum is shift invariant and
    # odd bit for bit.
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    h, k = order.element(*h), order.element(*k)
    assert k.norm() > 10**29
    value = d_sum(h, k, ctx)
    walk = _walk(h, k)
    gammas = _gammas(order)
    monkeypatch.setattr(sl2, "_gammas", lambda o: gammas[:1] + gammas[:0:-1])
    other = _walk(h, k)
    monkeypatch.undo()
    assert other.counts != walk.counts and other.r != walk.r
    assert other.cusp is not None and other.cusp[1].u ** 2 <= _gamma_bound(order)
    assert abs(_walk_value(other, ctx) - value) <= 1e-12 * (1 + abs(value))
    rng = random.Random(52)
    for bound in (3, 10**6, 10**15):
        m = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        assert _walk(h + k * m, k) == walk
        assert d_sum(h + k * m, k, ctx) == value
        assert d_sum(-h - k * m, k, ctx) == -value


@pytest.mark.parametrize("dk, f", [(-15, 1), (-23, 1), (-163, 1), (-8, 3), (-3, 7)])
def test_walk_decides_every_step_without_floats(dk, f, monkeypatch):
    # The walk runs with every complex embedding disabled; its values then match the table.
    # Non-principal pairs exist on every order here but d = -163, of class number 1; their
    # walks compute the stop cusp (r, t, w) and R in integers too.
    ctx = SumContext(QuadOrder(dk, f))
    rng = random.Random(46)
    pairs = [unit_gcd_pair(rng, ctx.order, 20_000) for _ in range(40)]
    if dk != -163:
        pairs += [cusp_pair(rng, ctx.order, 20_000) for _ in range(10)]

    def no_floats(*args):
        raise AssertionError("the walk embedded an element in the complex plane")

    monkeypatch.setattr(QuadOrder, "theta_embedding", no_floats)
    monkeypatch.setattr(OrderElem, "embed", no_floats)
    walks = [_walk(h, k) for h, k in pairs]
    monkeypatch.undo()
    assert any(walk.counts for walk in walks)
    assert any(walk.cusp for walk in walks) == (dk != -163)
    for (h, k), walk in zip(pairs, walks):
        expected = _d_sum_table(h, k, ctx)
        assert abs(_walk_value(walk, ctx) - expected) <= 1e-12 * (1 + abs(expected))


@pytest.mark.parametrize("dk, f", [(-8, 1), (-20, 1), (-8, 3), (-3, 7), (-4, 2)])
def test_generates_order_matches_an_inverse_mod_k(dk, f):
    # (h, k) = O exactly when h has an inverse modulo k; search it over the box transversal.
    order = QuadOrder(dk, f)
    lattice = Lattice.from_order(order)
    rng = random.Random(42)
    seen = set()
    for _ in range(60):
        h = order.element(rng.randint(-9, 9), rng.randint(-3, 3))
        k = order.element(rng.randint(-9, 9), rng.randint(-3, 3))
        if k.is_zero() or k.norm() > 400:
            continue
        box = CosetSystem(k, lattice).coords().tolist()
        invertible = any((h * order.element(u, v) - order.one()).exact_div(k) is not None for u, v in box)
        assert _generates_order(h, k) == invertible
        seen.add(invertible)
    assert seen == {True, False}


@pytest.mark.parametrize("dk, f", [(-8, 5), (-20, 1), (-8, 3), (-15, 1)])
def test_complete_row_completes_every_coprime_row(dk, f):
    order = QuadOrder(dk, f)
    rng = random.Random(43)
    coprime_norms = {True: 0, False: 0}
    for _ in range(300):
        gamma = order.element(rng.randint(-12, 12), rng.randint(-2, 2))
        delta = order.element(rng.randint(-12, 12), rng.randint(-2, 2))
        if gamma.is_zero():
            continue
        if not _generates_order(gamma, delta):
            continue
        tr = order.theta_trace
        row = _complete_row((gamma.u, gamma.v), (delta.u, delta.v), tr, order.theta_norm, tr // 2)
        m = Mat2(order.element(*row[0]), order.element(*row[1]), gamma, delta)
        assert m.is_unimodular()
        coprime_norms[math.gcd(gamma.norm(), delta.norm()) == 1] += 1
    # Rows whose norms share a factor are completed too.
    assert coprime_norms[True] > 0 and coprime_norms[False] > 0


@pytest.mark.parametrize("dk, f", [(-15, 1), (-23, 1), (-8, 3)])
def test_walk_is_shift_invariant_and_odd_bit_for_bit(dk, f):
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    rng = random.Random(44)
    for i in range(20):
        h, k = unit_gcd_pair(rng, order, 10**6)
        value = d_sum(h, k, ctx)
        bound = (2, 10**6, 10**15)[i % 3]
        m = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        assert d_sum(h + k * m, k, ctx) == value
        assert d_sum(-h, k, ctx) == -value
        assert d_sum(-h - k * m, k, ctx) == -value


@pytest.mark.parametrize("dk, f", [(-8, 1), (-15, 1), (-23, 1), (-163, 1), (-8, 3), (-3, 7)])
def test_walk_steps_grow_like_log_norm(dk, f, monkeypatch):
    # Every step of the walk rounds one quotient, so counting those counts the steps;
    # the roundings of the completions inside an extra step are dropped.
    rounded, extra_step = sl2._rounded_coords, sl2._extra_step
    calls = []

    def extra(*args):
        before = len(calls)
        try:
            return extra_step(*args)
        finally:
            del calls[before:]

    monkeypatch.setattr(sl2, "_rounded_coords", lambda u, v, n, c0: calls.append(n) or rounded(u, v, n, c0))
    monkeypatch.setattr(sl2, "_extra_step", extra)
    order = QuadOrder(dk, f)
    rng = random.Random(45)
    mean_steps = {}
    for exponent in (30, 60):
        # Coordinates of size 10**(exponent/2)/sqrt(|d|) give N(k) near 10**exponent.
        bound = math.isqrt(10**exponent // abs(order.discriminant))
        counts = []
        while len(counts) < 10:
            h = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
            k = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
            if h.is_zero() or not _generates_order(h, k):
                continue
            calls.clear()
            _walk(h, k)
            steps = len(calls)
            assert steps <= 6 * math.log(k.norm())
            counts.append(steps)
        mean_steps[exponent] = sum(counts) / len(counts)
    assert 1.5 <= mean_steps[60] / mean_steps[30] <= 2.5


def test_conductor_three_density_steps_above_the_table_bound():
    # b = 5 is the least admissible denominator on d = -72; N(c3) is far above 2**31.
    order = QuadOrder(-8, 3)
    ctx = SumContext(order)
    for step in approximate(Target(1, 5, order), 3):
        assert step.A3.c.norm() > 2**31
        x = step.dtilde_exact
        assert abs(d_norm(step.A3.a, step.A3.c, ctx) - x) <= 1e-12 * (1 + abs(x))


def test_d_norm_exact_needs_a_walk_without_constants(monkeypatch):
    ctx = SumContext(QuadOrder(-8, 3))
    order = ctx.order
    # k = 5 + theta has norm 67; the walk of (1, k) takes unit steps only.
    h, k = order.one(), order.element(5, 1)
    assert _walk(h, k).counts == ()
    exact = d_norm_exact(h, k, ctx)
    assert exact.denominator == 67
    assert abs(float(exact) - d_norm(h, k, ctx)) <= 1e-15
    # README's fourth and fifth sums take extra steps, but their constants cancel by the
    # symmetries of D_L, so Dtilde is R.  The fifth: N(k) = 2626632, c3 = 191*sqrt(-72).
    readme = [((1081, 0), (1560, 130), Fraction(899, 1170)), ((3313, 0), (4584, 382), Fraction(35, 3438))]
    for h, k, expected in readme:
        h, k = order.element(*h), order.element(*k)
        walk, constants = walk_constants(monkeypatch, h, k)
        assert constants and walk.counts == ()
        assert d_norm_exact(h, k, ctx) == expected
        assert abs(d_norm(h, k, ctx) - expected) <= 1e-14 * expected
    # A walk to c = 0 at N(k) ~ 1e30 whose constants keep four nonzero net counts.
    h, k = order.element(-9044522756396, 55413830901490), order.element(105942611429219, 67534340783344)
    walk = _walk(h, k)
    assert walk.cusp is None and len(walk.counts) == 4
    with pytest.raises(PreconditionError, match="constants"):
        d_norm_exact(h, k, ctx)


@pytest.mark.parametrize("dk", [-4, -3])
def test_d_norm_exact_refuses_the_rings_where_e2_vanishes(dk):
    # On Z[i] and Z[rho] the walk takes Euclidean steps only, yet Dtilde is undefined there.
    ctx = SumContext(QuadOrder(dk))
    h, k = ctx.order.element(2), ctx.order.element(4, 1)
    assert _generates_order(h, k) and _walk(h, k).counts == ()
    with pytest.raises(ExcludedRingError):
        d_norm(h, k, ctx)
    with pytest.raises(ExcludedRingError):
        d_norm_exact(h, k, ctx)


# The orders of test_sl2.ORDERS: class number one, and class number two or three.
TRAFFIC_ORDERS = [
    (-3, 1), (-4, 1), (-7, 1), (-8, 1), (-11, 1), (-15, 1), (-20, 1), (-23, 1), (-163, 1), (-8, 3), (-4, 5), (-3, 7),
]


@pytest.mark.parametrize("dk, f", TRAFFIC_ORDERS)
def test_d_sum_builds_only_small_tables_in_one_e1_evaluation(dk, f, monkeypatch):
    # Principal and non-principal pairs from N(k) ~ 1e4 to ~1e30: every table d_sum fills has
    # at most the gamma bound of entries, and a walk makes at most one fill and one E1 call.
    ctx = SumContext(QuadOrder(dk, f))
    order, bound = ctx.order, _gamma_bound(ctx.order)
    fills, evaluations = [], []
    e1_tables, e1_reduced = dedekind._e1_tables, Lattice._e1_reduced

    def recording_fill(systems):
        fills.append([system.size for system in systems])
        return e1_tables(systems)

    def recording_e1(self, x, y, on_lattice):
        evaluations.append(len(x))
        return e1_reduced(self, x, y, on_lattice)

    monkeypatch.setattr(dedekind, "_e1_tables", recording_fill)
    monkeypatch.setattr(Lattice, "_e1_reduced", recording_e1)
    rng = random.Random(61)
    kinds, filled = set(), 0
    for digits in (2, 4, 8, 15):
        for _ in range(10):
            h, k = (order.element(*(rng.randint(-(10**digits), 10**digits) for _ in range(2))) for _ in range(2))
            if h.is_zero() or k.is_zero():
                continue
            kinds.add(_walk(h, k).cusp is None)
            fills.clear()
            evaluations.clear()
            d_sum(h, k, ctx)
            assert len(fills) <= 1 and len(evaluations) <= 1
            assert all(size <= bound for sizes in fills for size in sizes)
            filled += len(evaluations)
    # The norm-Euclidean orders walk with no constant; only those of class number one meet
    # no non-principal pair.
    euclidean = f == 1 and dk in (-3, -4, -7, -8, -11)
    assert k.norm() > 10**29 and (filled == 0) == euclidean
    assert kinds == ({True} if euclidean or (dk, f) == (-163, 1) else {True, False})


def test_walk_builds_one_e1_table_per_gamma(monkeypatch, capsys):
    # README's fifth sum: nine constants on five (alpha, gamma) pairs and three gammas, whose net
    # counts all vanish.  CI's crawl beside the singular cusp of d = -20: 291 constants on two
    # pairs and two gammas, one key.  A walk at N(k) ~ 1e30 on d = -163: 39 constants on 24 pairs
    # and five gammas, seven keys on four gammas.
    fixtures = [
        ((-8, 3), (3313, 0), (4584, 382), '"d_norm":0.010180337405468295', (9, 5, 3), 0),
        ((-20, 1), (3196, 291), (600, 2), '"d_norm":0.14588614385078447', (291, 2, 2), 1),
        ((-163, 1), (-60728052818922, 77510101037827), (-5868471523959, 30480562442566), None, (39, 24, 5), 7),
    ]
    filled, evaluations, sums = [], [], []
    e1_tables, e1_reduced, table_sum = dedekind._e1_tables, Lattice._e1_reduced, dedekind._table_sum

    def recording_fill(systems):
        filled.append([system.k for system in systems])
        return e1_tables(systems)

    def recording_e1(self, x, y, on_lattice):
        evaluations.append(len(x))
        return e1_reduced(self, x, y, on_lattice)

    def recording_sum(h, system, table, ctx):
        sums.append((h, system.k))
        return table_sum(h, system, table, ctx)

    for (dk, f), h, k, pinned, counts, n_keys in fixtures:
        ctx = SumContext(QuadOrder(dk, f))
        order = ctx.order
        walk, constants = walk_constants(monkeypatch, order.element(*h), order.element(*k))
        gammas = {gamma for _, _, gamma in constants}
        assert (len(constants), len({(alpha, gamma) for alpha, _, gamma in constants}), len(gammas)) == counts
        keys = [_key_pair(key, order) for key, _ in walk.counts]
        key_gammas = {gamma for _, gamma in keys}
        assert len(keys) == n_keys and {(g.u, g.v) for g in key_gammas} <= gammas
        filled.clear()
        evaluations.clear()
        sums.clear()
        argv = ["sum", "--dk", str(dk), "-f", str(f), "--h=%d,%d" % h, "--k=%d,%d" % k, "--format", "json"]
        with monkeypatch.context() as patch:
            patch.setattr(dedekind, "_e1_tables", recording_fill)
            patch.setattr(Lattice, "_e1_reduced", recording_e1)
            patch.setattr(dedekind, "_table_sum", recording_sum)
            assert main(argv) == 0
        assert pinned is None or pinned in capsys.readouterr().out
        # No fill where every count vanishes; else one fill for the walk, each gamma of a nonzero key
        # in it once, one E1 evaluation for them all, and one table sum per key, in key order.
        if not keys:
            assert filled == evaluations == sums == []
            continue
        assert len(filled) == 1
        assert len(filled[0]) == len(key_gammas) and set(filled[0]) == key_gammas
        assert len(evaluations) == 1
        assert sums == keys


# (d_K, f, h, k), (sign, R) and the constants (alpha_u, alpha_v, gamma_u, gamma_v) of the
# walk of h's box representative, whose R and counts _walk returns times sign, recorded from
# the walk on OrderElem arithmetic: one pair at N(k) ~ 1e30
# on each of five orders (drawn with random.Random(47)), then README's fifth sum.
PINNED_WALKS = [
    (
        (-8, 3, (-9044522756396, 55413830901490), (105942611429219, 67534340783344)),
        (1, "-165639511388278898444177469624379/114517896515221354266614795489142"),
        [
            (-11, -1, 3, 0), (13, 1, 4, 0), (13, 1, 3, 0), (19, 1, 10, 1), (-17, 0, 24, 2), (-11, -1, 3, 0),
            (13, 1, 2, 0), (-13, -1, 3, 0), (-13, -1, 3, 0), (-13, -1, 3, 0), (5, 0, 12, 1), (5, 0, 12, 1),
            (5, 0, 12, 1), (-13, -1, 3, 0), (5, 0, 12, 1), (5, 0, 12, 1), (-13, -1, 3, 0), (-13, -1, 3, 0),
            (13, 1, 2, 0), (-11, -1, 3, 0), (5, 0, 12, 1), (13, 1, 4, 0), (13, 1, 3, 0), (-11, -1, 4, 0),
            (11, 1, 4, 0), (-7, 0, 12, 1), (-11, -1, 3, 0), (-11, -1, 3, 0), (-11, -1, 3, 0),
            (-11, -1, 3, 0), (-11, -1, 3, 0), (7, 0, 12, 1), (13, 1, 4, 0), (-13, -1, 4, 0), (13, 1, 4, 0),
            (13, 1, 2, 0), (-5, 0, 12, 1), (-11, -1, 4, 0), (-11, -1, 3, 0), (7, 0, 12, 1), (13, 1, 3, 0),
            (13, 1, 3, 0), (-11, -1, 4, 0), (-11, -1, 3, 0), (13, 1, 4, 0),
        ],
    ),
    (
        (-15, 1, (-40587875796232, 88329347040022), (189392712772487, 112574549598484)),
        (1, "32318067983333966075014884929384/7146590439381708431981226223635"),
        [
            (4, 1, 15, 2), (-4, -1, 15, 2), (4, 1, 15, 2), (4, 1, 15, 2), (4, 1, 15, 2), (4, 1, 15, 2),
        ],
    ),
    (
        (-23, 1, (-173315645898193, 103156030380316), (112811217727387, -63596447331422)),
        (1, "18356321343774473993145185507011/8830554261544713301123618854996"),
        [
            (-3, 0, 10, 1), (-3, 0, 10, 1), (-3, 0, 10, 1), (14, 1, 9, 1), (-3, 0, 10, 1), (-3, 0, 10, 1),
            (14, 1, 9, 1), (3, 0, 10, 1), (3, 0, 10, 1), (-14, -1, 9, 1), (3, 0, 10, 1), (3, 0, 10, 1),
            (3, 0, 10, 1), (-14, -1, 9, 1), (10, 1, 13, 1), (10, 1, 13, 1), (-14, -1, 9, 1), (3, 0, 10, 1),
            (-3, 0, 10, 1), (10, 1, 13, 1), (-14, -1, 9, 1), (3, 0, 10, 1), (14, 1, 9, 1), (3, 0, 10, 1),
            (-14, -1, 9, 1), (3, 0, 10, 1), (-3, 0, 10, 1),
        ],
    ),
    (
        (-163, 1, (-60728052818922, 77510101037827), (-5868471523959, 30480562442566)),
        (-1, "38432003664441844590602166875719/37428781523511078070813778689506"),
        [
            (-82, -1, 4, 0), (163, 2, 5, 0), (83, 1, 2, 0), (83, 1, 3, 0), (83, 1, 5, 0), (-79, -1, 6, 0),
            (-166, -2, 5, 0), (82, 1, 3, 0), (-80, -1, 4, 0), (-166, -2, 5, 0), (83, 1, 3, 0),
            (-80, -1, 4, 0), (81, 1, 6, 0), (166, 2, 5, 0), (-82, -1, 3, 0), (-82, -1, 4, 0), (82, 1, 3, 0),
            (-162, -2, 5, 0), (162, 2, 5, 0), (-82, -1, 3, 0), (-82, -1, 4, 0), (81, 1, 3, 0),
            (80, 1, 5, 0), (-79, -1, 6, 0), (-82, -1, 4, 0), (82, 1, 3, 0), (-82, -1, 3, 0), (83, 1, 2, 0),
            (164, 2, 5, 0), (-81, -1, 3, 0), (-82, -1, 5, 0), (-80, -1, 6, 0), (164, 2, 5, 0),
            (-164, -2, 5, 0), (83, 1, 2, 0), (81, 1, 3, 0), (82, 1, 4, 0), (-83, -1, 4, 0), (-83, -1, 5, 0),
        ],
    ),
    (
        (-3, 7, (-64880617704359, 73357536152390), (78185180258757, -10021036409396)),
        (-1, "-27747886662758835133932759751213/79260342569595985343703868162270"),
        [
            (12, 1, 5, 0), (-12, -1, 4, 0), (22, 2, 5, 0), (12, 1, 2, 0), (-11, -1, 5, 0), (12, 1, 4, 0),
            (-7, 0, 12, 1), (-9, -1, 5, 0), (12, 1, 4, 0), (14, 0, 9, 1), (-13, 1, 21, 2), (14, 0, 9, 1),
            (-11, -1, 3, 0), (-13, -1, 5, 0), (-10, -1, 6, 0), (9, 1, 5, 0), (11, 1, 4, 0), (21, 2, 5, 0),
            (11, 1, 2, 0), (24, 2, 5, 0), (12, 1, 2, 0), (-11, -1, 3, 0), (10, 1, 5, 0), (13, 1, 6, 0),
            (-22, -2, 5, 0), (12, 1, 2, 0), (-10, -1, 3, 0), (-14, 0, 9, 1), (11, 1, 2, 0), (14, 0, 9, 1),
            (-13, -1, 5, 0), (12, 1, 4, 0), (11, 1, 4, 0), (-12, -1, 4, 0), (-10, -1, 3, 0), (12, 1, 4, 0),
            (-9, -1, 5, 0), (20, 2, 5, 0), (24, 2, 5, 0), (11, 1, 2, 0), (-11, -1, 5, 0), (-11, -1, 3, 0),
            (13, 1, 4, 0), (10, 1, 3, 0), (23, 2, 5, 0), (11, 1, 2, 0), (23, 2, 5, 0),
        ],
    ),
    (
        (-8, 3, (3313, 0), (4584, 382)),
        (1, "35/3438"),
        [
            (-17, 0, 24, 2), (-36, -3, 7, 0), (-17, 0, 24, 2), (-17, 0, 24, 2), (5, 0, 12, 1),
            (7, 0, 12, 1), (17, 0, 24, 2), (17, 0, 24, 2), (17, 0, 24, 2),
        ],
    ),
]


@pytest.mark.parametrize(
    "pair, expected, constants",
    PINNED_WALKS,
    ids=["d-8f3-1e30", "d-15-1e30", "d-23-1e30", "d-163-1e30", "d-3f7-1e30", "readme-fifth-sum"],
)
def test_walk_reproduces_pinned_walks_bit_for_bit(pair, expected, constants, monkeypatch):
    dk, f, h, k = pair
    ctx = SumContext(QuadOrder(dk, f))
    h, k = ctx.order.element(*h), ctx.order.element(*k)
    walk, steps = walk_constants(monkeypatch, h, k)
    sign = ref_sign(h, k)
    assert (sign, walk.r) == (expected[0], expected[0] * Fraction(expected[1]))
    assert [(*alpha, *gamma) for alpha, _, gamma in steps] == constants
    # The net counts carry the constants' sum: sum_i D(alpha_i, gamma_i) = sum n*D(key), with and
    # without the conj merge of the two-stage reference, each side a sum of E1-table values;
    # the walk's counts are those times sign.
    pairs = [(ctx.order.element(*alpha), ctx.order.element(*gamma)) for alpha, _, gamma in steps]
    raw = sum(_d_sum_tables(pairs, ctx))
    unmerged = three_symmetry_counts(steps, ctx.order)
    assert walk.cusp is None
    assert tuple((key, sign * n) for key, n in merge_conj(unmerged, ctx.order)) == walk.counts
    for counts, s in ((unmerged, 1), (walk.counts, sign)):
        values = _d_sum_tables([_key_pair(key, ctx.order) for key, _ in counts], ctx)
        folded = sum(n * value for (_, n), value in zip(counts, values))
        assert abs(folded - s * raw) <= 1e-13 * (1 + abs(raw))


def window_extra_step(num, n, order, tr, nt, c0):
    """sl2._extra_step as it searched before the ellipse bounds, kept as a reference.

    Each gamma tried the 3x3 window of rows t0 - 1..t0 + 1 around the nearest
    row t0 and, in each, s0 - 1..s0 + 1 around the nearest s0, which holds
    every point within distance 1 as Im(theta) >= sqrt(3)/2.
    """
    nu, nv = num
    z0 = (nu // n, nv // n)
    fu, fv = nu % n, nv % n
    n2, nn = 2 * n, n * n
    for gamma in _gammas(order):
        gu, gv = gamma
        x0 = gu * fu - gv * fv * nt
        y0 = gu * fv + gv * fu + gv * fv * tr
        near = []
        t0 = -((2 * y0 + n) // n2)
        for t in (t0 - 1, t0, t0 + 1):
            y = y0 + n * t
            s0 = -((2 * x0 + y * tr + n) // n2)
            for s in (s0 - 1, s0, s0 + 1):
                x = x0 + n * s
                norm = x * x + x * y * tr + y * y * nt
                if norm < nn:
                    near.append((norm, s, t))
        for _, s, t in sorted(near):
            if _generates(gamma, (s, t), tr, nt):
                alpha, beta = _complete_row(gamma, (s, t), tr, nt, c0)
                return alpha, _sub(beta, _mul(alpha, z0, tr, nt)), gamma, _sub((s, t), _mul(gamma, z0, tr, nt))
    raise SearchLimitError("no gamma lowers N(c)")


def record_extra_steps(monkeypatch):
    """Patch sl2._extra_step to record (args, result) of each call; returns that list."""
    steps = []
    extra_step = sl2._extra_step

    def recording(*args):
        result = extra_step(*args)
        steps.append((args, result))
        return result

    monkeypatch.setattr(sl2, "_extra_step", recording)
    return steps


@pytest.mark.parametrize("dk, f", [(-8, 3), (-15, 1), (-20, 1), (-23, 1), (-163, 1), (-3, 7), (-4, 3)])
def test_ellipse_step_matches_the_window_step(dk, f, monkeypatch):
    # Every extra step of 20 random walks at N(k) ~ 1e30 with (h, k) = O returns what the 3x3
    # window returned, and so does every step of 20 walks of non-principal pairs, which stop at
    # a cusp on a step that finds nothing, where the window finds nothing either.  d = -163 has
    # class number 1, so no pair stops there.
    order = QuadOrder(dk, f)
    rng = random.Random(48)
    bound = math.isqrt(10**30 // abs(order.discriminant))
    steps = record_extra_steps(monkeypatch)
    walks, stops = 0, 0
    while walks < 20 or stops < (0 if dk == -163 else 20):
        h = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        k = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if h.is_zero():
            continue
        walks += _generates_order(h, k)
        stops += _walk(h, k).cusp is not None
    assert len(steps) >= 20 and sum(result is None for _, result in steps) == stops
    for args, result in steps:
        if result is None:
            with pytest.raises(SearchLimitError):
                window_extra_step(*args)
        else:
            assert window_extra_step(*args) == result


# README's fifth sum, and 291 extra steps beside the singular cusp (1 + sqrt(-5))/2 of d = -20.
STEP_FIXTURES = [(-8, 3, (3313, 0), (4584, 382), 9), (-20, 1, (3196, 291), (600, 2), 291)]


@pytest.mark.parametrize("dk, f, h, k, count", STEP_FIXTURES, ids=["readme-fifth-sum", "d-20-singular-cusp"])
def test_ellipse_step_matches_the_window_step_on_fixtures(dk, f, h, k, count, monkeypatch):
    order = QuadOrder(dk, f)
    steps = record_extra_steps(monkeypatch)
    _walk(order.element(*h), order.element(*k))
    assert len(steps) >= count
    for args, result in steps:
        assert window_extra_step(*args) == result


@pytest.mark.parametrize("dk, f, h, k, count", STEP_FIXTURES, ids=["readme-fifth-sum", "d-20-singular-cusp"])
def test_extra_step_completes_only_its_winner(dk, f, h, k, count, monkeypatch):
    # The rejected candidates are decided on their integers: _complete_row runs once per step.
    order = QuadOrder(dk, f)
    steps = record_extra_steps(monkeypatch)
    rows = []
    complete_row = sl2._complete_row
    monkeypatch.setattr(sl2, "_complete_row", lambda *args: rows.append(args) or complete_row(*args))
    _walk(order.element(*h), order.element(*k))
    assert len(steps) == len(rows) == count
    assert [row[0] for row in rows] == [result[2] for _, result in steps]


@pytest.mark.parametrize("dk", [-3, -4, -7, -8, -11])
def test_every_extra_step_on_a_norm_euclidean_order_takes_gamma_minus_one(dk, monkeypatch):
    # The gamma bound 8*|d| is below 72 only on d = -3, -4, -7 and -8, which are norm-Euclidean
    # like -11: where the rounded quotient does not lower N(c), another delta with gamma = -1
    # does, so no larger gamma is ever tried.  400 walks at N(k) ~ 1e40 take extra steps on -7
    # and -11; every step on -3, -4 and -8 is Euclidean.
    order = QuadOrder(dk)
    rng = random.Random(50)
    bound = math.isqrt(10**40 // abs(order.discriminant))
    steps = record_extra_steps(monkeypatch)
    for _ in range(400):
        h = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        k = order.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if not h.is_zero():
            _walk(h, k)
    assert (len(steps) > 0) == (dk in (-7, -11))
    assert all(result is not None and result[2] == (-1, 0) for _, result in steps)


@pytest.mark.parametrize("dk, f", [(-8, 3), (-15, 1), (-20, 1), (-3, 7), (-7, 1), (-4, 1), (-163, 1)])
def test_ellipse_bounds_list_exactly_the_points_of_norm_below_n_squared(dk, f, monkeypatch):
    # With one gamma, _extra_step decides (gamma, delta') = O by the gcd of N(gamma), N(delta')
    # and the coordinates of gamma*conj(delta'), which names the point delta' = (s, t).  The
    # candidates must be every (s, t) with N(x + y*theta) < n^2, by (norm, s, t): with every gcd
    # refused each is tested once, and with the first i of them refused the step completes the
    # (i + 1)-th, or nothing once all are.  A unit gamma passes every point untested, so the
    # first completes.  The first case has, on d = -4, a unit gamma and four points of norm 2 at
    # (s, t) = (0, 0), (1, 0), (2, 1), (3, 1): of equal norms the first scanned wins.
    order = QuadOrder(dk, f)
    tr, nt = order.theta_trace, order.theta_norm
    rng = random.Random(49)
    cases = [(2, (2, 1), (1, 1))]
    for _ in range(200):
        n = rng.randint(1, 40)
        gamma = (rng.randint(-5, 5), rng.randint(-3, 3))
        cases.append((n, gamma, (rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4))))
    listed = 0
    for n, gamma, num in cases:
        n_gamma = _norm(gamma, tr, nt)
        if n_gamma == 0:
            continue
        fu, fv = num[0] % n, num[1] % n
        x0, y0 = _mul(gamma, (fu, fv), tr, nt)
        # A point of norm below n^2 has |y| < 2n/sqrt(3) and |x| < n*(1 + |tr|), so it lies
        # in this box around (s, t) = (-x0/n, -y0/n).
        s_c, t_c, reach = -x0 // n, -y0 // n, abs(tr) + 3
        found = sorted(
            (norm, s, t)
            for s in range(s_c - reach, s_c + reach + 1)
            for t in range(t_c - 3, t_c + 4)
            if (norm := _norm((x0 + n * s, y0 + n * t), tr, nt)) < n * n
        )
        expected = [(s, t) for _, s, t in found]
        gcd_args = {(n_gamma, _norm(delta, tr, nt), *_times_conj(gamma, delta, tr, nt)): delta for delta in expected}
        for refused in range(len(expected) + 1 if n_gamma > 1 else 1):
            tested, rows = [], []

            def gcd(*args):
                delta = gcd_args.get(args, args)
                tested.append(delta)
                return 2 if delta in expected[:refused] else 1

            monkeypatch.setattr(sl2, "math", SimpleNamespace(isqrt=math.isqrt, gcd=gcd))
            monkeypatch.setattr(sl2, "_gammas", lambda o: (gamma,))
            monkeypatch.setattr(sl2, "_complete_row", lambda g, delta, *args: rows.append(delta) or ((0, 0), (0, 0)))
            step = sl2._extra_step(num, n, order, tr, nt, tr // 2)
            monkeypatch.undo()
            if n_gamma == 1:
                assert rows == expected[:1] and tested == []
            elif refused == len(expected):
                assert step is None and rows == [] and sorted(tested) == sorted(expected)
            else:
                assert rows == [expected[refused]] and set(tested) <= set(expected)
        listed += len(expected)
    assert listed >= 50


# d_sum's bytes for three CI README pairs: an exact walk, a walk with extra steps whose nine
# constants on (-8, 3) cancel, so its real part is 0, and a cusp stop on d = -20.  float.hex
# tells -0.0 from 0.0.
PINNED_WALKS = [
    ((-8, 1), (9468929, 0), (19274752, 4818688), complex(0.0, 1.9932968950132759)),
    ((-8, 3), (3313, 0), (4584, 382), complex(0.0, 0.2202238226108405)),
    ((-20, 1), (11, 1), (10, 0), complex(0.0, -12.046944869704721)),
]


@pytest.mark.parametrize("order_key, h, k, expected", PINNED_WALKS)
def test_walk_value_bits_are_pinned(order_key, h, k, expected):
    ctx = SumContext(QuadOrder(*order_key))
    z = d_sum(ctx.order.element(*h), ctx.order.element(*k), ctx)
    assert (z.real.hex(), z.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def test_walk_to_zero_with_negative_sign_gives_positive_zero():
    # 11 is taken to -11 mod 2 + 5*theta, whose walk ends at R = 0: the value is +0 + 0i.
    ctx = SumContext(QuadOrder(-8))
    h, k = ctx.order.element(11), ctx.order.element(2, 5)
    walk = _walk(h, k)
    assert (ref_sign(h, k), walk.r) == (-1, 0)
    z = d_sum(h, k, ctx)
    assert z == 0j
    assert math.copysign(1, z.real) > 0 and math.copysign(1, z.imag) > 0
