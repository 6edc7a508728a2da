"""The exact symmetries that fold the walk's constants, checked against the E1 table.

D_L(alpha, gamma) depends on alpha mod gamma alone; it is odd in alpha and in
gamma, it equals D_L(alpha^-1 mod gamma, gamma), and on every lattice it is
odd under (alpha, gamma) -> (conj alpha, conj gamma).  The walk keys each
constant by its orbit under all four in one step (sl2._orbit_key), and d_sum
builds tables only for keys with a nonzero net count.  The one-step key is
checked against a two-stage reference kept here: the orbit under the first
three symmetries, then a merge of conj partners.
"""

import math
import random
from fractions import Fraction

import pytest

from elliptic_dedekind import Lattice, QuadOrder, SumContext, Target, approximate, d_norm, d_norm_exact, d_sum
from elliptic_dedekind import dedekind, sl2, verification
from elliptic_dedekind.cli import main
from elliptic_dedekind.dedekind import _d_sum_tables
from elliptic_dedekind.ring import _add, _generates, _mul, _norm, _times_conj
from elliptic_dedekind.sl2 import _complete_row, _gammas, _key_pair, _orbit_key, _walk
from test_sl2 import negated, ref_sign

# The orders CI verifies.
CI_ORDERS = [
    (-8, 1), (-7, 1), (-11, 1), (-4, 1), (-3, 1), (-20, 1), (-23, 1), (-15, 1),
    (-163, 1), (-43, 1), (-19, 1), (-67, 1), (-8, 3), (-4, 3), (-3, 7), (-7, 11),
]
# Constants come from gammas up to this norm, so that every table stays small.
MAX_GAMMA_NORM = 200
# A value that is exactly 0 reads up to 9e-15 from a table at N(gamma) <= 40, where the other
# values reach 10: a few units in the last place of the terms it sums.
ZERO_TOL = 1e-14


def form_lattice(a, b, c):
    """The lattice of the form (a, b, c), basis (a, (-b + sqrt(d))/2), d = b^2 - 4ac."""
    return Lattice(a, complex(-b / 2, math.sqrt(4 * a * c - b * b) / 2))


# Lattices other than an order's own (1, theta): the forms of d = -23, -31 and -47 that are not
# ambiguous, whose j is not real, and the ideal classes of d = -15 and d = -20.
FORMS = [(-23, (2, 1, 3)), (-23, (2, -1, 3)), (-31, (2, 1, 4)), (-47, (2, 1, 6)), (-47, (3, 1, 4))]
CLASS_BASES = [(-15, (2, complex(0.5, math.sqrt(15.0) / 2))), (-20, (2, complex(1.0, math.sqrt(5.0))))]


def conj(x, tr):
    return x[0] + x[1] * tr, -x[1]


def neg(x):
    return -x[0], -x[1]


# -- The two-stage reference: three symmetries, then the conj merge -------------------------------


def three_symmetry_key(x, y, n):
    """(rho, rho', sign) for the residues x, y of alpha and alpha^-1 on a gamma of norm n, or None.

    rho is the least of x, y, -x, -y mod n, rho' the residue of its inverse,
    and sign +1 when rho is x or y; None when the least is both.
    """
    xp, yp = (x[0] % n, x[1] % n), (y[0] % n, y[1] % n)
    xm, ym = (-x[0] % n, -x[1] % n), (-y[0] % n, -y[1] % n)
    plus, minus = min(xp, yp), min(xm, ym)
    if plus < minus:
        return plus, (yp if plus == xp else xp), 1
    if minus < plus:
        return minus, (ym if minus == xm else xm), -1
    return None


def conj_partners(order):
    """gamma -> (gamma', s) with conj(gamma) = s*gamma', s = +-1, gamma' in _gammas, by lookup."""
    tr = order.theta_trace
    gammas = _gammas(order)[1:]
    listed = set(gammas)
    partners = {}
    for gamma in gammas:
        c = conj(gamma, tr)
        partners[gamma] = (c, 1) if c in listed else (neg(c), -1)
    return partners


def merge_conj(counts, order):
    """The nonzero net counts of `counts`, three-symmetry keys, once each key is merged with its conj partner.

    With conj(gamma) = s*gamma', the residue of conj(alpha) on gamma' is
    s*conj(rho), and D_L(key) = -s*sign*D_L(partner).  A count moves to the
    lesser of the two keys; a key that is its own partner with factor -1 is 0.
    """
    tr, nt = order.theta_trace, order.theta_norm
    partners = conj_partners(order)
    net = {}
    for key, count in counts:
        gamma, rho, rho_inv = key
        other, s = partners[gamma]
        scaled = [(s * c[0], s * c[1]) for c in (conj(rho, tr), conj(rho_inv, tr))]
        p_rho, p_inv, sign = three_symmetry_key(*scaled, _norm(gamma, tr, nt))
        partner, factor = (other, p_rho, p_inv), -s * sign
        if partner == key and factor == -1:
            continue
        if partner < key:
            key, count = partner, factor * count
        net[key] = net.get(key, 0) + count
    return tuple(sorted((key, count) for key, count in net.items() if count))


def three_symmetry_counts(constants, order):
    """The nonzero net counts of the (alpha, delta, gamma) constants on their three-symmetry keys, in key order."""
    tr, nt = order.theta_trace, order.theta_norm
    net = {}
    for alpha, delta, gamma in constants:
        x, y = _times_conj(alpha, gamma, tr, nt), _times_conj(delta, gamma, tr, nt)
        found = three_symmetry_key(x, y, _norm(gamma, tr, nt))
        if found is not None:
            key = (gamma, found[0], found[1])
            net[key] = net.get(key, 0) + found[2]
    return tuple(sorted((key, count) for key, count in net.items() if count))


def reference_key(gamma, x, y, n, order):
    """_orbit_key's (key, sign) or None, in two stages: three_symmetry_key, then merge_conj."""
    found = three_symmetry_key(x, y, n)
    if found is None:
        return None
    merged = merge_conj((((gamma, found[0], found[1]), found[2]),), order)
    return merged[0] if merged else None


# -- Tests ---------------------------------------------------------------------------------------


def random_constants(order, rng, count):
    """(alpha, delta, gamma) int pairs of SL2(O) rows [[alpha, beta], [gamma, delta]], completed as a walk step is."""
    tr, nt = order.theta_trace, order.theta_norm
    gammas = [g for g in _gammas(order)[1:] if _norm(g, tr, nt) <= MAX_GAMMA_NORM]
    out = []
    while len(out) < count:
        gamma = rng.choice(gammas)
        delta = (rng.randint(-40, 40), rng.randint(-40, 40))
        if _generates(gamma, delta, tr, nt):
            alpha, _ = _complete_row(gamma, delta, tr, nt, tr // 2)
            out.append((alpha, delta, gamma))
    return out


def orbit_key(order, alpha, delta, gamma):
    """_orbit_key of the constant D_L(alpha, gamma), delta = alpha^-1 mod gamma."""
    tr, nt = order.theta_trace, order.theta_norm
    x, y = _times_conj(alpha, gamma, tr, nt), _times_conj(delta, gamma, tr, nt)
    return _orbit_key(gamma, x, y, _norm(gamma, tr, nt), tr)


@pytest.mark.parametrize("dk, f", CI_ORDERS)
def test_each_symmetry_holds_on_every_ci_order(dk, f):
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    tr, nt = order.theta_trace, order.theta_norm
    rng = random.Random(71)
    cases = []
    for alpha, delta, gamma in random_constants(order, rng, 12):
        m = (rng.randint(-9, 9), rng.randint(-9, 9))
        shifted = _add(alpha, _mul(gamma, m, tr, nt))
        # (pair, factor): D_L(pair) = factor * D_L(alpha, gamma).
        images = [
            (shifted, gamma, 1),
            (neg(alpha), gamma, -1),
            (delta, gamma, 1),
            (alpha, neg(gamma), -1),
            (conj(alpha, tr), conj(gamma, tr), -1),
        ]
        cases.append(((alpha, gamma), images, orbit_key(order, alpha, delta, gamma)))
    pairs = []
    for (alpha, gamma), images, found in cases:
        pairs.append((order.element(*alpha), order.element(*gamma)))
        pairs += [(order.element(*a), order.element(*g)) for a, g, _ in images]
        if found is not None:
            pairs.append(_key_pair(found[0], order))
    values = dict(zip(pairs, _d_sum_tables(pairs, ctx)))
    for (alpha, gamma), images, found in cases:
        value = values[order.element(*alpha), order.element(*gamma)]
        tol = 1e-13 * (1 + abs(value))
        for a, g, factor in images:
            assert abs(values[order.element(*a), order.element(*g)] - factor * value) <= tol
        if found is None:
            assert abs(value) <= ZERO_TOL
            continue
        # The key carries the value: D(alpha, gamma) = sign*D(key).
        key, sign = found
        assert abs(sign * values[_key_pair(key, order)] - value) <= tol


@pytest.mark.parametrize("dk, f", CI_ORDERS)
def test_the_one_step_key_matches_the_two_stage_reference(dk, f):
    # 3,000 random constants per order: the same key and sign, or None for both.  Among them
    # are keys that are 0 only by conj and, where some gamma up to MAX_GAMMA_NORM is not a rational
    # integer, keys the conj merge moves to another gamma.
    order = QuadOrder(dk, f)
    tr, nt = order.theta_trace, order.theta_norm
    constants = random_constants(order, random.Random(73), 3000)
    moved = zero_by_conj = 0
    for alpha, delta, gamma in constants:
        x, y, n = _times_conj(alpha, gamma, tr, nt), _times_conj(delta, gamma, tr, nt), _norm(gamma, tr, nt)
        expected = reference_key(gamma, x, y, n, order)
        assert _orbit_key(gamma, x, y, n, tr) == expected
        first = three_symmetry_key(x, y, n)
        moved += expected is not None and expected[0][0] != gamma
        zero_by_conj += first is not None and expected is None
    assert zero_by_conj and (moved or all(gamma[1] == 0 for _, _, gamma in constants))


@pytest.mark.parametrize("dk, f", CI_ORDERS)
def test_a_self_opposite_key_reads_zero_from_the_table(dk, f):
    # Every alpha mod gamma, for the gammas of norm up to 40, whose orbit reaches alpha with
    # both signs: alpha^2 = -1 or 2*alpha = 0 mod gamma, or conj(alpha) = -+alpha^+-1 on a
    # gamma that is its own conj partner.  The table reads 0 there to within ZERO_TOL.
    ctx = SumContext(QuadOrder(dk, f))
    order = ctx.order
    tr, nt = order.theta_trace, order.theta_norm
    zero, by_conj = [], 0
    for gamma in _gammas(order)[1:]:
        n = _norm(gamma, tr, nt)
        if n > 40:
            break
        for delta in ((u, v) for u in range(n) for v in range(n)):
            if not _generates(gamma, delta, tr, nt):
                continue
            alpha, _ = _complete_row(gamma, delta, tr, nt, tr // 2)
            if orbit_key(order, alpha, delta, gamma) is None:
                zero.append((alpha, gamma))
                x, y = _times_conj(alpha, gamma, tr, nt), _times_conj(delta, gamma, tr, nt)
                by_conj += three_symmetry_key(x, y, n) is not None
    assert zero and by_conj
    pairs = [(order.element(*alpha), order.element(*gamma)) for alpha, gamma in zero]
    assert max(abs(value) for value in _d_sum_tables(pairs, ctx)) <= ZERO_TOL


def identity_contexts():
    ctxs = [SumContext(QuadOrder(dk), form_lattice(*form)) for dk, form in FORMS]
    ctxs += [SumContext(QuadOrder(dk), Lattice(*basis)) for dk, basis in CLASS_BASES]
    return ctxs + [SumContext(QuadOrder(-23)).scaled(complex(1.3, 0.7))]


@pytest.mark.parametrize(
    "ctx", identity_contexts(), ids=["23-213", "23-2m13", "31-214", "47-216", "47-314", "15", "20", "23-scaled"]
)
def test_the_conj_identity_holds_on_lattices_that_are_not_conj_stable(ctx):
    # D_L(conj alpha, conj gamma) = -D_L(alpha, gamma) on any lattice L the order acts on: L is
    # self-dual under <z, w> = Im(conj(z)*w)/area, and <h*z, w> = <z, conj(h)*w>.
    order = ctx.order
    tr = order.theta_trace
    constants = random_constants(order, random.Random(74), 36)
    pairs = []
    for alpha, _, gamma in constants:
        for a, g in ((alpha, gamma), (conj(alpha, tr), conj(gamma, tr))):
            pairs.append((order.element(*a), order.element(*g)))
    values = _d_sum_tables(pairs, ctx)
    for value, conj_value in zip(values[::2], values[1::2]):
        assert abs(value + conj_value) <= 1e-14 * (1 + abs(value))


def merged_pairs(monkeypatch, order, rng, count):
    """`count` random (h, k) on `order` with N(k) <= 20,000 whose walk has keys the conj fold merges.

    The inputs of each _orbit_key call are recorded, and a pair is kept when
    some constant's three-symmetry key is not its final key.
    """
    calls = []
    original = sl2._orbit_key

    def recording(gamma, x, y, n, tr):
        calls.append((gamma, x, y, n))
        return original(gamma, x, y, n, tr)

    pairs = []
    with monkeypatch.context() as patch:
        patch.setattr(sl2, "_orbit_key", recording)
        while len(pairs) < count:
            h = order.element(rng.randint(-150, 150), rng.randint(-150, 150))
            k = order.element(rng.randint(-150, 150), rng.randint(-150, 150))
            if h.is_zero() or not 0 < k.norm() <= 20_000:
                continue
            calls.clear()
            _walk(h, k)
            for gamma, x, y, n in calls:
                first = three_symmetry_key(x, y, n)
                if first is not None and reference_key(gamma, x, y, n, order) != ((gamma, *first[:2]), first[2]):
                    pairs.append((h, k))
                    break
    return pairs


def test_a_lattice_whose_j_is_not_real_gets_the_conj_fold(monkeypatch):
    # The ideal class (2, (-1 + sqrt(-23))/2) of d = -23, the form (2, 1, 3), whose j is not real.
    # On walks whose keys the conj fold merges, d_sum matches the table.
    order = QuadOrder(-23)
    ctx = SumContext(order, form_lattice(2, 1, 3))
    for h, k in merged_pairs(monkeypatch, order, random.Random(72), 20):
        expected = dedekind._d_sum_table(h, k, ctx)
        assert abs(d_sum(h, k, ctx) - expected) <= 1e-12 * (1 + abs(expected))


# Two d = -23 pairs whose keys the conj fold merges: the first ends at c = 0 with its two keys
# cancelling by conj, the second stops at a cusp.
CONJ_PAIRS = [((116, 264), (-215, -40)), ((-296, -213), (168, -16))]


def test_a_float_basis_of_the_order_folds_as_its_own_basis(capsys):
    # The order's basis (1, theta) given as floats gives the same records, the same exact Dtilde
    # where the keys cancel by conj, and a scaled lattice takes the same keys.
    order = QuadOrder(-23)
    theta = order.theta_embedding()
    for h, k in CONJ_PAIRS:
        records = []
        for basis in ([], ["--omega1", "1", f"--omega2={theta.real!r}+{theta.imag!r}j"]):
            argv = ["sum", "--dk", "-23", "--h=%d,%d" % h, "--k=%d,%d" % k, "--format", "json", *basis]
            assert main(argv) == 0
            records.append(capsys.readouterr().out.split('"records":')[1])
        assert records[0] == records[1]
    h, k = (order.element(*x) for x in CONJ_PAIRS[0])
    own = d_norm_exact(h, k, SumContext(order))
    assert d_norm_exact(h, k, SumContext(order, Lattice(1, theta))) == own
    assert _walk(h, k).exact


def test_a_scaled_context_takes_the_same_keys(monkeypatch):
    order = QuadOrder(-23)
    ctx = SumContext(order)
    calls = []
    original = dedekind._d_sum_tables

    def recording(pairs, ctx):
        calls.append(list(pairs))
        return original(pairs, ctx)

    monkeypatch.setattr(dedekind, "_d_sum_tables", recording)
    h, k = (order.element(*x) for x in CONJ_PAIRS[1])
    own, scaled = (d_norm(h, k, c) for c in (ctx, ctx.scaled(2.0)))
    assert abs(own - scaled) <= 1e-12
    assert len(calls) == 2 and calls[0] == calls[1] and calls[0]


# Every request the sum_conductor benchmark draws, seeds 101-110 among them: the closed-form
# triples of its two rungs, (p, e) = (13, 5), (19, 10) and (191, 1), with both roots.
CONDUCTOR_REQUESTS = [
    (13, 5, (1801, 0), (1560, 130)),
    (13, 5, (1081, 0), (1560, 130)),
    (19, 10, (5041, 0), (4560, 380)),
    (19, 10, (1441, 0), (4560, 380)),
    (191, 1, (3313, 0), (4584, 382)),
    (191, 1, (-3383, 0), (4584, 382)),
]


def test_the_conductor_benchmark_builds_no_e1_table(monkeypatch, capsys):
    # Each walk takes extra steps, yet its constants cancel, so d_sum is R times the normalizer:
    # no table is filled, and Dtilde is the closed form 2e/p + 4/(p*e*d) exactly.
    ctx = SumContext(QuadOrder(-8, 3))
    order = ctx.order
    fills = []
    e1_tables = dedekind._e1_tables

    def recording(systems):
        fills.append(len(systems))
        return e1_tables(systems)

    monkeypatch.setattr(dedekind, "_e1_tables", recording)
    for p, e, h, k in CONDUCTOR_REQUESTS:
        argv = ["sum", "--dk", "-8", "-f", "3", "--h=%d,%d" % h, "--k=%d,%d" % k, "--format", "json"]
        assert main(argv) == 0
        assert '"d_sum":{"re":0,' in capsys.readouterr().out
        hk = order.element(*h), order.element(*k)
        assert d_norm_exact(*hk, ctx) == Fraction(2 * e, p) + Fraction(4, p * e * order.discriminant)
    assert fills == []


def test_density_steps_on_the_conductor_order_are_exact():
    # The walks of the first density steps of 1/5 on d = -72 take 12 to 40 constants, which
    # cancel: the lemma suite's density check compares R with the construction's Dtilde exactly.
    ctx = SumContext(QuadOrder(-8, 3))
    for step in approximate(Target(1, 5, ctx.order), 5):
        walk = _walk(step.A3.a, step.A3.c)
        assert walk.exact and walk.r == step.dtilde_exact
        assert d_norm_exact(step.A3.a, step.A3.c, ctx) == step.dtilde_exact
        assert verification._density_step_ok(step, ctx)


# -- The cusp's constant D_L(r, t) -------------------------------------------------------------

# Orders whose walks stop at cusps r/t with t = 2, 3, 5 and 7: conductor orders, and orders of
# class number 2 and 4.
CUSP_ORDERS = [(-8, 3), (-3, 7), (-4, 5), (-56, 1), (-84, 1), (-39, 1), (-20, 1)]


def cusp_walks(order, rng, count, bound, max_norm=None):
    """count (h, k, walk) whose walk stops at a cusp, h and k with coordinates uniform in +-bound."""
    found = []
    while len(found) < count:
        h, k = (order.element(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(2))
        if h.is_zero() or k.is_zero() or (max_norm is not None and k.norm() > max_norm):
            continue
        walk = _walk(h, k)
        if walk.cusp is not None:
            found.append((h, k, walk))
    return found


def cusp_key(walk, order):
    """_orbit_key of the walk's D_L(r, t): gamma = t, x = r*t standing for its own inverse residue."""
    r, t, _ = walk.cusp
    x = (r.u * t.u, r.v * t.u)
    return _orbit_key((t.u, 0), x, x, t.u * t.u, order.theta_trace)


def test_the_cusp_constant_folds_into_the_counts():
    # 420 cusp walks at coordinates +-1e9: each D_L(r, t) is sign*D_L(key) of its folded key, and
    # the walk counts the key -(walk sign)*sign.  Every D_L(r, 2) folds to None: E1 vanishes on
    # the 2-torsion points, so the table of t = 2 is exactly 0.
    seen_t = set()
    for dk, f in CUSP_ORDERS:
        order = QuadOrder(dk, f)
        ctx = SumContext(order)
        walks = cusp_walks(order, random.Random(80), 60, 10**9)
        folded = [(h, k, walk, cusp_key(walk, order)) for h, k, walk in walks]
        keys = [found[0] for *_, found in folded if found is not None]
        values = dict(zip(keys, _d_sum_tables([_key_pair(key, order) for key in keys], ctx)))
        for h, k, walk, found in folded:
            r, t, _ = walk.cusp
            seen_t.add(t.u)
            table = dedekind._d_sum_table(r, t, ctx)
            if t.u == 2:
                assert found is None and table == 0
                continue
            key, sign = found
            assert abs(sign * values[key] - table) <= 1e-14 * (1 + abs(table))
            assert dict(walk.counts)[key] == -ref_sign(h, k) * sign
    assert seen_t == {2, 3, 5, 7}


@pytest.mark.parametrize("dk, f", CUSP_ORDERS + [(-8, 1), (-163, 1)])
def test_the_walk_is_odd_and_shift_invariant(dk, f):
    # _walk(-h, k) negates R, every count (the cusp's too) and w; h + k*m takes the walk of h.
    order = QuadOrder(dk, f)
    rng = random.Random(81)
    signs = set()
    for _ in range(20):
        h, k = (order.element(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(2))
        if h.is_zero() or k.is_zero():
            continue
        walk = _walk(h, k)
        signs.add(ref_sign(h, k))
        assert _walk(-h, k) == negated(walk)
        m = order.element(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        assert _walk(h + k * m, k) == walk
    assert signs == {-1, 1}


@pytest.mark.parametrize("dk, f", [(-8, 3), (-3, 7), (-4, 5), (-56, 1), (-84, 1), (-39, 1)])
def test_d_sum_matches_the_table_beside_cusps_with_t_at_least_3(dk, f):
    # On walks that stop at r/t, t >= 3, whose folded D_L(r, t) is not 0, with either sign.
    order = QuadOrder(dk, f)
    ctx = SumContext(order)
    rng = random.Random(82)
    checked, signs = 0, set()
    while checked < 6:
        ((h, k, walk),) = cusp_walks(order, rng, 1, 150, 20_000)
        if walk.cusp[1].u < 3 or cusp_key(walk, order) is None:
            continue
        checked += 1
        signs.add(ref_sign(h, k))
        expected = dedekind._d_sum_table(h, k, ctx)
        assert abs(d_sum(h, k, ctx) - expected) <= 1e-12 * (1 + abs(expected))
    assert signs == {-1, 1}
