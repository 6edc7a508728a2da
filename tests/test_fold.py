"""The exact symmetries that fold the walk's constants, checked against the E1 table.

D_L(alpha, gamma) depends on alpha mod gamma alone; it is odd in alpha and in
gamma, it equals D_L(alpha^-1 mod gamma, gamma), and on a lattice with
conj(L) = L it is odd under (alpha, gamma) -> (conj alpha, conj gamma).  The
walk keys each constant by its orbit under these (sl2._orbit_key,
sl2._merge_conj), and d_sum builds tables only for keys with a nonzero net
count.
"""

import math
import random
from fractions import Fraction

import pytest

from elliptic_dedekind import Lattice, QuadOrder, SumContext, Target, approximate, d_norm_exact, d_sum
from elliptic_dedekind import dedekind, verification
from elliptic_dedekind.cli import main
from elliptic_dedekind.dedekind import _d_sum_tables, _net_counts
from elliptic_dedekind.ring import _add, _generates, _mul, _norm, _times_conj
from elliptic_dedekind.sl2 import _complete_row, _gammas, _key_pair, _merge_conj, _orbit_key, _signed_walk

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


def conj(x, tr):
    return x[0] + x[1] * tr, -x[1]


def neg(x):
    return -x[0], -x[1]


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
        n = _norm(gamma, tr, nt)
        found = _orbit_key(_times_conj(alpha, gamma, tr, nt), _times_conj(delta, gamma, tr, nt), n)
        cases.append(((alpha, gamma), images, found))
    pairs = []
    for (alpha, gamma), images, found in cases:
        pairs.append((order.element(*alpha), order.element(*gamma)))
        pairs += [(order.element(*a), order.element(*g)) for a, g, _ in images]
        if found is not None:
            rho, rho_inv, _ = found
            key = (gamma, rho, rho_inv)
            pairs.append(_key_pair(key, order))
            pairs += [_key_pair(k, order) for k, _ in _merge_conj(((key, 1),), order)]
    values = dict(zip(pairs, _d_sum_tables(pairs, ctx)))
    for (alpha, gamma), images, found in cases:
        value = values[order.element(*alpha), order.element(*gamma)]
        tol = 1e-13 * (1 + abs(value))
        for a, g, factor in images:
            assert abs(values[order.element(*a), order.element(*g)] - factor * value) <= tol
        if found is None:
            assert abs(value) <= ZERO_TOL
            continue
        # The key and its conj merge carry the value: D(alpha, gamma) = sign*D(key) = sum n*D(key').
        rho, rho_inv, sign = found
        key = (gamma, rho, rho_inv)
        assert abs(sign * values[_key_pair(key, order)] - value) <= tol
        merged = sum(n * values[_key_pair(k, order)] for k, n in _merge_conj(((key, 1),), order))
        assert abs(sign * merged - value) <= tol


@pytest.mark.parametrize("dk, f", CI_ORDERS)
def test_a_self_opposite_key_reads_zero_from_the_table(dk, f):
    # Every alpha mod gamma, for the gammas of norm up to 40, whose orbit reaches alpha with
    # both signs: alpha^2 = -1 or 2*alpha = 0 mod gamma, or conj(alpha) = -+alpha^+-1 on a
    # conj-stable gamma.  The table reads 0 there to within ZERO_TOL.
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
            found = _orbit_key(_times_conj(alpha, gamma, tr, nt), _times_conj(delta, gamma, tr, nt), n)
            if found is None:
                zero.append((alpha, gamma))
            elif _merge_conj((((gamma, found[0], found[1]), 1),), order) == ():
                zero.append((alpha, gamma))
                by_conj += 1
    assert zero and by_conj
    pairs = [(order.element(*alpha), order.element(*gamma)) for alpha, gamma in zero]
    assert max(abs(value) for value in _d_sum_tables(pairs, ctx)) <= ZERO_TOL


def test_a_lattice_that_is_not_conj_stable_skips_the_conj_merge():
    # The ideal class (2, (-1 + sqrt(-23))/2) of d = -23, the form (2, 1, 3): j is not real, and a
    # float basis is not trusted with conj(L) = L.  On walks whose counts the merge would change,
    # d_sum keeps the unmerged counts and matches the table.
    order = QuadOrder(-23)
    ctx = SumContext(order, Lattice(2, complex(-0.5, math.sqrt(23.0) / 2)))
    assert not ctx.conj_stable and SumContext(order).conj_stable
    rng = random.Random(72)
    checked = 0
    while checked < 20:
        h = order.element(rng.randint(-150, 150), rng.randint(-150, 150))
        k = order.element(rng.randint(-150, 150), rng.randint(-150, 150))
        if h.is_zero() or not 0 < k.norm() <= 20_000:
            continue
        walk = _signed_walk(h, k)[1]
        if _merge_conj(walk.counts, order) == walk.counts:
            continue
        checked += 1
        assert _net_counts(walk, ctx) == walk.counts
        expected = dedekind._d_sum_table(h, k, ctx)
        assert abs(d_sum(h, k, ctx) - expected) <= 1e-12 * (1 + abs(expected))


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
        sign, walk = _signed_walk(step.A3.a, step.A3.c)
        assert dedekind._exact(walk, ctx) and sign * walk.r == step.dtilde_exact
        assert d_norm_exact(step.A3.a, step.A3.c, ctx) == step.dtilde_exact
        assert verification._density_step_ok(step, ctx)
