"""Runnable invariant suites shared by the CLI `verify` command and the tests.

Each suite takes an order and a seed, checks that order alone, and returns a
list of CheckResult records; a check passes when its residual is at or below
its tolerance.  All randomness is seeded, so repeated runs are identical.

Each suite does its reference work once per call and keeps nothing between
calls: the lemma suite's reference tables share one E1 evaluation
(dedekind._d_sum_tables), the e1 suite's Ewald points one enumeration of
the dual lattice (oracles.e1_ewald_many), and the cosets suite reduces and
key-tests the random points of all its moduli in one array pass and checks
their transversals with one np.unique (_colliding_pairs).

The suites draw their inputs from random.Random(seed) at the generator's
cost.  Every integer comes from dedekind._randint, which applies randint's
own rule to rng.getrandbits (k = width.bit_length() bits, drawn again while
at or above the width) in one Python frame, not three, and the e1 suite's
points are -1.5 + 3.0*rng.random(), which is what rng.uniform(-1.5, 1.5)
computes.  So each draw equals the rng.randint or rng.uniform call it
replaces, uses the same generator words, and every seed keeps its inputs and
its records.  numpy.random is never imported: it would add about 5.5 MB of
peak RSS.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .cosets import CosetSystem, _reduce_coords, _torsion_key
from .dedekind import (
    SumContext,
    _d_sum_tables,
    _randint,
    _walk_value,
    d_sum,
    gen_sl2_triple,
    normalize_value,
    phi,
    three_term_closed_form,
)
from .density import Target, approximate
from .errors import GenerationError
from .lattice import Lattice
from .oracles import e1_ewald_many, e2_hecke_limit, weierstrass_zeta_direct
from .ring import OrderElem, QuadOrder, _norm
from .sl2 import Mat2, _column, _walk

__all__ = [
    "CheckResult",
    "random_sl2",
    "run_phi_suite",
    "run_lemma_suite",
    "run_e1_suite",
    "run_cosets_suite",
    "run_suite",
    "SUITE_NAMES",
]

SUITE_NAMES = ("phi", "lemma", "e1", "cosets", "all")

# The phi suite: pairs of random SL2(O) elements, each product walked at whatever size it has.
_PHI_PAIRS = 50
_LEMMA_TRIPLES = 20
_E1_POINTS = 100
# The cosets suite: moduli of norm at most _COSET_MAX_NORM.
_COSET_SAMPLES = 50
_COSET_MAX_NORM = 200


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    info: str = ""


def _check(name: str, residual: float, tolerance: float, info: str = "") -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, tolerance, residual <= tolerance, info)


def random_sl2(rng: random.Random, order: QuadOrder) -> Mat2:
    """Random element of SL2(O) with first column (a, c) completed by sl2._column.

    a and c are s + t*omega with |s| <= 4, |t| <= 2 and c != 0, in the reduced
    basis omega = theta - (tr theta // 2), drawn as the int pairs
    (s - c0*t, t), c0 = tr theta // 2; a column with gcd(N(a), N(c)) > 1 is
    drawn again.
    """
    tr, nt = order.theta_trace, order.theta_norm
    c0 = tr // 2

    def draw() -> tuple[int, int]:
        s = _randint(rng, -4, 4)
        t = _randint(rng, -2, 2)
        return s - c0 * t, t

    while True:
        a, c = draw(), draw()
        if c != (0, 0) and (col := _column(a, c, tr, nt, c0)) is not None:
            return Mat2._of_pairs(order, a, col[0], c, col[1])


def _random_elem(rng: random.Random, order: QuadOrder) -> OrderElem:
    """u + v*theta with u, v uniform in [-12, 12], drawn again until 0 < N <= _COSET_MAX_NORM."""
    tr, nt = order.theta_trace, order.theta_norm
    while True:
        u, v = _randint(rng, -12, 12), _randint(rng, -12, 12)
        if 0 < _norm((u, v), tr, nt) <= _COSET_MAX_NORM:
            return order.element(u, v)


def run_phi_suite(order: QuadOrder, seed: int) -> list[CheckResult]:
    """Homomorphism residuals |Phi(W1 W2) - Phi(W1) - Phi(W2)| on random SL2(O) elements.

    For the rings with vanishing E2(0) (discriminants -3, -4) the suite also
    checks that Phi itself is numerically trivial.
    """
    ctx = SumContext(order)
    rng = random.Random(seed)
    results = []
    excluded = order.discriminant in (-3, -4)
    if excluded:
        results.append(_check("phi-e2-vanishes", abs(ctx.lattice.e2_zero()), 1e-10))
    for i in range(_PHI_PAIRS):
        w1 = random_sl2(rng, order)
        w2 = random_sl2(rng, order)
        p1, p2, p12 = phi(w1, ctx), phi(w2, ctx), phi(w1 @ w2, ctx)
        scale = 1.0 + abs(p1) + abs(p2) + abs(p12)
        results.append(_check(f"phi-homomorphism-{i:02d}", abs(p12 - p1 - p2) / scale, 1e-7))
        if excluded:
            results.append(_check(f"phi-trivial-{i:02d}", max(abs(p1), abs(p2), abs(p12)), 1e-7))
    return results


def _density_step_ok(step, ctx: SumContext) -> bool:
    """Whether the walk of the step's (a3, c3) gives the construction's exact Dtilde.

    Exactly where the walk is exact (sl2._Walk.exact), else d_sum's value
    from that one walk, normalized, within 1e-12*(1 + |Dtilde|).
    """
    x = step.dtilde_exact
    walk = _walk(step.A3.a, step.A3.c)
    if walk.exact:
        return walk.r == x
    return abs(normalize_value(_walk_value(walk, ctx), ctx) - x) <= 1e-12 * (1 + abs(x))


def run_lemma_suite(order: QuadOrder, seed: int) -> list[CheckResult]:
    """Closed form vs. the E1 table on generated triples.

    The triples come first, from seeds seed + 1, seed + 2, ... (a seed whose
    generation fails is skipped, and a `lemma-generation` record counts the
    triples still missing after 40 attempts per triple); their reference
    tables then share one E1 evaluation (_d_sum_tables), and the records
    follow in triple order.

    Each triple also compares d_sum, which takes the walk, with the table.
    Where E2(0) != 0 (every order but d = -3, -4, where Target refuses), the
    first density steps of 1/b, b the least odd number above 1 prime to d,
    are checked against the construction's exact Dtilde (_density_step_ok);
    the residual counts the steps that fail.
    """
    ctx = SumContext(order)
    d = order.discriminant
    triples = []
    for attempt in range(1, 40 * _LEMMA_TRIPLES + 1):
        try:
            triples.append(gen_sl2_triple(seed + attempt, ctx))
        except GenerationError:
            continue
        if len(triples) == _LEMMA_TRIPLES:
            break
    tables = _d_sum_tables([(m3.a, m3.c) for _, _, m3 in triples], ctx)
    results = []
    for i, ((m1, _, m3), table) in enumerate(zip(triples, tables)):
        rhs = three_term_closed_form(m1.c, m3.c, ctx)
        info = f"norm(c3)={m3.c.norm()}"
        results.append(_check(f"lemma-triple-{i:02d}", abs(table - rhs) / (1.0 + abs(rhs)), 1e-6, info))
        residual = abs(d_sum(m3.a, m3.c, ctx) - table) / (1.0 + abs(table))
        results.append(_check(f"lemma-euclid-{i:02d}", residual, 1e-12, info))
    if len(triples) < _LEMMA_TRIPLES:
        results.append(_check("lemma-generation", float(_LEMMA_TRIPLES - len(triples)), 0.0, info="triples missing"))
    if d not in (-3, -4):
        b = next(b for b in itertools.count(3, 2) if math.gcd(b, d) == 1)
        steps = list(approximate(Target(1, b, order), 10))
        failing = sum(not _density_step_ok(s, ctx) for s in steps)
        info = f"target 1/{b}, 10 steps, norm(c3) up to {max(s.A3.c.norm() for s in steps):.3e}"
        results.append(_check("euclid-density-steps", float(failing), 0.0, info))
    return results


def _random_points(rng: random.Random) -> np.ndarray:
    """_E1_POINTS points x + y*i, x then y drawn as rng.uniform(-1.5, 1.5) = -1.5 + 3.0*rng.random(), bit for bit."""
    return (-1.5 + 3.0 * np.array([rng.random() for _ in range(2 * _E1_POINTS)])).view(complex)


def _e2_hecke_check(name: str, lattice: Lattice) -> CheckResult:
    """E2(0) against the Hecke-limit oracle, relative to max(|E2(0)|, 1/area).

    1/area has weight 2, like E2(0), and does not vanish where E2(0) does.
    """
    s2 = lattice.e2_zero()
    residual = abs(s2 - e2_hecke_limit(lattice)) / max(abs(s2), 1.0 / lattice.area())
    return _check(name, residual, 1e-12)


def _e1_ewald_residual(lattice: Lattice, z: np.ndarray, seed: int, scale: float) -> float:
    """Worst |E1 - e1_ewald|/max(|E1|, scale) of Lattice.e1_many at z and Lattice.e1_torsion.

    The torsion points are (s*omega1 + 2*omega2)/4, s = 1, 2, 3, on the row of
    half the height of the order's basis, and 7 points (s*omega1 + t*omega2)/997
    drawn with `seed`.  One e1_ewald_many call evaluates the oracle at all of them.
    """
    rng = random.Random(seed)
    seeded = [(_randint(rng, 0, 996), _randint(rng, 0, 996)) for _ in range(7)]
    values, points = list(lattice.e1_many(z)), list(z)
    for n, st in ((4, [(1, 2), (2, 2), (3, 2)]), (997, seeded)):
        s, t = np.array(st).T
        values += list(lattice.e1_torsion(s, t, n))
        points += list((s * lattice.omega1 + t * lattice.omega2) / n)
    oracle = e1_ewald_many(points, lattice)
    return max(abs(v - e) / max(abs(v), scale) for v, e in zip(values, oracle))


def run_e1_suite(order: QuadOrder, seed: int) -> list[CheckResult]:
    """Analytic-layer residuals: periodicity, oddness, quasi-periods, oracles, j."""
    lattice = Lattice.from_order(order)
    rng = random.Random(seed)
    results = []

    # E1 periodicity over random (z, small omega).
    z = _random_points(rng)
    mn = np.array([(_randint(rng, -3, 3), _randint(rng, -3, 3)) for _ in range(_E1_POINTS)])
    v0 = lattice.e1_many(z)
    v1 = lattice.e1_many(z + mn[:, 0] * lattice.omega1 + mn[:, 1] * lattice.omega2)
    results.append(_check("e1-periodicity", np.max(np.abs(v1 - v0) / (1.0 + np.abs(v0))), 1e-8))

    # E1 oddness.
    z = _random_points(rng)
    results.append(_check("e1-oddness", np.max(np.abs(lattice.e1_many(z) + lattice.e1_many(-z))), 1e-9))

    # E1 zero at a half period.
    results.append(_check("e1-half-period-zero", abs(lattice.e1(lattice.omega1 / 2.0)), 1e-9))

    # Legendre relation for the original basis.
    eta1, eta2 = lattice.quasi_periods()
    legendre = abs(eta1 * lattice.omega2 - eta2 * lattice.omega1 - 2j * math.pi)
    results.append(_check("legendre-relation", legendre, 1e-8))

    # Quasi-periods against the closed expression s2*w + (pi/A)*conj(w).
    s2 = lattice.e2_zero()
    a = lattice.area()
    for label, w, eta in (("omega1", lattice.omega1, eta1), ("omega2", lattice.omega2, eta2)):
        residual = abs(eta - (s2 * w + (math.pi / a) * w.conjugate()))
        results.append(_check(f"quasi-period-{label}", residual, 1e-8))

    # E2 homogeneity under scaling, relative to a scale that does not vanish
    # where E2(0) does (d = -3, -4): 1/area has weight 2, like E2(0).
    c = complex(1.3, 0.7)
    scaled = lattice.scaled(c)
    results.append(
        _check(
            "e2-homogeneity",
            abs(scaled.e2_zero() * c * c - s2) / max(abs(s2), 1.0 / a),
            1e-8,
        )
    )

    # zeta and E1 against the Ewald oracles, relative to max(|value|, 1/sqrt(area)):
    # 1/sqrt(area) has weight 1, like both, and does not vanish where a value does.
    scale = 1.0 / math.sqrt(a)
    z0 = 0.31 + 0.27j
    zeta = lattice.weierstrass_zeta(z0)
    residual = abs(zeta - weierstrass_zeta_direct(z0, lattice)) / max(abs(zeta), scale)
    results.append(_check("zeta-direct-crosscheck", residual, 1e-12))
    results.append(_check("e1-ewald", _e1_ewald_residual(lattice, z[:20], seed, scale), 1e-12))

    # Hecke-limit oracle for E2(0) on Z+Z*sqrt(-2), Z+Z*sqrt(-5) and the order.
    for dk, label in ((-8, "sqrt2"), (-20, "sqrt5")):
        results.append(_e2_hecke_check(f"e2-hecke-{label}", Lattice(1.0, 1j * math.sqrt(-dk / 4.0))))
    results.append(_e2_hecke_check(f"e2-hecke-d{order.d_k}f{order.f}", lattice))

    # j anchors.
    j_gauss = Lattice(1.0, 1j).j_invariant()
    results.append(_check("j-gauss-1728", abs(j_gauss - 1728.0) / 1728.0, 1e-6))
    j_eis = Lattice(1.0, complex(-0.5, math.sqrt(3) / 2.0)).j_invariant()
    results.append(_check("j-eisenstein-0", abs(j_eis), 1e-6))

    # Reality of j for conjugation-symmetric bases.
    worst = 0.0
    for _ in range(10):
        y = rng.uniform(0.4, 3.0)
        for basis2 in (1j * y, complex(0.5, y / 2.0)):
            jv = Lattice(1.0, basis2).j_invariant()
            worst = max(worst, abs(jv.imag))
    results.append(_check("j-reality-symmetric-bases", worst, 1e-8))
    return results


def _colliding_pairs(groups: list[tuple[CosetSystem, np.ndarray]]) -> int:
    """Number of pairs within each group's `coords` whose difference lies in its kL, summed over the groups.

    (a, b) and (a', b') share a coset exactly when adj(M)*(a, b) and
    adj(M)*(a', b') agree mod det(M), so pairs are counted per key
    s*det(M) + t.  Each group's keys are offset by the sum of det(M)**2 over
    the groups before it, so no two groups share a key, and one np.unique
    counts them all.
    """
    keys, offset = [], 0
    for system, coords in groups:
        s, t = system.torsion_key(coords[:, 0], coords[:, 1])
        keys.append(offset + s * system.size + t)
        offset += system.size**2
    _, sizes = np.unique(np.concatenate(keys), return_counts=True)
    return int(np.sum(sizes * (sizes - 1) // 2))


def run_cosets_suite(order: QuadOrder, seed: int) -> list[CheckResult]:
    """Counts, pairwise inequivalence, and completeness of coset transversals of the order's lattice.

    Each of _COSET_SAMPLES random moduli k gets its box transversal and
    min(N(k), 40) random points, drawn in that order.  Each point then
    carries its modulus's HNF, N(k) and adj(M), so the points of all the
    moduli are reduced into their boxes in one array pass, and each
    difference point - reduced is tested for membership in kL by its torsion
    key; the transversals of all the moduli are checked for colliding pairs
    at once (_colliding_pairs).
    """
    rng = random.Random(seed)
    lattice = Lattice.from_order(order)
    count_fail = 0
    groups, moduli, counts, drawn = [], [], [], []
    for _ in range(_COSET_SAMPLES):
        k = _random_elem(rng, order)
        system = CosetSystem(k, lattice)
        coords = system.coords()
        if len(coords) != k.norm():
            count_fail += 1
        groups.append((system, coords))
        moduli.append((system.h11, system.h12, system.h22, system.size, *system.adj))
        counts.append(min(k.norm(), 40))
        drawn += [_randint(rng, -100, 100) for _ in range(2 * counts[-1])]  # x, y of each point in turn
    h11, h12, h22, size, *adj = np.repeat(np.array(moduli, dtype=np.int64), counts, axis=0).T
    px, py = np.array(drawn, dtype=np.int64).reshape(-1, 2).T
    x, y = _reduce_coords(px, py, h11, h12, h22)
    s, t = _torsion_key(px - x, py - y, adj, size)
    complete = (0 <= x) & (x < h11) & (0 <= y) & (y < h22) & (s == 0) & (t == 0)
    complete_fail = int(np.count_nonzero(~complete))
    inequiv_fail = _colliding_pairs(groups)
    tag = f"d{order.d_k}f{order.f}"
    return [
        _check(f"coset-count-{tag}", float(count_fail), 0.0),
        _check(f"coset-inequivalence-{tag}", float(inequiv_fail), 0.0),
        _check(f"coset-completeness-{tag}", float(complete_fail), 0.0),
    ]


def run_suite(name: str, order: QuadOrder, seed: int) -> list[CheckResult]:
    """Dispatch by suite name; `all` concatenates every suite."""
    if name == "phi":
        return run_phi_suite(order, seed=seed)
    if name == "lemma":
        return run_lemma_suite(order, seed=seed)
    if name == "e1":
        return run_e1_suite(order, seed=seed)
    if name == "cosets":
        return run_cosets_suite(order, seed=seed)
    if name == "all":
        out = []
        for sub in ("phi", "lemma", "e1", "cosets"):
            out.extend(run_suite(sub, order, seed=seed))
        return out
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
