"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from elliptic_dedekind import (
    InadmissibleTargetError,
    Lattice,
    QuadOrder,
    SumContext,
    Target,
    approximate,
    d_sum,
    gen_sl2_triple,
    three_term_closed_form,
    phi,
    sqrt_discriminant,
)
from elliptic_dedekind.dedekind import _d_sum_table
from elliptic_dedekind.errors import GenerationError
from elliptic_dedekind.oracles import e1_ewald, e2_hecke_limit
from elliptic_dedekind.verification import random_sl2

SQRT2 = math.sqrt(2.0)


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_lemma_vs_brute_force():
    started = time.time()
    ctx = SumContext(QuadOrder(-8))
    residuals = []
    seed = 0
    while len(residuals) < 20:
        seed += 1
        try:
            m1, _, m3 = gen_sl2_triple(seed, ctx)
        except GenerationError:
            continue
        rhs = three_term_closed_form(m1.c, m3.c, ctx)
        lhs = _d_sum_table(m3.a, m3.c, ctx)  # the coset sum, not the walk d_sum takes here
        residuals.append(abs(lhs - rhs) / (1.0 + abs(rhs)))
    elapsed = time.time() - started
    worst = max(residuals)
    report(
        1,
        "lemma-vs-brute-force",
        worst <= 1e-6 and elapsed <= 120.0,
        f"20 triples, worst residual {worst:.3e} (tol 1e-6), {elapsed:.1f}s",
    )


def test_criterion_2_homomorphism_suite():
    started = time.time()
    ctx = SumContext(QuadOrder(-8))
    rng = random.Random(202)
    worst = 0.0
    for _ in range(50):
        w1 = random_sl2(rng, ctx.order)
        w2 = random_sl2(rng, ctx.order)
        p1, p2, p12 = phi(w1, ctx), phi(w2, ctx), phi(w1 @ w2, ctx)
        worst = max(worst, abs(p12 - p1 - p2) / (1.0 + abs(p1) + abs(p2) + abs(p12)))
    elapsed = time.time() - started
    report(
        2,
        "phi-homomorphism",
        worst <= 1e-7 and elapsed <= 60.0,
        f"50 word pairs, worst residual {worst:.3e} (tol 1e-7), {elapsed:.1f}s",
    )


def test_criterion_3_triviality():
    worst_phi = 0.0
    worst_e2 = 0.0
    for dk, seed in ((-4, 303), (-3, 304)):
        ctx = SumContext(QuadOrder(dk))
        worst_e2 = max(worst_e2, abs(ctx.lattice.e2_zero()))
        rng = random.Random(seed)
        for _ in range(50):
            w = random_sl2(rng, ctx.order)
            worst_phi = max(worst_phi, abs(phi(w, ctx)))
    report(
        3,
        "triviality-on-gauss-eisenstein",
        worst_phi <= 1e-7 and worst_e2 <= 1e-10,
        f"worst |Phi| {worst_phi:.3e} (tol 1e-7), worst |E2(0)| {worst_e2:.3e} (tol 1e-10)",
    )


def _admissible_targets():
    targets = []
    rejected = []
    for dk in (-8, -20):
        order = QuadOrder(dk)
        for a, b in ((1, 3), (2, 5), (7, 9)):
            try:
                targets.append(Target(a, b, order))
            except InadmissibleTargetError:
                rejected.append((a, b, dk))
    return targets, rejected


def test_criterion_4_exact_construction_suite():
    started = time.time()
    targets, rejected = _admissible_targets()
    # (2, 5) with d = -20 violates gcd(b, 2d) = 1 and must be rejected.
    assert rejected == [(2, 5, -20)]
    checked = 0
    for target in targets:
        order = target.order
        d = order.discriminant
        one = order.one()
        rd = sqrt_discriminant(order)
        for step in approximate(target, 3):
            assert step.A1.det() == one and step.A2.det() == one and step.A3.det() == one
            assert step.e * target.b == target.a * step.p - 1
            assert (step.k * (step.k + step.e) * d) % step.p == 1
            assert (2 * step.ell - d * step.e) ** 2 % step.p == (d * d * step.e**2 + 4 * d) % step.p
            assert step.A3.c == (step.p * step.e) * rd
            assert (step.A1.a * step.A2.a - one).exact_div(order.element(step.p)) is not None
            checked += 1
    elapsed = time.time() - started
    report(
        4,
        "exact-construction",
        checked == 15 and elapsed <= 30.0,
        f"{checked} steps over {len(targets)} admissible targets, zero tolerance, {elapsed:.1f}s "
        f"((2,5,-20) correctly rejected as inadmissible)",
    )


def test_criterion_5_convergence():
    targets, _ = _admissible_targets()
    worst_margin = math.inf
    for target in targets:
        bound = Fraction(2, target.b) + 1
        for step in approximate(target, 3):
            assert step.err_exact <= bound / step.p
            worst_margin = min(worst_margin, float((bound / step.p) / step.err_exact))
    anchor = Target(1, 3, QuadOrder(-8))
    first = next(approximate(anchor, 1))
    anchor_ok = first.p == 2689 and abs(first.abs_err - 2.48e-4) <= 1e-6
    report(
        5,
        "convergence",
        anchor_ok,
        f"all |dtilde - 2a/b| <= (2/b+1)/p (min slack factor {worst_margin:.2f}); "
        f"(1,3,-8): p={first.p}, |err|={first.abs_err:.6e} within 1e-6 of 2.48e-4",
    )


def test_criterion_6_analytic_layer(hecke_lattices):
    rng = random.Random(606)
    lat = Lattice(1.0, 1j * SQRT2)

    worst_period = 0.0
    worst_odd = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        v0 = lat.e1(z)
        v1 = lat.e1(z + m * lat.omega1 + n * lat.omega2)
        worst_period = max(worst_period, abs(v1 - v0) / (1.0 + abs(v0)))
        worst_odd = max(worst_odd, abs(lat.e1(z) + lat.e1(-z)))

    eta1, eta2 = lat.quasi_periods()
    legendre_residual = abs(eta1 * lat.omega2 - eta2 * lat.omega1 - 2j * math.pi)

    hecke_worst = 0.0
    ewald_worst = 0.0
    for lt in hecke_lattices:
        s2 = lt.e2_zero()
        hecke_worst = max(hecke_worst, abs(s2 - e2_hecke_limit(lt)) / max(abs(s2), 1.0 / lt.area()))
        # E1 on the half-height row (s*omega1 + 2*omega2)/4, relative to max(|E1|, 1/sqrt(area)).
        for s, value in zip((1, 2, 3), lt.e1_torsion([1, 2, 3], [2, 2, 2], 4)):
            ref = e1_ewald((s * lt.omega1 + 2 * lt.omega2) / 4, lt)
            ewald_worst = max(ewald_worst, abs(value - ref) / max(abs(ref), 1.0 / math.sqrt(lt.area())))

    j_err = abs(Lattice(1.0, 1j).j_invariant() - 1728.0) / 1728.0

    ok = worst_period <= 1e-8 and worst_odd <= 1e-8 and legendre_residual <= 1e-8 and j_err <= 1e-6
    ok = ok and hecke_worst <= 1e-12 and ewald_worst <= 1e-12
    report(
        6,
        "analytic-layer",
        ok,
        f"periodicity {worst_period:.2e}, oddness {worst_odd:.2e}, legendre {legendre_residual:.2e}, "
        f"hecke {hecke_worst:.2e} and E1 ewald {ewald_worst:.2e} relative (tol 1e-12, {len(hecke_lattices)} lattices), "
        f"j(Z[i]) rel err {j_err:.2e}",
    )


def test_criterion_7_coset_layer():
    from elliptic_dedekind import CosetSystem

    started = time.time()
    rng = random.Random(707)
    failures = 0
    total = 0
    for dk, f in ((-8, 1), (-7, 1), (-4, 3)):
        order = QuadOrder(dk, f)
        lat = Lattice.from_order(order)
        for _ in range(50):
            while True:
                k = order.element(rng.randint(-12, 12), rng.randint(-4, 4))
                if 0 < k.norm() <= 200:
                    break
            system = CosetSystem(k, lat)
            total += 1
            if system.size != k.norm():
                failures += 1
                continue
            coords = system.coords()
            n = len(coords)
            for i in range(n):
                for j in range(i + 1, n):
                    delta = (int(coords[i, 0] - coords[j, 0]), int(coords[i, 1] - coords[j, 1]))
                    if system.torsion_key(*delta) == (0, 0):
                        failures += 1
    elapsed = time.time() - started
    report(
        7,
        "coset-layer",
        failures == 0 and elapsed <= 10.0,
        f"{total} random k over 3 orders, count + pairwise inequivalence exact, {elapsed:.1f}s",
    )


def test_criterion_8_normalization_reality_and_scale():
    rng = random.Random(808)
    worst_imag = 0.0
    worst_scale = 0.0
    cases = (
        (QuadOrder(-8), Lattice(1.0, 1j * SQRT2)),
        (QuadOrder(-7), Lattice(1.0, complex(0.5, 0.5 * math.sqrt(7.0)))),
    )
    for order, lat in cases:
        ctx = SumContext(order, lat)
        e2 = ctx.lattice.e2_zero()
        denom = 1j * math.sqrt(abs(order.discriminant)) * e2
        pairs = 0
        while pairs < 20:
            h = order.element(rng.randint(-8, 8), rng.randint(-8, 8))
            k = order.element(rng.randint(-8, 8), rng.randint(-8, 8))
            if k.is_zero() or k.norm() > 150 or h.is_zero():
                continue
            pairs += 1
            w = d_sum(h, k, ctx) / denom
            worst_imag = max(worst_imag, abs(w.imag))
            c = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5))
            scaled_ctx = ctx.scaled(c)
            w_scaled = d_sum(h, k, scaled_ctx) / (1j * math.sqrt(abs(order.discriminant)) * scaled_ctx.lattice.e2_zero())
            worst_scale = max(worst_scale, abs(w_scaled.real - w.real))
    report(
        8,
        "normalization-reality-scale",
        worst_imag <= 1e-6 and worst_scale <= 1e-8,
        f"40 (h,k) pairs over two bases: worst |Im Dtilde| {worst_imag:.2e} (tol 1e-6), "
        f"worst scale drift {worst_scale:.2e} (tol 1e-8)",
    )
