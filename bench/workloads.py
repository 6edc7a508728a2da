"""Seeded request lists for the benchmark workloads, and the checks on their output.

Every request is a CLI argument list for ``elliptic_dedekind.cli.main`` with
``--format json`` and default precision: no ``--threads``, ``--zeta-radius`` or
precision flag is passed, so removing those knobs does not change what is
measured.  Each request checks its own JSON against a reference computed
independently of the code path it times.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from elliptic_dedekind.dedekind import Mat2, SumContext, d_sum, gen_sl2_triple, three_term_closed_form
from elliptic_dedekind.errors import GenerationError, NoSquareRootError
from elliptic_dedekind.ring import (
    QuadOrder,
    egcd,
    inverse_mod,
    is_probable_prime,
    sqrt_discriminant,
    sqrt_mod,
)

__all__ = ["WORKLOADS", "Check", "build_requests", "closed_form_triple"]

WORKLOADS = ("sum_maximal", "sum_conductor", "verify_all", "approximate")

# Relative error a sum may have before it counts as failed: the lemma suite's
# own tolerance.
SUM_BUDGET = 1e-6
# A correctly rounded double carries no more digits than this relative error
# allows; it keeps min_correct_digits finite when a value is exact.
REL_FLOOR = 2.0**-53

# (d_k, conductor, N(c3) rungs).  The ROADMAP's N ~ 2e7 rung is left out: one
# CLI call there takes ~25 s and ~1 GB.
SUM_RUNGS = {
    "sum_maximal": (-8, 1, (3.0e5, 2.8e6)),
    "sum_conductor": (-8, 3, (3.0e5, 2.6e6)),
}
# N(c3) = p^2 e^2 |d| lands within this share of its rung, which keeps the
# pass time steady across seeds.
RUNG_WINDOW = 0.02
# The smoke test's rung: N(c3) up to 2e3 (the conductor-3 order has nothing
# smaller than 1800).
SMOKE_RUNG, SMOKE_WINDOW = 1.0e3, 1.0

VERIFY_DK = -8
# The sums behind verify_all's correct digits: the first LEMMA_TRIPLES
# nonzero-valued triples of the lemma suite's kind (N(c3) <= 300) from the
# public generator, seeded from the CLI's default seed.
LEMMA_SEED, LEMMA_TRIPLES = 12345, 20

# (a, b, d_k, steps): small denominators with long runs, then large
# denominators whose primes reach ~5e16.
APPROX_TARGETS = (
    (1, 3, -8, 150),
    (2, 5, -7, 150),
    (5, 7, -11, 150),
    (1234, 10007, -8, 40),
    (4999, 10007, -7, 40),
)
SMOKE_APPROX_STEPS = 3


@dataclass(frozen=True)
class Check:
    """Outcome of checking one CLI output: operations, failures, correct digits."""

    ops: int
    failed: int
    digits: float


def _digits(rel_err: float) -> float:
    if not rel_err <= 1.0:  # also catches NaN
        return 0.0
    return -math.log10(max(rel_err, REL_FLOOR))


def _coords(elem) -> str:
    return f"{elem.u},{elem.v}"


# ---------------------------------------------------------------------------
# Sums on closed-form triples.


def closed_form_triple(order: QuadOrder, p: int, e: int, root: int) -> Mat2:
    """A3 of the triple A1 = A2 @ A3 with c1 = c2 = p and c3 = p*e*sqrt(d).

    a1 = k*sqrt(d), a2 = (k+e)*sqrt(d) with k*(k+e)*d = 1 (mod p), so
    a1*a2 = 1 (mod p); both are completed to unimodular matrices by integer
    Bezout coefficients.  `root` (0 or 1) picks one of the two solutions k.
    Raises NoSquareRootError when no k exists for (p, e).
    """
    d = order.discriminant
    r = sqrt_mod((e * e + 4 * inverse_mod(d, p)) % p, p)
    if root:
        r = (p - r) % p
    k = ((r - e) * inverse_mod(2, p)) % p
    if (k * (k + e) * d) % p != 1:
        raise RuntimeError(f"k*(k+e)*d != 1 mod {p}")
    s = sqrt_discriminant(order)
    p_elem = order.element(p)
    mats = []
    for kk in (k, k + e):
        g, x, y = egcd(p, kk * d)  # p*x + kk*d*y = 1
        if g != 1:
            raise RuntimeError(f"gcd(p, {kk}*d) = {g}")
        mats.append(Mat2(kk * s, order.element(-x), p_elem, y * s))
    m1, m2 = mats
    m3 = m2.inverse() @ m1
    if not (m1.is_unimodular() and m2.is_unimodular() and m3.is_unimodular()):
        raise RuntimeError("a triple matrix is not unimodular")
    if m2 @ m3 != m1:
        raise RuntimeError("A2 @ A3 != A1")
    if m3.c != (p * e) * s:
        raise RuntimeError("c3 != p*e*sqrt(d)")
    return m3


def _rung_candidates(order: QuadOrder, rung: float, window: float) -> list[tuple[int, int]]:
    """Every (p, e) with p an odd prime not dividing d, a k, and |N(c3)/rung - 1| <= window."""
    d = order.discriminant
    n_mid = math.sqrt(rung / abs(d))
    lo = max(math.ceil(n_mid * math.sqrt(1.0 - window)), 3)
    hi = math.floor(n_mid * math.sqrt(1.0 + window))
    out = []
    for n in range(lo, hi + 1):
        for p in range(3, n + 1, 2):
            if n % p or d % p == 0 or not is_probable_prime(p):
                continue
            try:
                sqrt_mod((n // p) ** 2 + 4 * inverse_mod(d, p), p)
            except NoSquareRootError:
                continue
            out.append((p, n // p))
    return out


class SumRequest:
    """CLI `sum` on (h, k) = (a3, c3); the closed form gives the reference value."""

    kind = "sum"

    def __init__(self, ctx: SumContext, p: int, e: int, root: int):
        order = ctx.order
        a3 = closed_form_triple(order, p, e, root)
        self.p, self.e, self.n_c3 = p, e, a3.c.norm()
        self.argv = [
            "sum",
            "--dk", str(order.d_k),
            "-f", str(order.f),
            f"--h={_coords(a3.a)}",
            f"--k={_coords(a3.c)}",
            "--format", "json",
        ]
        self.reference = three_term_closed_form(order.element(p), a3.c, ctx)
        # The normalized closed form is rational: 2e/p + 4/(p*e*d).
        self.dtilde = Fraction(2 * e, p) + Fraction(4, p * e * order.discriminant)
        self.expected_ops = 1

    def describe(self) -> dict:
        return {"argv": self.argv, "p": self.p, "e": self.e, "N_c3": self.n_c3}

    def check(self, payload: dict) -> Check:
        rec = payload["records"][0]
        got = complex(rec["d_sum"]["re"], rec["d_sum"]["im"])
        rel = abs(got - self.reference) / abs(self.reference)
        norm_rel = float(abs(Fraction(rec["d_norm"]) - self.dtilde) / abs(self.dtilde))
        ok = rec["coset_count"] == self.n_c3 and rel <= SUM_BUDGET and norm_rel <= SUM_BUDGET
        return Check(1, 0 if ok else 1, _digits(rel))


# ---------------------------------------------------------------------------
# Verification suites.


class VerifyRequest:
    """CLI `verify`; every check must pass and the summary must agree with the records.

    The records hold only the suite's own residuals, so the correct digits come
    from sums the benchmark checks itself: `d_sum` against the closed form on
    nonzero-valued triples of the lemma suite's kind, computed once per run.

    It runs with the CLI's default seed, as the command is documented.  With
    about 30% of other seeds (12 of 0..40) the phi suite exits with code 2,
    "could not generate a norm-bounded unimodular word" (GenerationError), so
    the benchmark seed is not passed on.
    """

    kind = "verify"

    def __init__(self, suite: str):
        self.argv = ["verify", "--suite", suite, "--dk", str(VERIFY_DK), "--format", "json"]
        self.expected_ops = 1
        self._digits = None

    def describe(self) -> dict:
        return {"argv": self.argv}

    def lemma_digits(self) -> float:
        if self._digits is None:
            ctx = SumContext(QuadOrder(VERIFY_DK))
            digits = []
            attempt = 0
            while len(digits) < LEMMA_TRIPLES and attempt < 40 * LEMMA_TRIPLES:
                attempt += 1
                try:
                    m1, _, m3 = gen_sl2_triple(LEMMA_SEED + attempt, ctx)
                except GenerationError:
                    continue
                reference = three_term_closed_form(m1.c, m3.c, ctx)
                # Some triples sum to exactly 0, which has no relative error.
                if reference != 0:
                    digits.append(_digits(abs(d_sum(m3.a, m3.c, ctx) - reference) / abs(reference)))
            self._digits = min(digits, default=0.0)
        return self._digits

    def check(self, payload: dict) -> Check:
        records = payload["records"]
        summary = payload["summary"]
        failed = sum(1 for r in records if not r["passed"])
        consistent = (
            summary["checks"] == len(records)
            and summary["failures"] == failed
            and summary["passed"] == (failed == 0)
        )
        lemma = [r for r in records if r["name"].startswith("lemma-triple-")]
        if not consistent or not lemma:
            failed = max(failed, 1)
        return Check(max(len(records), 1), failed, self.lemma_digits())


# ---------------------------------------------------------------------------
# Approximation steps.


class ApproximateRequest:
    """CLI `approximate`; every step is re-derived exactly from its p and e."""

    kind = "approximate"

    def __init__(self, a: int, b: int, d_k: int, steps: int):
        self.a, self.b, self.steps = a, b, steps
        self.d = QuadOrder(d_k).discriminant
        self.modulus = 4 * abs(4 * b * b * self.d + self.d * self.d)
        self.argv = [
            "approximate",
            "--a", str(a),
            "--b", str(b),
            "--dk", str(d_k),
            "--steps", str(steps),
            "--format", "json",
        ]
        self.expected_ops = steps

    def describe(self) -> dict:
        return {"argv": self.argv}

    def _step_ok(self, rec: dict, index: int, prev_p: int) -> tuple[bool, float]:
        a, b, d = self.a, self.b, self.d
        p, e = rec["p"], rec["e"]
        if rec["index"] != index or p <= prev_p or e * b != a * p - 1:
            return False, 0.0
        if p % self.modulus != 1 or not is_probable_prime(p):
            return False, 0.0
        exact = Fraction(2 * e, p) + Fraction(4, p * e * d)
        err = abs(exact - Fraction(2 * a, b))
        # The paper's rate, checked on the exact value: a double near 2a/b
        # cannot resolve (2/b + 1)/p once p is ~1e16.
        within = err <= (Fraction(2, b) + 1) / p
        rel = float(abs(Fraction(rec["dtilde"]) - exact) / abs(exact))
        rounded = abs(rec["dtilde"] - float(exact)) <= math.ulp(float(exact))
        err_rounded = abs(rec["abs_err"] - float(err)) <= math.ulp(float(err))
        return within and rounded and err_rounded, _digits(rel)

    def check(self, payload: dict) -> Check:
        records = payload["records"]
        failed = max(self.steps - len(records), 0)
        digits = []
        prev_p = 0
        for index, rec in enumerate(records[: self.steps]):
            ok, dig = self._step_ok(rec, index, prev_p)
            prev_p = rec["p"]
            failed += 0 if ok else 1
            digits.append(dig)
        return Check(self.steps, failed, min(digits, default=0.0))


# ---------------------------------------------------------------------------


def _lowest_ratio(candidates: list[tuple[int, int]]) -> tuple[int, int]:
    """The candidate with the smallest e/p.  |D_L| shrinks with e/p while the
    float error of the coset sum does not, so it is the rung's least accurate sum."""
    return min(candidates, key=lambda pe: (Fraction(pe[1], pe[0]), pe))


def build_requests(workload: str, seed: int, smoke: bool = False) -> list:
    """The request list of one pass.  `smoke` shrinks it to small N(c3) and a few steps.

    Each sum rung gets one request the seed picks among all its (p, e) and
    roots, and one fixed request: the rung's smallest e/p, root 0.
    """
    rng = random.Random(seed)
    if workload in SUM_RUNGS:
        d_k, f, rungs = SUM_RUNGS[workload]
        ctx = SumContext(QuadOrder(d_k, f))
        requests = []
        windows = [(SMOKE_RUNG, SMOKE_WINDOW)] if smoke else [(rung, RUNG_WINDOW) for rung in rungs]
        for rung, window in windows:
            candidates = _rung_candidates(ctx.order, rung, window)
            p, e = rng.choice(candidates)
            requests.append(SumRequest(ctx, p, e, rng.randrange(2)))
            requests.append(SumRequest(ctx, *_lowest_ratio(candidates), 0))
        return requests
    if workload == "verify_all":
        return [VerifyRequest("lemma" if smoke else "all")]
    if workload == "approximate":
        return [
            ApproximateRequest(a, b, d_k, SMOKE_APPROX_STEPS if smoke else steps)
            for a, b, d_k, steps in APPROX_TARGETS
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
