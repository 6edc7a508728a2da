"""Elliptic Dedekind sums, the Phi homomorphism, and the three-term closed form.

The fundamental objects:

    D_L(h, k)   = (1/k) * sum over mu in L/kL of E1(h*mu/k) * E1(mu/k),
                  the division being by the complex embedding of k;
    Phi(A)      = E2(0)*I((a+d)/c) - D_L(a, c)   if c != 0,
                  E2(0)*I(b/d)                   if c == 0,
                  for A = [[a, b], [c, d]] in SL2(O_L), I(z) = z - conj(z);
    Dtilde(h,k) = D_L(h, k) / (i*sqrt(|disc|)*E2(0)), real when j(L) is real.

Phi is a homomorphism into (C, +); for triples A1 = A2*A3 with
c1 = c2 = c != 0 and a1*a2 = 1 (mod c) this collapses to the closed form
D_L(a3, c3) = E2(0)*I(2/c3 + c3/c^2).

I(z) = i*sqrt(|d|)*J(z) with J exact on order elements (_j): each head below is
an exact J times i*sqrt(|d|)*E2(0), and _head is the one step that makes a float.

d_sum takes one of two paths, chosen by h alone: h = 0 gives an exact 0 at
any N(k), and the walk (sl2._walk) serves every other pair, on any order and
any lattice the order acts on.  It walks h', the box representative of +-h
mod k, and returns R, the counts and w times that sign.  Its steps
M_i = [[alpha_i, beta_i], [gamma_i, delta_i]] take (h, k) to
(a_n, c_n) = P*(h, k), P = M_n...M_1, and Phi is additive.  If (h, k) = gO
(let g = 1: D_L(h, k) = D_L(h/g, k/g), and the walk takes the steps of
(h/g, k/g)), P takes the SL2(O) matrix with first column (h, k) and
lower-right entry x = h^-1 mod k to diag(u, 1/u), u a unit, whose Phi is 0:

    D_L(h, k)   = i*sqrt(|d|)*E2(0)*R - sum over keys of n_key*D_L(key),
    R           = J((h + x)/k) + sum_i J((alpha_i + delta_i)/gamma_i),
    J(z/w)      = 2*Im(z/w)/sqrt(|d|) = v(z*conj(w))/N(w),

v the theta-coordinate.  Otherwise the walk stops at a cusp
a_n/c_n = r/t mod O.  With B = (r, t) and x1 the lower-left entry of P,

    D_L(h, k) = i*sqrt(|d|)*E2(0; L)*R - sum over keys of n_key*D_L(key)
                + E2(0; B^-1 L)*w - E2(0; conj(B)^-1 L)*conj(w),
    R         = J(h/k) - J(a_n/c_n) + sum_i J((alpha_i + delta_i)/gamma_i),
    w         = c_n*x1/(t^2*k),

the keys holding D_L(r, t) with count -1 beside the steps' constants,
and B^-1 L = (1/t)*{y in L : r*y in t*L} (cosets._colon_lattice).
Where (a_n, c_n) = O, B = (t/c_n)*O and the last two terms are
E2(0)*I(x1/(k*c_n)): the first law, stopped early.  The law is in D_L units,
so it needs no real j and no nonzero E2(0).  R and w are exact, each step
chosen in integers, with no norm bound.

The sum over keys is the sum of the constants D_L(alpha_i, gamma_i) of the
steps with N(gamma_i) > 1, less the cusp's D_L(r, t), folded by exact
symmetries.  D_L(alpha, gamma) depends on alpha mod gamma alone, and

    D_L(-alpha, gamma)          = -D_L(alpha, gamma)   E1 is odd;
    D_L(alpha, -gamma)          = -D_L(alpha, gamma)   E1 is odd, twice, and 1/(-gamma);
    D_L(alpha^-1, gamma)        =  D_L(alpha, gamma)   nu = alpha*mu permutes L/gamma*L;
    D_L(conj alpha, conj gamma) = -D_L(alpha, gamma)   on every lattice L the order acts on.

The last needs no conj(L) = L.  L is its own dual under the pairing
<z, w> = Im(conj(z)*w)/area, integral and unimodular on L, and
<h*z, w> = <z, conj(h)*w>.  Poisson summation expands
E1(z) = -sum' over lambda in L of e(<lambda, z>)/lambda, so the sum over
mu in L/kL of E1(h*mu/k)*E1(mu/k) keeps the pairs with
conj(h)*lambda + lambda' in conj(k)*L, each N(k) times:
D_L(h, k) = conj(k)*sum 1/(lambda*lambda') over them.  lambda' -> -lambda'
turns that into the Eisenstein sum of E1(conj(h)*mu/conj(k))*E1(mu/conj(k)),
mu in L/conj(k)L, with the sign flipped: -D_L(conj h, conj k).

D_L depends on h/k in K/O alone: D_L(g*h, g*k) = D_L(h, k) for nonzero g
in O.  Write mu in L/gkL as mu0 + k*nu, mu0 in L/kL, nu in L/gL; then
E1(g*h*mu/(g*k)) = E1(h*mu0/k), and E1's distribution relation, the sum
over nu of E1(z + nu/g) = E1(z; g^-1 L) = g*E1(g*z), at z = mu0/(g*k),
leaves (1/k)*sum over mu0 of E1(h*mu0/k)*E1(mu0/k).  So a stop's D_L(r, t)
is D_L(a_n, c_n), as t*a_n = r*c_n mod t*c_n*O, and the walk divides the
pair's rational-integer content out before its first step.

alpha^-1 mod gamma is the step's own delta, as alpha*delta - beta*gamma = 1,
and the walk's gammas are one of each +-gamma.  The walk keys each constant
by its orbit under all four, with a sign, in one step (sl2._orbit_key), and
keeps signed net counts n_key; a key that its orbit reaches with both signs
is 0.  The cusp's D_L(r, t) is keyed on gamma = t or on +-c_n, whichever
table is smaller; r and a_n need not be invertible, so its key drops only
alpha^-1.  Every D_L(r, 2) is 0: each mu/2 is a 2-torsion point, where the
odd, periodic E1 vanishes, and the fold sees it, as x = 2r has -x = x
mod 4.  The keys depend on (h, k) alone, so the order's own basis, the same
lattice as a float basis, and a scaled copy take the same keys.  Only the
keys with n_key != 0 go to _d_sum_tables, each an E1-table sum on the
lattice itself at N(gamma), and n_key*D_L(key) is subtracted in key order,
so no hash order reaches the value.  A walk to c = 0 with no nonzero count
gives Dtilde = R exactly (d_norm_exact, _Walk.exact): every walk on
d_K = -7, -8, -11, which takes no extra step, and those whose constants
cancel, as in README's fourth and fifth sums.

_d_sum_tables is the one path from pairs to E1-table values: one E1
evaluation for the tables of all its distinct k, one table sum per distinct
pair.  It sums the walk's small tables and, at N(k), is the reference the
suites and tests check the walk against.  CosetSystem(k) is the box
transversal of L/kL, with N(k) members at CosetSystem.index((a, b)) =
b*h11 + a and exact torsion coordinates (the cosets module);
Lattice._torsion_coords maps those into the lattice's reduced basis with one
integer matrix, and Lattice._e1_reduced evaluates E1 there, once per pair
{mu, -mu} of CosetSystem.half (_e1_tables), in slices of _CHUNK.
Multiplication by h permutes (1/k)L/L, so h enters only modulo k, through
int64 table indices, and the terms at mu and -mu are bitwise equal:
D_L(h, k) = 2*sum over half of table[index(h*mu)] * table[index(mu)] / k.
Those operations stay below 2*N(k)**2, exact for N(k) < 2**31.  Before
allocating any table, _d_sum_tables refuses a larger N(k), and tables
whose cosets, at _BYTES_PER_COSET each, would not fit in physical memory.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .cosets import CosetSystem, _colon_lattice, mult_matrix
from .errors import (
    ExcludedRingError,
    GenerationError,
    NotAMultiplierError,
    NotUnimodularError,
    OrderMismatchError,
    PrecisionLossError,
    PreconditionError,
    ZeroDivisorError,
)
from .lattice import Lattice
from .ring import OrderElem, QuadOrder, _add, _mul, _norm, _Pair, _sub, _times_conj
from .ring import egcd_order  # noqa: F401  (unused here; bench/tracing.py rebinds it to count calls)
from .sl2 import Mat2, _column, _key_pair, _walk, _Walk

__all__ = [
    "Mat2",
    "SumContext",
    "d_sum",
    "normalize_value",
    "d_norm",
    "d_norm_exact",
    "phi",
    "three_term_residual",
    "three_term_closed_form",
    "gen_sl2_triple",
]

_CHUNK = 4096
# The E1 table works with int64 coset indices, exact for N(k) below this bound.
_MAX_NORM = 2**31
# Peak bytes per coset of one _d_sum_table call, by tracemalloc at N(k) ~ 1e6 on d = -8 and -20 (72.0).
_BYTES_PER_COSET = 72
# gen_sl2_triple keeps N(c3) at or below this, so the reference _d_sum_table of a lemma check stays small.
_MAX_C3_NORM = 300


class SumContext:
    """An order and a lattice it acts on, for sum evaluation.

    The lattice defaults to the order itself, basis (1, theta), which theta
    multiplies into itself by construction.  A lattice the caller gives is
    checked: the order's generator must multiply it into itself (so all
    OrderElem arguments are valid multipliers).
    """

    def __init__(self, order: QuadOrder, lattice: Lattice | None = None):
        self.order = order
        if lattice is None:
            self.lattice = Lattice.from_order(order)
            return
        self.lattice = lattice
        try:
            mult_matrix(order.theta(), self.lattice)
        except NotAMultiplierError as exc:
            raise NotAMultiplierError(f"order (d_k={order.d_k}, f={order.f}) does not act on this lattice") from exc

    def scaled(self, c: complex) -> "SumContext":
        return SumContext(self.order, self.lattice.scaled(c))

    def _check(self, *elems: OrderElem) -> None:
        """Raise OrderMismatchError unless every element belongs to this context's order."""
        for x in elems:
            if x.order is not self.order and x.order != self.order:
                raise OrderMismatchError(f"element of {x.order}, expected {self.order}")


def _e1_tables(systems: list[CosetSystem]) -> list[np.ndarray]:
    """E1(mu/k) for every mu of each system's box, indexed b*h11 + a for mu = a*omega1 + b*omega2.

    The systems share one lattice.  Each torsion point mu/k is
    (x*r1 + y*r2)/N(k), (x, y) = Lattice._torsion_coords(a, b, N(k), adj(M)).
    E1 is odd, so it is evaluated once per pair {mu, -mu}, at the member of
    CosetSystem.half, and stored negated at the other; mu = 0 and the
    2-torsion points keep the exact value 0.  The points of all systems are
    evaluated in one pass, in slices of _CHUNK, so a walk's small tables
    share one E1 evaluation.
    """
    lattice = systems[0].lattice
    xs, ys = [], []
    for system in systems:
        _, _, a, b = system.half
        n = system.size
        x, y = lattice._torsion_coords(a, b, n, system.adj)
        xs.append(x / n)
        ys.append(y / n)
    x, y = np.concatenate(xs), np.concatenate(ys)
    values = np.empty(x.size, dtype=complex)
    for s in range(0, x.size, _CHUNK):
        # mu/k is a lattice point only for mu = 0, which half leaves out.
        values[s : s + _CHUNK] = lattice._e1_reduced(x[s : s + _CHUNK], y[s : s + _CHUNK], False)
    tables, start = [], 0
    for system in systems:
        idx, neg, _, _ = system.half
        table = np.zeros(system.size, dtype=complex)
        chunk = values[start : start + idx.size]
        start += idx.size
        table[neg] = -chunk
        table[idx] = chunk
        tables.append(table)
    return tables


def _table_sum(h: OrderElem, system: CosetSystem, table: np.ndarray, ctx: SumContext) -> complex:
    """D_L(h, k) from the E1 table of k (see the module docstring).

    The terms at mu and -mu are bitwise equal and the 2-torsion terms are 0,
    so the sum runs over CosetSystem.half and is doubled.  It runs in slices
    of _CHUNK points whose partial sums are added in index order, which
    fixes the rounding.
    """
    hm = mult_matrix(h, ctx.lattice)
    # Images of omega1 and omega2 under h, reduced into the box.
    x1, y1 = system.reduce_coords((hm.a11, hm.a21))
    x2, y2 = system.reduce_coords((hm.a12, hm.a22))
    idx, _, a, b = system.half
    total = 0j
    for s in range(0, idx.size, _CHUNK):
        i, sa, sb = (v[s : s + _CHUNK] for v in (idx, a, b))
        total += complex(np.sum(table[system.index((sa * x1 + sb * x2, sa * y1 + sb * y2))] * table[i]))
    return 2 * total / system.k.embed()


def _d_sum_tables(pairs: Sequence[tuple[OrderElem, OrderElem]], ctx: SumContext) -> list[complex]:
    """D_L(h, k) for each (h, k) in `pairs`, each from one E1 table at N(k): the walk's constants and its reference.

    Each distinct pair is checked first, in first-seen order: ctx._check,
    h = 0 gives 0, and PreconditionError refuses N(k) >= 2**31, or tables
    too large for memory, before any table is built.  The tables of the
    distinct k then share one E1 evaluation (_e1_tables), and each distinct
    pair is one _table_sum, bit for bit the value of the pair alone.
    """
    distinct = dict.fromkeys(pairs)
    values, systems = {}, {}
    for h, k in distinct:
        ctx._check(h, k)
        if h.is_zero():
            values[h, k] = d_sum(h, k, ctx)
        elif k not in systems:
            systems[k] = CosetSystem(k, ctx.lattice)
    sizes = [system.size for system in systems.values()] or [0]
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else math.inf
    if max(sizes) >= _MAX_NORM or _BYTES_PER_COSET * sum(sizes) > memory:
        raise PreconditionError(
            f"tables of {sum(sizes)} cosets, the largest N(k) = {max(sizes)}, need N(k) < {_MAX_NORM} = 2**31 for "
            f"int64 coset indices and {_BYTES_PER_COSET} bytes per coset within {memory} bytes of physical memory"
        )
    tables = dict(zip(systems, _e1_tables(list(systems.values())))) if systems else {}
    values.update({(h, k): _table_sum(h, systems[k], tables[k], ctx) for h, k in distinct if (h, k) not in values})
    return [values[pair] for pair in pairs]


def _d_sum_table(h: OrderElem, k: OrderElem, ctx: SumContext) -> complex:
    """D_L(h, k) from one E1 table at N(k), the one-pair case of _d_sum_tables, with its refusals; h = 0 gives 0."""
    (value,) = _d_sum_tables([(h, k)], ctx)
    return value


def _walk_value(walk: _Walk, ctx: SumContext) -> complex:
    """D_L(h, k) from walk = _walk(h, k), by the laws of the module docstring.

    Its head is _head(R), so R = 0 gives +0.0; a walk to c = 0 with no nonzero
    net count ends there.  Otherwise the keys go to _d_sum_tables and
    count*D_L(key) is subtracted in key order, then the cusp's E2(0) terms are added.
    """
    value = _head(walk.r, ctx)
    if walk.counts:
        sums = _d_sum_tables([_key_pair(key, ctx.order) for key, _ in walk.counts], ctx)
        value -= sum(count * d for (_, count), d in zip(walk.counts, sums))
    if walk.cusp is not None:
        b, t, (wu, wv) = walk.cusp
        w = float(wu) + float(wv) * ctx.order.theta_embedding()
        e2_b, e2_conj_b = (_colon_lattice(x, t.u, ctx.lattice).e2_zero() for x in (b, b.conjugate()))
        value += e2_b * w - e2_conj_b * w.conjugate()
    return value


def d_norm_exact(h: OrderElem, k: OrderElem, ctx: SumContext) -> Fraction:
    """Dtilde(h, k) as an exact rational, where the walk of (h, k) ends at c = 0 and its net counts all vanish.

    That holds for every pair with h != 0 on d_K = -7, -8, -11 with f = 1,
    which take no extra step, and wherever the walk's constants cancel by
    the symmetries of D_L (the module docstring).  Raises what d_norm raises
    on the lattice (ExcludedRingError on Z[i] and Z[rho]), PreconditionError
    for any other pair.
    """
    ctx._check(h, k)
    if k.is_zero():
        raise ZeroDivisorError("zero modulus")
    _normalizer(ctx)
    walk = None if h.is_zero() else _walk(h, k)
    if walk is None or not walk.exact:
        raise PreconditionError(
            f"Dtilde(h={h!r}, k={k!r}) is exact only for h != 0 and a walk to c = 0 whose constants cancel"
        )
    return walk.r


def d_sum(h: OrderElem, k: OrderElem, ctx: SumContext) -> complex:
    """Elliptic Dedekind sum D_L(h, k): an exact 0j for h = 0, else the walk (see the module docstring).

    Raises PreconditionError when the walk's R or its head leaves the double range (_head),
    or when a table it needs is refused (_d_sum_tables), and OrderMismatchError when h or k is not in ctx.order.
    """
    ctx._check(h, k)
    if k.is_zero():
        raise ZeroDivisorError("zero modulus")
    return 0j if h.is_zero() else _walk_value(_walk(h, k), ctx)


def _factor(ctx: SumContext) -> complex:
    """i*sqrt(|disc|)*E2(0), multiplied in this order: the factor of every head and the Dtilde normalization."""
    return 1j * math.sqrt(abs(ctx.order.discriminant)) * ctx.lattice.e2_zero()


def _j(z: _Pair, w: _Pair, order: QuadOrder) -> Fraction:
    """J(z/w) = 2*Im(z/w)/sqrt(|d|) = v(z*conj(w))/N(w), exact, for int pairs z and w != 0."""
    tr, nt = order.theta_trace, order.theta_norm
    return Fraction(_times_conj(z, w, tr, nt)[1], _norm(w, tr, nt))


def _head(q: Fraction, ctx: SumContext) -> complex:
    """i*sqrt(|d|)*E2(0)*q, q rounded by one integer division; PreconditionError where q or the head leaves the double range."""
    try:
        value = _factor(ctx) * (q.numerator / q.denominator)
    except OverflowError as exc:
        raise PreconditionError("the exact J of a head leaves the double range") from exc
    if not cmath.isfinite(value):
        raise PreconditionError("a head leaves the double range")
    return value


def _normalizer(ctx: SumContext) -> complex:
    """i*sqrt(|disc|)*E2(0), the Dtilde normalization, once the lattice admits it.

    Raises ExcludedRingError when E2(0) vanishes (multiplier ring Z[i] or
    Z[rho]) and PreconditionError when j(L) is not real (Dtilde is then not
    real either), decided on the reduced tau (Lattice._j_is_real), so any
    |disc| is served.  E2(0) has weight 2, so the vanishing test is on
    |E2(0)|*area, which does not change when the lattice is scaled.
    """
    e2 = ctx.lattice.e2_zero()
    if abs(e2) * ctx.lattice.area() < 1e-12:
        raise ExcludedRingError(f"E2(0) = {e2:.3e} vanishes for this ring; normalized sums are undefined")
    if not ctx.lattice._j_is_real():
        raise PreconditionError(f"j(L) is not real at tau = {ctx.lattice._tau:.6g}; normalized sums need a real j")
    return _factor(ctx)


def normalize_value(value: complex, ctx: SumContext) -> float:
    """Apply the Dtilde normalization 1/(i*sqrt(|disc|)*E2(0)) and take the real part.

    Raises what _normalizer raises, and PrecisionLossError when the
    normalized value keeps a residual imaginary part.
    """
    w = complex(value) / _normalizer(ctx)
    if abs(w.imag) > 1e-6 * (1.0 + abs(w)):
        raise PrecisionLossError(f"normalized sum kept imaginary part {w.imag:.3e}")
    return w.real


def d_norm(h: OrderElem, k: OrderElem, ctx: SumContext) -> float:
    """Normalized elliptic Dedekind sum Dtilde(h, k), a real number."""
    return normalize_value(d_sum(h, k, ctx), ctx)


def phi(a_mat: Mat2, ctx: SumContext) -> complex:
    """The Phi homomorphism SL2(O_L) -> (C, +).

    Its head is _head of the exact J((a+d)/c), or of J(b/d) when c = 0, at
    any size of the entries.  Raises PreconditionError where that J or the
    head leaves the double range, and what d_sum(a, c) raises.
    """
    ctx._check(a_mat.a)  # Mat2 keeps its entries in one order
    if not a_mat.is_unimodular():
        raise NotUnimodularError(f"determinant is {a_mat.det()!r}, expected 1")
    a, b, c, d = a_mat._pairs()
    if c == (0, 0):
        return _head(_j(b, d, ctx.order), ctx)
    return _head(_j(_add(a, d), c, ctx.order), ctx) - d_sum(a_mat.a, a_mat.c, ctx)


def three_term_residual(a1: Mat2, a2: Mat2, a3: Mat2, ctx: SumContext) -> complex:
    """Phi(A1) - Phi(A2) - Phi(A3) for A1 = A2*A3 (checked exactly)."""
    if a2 @ a3 != a1:
        raise PreconditionError("A1 != A2 @ A3")
    return phi(a1, ctx) - phi(a2, ctx) - phi(a3, ctx)


def three_term_closed_form(c: OrderElem, c3: OrderElem, ctx: SumContext) -> complex:
    """Closed form E2(0)*I(2/c3 + c3/c^2) for the collapsed three-term relation.

    It is _head of the exact J(2/c3) + J(c3/c^2) at any size of c and c3, so
    PreconditionError only where that rational or the head leaves the double range.
    """
    ctx._check(c, c3)
    if c.is_zero() or c3.is_zero():
        raise ZeroDivisorError("c and c3 must be nonzero")
    c3p, cc = (c3.u, c3.v), c * c
    return _head(_j((2, 0), c3p, ctx.order) + _j(c3p, (cc.u, cc.v), ctx.order), ctx)


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """An integer uniform in [lo, hi]: the value of rng.randint(lo, hi), from the same generator words.

    randint(lo, hi) draws r = rng.getrandbits(k), k = width.bit_length() for
    width = hi - lo + 1, draws again while r >= width, and returns lo + r,
    through three Python frames.  This runs the same rule in one, so every
    seed keeps its draws and leaves rng in the same state.
    """
    width = hi - lo + 1
    if width < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return lo + r


def gen_sl2_triple(seed: int, ctx: SumContext) -> tuple[Mat2, Mat2, Mat2]:
    """Random triple A1 = A2 @ A3 with c1 = c2 = c != 0 and a1*a2 = 1 (mod c).

    norm(c3) is kept at or below _MAX_C3_NORM = 300, so the lemma suite's
    reference _d_sum_table of the triple stays small.  The search runs on int
    pairs: A1 and A2 are completed by sl2._column, on any order, and the
    matrices are built for the winner only.
    """
    order = ctx.order
    tr, nt = order.theta_trace, order.theta_norm
    c0 = tr // 2
    rng = random.Random(seed)
    for _ in range(800):
        c = (_randint(rng, -4, 4), _randint(rng, -2, 2))
        n_c = _norm(c, tr, nt)
        if not 2 <= n_c <= 40:
            continue
        a1 = (_randint(rng, -4, 4), _randint(rng, -2, 2))
        col1 = _column(a1, c, tr, nt, c0)
        if col1 is None:
            continue
        b1, d1 = col1
        # a2 = d1 + m*c runs over a1^-1 (mod c); c3 = c*(a2 - a1), so
        # N(c3) = N(c)*N(d1 - a1 + m*c).  For m = mu + mv*theta that norm is
        # the quadratic form n_d + mu*q_u + mv*q_v + N(c)*(mu^2 + tr*mu*mv + nt*mv^2)
        # in (mu, mv): N(x + y) = N(x) + N(y) + Tr(x*conj(y)) gives q_u and q_v
        # from N(diff + c) and N(diff + theta*c), and N(theta*c) = nt*N(c).
        # The smallest N(c3) wins, ties broken on (mu, mv).
        diff = _sub(d1, a1)
        n_d = _norm(diff, tr, nt)
        q_u = _norm(_add(diff, c), tr, nt) - n_d - n_c
        q_v = _norm(_add(diff, _mul((0, 1), c, tr, nt)), tr, nt) - n_d - nt * n_c
        best = None
        for mu in range(-2, 3):
            for mv in range(-2, 3):
                n3 = n_c * (n_d + mu * q_u + mv * q_v + n_c * (mu * mu + tr * mu * mv + nt * mv * mv))
                if n3 == 0 or n3 > _MAX_C3_NORM:
                    continue
                if best is None or (n3, mu, mv) < best:
                    best = (n3, mu, mv)
        if best is None:
            continue
        a2 = _add(d1, _mul(best[1:], c, tr, nt))
        col2 = _column(a2, c, tr, nt, c0)
        if col2 is None:
            continue
        b2, d2 = col2
        # A3 = A2^-1 @ A1 = [[d2, -b2], [-c, a2]] @ [[a1, b1], [c, d1]].
        m3 = (
            _sub(_mul(d2, a1, tr, nt), _mul(b2, c, tr, nt)),
            _sub(_mul(d2, b1, tr, nt), _mul(b2, d1, tr, nt)),
            _sub(_mul(a2, c, tr, nt), _mul(c, a1, tr, nt)),
            _sub(_mul(a2, d1, tr, nt), _mul(c, b1, tr, nt)),
        )
        return Mat2._of_pairs(order, a1, b1, c, d1), Mat2._of_pairs(order, a2, b2, c, d2), Mat2._of_pairs(order, *m3)
    raise GenerationError(f"no admissible triple found for seed={seed}, budget={_MAX_C3_NORM}")
