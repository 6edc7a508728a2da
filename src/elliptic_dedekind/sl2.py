"""Exact SL2(O) algebra: 2x2 matrices, their completion, and the pseudo-Euclidean walk.

The walk serves d_sum on every pair (h, k) with h != 0, on any order.  h is
first replaced by its representative mod k in a fixed box, up to sign
(_walk), so that the value is shift invariant and odd in h bit for bit.
The walk is the pseudo-Euclidean algorithm of modular symbols
(J. E. Cremona, Compositio Math. 51, 1984): each step applies
M = [[alpha, beta], [gamma, delta]] in SL2(O) to the column (a, c), starting
at (h, k), and takes the first M with N(gamma*a + delta*c) < N(c):

  - gamma = -1 and delta = q, the rounded quotient a/c, that is the
    Euclidean step M = [[0, 1], [-1, q]], whenever it lowers N(c);
  - otherwise gamma runs over -1, then the non-units up to the norm
    8*|disc| by increasing norm (_gammas), delta over the lattice
    points within distance 1 of -gamma*a/c, the points of an ellipse; the
    nearest with (gamma, delta) = O, decided by a gcd on its integers, wins
    (_extra_step), and _complete_row finds alpha and beta for it alone.

Every step, test and completion runs on int pairs (u, v) for u + v*theta,
with ring's pair arithmetic (_mul, _times_conj, _norm, ...), and so do Mat2
products and the unimodularity test; OrderElems are built only from h, k, for
the values the walk returns and for the entries of a Mat2.

The steps keep the ideal (a, c) = (h, k), and a = x0*h, c = x1*h mod k for
the first column (x0, x1) of P = M_n...M_1.  On a principal (h, k) the walk
ends at (g, 0), (g) = (h, k): x = x0*conj(g) inverts h mod k for a unit g,
else (h/g, k/g) takes the same steps to (1, 0) and x = x0*g gives
(h + x)/k = (h/g + x0)/(k/g); on d_K = -7, -8, -11 every step has
gamma = -1.  Where no gamma under the bound lowers N(c), as on every
non-principal (h, k), the walk stops at (a_n, c_n), c_n != 0, the cusp
a_n/c_n = r/t mod O, whose D_L(r, t) = D_L(a_n, c_n) is keyed on the
smaller of its tables, t*t or N(c_n) cosets.  It returns, for (h, k)
itself, all exact, for the laws of dedekind's docstring: R; the signed net
counts, on their canonical keys, of the constants D_L(alpha_i, gamma_i) of
the steps with N(gamma_i) > 1 and of the cusp's D_L(r, t); and the cusp
(r, t, w) of the E2(0) terms.  A key (_orbit_key) stands for the orbit of
a constant under the symmetries of dedekind's docstring, which hold on every
lattice, so the counts are final and the same for every lattice the order acts on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, NotUnimodularError, OrderMismatchError
from .ring import OrderElem, QuadOrder, _add, _combine, _generates, _mul, _norm, _Pair, _rounded_coords, _sub
from .ring import _times_conj, inverse_mod

__all__ = ["Mat2"]

# A walk step tries gamma up to the norm _GAMMA_DISC*|disc|.  Random pairs on every
# fundamental d_K down to -300, and on orders with f > 1 up to |disc| = 507, needed
# at most 72 and 4.03*|disc|; every order with 8*|disc| < 72 is norm-Euclidean.
_GAMMA_DISC = 8


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over a quadratic order, with exact determinant."""

    a: OrderElem
    b: OrderElem
    c: OrderElem
    d: OrderElem

    def __post_init__(self):
        order = self.a.order
        for entry in (self.b, self.c, self.d):
            if entry.order is not order and entry.order != order:
                raise OrderMismatchError("matrix entries belong to different orders")

    @classmethod
    def identity(cls, order: QuadOrder) -> "Mat2":
        return cls(order.one(), order.zero(), order.zero(), order.one())

    @property
    def order(self) -> QuadOrder:
        return self.a.order

    @classmethod
    def _of_pairs(cls, order: QuadOrder, a: _Pair, b: _Pair, c: _Pair, d: _Pair) -> "Mat2":
        return cls(OrderElem(*a, order), OrderElem(*b, order), OrderElem(*c, order), OrderElem(*d, order))

    def _pairs(self) -> tuple[_Pair, _Pair, _Pair, _Pair]:
        a, b, c, d = self.a, self.b, self.c, self.d
        return (a.u, a.v), (b.u, b.v), (c.u, c.v), (d.u, d.v)

    def det(self) -> OrderElem:
        return self.a * self.d - self.b * self.c

    def is_unimodular(self) -> bool:
        """Whether det() is 1, decided on int pairs."""
        order = self.order
        tr, nt = order.theta_trace, order.theta_norm
        a, b, c, d = self._pairs()
        return _sub(_mul(a, d, tr, nt), _mul(b, c, tr, nt)) == (1, 0)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        order = self.order
        if other.order is not order and other.order != order:
            raise OrderMismatchError(f"matrices over different orders: {order} vs {other.order}")
        tr, nt = order.theta_trace, order.theta_norm
        a, b, c, d = self._pairs()
        e, f, g, h = other._pairs()
        return Mat2._of_pairs(
            order,
            _combine(a, e, b, g, tr, nt),
            _combine(a, f, b, h, tr, nt),
            _combine(c, e, d, g, tr, nt),
            _combine(c, f, d, h, tr, nt),
        )

    def inverse(self) -> "Mat2":
        if not self.is_unimodular():
            raise NotUnimodularError(f"determinant is {self.det()!r}, expected 1")
        return Mat2(self.d, -self.b, -self.c, self.a)


def _column(a: _Pair, c: _Pair, tr: int, nt: int, c0: int) -> tuple[_Pair, _Pair] | None:
    """(b, d) with [[a, b], [c, d]] in SL2(O) for c != 0, or None unless gcd(N(a), N(c)) = 1.

    d = conj(a)*(N(a)^-1 mod N(c)) gives a*d = 1 (mod N(c)), so c divides
    a*d - 1 on any order, with no Euclidean algorithm; d is reduced by the
    rounded quotient d/c, as in a Euclidean step, to keep the entries small.
    """
    n_a, n_c = _norm(a, tr, nt), _norm(c, tr, nt)
    if math.gcd(n_a, n_c) != 1:
        return None
    inv = inverse_mod(n_a, n_c)
    d = ((a[0] + a[1] * tr) * inv, -a[1] * inv)
    d = _sub(d, _mul(_rounded_coords(*_times_conj(d, c, tr, nt), n_c, c0), c, tr, nt))
    bu, bv = _times_conj(_sub(_mul(a, d, tr, nt), (1, 0)), c, tr, nt)
    return (bu // n_c, bv // n_c), d


def _generates_order(h: OrderElem, k: OrderElem) -> bool:
    """Whether the ideal (h, k) is the whole order, decided exactly (ring._generates)."""
    h._check(k)
    return _generates((h.u, h.v), (k.u, k.v), h.order.theta_trace, h.order.theta_norm)


def _gamma_bound(order: QuadOrder) -> int:
    """The largest N(gamma) a walk step on this order tries."""
    return _GAMMA_DISC * abs(order.discriminant)


@functools.cache
def _gammas(order: QuadOrder) -> tuple[_Pair, ...]:
    """gamma = -1, then every non-unit up to _gamma_bound, one of each +-gamma, as int pairs.

    The non-units are sorted by norm, then by the coordinates s, t of
    gamma = s + t*omega in the reduced basis omega = theta - (tr theta // 2).
    A step with another unit gamma = u lowers N(c) exactly when one with -1
    does, so -1 stands for them all.  Built on the first walk that needs it.
    """
    bound = _gamma_bound(order)
    trace, theta_norm = order.theta_trace, order.theta_norm
    c0 = trace // 2
    # N(s + t*omega) >= t^2*|d|/4, so |t| <= 2*sqrt(bound/|d|).
    t_max = math.isqrt(4 * bound // abs(order.discriminant))
    s_max = math.isqrt(bound) + t_max
    found = sorted(
        (norm, t, s)
        for t in range(t_max + 1)
        for s in range(-s_max if t else 2, s_max + 1)
        if 1 < (norm := _norm((s - c0 * t, t), trace, theta_norm)) <= bound
    )
    return ((-1, 0),) + tuple((s - c0 * t, t) for _, t, s in found)


# A canonical key (gamma, rho, rho'): rho = x*conj(gamma) mod N(gamma) for the (x, gamma) with
# D_L(x, gamma) = +-D_L(alpha_i, gamma_i) that _orbit_key picks, and rho' that of x^-1 mod gamma.
_Key = tuple[_Pair, _Pair, _Pair]


def _residues(x: _Pair, y: _Pair, n: int, sign: int) -> list[tuple[_Pair, _Pair, int]]:
    """(rho, rho', sign*s) for rho = s*x and s*y mod n, s = +-1, each with the residue rho' of its inverse."""
    xp, yp = (x[0] % n, x[1] % n), (y[0] % n, y[1] % n)
    xm, ym = (-x[0] % n, -x[1] % n), (-y[0] % n, -y[1] % n)
    return [(xp, yp, sign), (yp, xp, sign), (xm, ym, -sign), (ym, xm, -sign)]


def _orbit_key(gamma: _Pair, x: _Pair, y: _Pair, n: int, tr: int) -> tuple[_Key, int] | None:
    """(key, sign) with D_L(alpha, gamma) = sign*D_L(key), for x = alpha*conj(gamma), y = alpha^-1*conj(gamma).

    D_L(alpha, gamma) depends on alpha mod gamma alone, that is on x mod
    n = N(gamma), and equals D_L(alpha^-1, gamma), -D_L(-alpha, gamma) and
    -D_L(conj alpha, conj gamma).  _gammas lists one of each +-gamma, as
    s + t*omega with t >= 0, so the listed partner of conj(gamma) is gamma
    itself for t = 0, else gamma' = -conj(gamma) = (-s - t*(tr - 2*c0)) + t*omega,
    the pair (-u - v*tr, v).  On gamma' = +-conj(gamma) the residue of
    conj(alpha) is +-conj(x), with the same sign, so either way
    D_L(alpha, gamma) is -D_L of the residue conj(x) on gamma'.  The key is
    the least (gamma, rho) of the orbit, on the lesser of gamma and gamma'
    (on both when they are equal), with rho' the residue of its inverse;
    None when the orbit reaches it with both signs: D_L(alpha, gamma) is
    then its own negative, exactly 0.
    """
    u, v = gamma
    partner = (-u - v * tr, v) if v else gamma
    found = []
    if gamma <= partner:
        found += _residues(x, y, n, 1)
    if partner <= gamma:
        found += _residues((x[0] + x[1] * tr, -x[1]), (y[0] + y[1] * tr, -y[1]), n, -1)
    rho, rho_inv, sign = min(found)
    if (rho, rho_inv, -sign) in found:
        return None
    return (min(gamma, partner), rho, rho_inv), sign


def _key_pair(key: _Key, order: QuadOrder) -> tuple[OrderElem, OrderElem]:
    """(alpha, gamma) with alpha*conj(gamma) = rho mod N(gamma): alpha = rho*gamma/N(gamma), exactly."""
    gamma, rho, _ = key
    tr, nt = order.theta_trace, order.theta_norm
    n = _norm(gamma, tr, nt)
    au, av = _mul(rho, gamma, tr, nt)
    return OrderElem(au // n, av // n, order), OrderElem(*gamma, order)


def _extra_step(num: _Pair, n: int, order: QuadOrder, tr: int, nt: int, c0: int) -> tuple[_Pair, ...] | None:
    """(alpha, beta, gamma, delta) of the first M in SL2(O) that lowers N(c) (see the module docstring).

    num = a*conj(c) and n = N(c), so a/c = num/n = z0 + zf with z0 in the
    order and zf in [0, 1) + [0, 1)*theta.  gamma runs over _gammas.  For
    each, delta = delta' - gamma*z0, where delta' = s + t*theta runs over the
    lattice points within distance 1 of -gamma*zf.  Then
    gamma*a + delta*c = c*(gamma*zf + delta'), and (gamma, delta) = O exactly
    when (gamma, delta') = O, so the search runs on small numbers.  With
    x0 + y0*theta = gamma*n*zf, x = x0 + n*s and y = y0 + n*t, the candidate
    lowers N(c) exactly when 4*N(x + y*theta) = (2x + y*tr)^2 + y^2*|d| is
    at most 4n^2 - 1, d = tr^2 - 4*N(theta).  So the rows are those with
    |y| <= isqrt((4n^2 - 1) // |d|), and row y holds the s with
    |2x + y*tr| <= isqrt(4n^2 - 1 - y^2*|d|); a gamma whose ellipse holds no
    row costs one remainder.  The step takes, of the points with
    (gamma, delta') = O, the least by (N(x + y*theta), s, t), the nearest.
    The scan, row by row, meets the points in (s, t) order: two of them with
    s1 > s2 and t1 < t2 would differ by n*(a - b*theta), a, b >= 1, of norm
    n^2*(a^2 + |tr|*a*b + nt*b^2) >= 7*n^2 (tr = f*d_K <= -3, nt >= 3), yet
    the difference of two points of norm below n^2 has norm below 4*n^2.  So
    the first point of least norm that passes wins.  The test is ring._generates'
    gcd(N(gamma), N(delta'), gamma*conj(delta')) = 1, decided on the
    integers of each point that beats the best so far; a unit gamma passes
    it.  Only the winner is completed (_complete_row).  None when no gamma up
    to _gamma_bound qualifies.
    """
    nu, nv = num
    z0 = (nu // n, nv // n)
    fu, fv = nu % n, nv % n  # n*zf
    fu_tr, fv_nt = fu + fv * tr, fv * nt
    abs_d = 4 * nt - tr * tr
    n2, n4 = 2 * n, 4 * n * n
    y_max = math.isqrt((n4 - 1) // abs_d)
    y_span = 2 * y_max
    for gamma in _gammas(order):
        gu, gv = gamma
        # ys = y0 + y_max: row t is in the ellipse when 0 <= ys + n*t <= 2*y_max.
        ys = gu * fv + gv * fu_tr + y_max
        if ys % n > y_span:
            continue
        x0 = gu * fu - gv * fv_nt
        n_gamma = gu * gu + gu * gv * tr + gv * gv * nt
        # gamma*conj(delta') = (gu*s + g_t*t) + (gv*s - gu*t)*theta.
        g_t = gu * tr + gv * nt
        best, best_s, best_t = n4, 0, 0  # 4*N(x + y*theta) is below n4 on the ellipse
        for t in range(-(ys // n), (y_span - ys) // n + 1):
            y = ys - y_max + n * t
            yy = y * y * abs_d
            w0 = 2 * x0 + y * tr  # 2x + y*tr at s = 0
            w_max = math.isqrt(n4 - 1 - yy)
            for s in range(-((w_max + w0) // n2), (w_max - w0) // n2 + 1):
                w = w0 + n2 * s
                norm4 = w * w + yy
                if norm4 < best and (
                    n_gamma == 1 or math.gcd(n_gamma, s * s + s * t * tr + t * t * nt, gu * s + g_t * t, gv * s - gu * t) == 1
                ):
                    best, best_s, best_t = norm4, s, t
        if best < n4:
            alpha, beta = _complete_row(gamma, (best_s, best_t), tr, nt, c0)
            return alpha, _sub(beta, _mul(alpha, z0, tr, nt)), gamma, _sub((best_s, best_t), _mul(gamma, z0, tr, nt))
    return None


def _complete_row(gamma: _Pair, delta: _Pair, tr: int, nt: int, c0: int) -> tuple[_Pair, _Pair]:
    """(alpha, beta) with [[alpha, beta], [gamma, delta]] in SL2(O), for (gamma, delta) = O.

    The caller has decided (gamma, delta) = O, as _extra_step does by its gcd
    test on the winner's integers.  A unit gamma takes
    [[0, -1/gamma], [gamma, delta]].  Otherwise
    _column(delta + gamma*m, gamma) = (beta', alpha) completes
    [[delta + gamma*m, beta'], [gamma, alpha]] and gives beta = beta' - m*alpha.
    It needs gcd(N(gamma), N(delta + gamma*m)) = 1: m = 0 where the norms are
    coprime already, else the first small m that avoids, for each prime ideal
    P over a prime dividing N(gamma), the one class of m mod P with
    delta + gamma*m in P.
    """
    if _norm(gamma, tr, nt) == 1:
        return (0, 0), (-gamma[0] - gamma[1] * tr, gamma[1])
    for s in (0, 1, -1, 2, -2, 3, -3):
        for t in (0, 1, -1, 2, -2, 3, -3):
            col = _column(_add(delta, _mul(gamma, (s, t), tr, nt)), gamma, tr, nt, c0)
            if col is not None:
                beta, alpha = col
                return alpha, _sub(beta, _mul((s, t), alpha, tr, nt))
    raise ConstructionError(f"no small m completes (gamma, delta) = ({gamma}, {delta}), which generate O")


@dataclass(frozen=True)
class _Walk:
    """The walk of (h, k) (see the module docstring), for the value D_L(h, k) itself.

    r is the exact R; counts holds, in key order, each canonical key
    (gamma, rho, rho') (_orbit_key) of the steps' constants D_L(alpha_i, gamma_i),
    N(gamma_i) > 1, and of the cusp's D_L(r, t), whose signed net count is
    not 0: each is sign*D_L(key), so they sum to the sum of count*D_L(key).
    cusp is None for a walk that ends at c = 0, else the stop cusp (r, t, w)
    of the two E2(0) terms: r/t = a_n/c_n mod O, t a rational integer, and
    w = c_n*x1/(t^2*k) as its exact theta-coordinates.
    """

    r: Fraction
    counts: tuple[tuple[_Key, int], ...]
    cusp: tuple[OrderElem, OrderElem, tuple[Fraction, Fraction]] | None = None

    @property
    def exact(self) -> bool:
        """Whether Dtilde is R itself: the walk ends at c = 0 and no net count is left."""
        return not self.counts and self.cusp is None


def _walk(h: OrderElem, k: OrderElem) -> _Walk:
    """The walk of (h, k), for h != 0, to c = 0 or to its stop cusp r/t.

    It walks h', the representative of sign*h mod k with h'*conj(k) = (s, t)
    in [0, N(k))^2, sign picking the smaller (s, t), so the steps, and every
    bit of the value, are shift invariant and odd in h; D_L(h, k) =
    sign*D_L(h', k), so R, the counts and w are those of h' times sign.  The
    Euclidean steps add only integers to R, and the extra steps' J-terms are
    summed as one integer over the lcm of their N(gamma), so at either end R
    is one Fraction, built once with its sign (_fraction), of an integer
    numerator over N(k), or N(k)*N(c_n) at a cusp, plus that sum.  The
    pair's rational-integer content is divided out first, as
    D_L(g*h, g*k) = D_L(h, k) (dedekind's docstring): a stop's key, chosen by
    its table size, is then that of the primitive pair.
    """
    h._check(k)
    order = h.order
    tr, nt = order.theta_trace, order.theta_norm
    c0 = tr // 2
    content = math.gcd(h.u, h.v, k.u, k.v)
    hh, kk = (h.u // content, h.v // content), (k.u // content, k.v // content)
    n_k = _norm(kk, tr, nt)
    su, sv = _times_conj(hh, kk, tr, nt)
    sign = -1 if ((-su) % n_k, (-sv) % n_k) < (su % n_k, sv % n_k) else 1
    # h' = sign*h - k*q, q the floor of sign*h*conj(k)/N(k) coordinate by coordinate.
    hk = _sub((sign * hh[0], sign * hh[1]), _mul(kk, ((sign * su) // n_k, (sign * sv) // n_k), tr, nt))
    # The walk (a, c) -> M*(a, c) keeps a = x0*h' and c = x1*h' modulo k.
    a, c = hk, kk
    x0, x1 = (1, 0), (0, 0)
    q_sum = 0
    # The extra steps' J-terms, summed as extra_num/extra_den, extra_den the lcm of their N(gamma).
    extra_num, extra_den = 0, 1
    counts: dict[_Key, int] = {}
    while c != (0, 0):
        n = _norm(c, tr, nt)
        num = _times_conj(a, c, tr, nt)
        q = _rounded_coords(*num, n, c0)
        r = _sub(_mul(q, c, tr, nt), a)
        if _norm(r, tr, nt) < n:
            # M = [[0, 1], [-1, q]], with J((0 + q)/-1) = -J(q) = -v(q).
            q_sum += q[1]
            a, c = c, r
            x0, x1 = x1, _sub(_mul(q, x1, tr, nt), x0)
            continue
        step = _extra_step(num, n, order, tr, nt, c0)
        if step is None:
            break
        alpha, beta, gamma, delta = step
        n_gamma = _norm(gamma, tr, nt)
        if extra_den % n_gamma:
            scale = n_gamma // math.gcd(extra_den, n_gamma)
            extra_num, extra_den = extra_num * scale, extra_den * scale
        extra_num += _times_conj(_add(alpha, delta), gamma, tr, nt)[1] * (extra_den // n_gamma)
        if n_gamma > 1:
            found = _orbit_key(gamma, _times_conj(alpha, gamma, tr, nt), _times_conj(delta, gamma, tr, nt), n_gamma, tr)
            if found is not None:
                key, key_sign = found
                counts[key] = counts.get(key, 0) + key_sign
        a, c = _combine(alpha, a, beta, c, tr, nt), _combine(gamma, a, delta, c, tr, nt)
        x0, x1 = _combine(alpha, x0, beta, x1, tr, nt), _combine(gamma, x0, delta, x1, tr, nt)
    if c == (0, 0):
        # a generates (h', k).  A unit a has norm 1 and h'*x0*conj(a) = 1 (mod k).  Otherwise
        # (h'/a, k/a) takes the same steps to (1, 0), x0 inverts h'/a mod k/a and x/k = x0/(k/a).
        x = _times_conj(x0, a, tr, nt) if _norm(a, tr, nt) == 1 else _mul(x0, a, tr, nt)
        # J(z/w) = 2*Im(z/w)/sqrt(|d|) is the theta-coordinate of z/w, as Im(theta) = sqrt(|d|)/2.
        r = _fraction(sign, _times_conj(_add(hk, x), kk, tr, nt)[1] - q_sum * n_k, n_k, extra_num, extra_den)
        cusp = None
    else:
        # No step lowers N(c): a/c = num/n = r/t mod O, t the least positive integer with t*a/c in O.
        g = math.gcd(*num, n)
        t = n // g
        ru, rv = num[0] // g % t, num[1] // g % t
        # D_L(h', k) holds +D_L(r, t) = D_L(a_n, c_n), count -1, keyed on the smaller table: gamma = t, x = r*t, or the
        # listed one of +-c_n, x = a_n*conj(c_n) = num for either.  x stands for its own inverse, as none need exist.
        gamma, x = ((t, 0), (ru * t, rv * t)) if t * t <= n else (c if (c[1], c[0]) > (0, 0) else (-c[0], -c[1]), num)
        found = _orbit_key(gamma, x, x, min(t * t, n), tr)
        if found is not None:
            counts[found[0]] = counts.get(found[0], 0) - found[1]
        r = _fraction(
            sign, _times_conj(hk, kk, tr, nt)[1] * n - (num[1] + q_sum * n) * n_k, n_k * n, extra_num, extra_den
        )
        w = tuple(Fraction(sign * x, t * t * n_k) for x in _times_conj(_mul(c, x1, tr, nt), kk, tr, nt))
        cusp = (OrderElem(ru, rv, order), order.element(t), w)
    return _Walk(r, tuple(sorted((key, sign * count) for key, count in counts.items() if count)), cusp)


def _fraction(sign: int, numerator: int, denominator: int, extra_num: int, extra_den: int) -> Fraction:
    """sign*(numerator/denominator + extra_num/extra_den) as one Fraction, reduced once."""
    return Fraction(sign * (numerator * extra_den + extra_num * denominator), denominator * extra_den)
