"""Exact enumeration of coset representatives of L/kL.

The multiplication-by-k matrix on the basis (omega1, omega2) is built as an
exact integer matrix from the matrix of theta, its column Hermite normal form
[[h11, h12], [0, h22]] is computed over Z, and the box
{a*omega1 + b*omega2 : 0 <= a < h11, 0 <= b < h22} is a complete transversal
of L/kL with exactly h11*h22 = |det| = norm(k) members, stored column by
column at index b*h11 + a (CosetSystem.index).  Its torsion points mu/k are
(s*omega1 + t*omega2)/norm(k) with (s, t) = adj(M)*(a, b) (CosetSystem.adj).
CosetSystem.half pairs each mu with -mu by that index and keeps the smaller
of the two, so E1, being odd, is evaluated and summed once per pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLatticeError, NotAMultiplierError, ZeroDivisorError
from .lattice import Lattice
from .ring import OrderElem, QuadOrder, egcd

__all__ = ["MultMatrix", "mult_matrix", "CosetSystem"]


@dataclass(frozen=True)
class MultMatrix:
    """Integer matrix of multiplication-by-k in the basis (omega1, omega2)."""

    a11: int
    a12: int
    a21: int
    a22: int

    @property
    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21


def _theta_matrix(order: QuadOrder, lattice: Lattice) -> MultMatrix:
    """Multiplication by the order's theta on (omega1, omega2).

    On the order's own lattice (Lattice.from_order) the basis is (1, theta)
    and theta*theta = tr(theta)*theta - N(theta), so the matrix is the exact
    [[0, -N(theta)], [1, tr(theta)]].  Any other basis is solved in floats:
    columns come from the 2x2 real system, rounded; a non-finite coordinate
    means the basis is too large to solve, and a coordinate residual
    >= 1e-6, or a determinant other than norm(theta), means theta does not
    multiply the lattice into itself.
    """
    if lattice.order == order:
        return MultMatrix(0, -order.theta_norm, 1, order.theta_trace)
    tc = order.theta_embedding()
    w1, w2 = lattice.omega1, lattice.omega2
    a = lattice.area()
    cols = []
    for wj in (w1, w2):
        target = tc * wj
        x = -(target * w2.conjugate()).imag / a
        y = (target * w1.conjugate()).imag / a
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DegenerateLatticeError(f"theta of {order} has no finite coordinates in this basis")
        xi, yi = round(x), round(y)
        if abs(x - xi) >= 1e-6 or abs(y - yi) >= 1e-6:
            raise NotAMultiplierError(
                f"theta of {order} is not a multiplier of this lattice "
                f"(residual {max(abs(x - xi), abs(y - yi)):.2e})"
            )
        cols.append((int(xi), int(yi)))
    m = MultMatrix(cols[0][0], cols[1][0], cols[0][1], cols[1][1])
    if m.det != order.theta_norm:
        raise NotAMultiplierError(f"determinant {m.det} does not match norm {order.theta_norm}")
    return m


def mult_matrix(k: OrderElem, lattice: Lattice) -> MultMatrix:
    """Exact matrix M with (k*omega1, k*omega2) = (omega1, omega2) @ M.

    For k = u + v*theta, M = u*I + v*M(theta): only the small matrix of theta
    is recovered in floats, so k may have coordinates of any size.
    """
    if k.is_zero():
        raise ZeroDivisorError("k must be nonzero")
    t = _theta_matrix(k.order, lattice)
    u, v = k.u, k.v
    return MultMatrix(u + v * t.a11, v * t.a12, v * t.a21, u + v * t.a22)


def _colon_lattice(r: OrderElem, t: int, lattice: Lattice) -> Lattice:
    """B^-1 L = (1/t)*{y in L : r*y in t*L} for the ideal B = (r, t), t > 0.

    y = x*omega1 + z*omega2 qualifies when m*(x, z) = 0 (mod t), m = mult_matrix(r).  The
    column HNF [[h11, h12], [0, h22]] of those (x, z) is read off m: h11 = t/g1, g1 = gcd(t, m11, m21);
    h11*h22 is their index, the size of m's image mod t, by m's Smith invariants d1 and det/d1;
    s*(p*row1 + q*row2), s*(p*m11 + q*m21) = g1 mod t, gives g1*x = -s*(p*m12 + q*m22)*h22 (mod t),
    one class mod h11, so the class of h12.
    """
    m = mult_matrix(r, lattice)
    d1 = math.gcd(m.a11, m.a12, m.a21, m.a22)
    g, p, q = egcd(m.a11, m.a21)
    g1, s, _ = egcd(g, t)
    h11 = t // g1
    h22 = t * t // (h11 * math.gcd(t, d1) * math.gcd(t, m.det // d1))
    h12 = -s * (p * m.a12 + q * m.a22) * h22 // g1 % h11
    return Lattice(h11 * lattice.omega1 / t, (h12 * lattice.omega1 + h22 * lattice.omega2) / t)


def _column_hnf(m: MultMatrix) -> tuple[int, int, int]:
    """Upper-triangular column HNF (h11, h12, h22) of m, h11, h22 > 0."""
    g, x, y = egcd(m.a21, m.a22)
    # Unimodular column transform sending the bottom row to (0, g).
    u00, u01 = m.a22 // g, x
    u10, u11 = -m.a21 // g, y
    h11 = m.a11 * u00 + m.a12 * u10
    h12 = m.a11 * u01 + m.a12 * u11
    h22 = m.a21 * u01 + m.a22 * u11
    if h11 < 0:
        h11 = -h11
    h12 %= h11
    return h11, h12, h22


def _torsion_key(a, b, adj, size):
    """CosetSystem.torsion_key for the matrix adj = (s11, s12, s21, s22) and det(M) = size.

    Every argument may be a Python int or an int64 array, so one call keys
    points of many moduli, each with its own adj and size.
    """
    s11, s12, s21, s22 = adj
    return (s11 * a + s12 * b) % size, (s21 * a + s22 * b) % size


def _reduce_coords(x, y, h11, h12, h22):
    """CosetSystem.reduce_coords for the column HNF [[h11, h12], [0, h22]], on ints or int64 arrays, HNF included."""
    q = y // h22
    return (x - q * h12) % h11, y - q * h22


class CosetSystem:
    """Representatives of L/kL in box coordinates, with exact reduction and the pairing mu <-> -mu."""

    def __init__(self, k: OrderElem, lattice: Lattice):
        if k.is_zero():
            raise ZeroDivisorError("cosets of 0*L are not defined")
        self.k = k
        self.lattice = lattice
        self.mult = mult_matrix(k, lattice)
        self.h11, self.h12, self.h22 = _column_hnf(self.mult)
        self.size = self.h11 * self.h22
        # adj(M) reduced mod det(M) = norm(k) = size: mu/k = (s*omega1 + t*omega2)/size for (s, t) = adj*(a, b).
        m = self.mult
        self.adj = tuple(x % self.size for x in (m.a22, -m.a12, -m.a21, m.a11))

    def coords(self) -> np.ndarray:
        """Integer (a, b) pairs of the box transversal, column by column: index b*h11 + a."""
        out = np.empty((self.size, 2), dtype=np.int64)
        out[:, 0] = np.tile(np.arange(self.h11, dtype=np.int64), self.h22)
        out[:, 1] = np.repeat(np.arange(self.h22, dtype=np.int64), self.h11)
        return out

    def reps(self) -> np.ndarray:
        """Complex representatives a*omega1 + b*omega2 in coords() order."""
        ab = self.coords()
        return ab[:, 0] * self.lattice.omega1 + ab[:, 1] * self.lattice.omega2

    def torsion_key(self, a, b):
        """(s, t) = adj(M)*(a, b) mod det(M), the exact torsion coordinates.

        (a*omega1 + b*omega2)/k = (s*omega1 + t*omega2)/det modulo L, with
        det = norm(k) = size, and two points share a coset of kL exactly when
        their keys agree.  Works on Python ints and on int64 arrays; for a
        point of the box every product is below size**2.
        """
        return _torsion_key(a, b, self.adj, self.size)

    def reduce_coords(self, ab):
        """Box representative (x', y') of x*omega1 + y*omega2 modulo kL, exactly.

        `ab` is a pair of Python ints or of int64 arrays.
        """
        return _reduce_coords(*ab, self.h11, self.h12, self.h22)

    def index(self, ab):
        """Table index y'*h11 + x' of (x', y') = reduce_coords(ab), for Python ints or int64 arrays."""
        x, y = self.reduce_coords(ab)
        return y * self.h11 + x

    @functools.cached_property
    def half(self):
        """(idx, neg, a, b), int64 arrays: one member mu = a*omega1 + b*omega2 of each pair {mu, -mu}.

        idx = b*h11 + a is the smaller of the two indices and neg = index(-mu)
        the larger, in increasing idx.  mu = 0 and the 2-torsion, where
        -mu = mu, are left out.
        """
        idx = np.arange(self.size, dtype=np.int64)
        b, a = np.divmod(idx, self.h11)
        neg = self.index((-a, -b))
        keep = idx < neg
        return idx[keep], neg[keep], a[keep], b[keep]
