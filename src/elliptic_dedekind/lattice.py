"""Analytic layer: Weierstrass zeta, the regularized weight-2 value E2(0),
the Kronecker-Eisenstein E1, and the j-invariant.

Strategy: the basis is reduced until tau = r2/r1 sits in the standard
fundamental domain (|Re tau| <= 1/2, |tau| >= 1), every argument is reduced
modulo the lattice to u = x + y*tau with |x|, |y| <= 1/2, and one series
kernel, the theta quotient, is evaluated there:

    L(u) = pi*theta1'(pi*u)/theta1(pi*u) = zeta(u; Z+Z*tau) - G2(tau)*u
         = pi*cot(pi*u) - 2*pi*i * sum_{n>=1} (alpha^n - beta^n)/(1 - qbar^n),

with alpha = qbar*w, beta = qbar/w, w = exp(2*pi*i*u), qbar = exp(2*pi*i*tau).
L is odd, so u is taken with Im u >= 0; then |beta| <= exp(-pi*Im tau) and
ceil(18*ln(10)/(pi*Im tau)) terms bring beta^n below 1e-18 (at most 16 terms,
as Im tau >= sqrt(3)/2), while |alpha| <= exp(-2*pi*Im tau) needs half as
many.  Both series run by Horner's rule.  The cotangent takes
expm1(2*pi*i*u), accurate near u = 0; the series takes w = exp(2*pi*i*u)
from its own exponential, since 1 + expm1 keeps w only to an absolute 1e-16
and |w| falls to exp(-pi*Im tau) at Im u = Im tau/2, where beta = qbar/w
would divide that rounding.  The same count
truncates the q-expansions of G2 and E4, whose divisor sums come from one
module table of 16 terms; j = E4^3/Delta takes
Delta = qbar*prod(1 - qbar^n)^24, which keeps its relative accuracy at any
Im tau.  zeta adds G2(tau)*u back,
and eta(1) = G2(tau), eta(tau) = G2(tau)*tau - 2*pi*i un-reduce it.  E1 needs
no G2 at all (Sczech's identity):

    E1(x*r1 + y*r2) = (L(x + y*tau) + 2*pi*i*y) / r1,

and E1 := 0 on lattice points (the defining sum cancels by central symmetry).
Float points are reduced in floats; torsion points (s*omega1 + t*omega2)/n are
reduced with integers by one map, Lattice._torsion_coords, and divided by n
once (Lattice.e1_torsion).  The E1 table, dedekind._e1_tables, calls
_torsion_coords itself, with cosets.CosetSystem.adj as its matrix.
Lattice.from_order records its order, which serves only the exact integer
matrix of theta on (1, theta) (cosets._theta_matrix); the walk folds its
constants alike on every basis.
Construction (Lattice setup) keeps only what every call reads: the checks,
the reduction and the G2 series behind E2(0) and the quasi-periods.  The
theta-quotient weights wait for the first E1 or zeta evaluation, which an
exact walk never makes, and j for the first j_invariant call.
The verify suites check E1, zeta and E2(0) against elliptic_dedekind.oracles,
which sums Ewald's theta split over the given basis and its dual and shares
neither the reduced basis nor the series.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateLatticeError, PoleError, PreconditionError

__all__ = [
    "Lattice",
    "area",
    "weierstrass_zeta",
    "quasi_periods",
    "e2_zero",
    "e1",
    "j_invariant",
]


# Reduced coordinates of a float point closer than this to an integer pair
# count as a lattice point.
_TOL = 1e-10


# The longest q-series: the reduced tau has Im tau >= sqrt(3)/2, so
# ceil(18*ln(10)/(pi*Im tau)) <= 16.
_MAX_TERMS = 16
# The divisor sums sigma1(m) and sigma3(m) of the G2 and E4 q-expansions, m = 0..._MAX_TERMS.
_SIGMA1, _SIGMA3 = (
    [sum(d**power for d in range(1, m + 1) if m % d == 0) for m in range(_MAX_TERMS + 1)] for power in (1, 3)
)


def _horner(coef: list[complex], x: np.ndarray) -> np.ndarray:
    """sum_{n>=1} coef[n-1]*x**n, by Horner's rule."""
    acc = coef[-1] * x
    for c in coef[-2::-1]:
        acc = (acc + c) * x
    return acc


class Lattice:
    """Oriented complex lattice Z*omega1 + Z*omega2 with Im(omega2/omega1) > 0.

    The q-series length is fixed by Im tau of the reduced basis.  Instances are
    immutable after construction apart from two lazy caches: the theta-quotient
    weights (_coef and _coef_alpha), built on the first E1 or zeta evaluation,
    and the j-invariant.  Each cache is idempotent, so concurrent use is safe.
    """

    def __init__(self, omega1: complex, omega2: complex):
        # The order whose own basis (1, theta) this is; set by from_order only.
        self.order = None
        self.omega1 = complex(omega1)
        self.omega2 = complex(omega2)
        a = (self.omega1.conjugate() * self.omega2).imag
        scale = abs(self.omega1) * abs(self.omega2)
        if not math.isfinite(a) or (scale == 0.0 and self.omega1 and self.omega2):
            raise DegenerateLatticeError(f"the basis leaves the double range: its area is {a!r}")
        if scale == 0.0 or abs(a) <= 1e-14 * scale:
            raise DegenerateLatticeError("basis vectors are linearly dependent over R")
        if a < 0:
            raise DegenerateLatticeError("basis is negatively oriented: Im(omega2/omega1) < 0")
        self._area = a
        self._reduce_basis()
        self._prepare_series()
        self._j = None

    @classmethod
    def from_order(cls, order) -> "Lattice":
        """The order itself as a lattice, basis (1, theta), which records the order.

        The record serves only cosets._theta_matrix, which then takes the
        exact integer matrix of theta instead of solving for it in floats.
        The walk's keys do not read it: the symmetries they fold by hold on
        every lattice, so a float basis of the order takes the same keys.
        """
        lattice = cls(1.0, order.theta_embedding())
        lattice.order = order
        return lattice

    def scaled(self, c: complex) -> "Lattice":
        return Lattice(c * self.omega1, c * self.omega2)

    def area(self) -> float:
        """Fundamental-domain area Im(conj(omega1)*omega2)."""
        return self._area

    # -- basis reduction -----------------------------------------------------

    def _reduce_basis(self):
        b1, b2 = self.omega1, self.omega2
        # (b1, b2) = (omega1, omega2) @ v  with v in SL2(Z)
        v00, v01, v10, v11 = 1, 0, 0, 1
        for _ in range(4096):
            tau = b2 / b1
            n = int(round(tau.real))
            if n != 0:
                b2 = b2 - n * b1
                v01, v11 = v01 - n * v00, v11 - n * v10
                tau = b2 / b1
            if abs(tau) < 1.0 - 1e-12:
                b1, b2 = b2, -b1
                v00, v01, v10, v11 = v01, -v00, v11, -v10
                continue
            if abs(tau.real) <= 0.5 + 1e-12:
                break
        else:
            raise DegenerateLatticeError("basis reduction did not converge")
        self._r1, self._r2 = b1, b2
        self._tau = b2 / b1
        # (omega1, omega2) = (r1, r2) @ v^{-1}; det v = 1
        self._w_coords = ((v11, -v01), (-v10, v00))

    # -- series preparation ----------------------------------------------------

    def _prepare_series(self):
        tau = self._tau
        n_terms = math.ceil(18.0 * math.log(10.0) / (math.pi * tau.imag))
        assert n_terms <= _MAX_TERMS, n_terms
        self._n_terms = n_terms
        qbar = cmath.exp(2j * math.pi * tau)
        acc = 0.0 + 0.0j
        qn = 1.0 + 0.0j
        for m in range(1, n_terms + 1):
            qn *= qbar
            acc += _SIGMA1[m] * qn
        g2 = (math.pi**2 / 3.0) * (1.0 - 24.0 * acc)
        self._qbar = qbar
        # A basis too small (or too large) for doubles squares to 0 (or inf).
        r1_sq = self._r1 * self._r1
        self._s2 = (g2 - math.pi / tau.imag) / r1_sq if r1_sq else complex("inf")
        if not cmath.isfinite(self._s2):
            raise DegenerateLatticeError(f"E2(0) is not a finite double on a basis of length {abs(self._r1):.3g}")
        self._eta1_tau = g2
        self._eta2_tau = g2 * tau - 2j * math.pi
        self._coef = None  # the theta-quotient weights, built by _prepare_weights on first use

    def _prepare_weights(self):
        """-2*pi*i/(1 - qbar^n), the weights of the theta-quotient series, n = 1..n_terms.

        The alpha series needs only the first ceil(n_terms/2) of them.  They are
        built on the first evaluation of _theta_quotient, which an exact walk
        never makes; _coef is set last, so a reader that sees it sees both.
        """
        coef = [-2j * math.pi / (1.0 - self._qbar**n) for n in range(1, self._n_terms + 1)]
        self._coef_alpha = coef[: (self._n_terms + 1) // 2]
        self._coef = coef

    # -- point reduction -------------------------------------------------------

    def _reduce_many(self, z: np.ndarray):
        # z = x*r1 + y*r2 with real x, y
        x = -np.imag(z * np.conj(self._r2)) / self._area
        y = np.imag(z * np.conj(self._r1)) / self._area
        n1 = np.round(x)
        n2 = np.round(y)
        xr = x - n1
        yr = y - n2
        on_lattice = (np.abs(xr) < _TOL) & (np.abs(yr) < _TOL)
        return xr, yr, n1, n2, on_lattice

    # -- evaluators --------------------------------------------------------------

    def _theta_quotient(self, u: np.ndarray) -> np.ndarray:
        """L(u) = zeta(u) - G2(tau)*u on Z + Z*tau for reduced u (see the module docstring).

        L is odd, so the series runs at v = +-u with Im v >= 0, where |w| <= 1.
        |w| >= exp(-pi*Im tau) = sqrt(|qbar|) is a normal double wherever qbar
        is not 0.  Where qbar underflows to 0 (Im tau > 118.6), beta is 0:
        there w is subnormal for Im v in 112.8..118.6 and 0 beyond, and numpy's
        0/w is NaN.
        """
        sign = np.where(u.imag < 0.0, -1.0, 1.0)
        z = 2j * math.pi * sign * u
        em1 = np.expm1(z)
        w = np.exp(z)
        cot = math.pi * 1j * (1.0 + 2.0 / em1)  # pi*cot(pi*v)
        alpha = self._qbar * w
        beta = self._qbar / w if self._qbar else np.zeros_like(w)
        if self._coef is None:
            self._prepare_weights()
        return sign * (cot + _horner(self._coef_alpha, alpha) - _horner(self._coef, beta))

    def _e1_reduced(self, x: np.ndarray, y: np.ndarray, on_lattice: np.ndarray) -> np.ndarray:
        """E1 at x*r1 + y*r2 for reduced coordinates, 0 where on_lattice."""
        x = np.where(on_lattice, 0.25, x)  # placeholder off the pole
        val = (self._theta_quotient(x + y * self._tau) + 2j * math.pi * y) / self._r1
        return np.where(on_lattice, 0j, val)

    def weierstrass_zeta(self, z: complex) -> complex:
        """zeta(z; L): reduce z modulo L, evaluate, un-reduce via quasi-periods."""
        x, y, n1, n2, on_lattice = self._reduce_many(np.asarray([complex(z)]))
        if bool(on_lattice[0]):
            raise PoleError(f"z = {z} lies on the lattice (within {_TOL:g})")
        u = x + y * self._tau
        full = self._theta_quotient(u) + (u + n1) * self._eta1_tau + n2 * self._eta2_tau
        return complex(full[0] / self._r1)

    def quasi_periods(self) -> tuple[complex, complex]:
        """(eta1, eta2) with zeta(z + omega_i) = zeta(z) + eta_i."""
        (m1, m2), (n1, n2) = self._w_coords
        eta1 = (m1 * self._eta1_tau + n1 * self._eta2_tau) / self._r1
        eta2 = (m2 * self._eta1_tau + n2 * self._eta2_tau) / self._r1
        return complex(eta1), complex(eta2)

    def e2_zero(self) -> complex:
        """Regularized weight-2 lattice sum s2 = (G2(tau) - pi/Im tau)/r1^2."""
        return complex(self._s2)

    def e1_many(self, z) -> np.ndarray:
        """Vectorized E1 over an array of points; lattice points map to 0."""
        x, y, _, _, on_lattice = self._reduce_many(np.asarray(z, dtype=complex))
        return self._e1_reduced(x, y, on_lattice)

    def e1_torsion(self, s, t, n: int) -> np.ndarray:
        """E1 at the torsion points (s*omega1 + t*omega2)/n, for integer arrays s, t.

        s and t are reduced mod n, mapped by _torsion_coords and divided by n
        once; lattice points map to 0.  Every product stays below 2*n**2, so
        int64 arithmetic is exact for n < 2**31.
        """
        if not 0 < n < 2**31:
            raise PreconditionError(f"torsion order n = {n} is outside [1, 2**31)")
        s, t = (np.asarray(c, dtype=np.int64) % n for c in (s, t))
        x, y = self._torsion_coords(s, t, n, (1, 0, 0, 1))
        return self._e1_reduced(x / n, y / n, (x == 0) & (y == 0))

    def _torsion_coords(self, a, b, n: int, m: tuple[int, int, int, int]):
        """Centred (x, y), |x|, |y| <= n/2, with (s*omega1 + t*omega2)/n = (x*r1 + y*r2)/n mod L, (s, t) = m*(a, b).

        m = (m11, m12, m21, m22) and the basis change W of the reduction compose into
        one integer matrix W*m mod n: two mods per point, exact while n*(a + b + 1) < 2**63.
        """
        (w11, w12), (w21, w22) = self._w_coords
        m11, m12, m21, m22 = m
        half = n // 2
        x = ((w11 * m11 + w12 * m21) % n * a + (w11 * m12 + w12 * m22) % n * b + half) % n - half
        y = ((w21 * m11 + w22 * m21) % n * a + (w21 * m12 + w22 * m22) % n * b + half) % n - half
        return x, y

    def e1(self, z: complex) -> complex:
        return complex(self.e1_many(np.asarray([complex(z)]))[0])

    def _j_is_real(self) -> bool:
        """Whether j(L) is real, decided on the reduced tau without j's value, which overflows at large Im tau.

        j(tau) is real exactly where tau and -conj(tau) are SL2(Z)-equivalent:
        in the fundamental domain, on Re tau = 0, on Re tau = +-1/2 and on
        |tau| = 1.  Each is tested to within 1e-9.
        """
        x = abs(self._tau.real)
        return min(x, abs(x - 0.5), abs(abs(self._tau) - 1.0)) <= 1e-9

    def j_invariant(self) -> complex:
        """Modular invariant E4^3/Delta, with Delta = qbar*prod(1 - qbar^n)^24.

        The product keeps full relative accuracy at every Im tau, where
        1728*E4^3/(E4^3 - E6^2) cancels down to the size of qbar.
        """
        if self._j is None:
            e4 = 1.0 + 0.0j
            delta = self._qbar
            qn = 1.0 + 0.0j
            for m in range(1, self._n_terms + 1):
                qn *= self._qbar
                e4 += 240.0 * _SIGMA3[m] * qn
                delta *= (1.0 - qn) ** 24
            j = e4**3 / delta if delta != 0 else complex("inf")
            if not cmath.isfinite(j):
                raise DegenerateLatticeError(f"j overflows at Im tau = {self._tau.imag:.6g}")
            self._j = j
        return self._j

    def __repr__(self) -> str:
        return f"Lattice({self.omega1!r}, {self.omega2!r})"


# Functional aliases matching the operation vocabulary.


def area(lattice: Lattice) -> float:
    return lattice.area()


def weierstrass_zeta(z: complex, lattice: Lattice) -> complex:
    return lattice.weierstrass_zeta(z)


def quasi_periods(lattice: Lattice) -> tuple[complex, complex]:
    return lattice.quasi_periods()


def e2_zero(lattice: Lattice) -> complex:
    return lattice.e2_zero()


def e1(z: complex, lattice: Lattice) -> complex:
    return lattice.e1(z)


def j_invariant(lattice: Lattice) -> complex:
    return lattice.j_invariant()
