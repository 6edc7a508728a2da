"""Analytic layer: Weierstrass zeta, the regularized weight-2 value E2(0),
the Kronecker-Eisenstein E1, and the j-invariant.

Strategy: the basis is reduced until tau = r2/r1 sits in the standard
fundamental domain (|Re tau| <= 1/2, |tau| >= 1), every argument is reduced
modulo the lattice, and the reduced point is evaluated with the exponentially
convergent cotangent + q-power series

    zeta(u; Z+Z*tau) = G2(tau)*u + pi*cot(pi*u)
                       - 2*pi*i * sum_{n>=1} (alpha^n - beta^n)/(1 - qbar^n),

with alpha = exp(2*pi*i*(tau+u)), beta = exp(2*pi*i*(tau-u)) and
qbar = exp(2*pi*i*tau).  A reduced u has |alpha|, |beta| <= exp(-pi*Im tau),
so ceil(18*ln(10)/(pi*Im tau)) terms bring the n-th power below 1e-18; as
Im tau >= sqrt(3)/2 that is at most 16 terms.  The same count truncates the
q-expansions of G2, E4 and E6.  Quasi-period constants eta(1) = G2(tau) and
eta(tau) = G2(tau)*tau - 2*pi*i un-reduce the value.  E1 uses the closed
expression

    E1(z) = zeta(z) - s2*z - (pi/A)*conj(z),      s2 = (G2(tau) - pi/Im tau)/r1^2,

evaluated at the reduced representative (E1 is lattice-periodic), and
E1 := 0 on lattice points (the defining sum cancels by central symmetry).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateLatticeError, PoleError

__all__ = [
    "Lattice",
    "area",
    "weierstrass_zeta",
    "quasi_periods",
    "e2_zero",
    "e1",
    "j_invariant",
]


# Reduced coordinates closer than this to an integer pair count as a lattice point.
# It stays below 2**-31: d_sum evaluates only points mu/k off the lattice with
# N(k) < 2**31, and such a point has a reduced coordinate that is a nonzero
# multiple of 1/N(k) modulo 1.
_TOL = 1e-10


def _divisor_sums(n_max: int, power: int) -> list[int]:
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dp = d**power
        for m in range(d, n_max + 1, d):
            sig[m] += dp
    return sig


def _cot(w: np.ndarray) -> np.ndarray:
    # Overflow-safe cotangent: route through exp(2i*w*s) with |.| <= 1.
    s = np.where(np.imag(w) >= 0.0, 1.0, -1.0)
    t = np.exp(2j * w * s)
    return s * 1j * (t + 1.0) / (t - 1.0)


class Lattice:
    """Oriented complex lattice Z*omega1 + Z*omega2 with Im(omega2/omega1) > 0.

    The q-series length is fixed by Im tau of the reduced basis.  Instances are
    immutable after construction apart from the lazily cached j-invariant; the
    cache is idempotent, so concurrent use is safe.
    """

    def __init__(self, omega1: complex, omega2: complex):
        self.omega1 = complex(omega1)
        self.omega2 = complex(omega2)
        a = (self.omega1.conjugate() * self.omega2).imag
        scale = abs(self.omega1) * abs(self.omega2)
        if not math.isfinite(a) or scale == 0.0 or abs(a) <= 1e-14 * scale:
            raise DegenerateLatticeError("basis vectors are linearly dependent over R")
        if a < 0:
            raise DegenerateLatticeError("basis is negatively oriented: Im(omega2/omega1) < 0")
        self._area = a
        self._reduce_basis()
        self._prepare_series()
        self._j = None

    @classmethod
    def from_order(cls, order) -> "Lattice":
        """The order itself as a lattice, basis (1, theta)."""
        return cls(1.0, order.theta_embedding())

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
        self._n_terms = n_terms
        qbar = cmath.exp(2j * math.pi * tau)
        sig1 = _divisor_sums(n_terms, 1)
        acc = 0.0 + 0.0j
        qn = 1.0 + 0.0j
        for m in range(1, n_terms + 1):
            qn *= qbar
            acc += sig1[m] * qn
        g2 = (math.pi**2 / 3.0) * (1.0 - 24.0 * acc)
        self._qbar = qbar
        self._g2_tau = g2
        self._s2 = (g2 - math.pi / tau.imag) / (self._r1 * self._r1)
        self._eta1_tau = g2
        self._eta2_tau = g2 * tau - 2j * math.pi
        self._qn_pows = np.array([qbar**n for n in range(1, n_terms + 1)])

    # -- point reduction -------------------------------------------------------

    def _coords_many(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # z = x*r1 + y*r2 with real x, y
        x = -np.imag(z * np.conj(self._r2)) / self._area
        y = np.imag(z * np.conj(self._r1)) / self._area
        return x, y

    def _reduce_many(self, z: np.ndarray):
        x, y = self._coords_many(z)
        n1 = np.round(x)
        n2 = np.round(y)
        xr = x - n1
        yr = y - n2
        on_lattice = (np.abs(xr) < _TOL) & (np.abs(yr) < _TOL)
        u = xr + yr * self._tau
        return u, n1, n2, on_lattice

    # -- evaluators --------------------------------------------------------------

    def _zeta_tau_many(self, u: np.ndarray) -> np.ndarray:
        val = self._g2_tau * u + math.pi * _cot(math.pi * u)
        alpha = np.exp(2j * math.pi * (self._tau + u))
        beta = np.exp(2j * math.pi * (self._tau - u))
        an = alpha
        bn = beta
        for n, qn in enumerate(self._qn_pows):
            if n:
                an = an * alpha
                bn = bn * beta
            val = val - 2j * math.pi * (an - bn) / (1.0 - qn)
        return val

    def weierstrass_zeta(self, z: complex) -> complex:
        """zeta(z; L): reduce z modulo L, evaluate, un-reduce via quasi-periods."""
        arr = np.asarray([complex(z)])
        u, n1, n2, on_lattice = self._reduce_many(arr)
        if bool(on_lattice[0]):
            raise PoleError(f"z = {z} lies on the lattice (within {_TOL:g})")
        full = self._zeta_tau_many(u)[0] + n1[0] * self._eta1_tau + n2[0] * self._eta2_tau
        return complex(full / self._r1)

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
        z = np.asarray(z, dtype=complex)
        if z.size == 0:
            return np.zeros(0, dtype=complex)
        u, _, _, on_lattice = self._reduce_many(z)
        u = np.where(on_lattice, 0.25, u)  # placeholder off the pole
        z_red = u * self._r1
        val = (
            self._zeta_tau_many(u) / self._r1
            - self._s2 * z_red
            - (math.pi / self._area) * np.conj(z_red)
        )
        return np.where(on_lattice, 0.0 + 0.0j, val)

    def e1(self, z: complex) -> complex:
        return complex(self.e1_many(np.asarray([complex(z)]))[0])

    def j_invariant(self) -> complex:
        """Modular invariant 1728*E4^3/(E4^3 - E6^2) from the q-expansion."""
        if self._j is None:
            n_terms = self._n_terms
            sig3 = _divisor_sums(n_terms, 3)
            sig5 = _divisor_sums(n_terms, 5)
            e4 = 1.0 + 0.0j
            e6 = 1.0 + 0.0j
            qn = 1.0 + 0.0j
            for m in range(1, n_terms + 1):
                qn *= self._qbar
                e4 += 240.0 * sig3[m] * qn
                e6 -= 504.0 * sig5[m] * qn
            num = 1728.0 * e4**3
            den = e4**3 - e6**2
            if den == 0.0:
                raise DegenerateLatticeError("discriminant vanished numerically")
            self._j = num / den
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
