"""Reference evaluators along code paths independent of the q-series kernels.

These exist purely to cross-check the evaluators in :mod:`elliptic_dedekind.lattice`;
use them in verification suites, never in production paths.

All take Ewald's theta split of Hecke's limit (A. Weil, "Elliptic Functions
according to Eisenstein and Kronecker", 1976, ch. VIII): with A the area,
Mellin's transform splits the series at the self-dual Gaussian width pi/A, and
Poisson's formula turns the large-|w| half into a sum over the dual lattice
L* = {xi : Re(w*conj(xi)) in Z for all w in L}, basis xi1 = -i*omega2/A,
xi2 = i*omega1/A.  Both halves are sums of elementary functions over one
enumerator (_points_in_disk), from the given basis in plain floats, cut at
exponent _EWALD_CUTOFF (about 40 points each).  Nothing is shared with the
reduced basis or the q-series, and each value is exact to a few units in the
last place: `e2_hecke_limit` gives E2(0), `e1_ewald` Kronecker's E1(z), and
`weierstrass_zeta_direct` zeta(z) = E1(z) + E2(0)*z + (pi/A)*conj(z).
`e1_ewald_many` evaluates E1 at many points with the dual half enumerated
once per lattice per call; nothing is kept between calls.
"""

from __future__ import annotations

import cmath
import math

from .lattice import Lattice

__all__ = ["e1_ewald", "e1_ewald_many", "weierstrass_zeta_direct", "e2_hecke_limit"]

# Every sum stops where the exponent of its Gaussian reaches this, so each
# drops terms below exp(-40) ~ 4e-18 of the first.
_EWALD_CUTOFF = 40.0


def _points_in_disk(b1: complex, b2: complex, area: float, r2_max: float, centre: complex):
    """Every m*b1 + n*b2 with |m*b1 + n*b2 - centre|^2 <= r2_max, one row of n at a time.

    Rows lie area/|b1| apart, parallel to b1, and the centre sits at row
    Im(centre*conj(b1))/area; on row n, m runs over the integers of an
    interval centred at Re((centre - n*b2)*conj(b1))/|b1|^2.
    """
    len1 = abs(b1)
    gap = area / len1
    shift = (b2 * b1.conjugate()).real / (len1 * len1)
    c = centre * b1.conjugate()
    row, along = c.imag / area, c.real / (len1 * len1)
    reach = math.sqrt(r2_max) / gap
    for n in range(math.ceil(row - reach), math.floor(row + reach) + 1):
        room = r2_max - ((n - row) * gap) ** 2
        if room < 0.0:
            continue
        half = math.sqrt(room) / len1
        mid = along - n * shift
        for m in range(math.ceil(mid - half), math.floor(mid + half) + 1):
            yield m * b1 + n * b2


def _dual_terms(lattice: Lattice):
    """(xi, exp(-pi*A*|xi|^2)) for the nonzero xi of L* up to _EWALD_CUTOFF."""
    w1, w2, a = lattice.omega1, lattice.omega2, lattice.area()
    for xi in _points_in_disk(-1j * w2 / a, 1j * w1 / a, 1.0 / a, _EWALD_CUTOFF / (math.pi * a), 0j):
        if xi:
            yield xi, math.exp(-math.pi * a * abs(xi) ** 2)


def e2_hecke_limit(lattice: Lattice) -> complex:
    """Hecke's limit E2(0) = lim_{s->0+} sum' w^-2 |w|^-2s, by Ewald's theta split.

    With x = pi*|w|^2/A and y = pi*A*|xi|^2,

        E2(0) = sum'_{w in L} w^-2 (1 + x) e^-x - (pi/A) sum'_{xi in L*} (conj(xi)/xi) e^-y.

    The value at sigma = 2 of the Epstein zeta function sum' conj(w)^2 |w|^-2sigma
    is entire in sigma; Hecke's identity for conj(x)^2 e^(-pi|x|^2) gives the
    dual sum, and Gamma(2, x) = (1 + x) e^-x and Gamma(1, y) = e^-y are what is
    left of the incomplete gamma functions.
    """
    w1, w2, a = lattice.omega1, lattice.omega2, lattice.area()
    width = math.pi / a
    direct = 0j
    for w in _points_in_disk(w1, w2, a, _EWALD_CUTOFF / width, 0j):
        if w:
            x = width * abs(w) ** 2
            direct += (1.0 + x) * math.exp(-x) / (w * w)
    dual = sum((xi.conjugate() / xi * g for xi, g in _dual_terms(lattice)), 0j)
    return direct - width * dual


def e1_ewald_many(points, lattice: Lattice) -> list[complex]:
    """Kronecker's E1(z) = lim_{s->0+} sum_w (z + w)^-1 |z + w|^-2s at each z of `points`, by Ewald's theta split.

    With x = pi*|z + w|^2/A and y = pi*A*|xi|^2,

        E1(z) = sum_{w in L} e^-x/(z + w) - (i/A) sum'_{xi in L*} e^(2*pi*i*Re(z*conj(xi))) (conj(xi)/|xi|^2) e^-y.

    Poisson's formula for the shifted lattice z + L puts the character on the
    dual half.  The direct disk is centred at -z, so z need not be reduced; a
    lattice point z gives 0 (its own term is skipped, the rest cancel in pairs).
    The dual terms (xi, e^-y) depend on the lattice alone and are enumerated
    once for all the points; each point sums its terms in the same order.
    """
    w1, w2, a = lattice.omega1, lattice.omega2, lattice.area()
    width = math.pi / a
    dual_terms = list(_dual_terms(lattice))
    values = []
    for z in points:
        z = complex(z)
        direct = 0j
        for w in _points_in_disk(w1, w2, a, _EWALD_CUTOFF / width, -z):
            v = z + w
            if v:
                direct += math.exp(-width * abs(v) ** 2) / v
        dual = sum((cmath.exp(2j * math.pi * (z * xi.conjugate()).real) * g / xi for xi, g in dual_terms), 0j)
        values.append(direct - 1j / a * dual)
    return values


def e1_ewald(z: complex, lattice: Lattice) -> complex:
    """Kronecker's E1(z) by Ewald's theta split: the one-point case of e1_ewald_many."""
    (value,) = e1_ewald_many([z], lattice)
    return value


def weierstrass_zeta_direct(z: complex, lattice: Lattice) -> complex:
    """zeta(z) = E1(z) + E2(0)*z + (pi/A)*conj(z), from e1_ewald and e2_hecke_limit."""
    z = complex(z)
    return e1_ewald(z, lattice) + e2_hecke_limit(lattice) * z + math.pi / lattice.area() * z.conjugate()
