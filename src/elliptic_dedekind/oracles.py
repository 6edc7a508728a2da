"""Reference evaluators along code paths independent of the q-series kernels.

These exist purely to cross-check the closed-form evaluators in
:mod:`elliptic_dedekind.lattice`; use them in verification suites, never in
production paths.

- `weierstrass_zeta_direct` truncates the defining sum of zeta over a disk, so
  its accuracy is polynomial in the radius (about 1e-9 at the one it uses).
- `e2_hecke_limit` evaluates Hecke's limit for E2(0) exactly by Ewald's theta
  split: two rapidly converging sums of elementary functions over the given
  basis and its dual, accurate to the last few units in the last place.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import Lattice

__all__ = ["lattice_points_in_disk", "weierstrass_zeta_direct", "e2_hecke_limit"]

# weierstrass_zeta_direct: the disk's radius in units of sqrt(area).  Over the
# 16 orders of CI and (-4, 5) the worst residual at z = 0.31+0.27j is 1.0e-9
# (d = -4), ten times under the e1 suite's 1e-8.
_ZETA_RADIUS_CELLS = 200.0

# e2_hecke_limit: both of its sums stop where the exponent of their Gaussian
# reaches this, so each drops terms below exp(-40) ~ 4e-18 of the first.
_EWALD_CUTOFF = 40.0


def lattice_points_in_disk(lattice: Lattice, radius: float) -> np.ndarray:
    """All nonzero lattice points with |w| <= radius, as a complex array.

    The grid spans the reduced basis, whose coefficient box is the smallest.
    """
    w1, w2 = lattice._r1, lattice._r2
    a = lattice.area()
    mmax = int(radius * abs(w2) / a) + 2
    nmax = int(radius * abs(w1) / a) + 2
    m = np.arange(-mmax, mmax + 1)
    n = np.arange(-nmax, nmax + 1)
    z = (m[:, None] * w1 + n[None, :] * w2).ravel()
    r2 = (z * np.conj(z)).real
    mask = (r2 > 1e-12 * a) & (r2 <= radius * radius)
    return z[mask]


def weierstrass_zeta_direct(z: complex, lattice: Lattice) -> complex:
    """Truncated defining sum 1/z + sum' [1/(z-w) + 1/w + z/w^2].

    The truncation is a centered disk of radius _ZETA_RADIUS_CELLS*sqrt(area),
    so its cost depends on the lattice, not on the basis that names it, and
    odd-symmetry cancellation leaves an O(1/_ZETA_RADIUS_CELLS^2) tail.
    """
    pts = lattice_points_in_disk(lattice, _ZETA_RADIUS_CELLS * math.sqrt(lattice.area()))
    zc = complex(z)
    terms = 1.0 / (zc - pts) + 1.0 / pts + zc / (pts * pts)
    return zc**-1 + complex(np.sum(terms))


def _points_in_disk(b1: complex, b2: complex, area: float, r2_max: float):
    """Nonzero m*b1 + n*b2 with |m*b1 + n*b2|^2 <= r2_max, one row of n at a time.

    Row n lies at distance |n|*area/|b1| from the line R*b1; on it, m runs over
    the integers of an interval centred at -n*Re(b2*conj(b1))/|b1|^2.
    """
    len1 = abs(b1)
    gap = area / len1
    shift = (b2 * b1.conjugate()).real / (len1 * len1)
    n_max = int(math.sqrt(r2_max) / gap)
    for n in range(-n_max, n_max + 1):
        room = r2_max - (n * gap) ** 2
        if room < 0.0:
            continue
        half = math.sqrt(room) / len1
        centre = -n * shift
        for m in range(math.ceil(centre - half), math.floor(centre + half) + 1):
            if m or n:
                yield m * b1 + n * b2


def e2_hecke_limit(lattice: Lattice) -> complex:
    """Hecke's limit E2(0) = lim_{s->0+} sum' w^-2 |w|^-2s, by Ewald's theta split.

    With A the area, x = pi*|w|^2/A and y = pi*A*|xi|^2,

        E2(0) = sum'_{w in L} w^-2 (1 + x) e^-x - (pi/A) sum'_{xi in L*} (conj(xi)/xi) e^-y,

    where L* = {xi : Re(w*conj(xi)) in Z for all w in L} has the dual basis
    xi1 = -i*omega2/A, xi2 = i*omega1/A.  The value at sigma = 2 of the Epstein
    zeta function sum' conj(w)^2 |w|^-2sigma is entire in sigma (A. Weil,
    "Elliptic Functions according to Eisenstein and Kronecker", 1976, ch. VIII);
    Mellin's transform splits it at the self-dual Gaussian width pi/A, and
    Poisson's formula with Hecke's identity for conj(x)^2 e^(-pi|x|^2) turns
    the large-|w| half into the dual sum.  Gamma(2, x) = (1 + x) e^-x and
    Gamma(1, y) = e^-y are what is left of the incomplete gamma functions.

    Both sums stop at exponent _EWALD_CUTOFF, about 40 points each, and are
    enumerated from the given basis omega1, omega2 in plain floats: nothing is
    shared with the lattice's reduced basis or its q-series.
    """
    w1, w2 = lattice.omega1, lattice.omega2
    a = (w1.conjugate() * w2).imag
    width = math.pi / a
    direct = 0j
    for w in _points_in_disk(w1, w2, a, _EWALD_CUTOFF / width):
        x = width * abs(w) ** 2
        direct += (1.0 + x) * math.exp(-x) / (w * w)
    dual = 0j
    for xi in _points_in_disk(-1j * w2 / a, 1j * w1 / a, 1.0 / a, _EWALD_CUTOFF / (math.pi * a)):
        dual += xi.conjugate() / xi * math.exp(-math.pi * a * abs(xi) ** 2)
    return direct - width * dual
