"""Slow direct-summation reference evaluators.

These exist purely to cross-check the closed-form evaluators in
:mod:`elliptic_dedekind.lattice` along an independent code path.  They
truncate the defining lattice sums over a disk, so accuracy is polynomial in
the radius (roughly 1e-4 at the settings used here) -- use them as oracles in
verification suites, never in production paths.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import Lattice

__all__ = ["lattice_points_in_disk", "weierstrass_zeta_direct", "e2_hecke_limit"]

# e2_hecke_limit: the exponents s it extrapolates from, the disk radius in
# units of sqrt(area), and the outer fraction of the disk it averages over.
_HECKE_S = (0.5, 0.25, 0.125, 0.0625)
_HECKE_RADIUS_CELLS = 220.0
_HECKE_WINDOW = 0.2


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


def weierstrass_zeta_direct(z: complex, lattice: Lattice, radius_shells: int = 40) -> complex:
    """Truncated defining sum 1/z + sum' [1/(z-w) + 1/w + z/w^2].

    The truncation is a centered disk of radius `radius_shells` basis lengths,
    so odd-symmetry cancellation leaves an O(1/R^2) tail.
    """
    radius = radius_shells * max(abs(lattice.omega1), abs(lattice.omega2))
    pts = lattice_points_in_disk(lattice, radius)
    zc = complex(z)
    terms = 1.0 / (zc - pts) + 1.0 / pts + zc / (pts * pts)
    return zc**-1 + complex(np.sum(terms))


def _lagrange_at_zero(s_values, f_values) -> complex:
    total = 0.0 + 0.0j
    for i, si in enumerate(s_values):
        li = 1.0
        for j, sj in enumerate(s_values):
            if j != i:
                li *= (0.0 - sj) / (si - sj)
        total += f_values[i] * li
    return total


def e2_hecke_limit(lattice: Lattice) -> complex:
    """Direct sums sum' w^-2 |w|^-2s at small s > 0, extrapolated to s = 0.

    Partial sums over centered disks oscillate shell by shell, so the value at
    each s is averaged over all truncation radii in the outer _HECKE_WINDOW
    fraction of the disk before polynomial extrapolation in s.  Four halved
    nodes are needed: a quadratic fit through (0.5, 0.25, 0.125) alone leaves
    an s^3 extrapolation error near 1e-3, independent of the radius.
    """
    a = lattice.area()
    radius = _HECKE_RADIUS_CELLS * math.sqrt(a)
    pts = lattice_points_in_disk(lattice, radius)
    r2 = (pts * np.conj(pts)).real
    order = np.argsort(r2, kind="stable")
    pts = pts[order]
    r2 = r2[order]
    base = 1.0 / (pts * pts)
    r_start = ((1.0 - _HECKE_WINDOW) * radius) ** 2
    sel = r2 >= r_start
    f_values = []
    for s in _HECKE_S:
        csum = np.cumsum(base * r2 ** (-s))
        f_values.append(complex(csum[sel].mean()))
    return _lagrange_at_zero(_HECKE_S, f_values)
