"""Minkowski-factor geometry: Cartesian and hyperboloidal charts, the Lorentz
generator algebra in radial symmetry, and hyperboloid slices with flat-measure
quadrature.

All production fields are radially reduced to (t, r); angular rotations
annihilate them exactly and are returned as exact zeros rather than errors.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Point outside the chart's domain of validity."""


def to_hyperboloidal(t: float, x) -> tuple[float, np.ndarray]:
    """Map a Cartesian point inside the light cone to (s, y)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r2 = float(np.dot(x, x))
    if t * t <= r2:
        raise DomainError(f"point (t={t}, |x|={math.sqrt(r2)}) not inside the light cone")
    return math.sqrt(t * t - r2), x.copy()


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# Hyperboloid slices


@dataclass(frozen=True)
class HyperboloidSlice:
    """The surface s = const, radially sampled, with flat-measure quadrature.

    Quadrature weights integrate f over the slice with the flat Euclidean
    volume form dx, radially reduced: integral = sum_k w_k f(r_k) with
    w_k = vol(S^{n-1}) r_k^{n-1} * (trapezoid weight).
    """

    s: float
    n: int
    r: np.ndarray
    r_cap: float
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.s < 2:
            raise DomainError(f"energy slices require s >= 2, got s={self.s}")
        dr = self.r[1] - self.r[0] if len(self.r) > 1 else 1.0
        trap = np.full(len(self.r), dr)
        trap[0] = trap[-1] = 0.5 * dr
        w = sphere_area(self.n) * self.r ** (self.n - 1) * trap
        object.__setattr__(self, "weights", w)

    @property
    def t(self) -> np.ndarray:
        return np.sqrt(self.s ** 2 + self.r ** 2)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def make_slice(s: float, n: int, dr: float, r_cap: float | None = None) -> HyperboloidSlice:
    """Build a radial slice sampled at spacing dr out to r_cap.

    By default the slice is truncated where it meets |x| = t - 1, the region
    the energy integrals live on.
    """
    limit = 0.5 * (s * s - 1.0)
    cap = limit if r_cap is None else min(r_cap, limit)
    k_max = max(int(math.floor(cap / dr)), 2)
    r = np.arange(k_max + 1) * dr
    return HyperboloidSlice(s=s, n=n, r=r, r_cap=cap)


# ---------------------------------------------------------------------------
# The radial generator algebra: exact integer word expansion


#: Structure constants of the radial subalgebra {T, Xr, Z0r}:
#: [A, B] = sum_C c_C C with entries ((A, B), {C: coeff}).
RADIAL_BRACKETS = {
    ("T", "Xr"): {},
    ("T", "Z0r"): {"Xr": 1.0},
    ("Xr", "Z0r"): {"T": 1.0},
}

# Each radial generator as a sum of t^i r^j d_axis pieces (i, j, axis), with
# axis 0 for d_t and 1 for d_r: Z0r = t d_r + r d_t.
_GENERATORS = {"T": ((0, 0, 0),), "Xr": ((0, 0, 1),),
               "Z0r": ((1, 0, 1), (0, 1, 0))}


@functools.lru_cache(maxsize=None)
def _word_terms(word: tuple) -> tuple:
    """Expand Z^word u into ((a, b), ((i, j, c), ...)) terms.

    The coefficient of d_t^a d_r^b u is the sum of c t^i r^j over the listed
    monomials.  The generators act right to left by the product rule on
    integer polynomials, so the expansion is exact; "rotation" annihilates
    radial fields and gives the empty expansion.
    """
    terms = {(0, 0): Counter({(0, 0): 1})}
    for kind in reversed(word):
        if kind == "rotation":
            return ()
        if kind not in _GENERATORS:
            raise ValueError(f"unknown generator {kind!r}")
        new = defaultdict(Counter)
        for (a, b), poly in terms.items():
            for p, q, axis in _GENERATORS[kind]:
                for (i, j), c in poly.items():
                    # t^p r^q d_axis (C d_t^a d_r^b u), C = c t^i r^j
                    new[a + 1 - axis, b + axis][i + p, j + q] += c
                    k = (i, j)[axis]
                    if k:
                        new[a, b][i + p - 1 + axis, j + q - axis] += k * c
        terms = new
    return tuple(sorted(
        (key, tuple(sorted((i, j, c) for (i, j), c in poly.items() if c)))
        for key, poly in terms.items() if any(poly.values())))


def _eval_terms(t, r, deriv, terms) -> np.ndarray:
    """Sum of coefficient(t, r) * deriv(a, b) over expanded word terms.

    t, r and deriv(a, b), the sampled d_t^a d_r^b u, are aligned arrays on
    one slice.
    """
    out = np.zeros_like(t)
    for (a, b), monomials in terms:
        # c * r**j * t**i left to right, as the tests' lambdified symbolic
        # coefficients evaluate it (a zero power is an exact factor 1.0)
        coeff = sum(c * r ** j * t ** i for i, j, c in monomials)
        out = out + coeff * deriv(a, b)
    return out


def _words_upto(length: int, alphabet=("T", "Xr", "Z0r")):
    words = [()]
    horizon = [()]
    for _ in range(length):
        horizon = [w + (a,) for w in horizon for a in alphabet]
        words.extend(horizon)
    return words
