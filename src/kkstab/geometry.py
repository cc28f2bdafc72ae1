"""Minkowski-factor geometry: Cartesian and hyperboloidal charts, the Lorentz
generator algebra in radial symmetry, and hyperboloid slices with flat-measure
quadrature.

All production fields are radially reduced to (t, r); angular rotations
annihilate them exactly and are returned as exact zeros rather than errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Point outside the chart's domain of validity."""


class UnsupportedGeneratorError(ValueError):
    """Generator not meaningful for the supplied data."""


def to_hyperboloidal(t: float, x) -> tuple[float, np.ndarray]:
    """Map a Cartesian point inside the light cone to (s, y)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r2 = float(np.dot(x, x))
    if t * t <= r2:
        raise DomainError(f"point (t={t}, |x|={math.sqrt(r2)}) not inside the light cone")
    return math.sqrt(t * t - r2), x.copy()


def from_hyperboloidal(s: float, y) -> tuple[float, np.ndarray]:
    """Inverse of :func:`to_hyperboloidal`; t = sqrt(s^2 + |y|^2)."""
    if s <= 0:
        raise DomainError(f"hyperboloidal time s={s} must be positive")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return math.sqrt(s * s + float(np.dot(y, y))), y.copy()


def t_max_on_slice(s: float) -> float:
    """Time at which the slice s meets |x| = t - 1, i.e. (s^2 + 1)/2."""
    if s < 1:
        raise DomainError(f"t_max_on_slice requires s >= 1, got {s}")
    return 0.5 * (s * s + 1.0)


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

    def check_t_bounds(self) -> None:
        """Assert 2t - 1 <= s^2 <= t^2 on the |x| <= t - 1 portion."""
        t = self.t
        mask = self.r <= t - 1.0
        s2 = self.s ** 2
        if not np.all(2.0 * t[mask] - 1.0 <= s2 * (1 + 1e-12)):
            raise AssertionError("t-bound 2t-1 <= s^2 violated on slice")
        if not np.all(s2 <= t ** 2 * (1 + 1e-12)):
            raise AssertionError("t-bound s^2 <= t^2 violated on slice")


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
# Generators acting on callables u(t, r) via centered finite differences


def _d_dt(u, t, r, h):
    return (u(t + h, r) - u(t - h, r)) / (2.0 * h)


def _d_dr(u, t, r, h):
    return (u(t, r + h) - u(t, r - h)) / (2.0 * h)


def apply_generator_fn(kind: str, u, t: float, r: float, h: float = 1e-4) -> float:
    """Apply a Lorentz generator to a callable radial field at one point.

    Centered O(h^2) stencils. "rotation" returns exact 0 (rotations
    annihilate radial fields). "Y" is the hyperboloidal spatial derivative
    Y = X_r + (r/t) T; "Z0r" = t X_r + r T.
    """
    if kind == "T":
        return _d_dt(u, t, r, h)
    if kind == "Xr":
        return _d_dr(u, t, r, h)
    if kind == "Z0r":
        return t * _d_dr(u, t, r, h) + r * _d_dt(u, t, r, h)
    if kind == "Y":
        return _d_dr(u, t, r, h) + (r / t) * _d_dt(u, t, r, h)
    if kind == "rotation":
        return 0.0
    raise UnsupportedGeneratorError(f"unknown generator kind {kind!r}")


def generator_as_callable(kind: str, u, h: float = 1e-4):
    """Lift apply_generator_fn to a field-to-field map (for nesting)."""
    if kind == "rotation":
        return lambda t, r: 0.0
    return lambda t, r: apply_generator_fn(kind, u, t, r, h)


#: Structure constants of the radial subalgebra {T, Xr, Z0r}:
#: [A, B] = sum_C c_C C with entries ((A, B), {C: coeff}).
RADIAL_BRACKETS = {
    ("T", "Xr"): {},
    ("T", "Z0r"): {"Xr": 1.0},
    ("Xr", "Z0r"): {"T": 1.0},
}


def generator_closure_check(fields, h: float = 1e-3, points=None) -> dict:
    """Verify the radial generator algebra closes on sample fields.

    For each ordered pair (A, B), compares [A, B]u against the
    structure-constant combination; returns max defect per pair.
    The defect is O(h^2) for smooth fields.
    """
    if points is None:
        points = [(5.0, 1.3), (7.5, 2.1), (10.0, 0.7)]
    report = {}
    for (a, b), combo in RADIAL_BRACKETS.items():
        worst = 0.0
        for u in fields:
            au = generator_as_callable(a, u, h)
            bu = generator_as_callable(b, u, h)
            for (t, r) in points:
                lhs = apply_generator_fn(a, bu, t, r, h) - apply_generator_fn(b, au, t, r, h)
                rhs = sum(c * apply_generator_fn(g, u, t, r, h) for g, c in combo.items())
                worst = max(worst, abs(lhs - rhs))
        report[(a, b)] = worst
    return report


# ---------------------------------------------------------------------------
# Generators on gridded histories


def grid_apply(kind: str, values: np.ndarray, dt: float, dr: float, t0: float) -> np.ndarray:
    """Vectorized generator application over a full (t, r) history array.

    Returns an array of the same shape; the one-cell border is NaN (no
    centered stencil there).
    """
    if kind == "rotation":
        return np.zeros_like(values)
    out = np.full_like(values, np.nan)
    du_dt = np.empty_like(out)
    du_dr = np.empty_like(out)
    du_dt[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2.0 * dt)
    du_dr[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * dr)
    nt, nr = values.shape
    t = t0 + dt * np.arange(nt)[:, None]
    r = dr * np.arange(nr)[None, :]
    if kind == "T":
        out[1:-1, 1:-1] = du_dt[1:-1, 1:-1]
    elif kind == "Xr":
        out[1:-1, 1:-1] = du_dr[1:-1, 1:-1]
    elif kind == "Z0r":
        out[1:-1, 1:-1] = (t * du_dr + r * du_dt)[1:-1, 1:-1]
    elif kind == "Y":
        out[1:-1, 1:-1] = (du_dr + (r / t) * du_dt)[1:-1, 1:-1]
    else:
        raise UnsupportedGeneratorError(f"unknown generator kind {kind!r}")
    return out
