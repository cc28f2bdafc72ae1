"""Higher-dimensional Schwarzschild exteriors and geodesic probes.

The harmonic (wave-gauge) chart is in closed form: Cartesian coordinates
x^i = r(rbar) xhat^i are harmonic iff the radial profile solves

    f r'' + (f' + (n-1) f / rbar) r' - (n-1) r / rbar^2 = 0,

and its solution with r ~ rbar at the flat end is r = rbar F(z), with
D = n - 2, z = C_S rbar^{-D} and F = 2F1(-1/D, -1/D; -2/D; z) (DLMF 15.10).
The deviation m = rbar - r = rbar (1 - F) is evaluated directly, so all
quantities stay accurate at the r^{-(n-2)} decay scale.  A HarmonicChart
carries its mass and dimension, so every harmonic-chart function takes the
chart alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import hyp2f1

HORIZON_GUARD = 1.01
#: Below this z = C_S rbar^{2-n} the chart sums the series of 1 - F, whose
#: term ratios stay below z; above it, hyp2f1 serves
SERIES_Z = 0.3
#: Largest affine span lam_end of a geodesic, sqrt(float max): the
#: integrator's error norm squares quantities of the step's size
_SPAN_MAX = math.sqrt(sys.float_info.max)
#: Samples of a geodesic, evenly spaced in its affine parameter from 0 to
#: lam_end (fewer when the probe is captured)
GEODESIC_SAMPLES = 400


class HorizonError(ValueError):
    """Point below the guarded exterior radius."""


class StepFailureError(RuntimeError):
    """Adaptive geodesic integration failed to converge."""


def _over_pow(c, x, k):
    """c / x**k for a float x > 0, also where x**k overflows a float."""
    try:
        return c / x ** k
    except OverflowError:  # x = s 2^e with s in [0.5, 1)
        s, e = math.frexp(x)
        return math.ldexp(c / s ** k, -e * k)


def _times_pow(c, x, k):
    """c * x**-k for a float x > 0: the plain product while x**-k is a
    normal float, and `_over_pow` where it underflows."""
    p = x ** -k
    return c * p if p >= sys.float_info.min else _over_pow(c, x, k)


@dataclass(frozen=True)
class SchwarzschildParams:
    """Mass parameter and spatial dimension of the exterior metric.

    f(rbar) = 1 - C_S / rbar^{n-2}; positive mass C_S >= 0; n >= 5 (n = 4
    harmonic gauge develops logarithms and is excluded).
    """

    n: int
    cs: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n={self.n!r} must be an integer")
        if isinstance(self.cs, (bool, np.bool_)):
            raise ValueError(f"cs={self.cs!r} must be a number, not a bool")
        if self.n < 5:
            raise ValueError("Schwarzschild machinery requires n >= 5")
        if self.cs < 0:
            raise ValueError("mass parameter C_S must be nonnegative")
        if not self.cs < np.inf:
            raise ValueError(f"cs={self.cs} must be finite")

    @property
    def horizon_radius(self) -> float:
        return self.cs ** (1.0 / (self.n - 2)) if self.cs > 0 else 0.0

    @property
    def min_radius(self) -> float:
        return HORIZON_GUARD * self.horizon_radius

    def f(self, rbar):
        return 1.0 - _over_pow(self.cs, rbar, self.n - 2)

    def fp(self, rbar):
        return _over_pow((self.n - 2) * self.cs, rbar, self.n - 1)

    def check_exterior(self, rbar) -> None:
        if np.any(rbar < self.min_radius) or np.any(rbar <= 0):
            raise HorizonError(
                f"radius {np.min(rbar):.6g} inside the guarded exterior "
                f"r > {self.min_radius:.6g}"
            )


def _christoffels(ginv, dg):
    """Gamma^c_{ab} = 1/2 g^{cd} (d_a g_{db} + d_b g_{da} - d_d g_{ab})."""
    # br[d, a, b] = d_a g_{db} + d_b g_{da} - d_d g_{ab}
    br = (np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg)
    return 0.5 * np.einsum("cd,dab->cab", ginv, br)


@dataclass
class MetricAtPoint:
    """Metric data at a point: components, inverse, derivatives."""

    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray  # dg[mu, a, b] = d_mu g_{ab}

    def __post_init__(self):
        if not np.allclose(self.g, self.g.T, atol=1e-13):
            raise ValueError("metric components must be symmetric")
        if not np.allclose(self.g @ self.ginv, np.eye(len(self.g)), atol=1e-12):
            raise ValueError("g * g^{-1} deviates from identity beyond 1e-12")

    @property
    def christoffels(self) -> np.ndarray:
        return _christoffels(self.ginv, self.dg)

    def lorentzian_signature(self) -> bool:
        eig = np.linalg.eigvalsh(self.g)
        return (eig < 0).sum() == 1


def _spatial_point(point, n: int):
    """Spatial vector x and |x|; a scalar radius is placed on the first axis."""
    x = np.atleast_1d(np.asarray(point, dtype=float))
    if x.size == 1:
        x = np.concatenate([x, np.zeros(n - 1)])
    return x, math.hypot(*x)


def _static_metric(x, r, h00, dh00, a, da, b, db) -> MetricAtPoint:
    """Static, spherically symmetric metric from its radial profiles.

    g_00 = -1 + h00, g_ij = (1 + a) delta_ij + (b - a) xhat_i xhat_j, with
    the radial derivatives dh00, da, db taken in the chart's radius r = |x|.
    """
    n = len(x)
    xh = x / r
    eye, xx = np.eye(n), np.outer(xh, xh)
    A, B = 1.0 + a, 1.0 + b
    D = n + 1
    g = np.zeros((D, D))
    g[0, 0] = -1.0 + h00
    g[1:, 1:] = A * eye + (b - a) * xx
    ginv = np.zeros((D, D))
    ginv[0, 0] = 1.0 / g[0, 0]
    ginv[1:, 1:] = eye / A + (1.0 / B - 1.0 / A) * xx
    # dg[1 + k, 1 + i, 1 + j], with dxh[k, i] = d_k xhat_i = (delta_ki - xhat_k xhat_i) / r
    dxh = (eye - xh[:, None] * xh) / r
    dg = np.zeros((D, D, D))
    dg[1:, 0, 0] = dh00 * xh
    dg[1:, 1:, 1:] = ((da * xh)[:, None, None] * eye
                      + ((db - da) * xh)[:, None, None] * xx
                      + (b - a) * (dxh[:, :, None] * xh + xh[:, None] * dxh[:, None, :]))
    return MetricAtPoint(g=g, ginv=ginv, dg=dg)


def schwarzschild_metric(params: SchwarzschildParams, point) -> MetricAtPoint:
    """Exact metric in the Cartesianized Schwarzschild (areal) chart.

    point: spatial vector x (the metric is static) or a scalar rbar, placed
    on the first axis.  g_00 = -f, g_ij = delta_ij + (1/f - 1) xhat_i xhat_j.
    """
    x, rbar = _spatial_point(point, params.n)
    params.check_exterior(rbar)
    f, fp = params.f(rbar), params.fp(rbar)
    return _static_metric(x, rbar, 1.0 - f, -fp,
                          0.0, 0.0, 1.0 / f - 1.0, -fp / f ** 2)


# ---------------------------------------------------------------------------
# Harmonic chart


class HarmonicChart:
    """Closed-form radial profile of the wave-gauge coordinates.

    r = rbar F(z), F = 2F1(a, a; c; z), a = -1/D, c = -2/D, D = n - 2.  The
    deviation m = rbar (1 - F) and m' = (1 - F) + D z F', with
    F' = (a^2/c) 2F1(a+1, a+1; c+1; z), are read off 1 - F and z F'
    directly: below SERIES_Z from their series, above it from hyp2f1.  Far
    out m ~ C_S rbar^{3-n} / (2 (n-2)).  The chart ends at _r_min, just
    inside the guarded exterior (z reaches 1 at the horizon, where F has a
    logarithmic singularity).  The massless chart is the identity, m = 0.
    """

    def __init__(self, params: SchwarzschildParams):
        self.params = params
        self._r_min = max(params.min_radius * 0.999, 1e-6)
        self._trivial = params.cs == 0.0

    def m_mp(self, rbar: float) -> tuple[float, float]:
        """(m, m') at rbar; HorizonError below the chart's inner end."""
        if self._trivial:
            return 0.0, 0.0
        if not rbar >= self._r_min:
            raise HorizonError(
                f"radius {rbar:.6g} inside the guarded exterior: the harmonic "
                f"chart ends at rbar = {self._r_min:.6g}")
        d, cs = self.params.n - 2, self.params.cs
        a, c = -1.0 / d, -2.0 / d
        z = _over_pow(cs, rbar, d)
        if z >= SERIES_Z:
            one_minus_f = 1.0 - float(hyp2f1(a, a, c, z))
            zfp = a * a / c * z * float(hyp2f1(a + 1.0, a + 1.0, c + 1.0, z))
        else:
            # F = sum_k t_k, t_0 = 1, t_{k+1} = t_k (a+k)^2 z / ((c+k)(k+1)):
            # every t_k past t_0 is negative (c < 0 < c + 1), so nothing in
            # 1 - F or z F' = sum_k k t_k cancels; below SERIES_Z, 32 terms
            # reach round-off
            terms = [a * a * z / c]
            for k in range(1, 32):
                t = terms[-1] * (a + k) ** 2 * z / ((c + k) * (k + 1))
                if (k + 1) * abs(t) <= 2.0 ** -54 * abs(terms[0]):
                    break
                terms.append(t)
            one_minus_f = -math.fsum(terms)
            zfp = math.fsum(k * t for k, t in enumerate(terms, 1))
            if z < sys.float_info.min:
                # z is subnormal: m is its leading term, cs rbar^{1-D} / (2D)
                return _over_pow(cs, rbar, d - 1) / (2 * d), one_minus_f + d * zfp
        return rbar * one_minus_f, one_minus_f + d * zfp

    def _mpp(self, rb, m, mp):
        """m'' from the harmonic radial ODE written for m = rbar - r."""
        n, cs = self.params.n, self.params.cs
        f, fp = self.params.f(rb), self.params.fp(rb)
        return (_times_pow(-cs, rb, n - 1) - (fp + (n - 1) * f / rb) * mp
                + _over_pow((n - 1) * m, rb, 2)) / f

    def r_of_rbar(self, rbar: float) -> float:
        return rbar - self.m_mp(rbar)[0]

    def rbar_of_r(self, r: float) -> float:
        """Inverse of r_of_rbar by Newton's method from max(r, chart end):
        r(rbar) = rbar - m is increasing and concave (m' < 0 < m''), so the
        iterates rise to the root on the chart.  Each is the fixed-point step
        rb <- r + m plus Newton's correction m' delta, so a far-field root is
        the float that the fixed point settles on."""
        if self._trivial:
            return r
        if not r < math.inf:
            raise ValueError(f"harmonic radius {r} must be finite")
        # r_of_rbar(_r_min) <= _r_min: only r below _r_min can be inside the chart
        if r < self._r_min and r < (end := self.r_of_rbar(self._r_min)):
            raise HorizonError(f"harmonic radius {r:.6g} inside the guarded "
                               f"exterior: the chart ends at r = {end:.6g}")
        rb = max(r, self._r_min)
        for _ in range(32):  # 9 steps suffice
            m, mp = self.m_mp(rb)
            rb, last = r + m + mp * ((r + m - rb) / (1.0 - mp)), rb
            if abs(rb - last) <= 2.0 ** -51 * rb:
                return rb
        raise ValueError(f"harmonic radius {r!r}: no rbar in 32 Newton steps")


def harmonic_deviation(chart: HarmonicChart, r: float) -> dict:
    """Deviation h = g - eta of the harmonic-chart metric at radius r.

    g_00 = -1 + h00, g_ij = (1 + a) delta_ij + (b - a) xhat_i xhat_j with
    1 + a = rbar^2 / r^2 (tangential), 1 + b = (drbar/dr)^2 / f (radial).
    Returns the scalar profiles {"h00", "tangential", "radial"} and their
    radial derivatives; every quantity is assembled from the small
    deviations m, m' directly, never by subtracting O(1) numbers, so the
    r^{-(n-2)} tail survives in double precision (usable far below machine
    epsilon relative to the identity part).
    """
    n, cs = chart.params.n, chart.params.cs
    rb = chart.rbar_of_r(r)
    chart.params.check_exterior(rb)
    m, mp = chart.m_mp(rb)
    mpp = chart._mpp(rb, m, mp)
    drb_dr = 1.0 / (1.0 - mp)
    dmp_dr = mpp * drb_dr
    # h00 = 1 - f = cs rbar^{2-n}
    h00 = _times_pow(cs, rb, n - 2)
    dh00 = _times_pow(cs * (2 - n), rb, n - 1) * drb_dr
    # a = (rbar/r)^2 - 1 = (2 m r + m^2)/r^2 with rbar = r + m
    a = _over_pow(2.0 * m * r + m * m, r, 2)
    # da = 2 (rbar/r) d(rbar/r) with d(rbar/r) = (r mp/(1-mp) - m)/r^2
    da = _over_pow(2.0 * (rb / r) * (r * mp / (1.0 - mp) - m), r, 2)
    # b: 1 + b = 1/((1-mp)^2 (1 - h00))
    denom = (1.0 - mp) ** 2 * (1.0 - h00)
    num = 2.0 * mp - mp * mp + h00 * (1.0 - mp) ** 2
    b = num / denom
    dnum = (2.0 - 2.0 * mp) * dmp_dr + dh00 * (1.0 - mp) ** 2 \
        - 2.0 * h00 * (1.0 - mp) * dmp_dr
    ddenom = -2.0 * (1.0 - mp) * dmp_dr * (1.0 - h00) - (1.0 - mp) ** 2 * dh00
    db = (dnum * denom - num * ddenom) / denom ** 2
    return {"h00": h00, "tangential": a, "radial": b,
            "dh00": dh00, "dtangential": da, "dradial": db}


def harmonic_metric(chart: HarmonicChart, point) -> MetricAtPoint:
    """Metric components in the harmonic chart at spatial point x.

    The radial profiles come from the chart's closed form, the angular
    structure is exact, and the derivatives are analytic: m'' through the
    chart's radial ODE.
    """
    x, r = _spatial_point(point, chart.params.n)
    h = harmonic_deviation(chart, r)
    return _static_metric(x, r, h["h00"], h["dh00"], h["tangential"],
                          h["dtangential"], h["radial"], h["dradial"])


# ---------------------------------------------------------------------------
# Wave-gauge residual


def wave_gauge_residual(chart: HarmonicChart, r: float) -> np.ndarray:
    """Residual V^c = g^{ab} Gamma^c_{ab} of the chart at radius r.

    Uses the chart's closed-form metric and analytic derivatives, so the
    residual is the round-off of the terms g^{ab} Gamma^c_{ab}, not
    finite-difference noise.  The massless chart gives exact zeros.
    """
    mp = harmonic_metric(chart, r)
    return np.einsum("ab,cab->c", mp.ginv, mp.christoffels)


# ---------------------------------------------------------------------------
# Geodesics


@dataclass
class GeodesicState:
    """A probe's position and velocity in the harmonic chart at affine
    parameter 0.  On a flat internal torus a momentum p is a straight line
    there, so it enters as a timelike launch with g(v, v) = -|p|^2."""

    t: float
    x: np.ndarray
    v_t: float
    v_x: np.ndarray


@dataclass
class GeodesicTrajectory:
    chart: HarmonicChart
    lam: np.ndarray
    t: np.ndarray
    x: np.ndarray           # (N, n)
    v_t: np.ndarray
    v_x: np.ndarray         # (N, n)
    captured: bool
    nfev: int               # right-hand-side evaluations of the integration

    @property
    def r(self) -> np.ndarray:
        return np.array([math.hypot(*x) for x in self.x])

    @property
    def drdt(self) -> np.ndarray:
        """dr/dt = (x . v_x) / (r v_t), read off each sample's state, not
        differenced along the trajectory."""
        return np.einsum("ij,ij->i", self.x, self.v_x) / (self.r * self.v_t)

    def velocity_norm(self) -> np.ndarray:
        """g(dot gamma, dot gamma) along the flow (drift diagnostic)."""
        out = np.empty(len(self.lam))
        for i in range(len(self.lam)):
            mp = harmonic_metric(self.chart, self.x[i])
            v = np.concatenate([[self.v_t[i]], self.v_x[i]])
            out[i] = v @ mp.g @ v
        return out

    def energy(self) -> np.ndarray:
        """Killing charge -g(dot gamma, d_t)."""
        f, inverse = self.chart.params.f, self.chart.rbar_of_r
        return np.array([f(inverse(r)) for r in self.r.tolist()]) * self.v_t


def integrate_geodesic(chart: HarmonicChart, init: GeodesicState,
                       lam_end: float) -> GeodesicTrajectory:
    """Integrate the geodesic equation in the harmonic chart from affine
    parameter 0 to lam_end, sampled at GEODESIC_SAMPLES evenly spaced
    affine parameters.

    Causal initial velocity required.  Terminates on horizon capture.
    Flat space (C_S = 0) skips the metric, so it may launch at the origin.
    """
    if not 0 < lam_end < _SPAN_MAX:
        raise ValueError(f"lam_end={lam_end} must be finite, above 0 and less "
                         f"than {_SPAN_MAX:.3g}")
    params = chart.params
    n = params.n
    for name, val in (("x", init.x), ("v_x", init.v_x)):
        if np.shape(val) != (n,):
            raise ValueError(f"{name} has shape {np.shape(val)}, not ({n},) for n={n}")
    for name, val in (("t", init.t), ("v_t", init.v_t)):
        if not np.isfinite(val):
            raise ValueError(f"{name}={val} must be finite")
    flat = params.cs == 0.0
    g0 = (np.diag([-1.0] + [1.0] * n) if flat
          else harmonic_metric(chart, init.x).g)
    v0 = np.concatenate([[init.v_t], init.v_x])
    norm0 = v0 @ g0 @ v0
    if norm0 > 1e-10:
        raise ValueError(f"initial velocity is spacelike: g(v,v) = {norm0:.3e}")

    def rhs(lam, y):
        # y = [t, x, v_t, v_x]
        v = y[1 + n:]
        dv = np.zeros(1 + n)
        if not flat:
            gam = harmonic_metric(chart, y[1:1 + n]).christoffels
            dv = -np.einsum("cab,a,b->c", gam, v, v)
        return np.concatenate([v, dv])

    def horizon(lam, y):
        rb = chart.rbar_of_r(math.hypot(*y[1:1 + n]))
        # stop slightly above the hard exterior guard so trial evaluations
        # of the right-hand side never cross it during the capture step
        return rb - 1.05 * params.min_radius
    horizon.terminal = True
    horizon.direction = -1

    y0 = np.concatenate([[init.t], init.x, [init.v_t], init.v_x])
    t_eval = np.linspace(0.0, lam_end, GEODESIC_SAMPLES)
    sol = solve_ivp(rhs, (0.0, lam_end), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, events=horizon, t_eval=t_eval)
    if sol.status == -1:
        raise StepFailureError(f"geodesic integration failed: {sol.message}")
    captured = sol.status == 1
    Y = sol.y
    return GeodesicTrajectory(
        chart=chart, lam=sol.t, t=Y[0], x=Y[1:1 + n].T, v_t=Y[1 + n],
        v_x=Y[2 + n:].T, captured=captured, nfev=sol.nfev,
    )
