"""Higher-dimensional Schwarzschild exteriors and geodesic probes.

The harmonic (wave-gauge) chart is constructed numerically: Cartesian
coordinates x^i = r(rbar) xhat^i are harmonic iff the radial profile solves

    f r'' + (f' + (n-1) f / rbar) r' - (n-1) r / rbar^2 = 0,

integrated inward from the asymptotically flat end.  The deviation
m = rbar - r is solved directly so all quantities stay accurate at the
r^{-(n-2)} decay scale.  A HarmonicChart carries its mass and dimension, so
every harmonic-chart function takes the chart alone.  A leading-order
algebraic transform is exposed as a cheap fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

HORIZON_GUARD = 1.01
R_FAR = 1e3  # the chart ODE starts here; the asymptotic profile serves beyond


class HorizonError(ValueError):
    """Point below the guarded exterior radius."""


class StepFailureError(RuntimeError):
    """Adaptive geodesic integration failed to converge."""


@dataclass(frozen=True)
class SchwarzschildParams:
    """Mass parameter and spatial dimension of the exterior metric.

    f(rbar) = 1 - C_S / rbar^{n-2}; positive mass C_S >= 0; n >= 5 (n = 4
    harmonic gauge develops logarithms and is excluded).
    """

    n: int
    cs: float

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("Schwarzschild machinery requires n >= 5")
        if self.cs < 0:
            raise ValueError("mass parameter C_S must be nonnegative")

    @property
    def horizon_radius(self) -> float:
        return self.cs ** (1.0 / (self.n - 2)) if self.cs > 0 else 0.0

    @property
    def min_radius(self) -> float:
        return HORIZON_GUARD * self.horizon_radius

    def f(self, rbar):
        return 1.0 - self.cs / rbar ** (self.n - 2)

    def fp(self, rbar):
        return (self.n - 2) * self.cs / rbar ** (self.n - 1)

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
    """Metric data in a named chart: components, inverse, derivatives."""

    chart: str
    x: np.ndarray
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
    return x, float(np.linalg.norm(x))


def _static_metric(name: str, x, r, h00, dh00, a, da, b, db) -> MetricAtPoint:
    """Static, spherically symmetric metric from its radial profiles.

    g_00 = -1 + h00, g_ij = (1 + a) delta_ij + (b - a) xhat_i xhat_j, with
    the radial derivatives dh00, da, db taken in the chart's radius r = |x|.
    """
    n = len(x)
    xh = x / r
    A, B = 1.0 + a, 1.0 + b
    D = n + 1
    g = np.zeros((D, D))
    g[0, 0] = -1.0 + h00
    g[1:, 1:] = A * np.eye(n) + (b - a) * np.outer(xh, xh)
    ginv = np.zeros((D, D))
    ginv[0, 0] = 1.0 / g[0, 0]
    ginv[1:, 1:] = np.eye(n) / A + (1.0 / B - 1.0 / A) * np.outer(xh, xh)
    dg = np.zeros((D, D, D))
    for k in range(n):
        dxh = (np.eye(n)[k] - xh[k] * xh) / r
        dg[1 + k, 0, 0] = dh00 * xh[k]
        dg[1 + k, 1:, 1:] = (da * xh[k] * np.eye(n)
                             + (db - da) * xh[k] * np.outer(xh, xh)
                             + (b - a) * (np.outer(dxh, xh) + np.outer(xh, dxh)))
    return MetricAtPoint(chart=name, x=x, g=g, ginv=ginv, dg=dg)


def schwarzschild_metric(params: SchwarzschildParams, point) -> MetricAtPoint:
    """Exact metric in the Cartesianized Schwarzschild (areal) chart.

    point: spatial vector x (the metric is static) or a scalar rbar, placed
    on the first axis.  g_00 = -f, g_ij = delta_ij + (1/f - 1) xhat_i xhat_j.
    """
    x, rbar = _spatial_point(point, params.n)
    params.check_exterior(rbar)
    f = params.f(rbar)
    fp = params.fp(rbar)
    return _static_metric("schwarzschild", x, rbar, 1.0 - f, -fp,
                          0.0, 0.0, 1.0 / f - 1.0, -fp / f ** 2)


# ---------------------------------------------------------------------------
# Harmonic chart


class HarmonicChart:
    """Numerically solved radial profile of the wave-gauge coordinates.

    Integrates the deviation m = rbar - r of the harmonic radial profile
    inward from the flat end, with m ~ C_S / (2 (n-2)) rbar^{3-n}
    asymptotically (the decaying particular solution of the radial ODE).
    The massless chart is the identity, m = 0.
    """

    def __init__(self, params: SchwarzschildParams):
        self.params = params
        n, cs = params.n, params.cs
        self._r_min = max(params.min_radius * 0.999, 1e-6)
        self._trivial = cs == 0.0
        if self._trivial:
            return
        self._a = cs / (2.0 * (n - 2))
        m0 = self._a * R_FAR ** (3 - n)
        mp0 = self._a * (3 - n) * R_FAR ** (2 - n)

        def rhs(rb, y):
            return [y[1], self._mpp(rb, *y)]

        sol = solve_ivp(rhs, (R_FAR, self._r_min), [m0, mp0], method="DOP853",
                        rtol=1e-12, atol=1e-30, dense_output=True)
        if not sol.success:
            raise StepFailureError(f"harmonic chart ODE failed: {sol.message}")
        self._sol = sol

    def _mpp(self, rb, m, mp):
        """m'' from the harmonic radial ODE written for m = rbar - r."""
        n, cs = self.params.n, self.params.cs
        f, fp = self.params.f(rb), self.params.fp(rb)
        return (-cs * rb ** (1 - n) - (fp + (n - 1) * f / rb) * mp
                + (n - 1) * m / rb ** 2) / f

    def m(self, rbar: float) -> float:
        if self._trivial:
            return 0.0
        if rbar > R_FAR:
            return self._a * rbar ** (3 - self.params.n)
        return float(self._sol.sol(rbar)[0])

    def mp(self, rbar: float) -> float:
        if self._trivial:
            return 0.0
        if rbar > R_FAR:
            return self._a * (3 - self.params.n) * rbar ** (2 - self.params.n)
        return float(self._sol.sol(rbar)[1])

    def mpp(self, rbar: float) -> float:
        return self._mpp(rbar, self.m(rbar), self.mp(rbar))

    def r_of_rbar(self, rbar: float) -> float:
        return rbar - self.m(rbar)

    def rbar_of_r(self, r: float) -> float:
        """Inverse of r_of_rbar: six fixed-point steps rb <- r + m(rb) settle
        the far field; where they have not converged (near the horizon m' is
        not small), the root is bracketed above the chart's inner end."""
        rb = r
        for _ in range(6):
            rb, last = r + self.m(rb), rb
        if abs(rb - last) <= 1e-13 * rb:
            return rb
        lo = self._r_min
        if self.r_of_rbar(lo) > r:
            raise HorizonError(
                f"harmonic radius {r:.6g} inside the guarded exterior: the "
                f"chart ends at r = {self.r_of_rbar(lo):.6g}")
        hi = max(2.0 * r, lo)
        while self.r_of_rbar(hi) < r:
            hi *= 2.0
        return brentq(lambda x: self.r_of_rbar(x) - r, lo, hi,
                      xtol=1e-300, rtol=4 * np.finfo(float).eps)


def to_harmonic_chart(params: SchwarzschildParams, rbar: float) -> float:
    """Leading-order harmonic radius r = rbar - C_S / (2 rbar^{n-3}), the
    algebraic fallback to the gauge-exact HarmonicChart.r_of_rbar."""
    params.check_exterior(rbar)
    return rbar - params.cs / (2.0 * rbar ** (params.n - 3))


def _radial_profiles(chart: HarmonicChart, r: float):
    """Deviation-form radial profiles of the harmonic-chart metric.

    g_00 = -1 + h00, g_ij = (1 + a) delta_ij + (b - a) xhat_i xhat_j with
    1 + a = rbar^2 / r^2 (tangential), 1 + b = (drbar/dr)^2 / f (radial).
    Returns ((h00, dh00), (a, da), (b, db)); every quantity is assembled
    from the small deviations m, m' directly, never by subtracting O(1)
    numbers, so the r^{-(n-2)} tail survives in double precision.
    """
    n, cs = chart.params.n, chart.params.cs
    rb = chart.rbar_of_r(r)
    chart.params.check_exterior(rb)
    m, mp, mpp = chart.m(rb), chart.mp(rb), chart.mpp(rb)
    drb_dr = 1.0 / (1.0 - mp)
    dmp_dr = mpp * drb_dr
    # h00 = 1 - f = cs rbar^{2-n}
    h00 = cs * rb ** (2 - n)
    dh00 = cs * (2 - n) * rb ** (1 - n) * drb_dr
    # a = (rbar/r)^2 - 1 = (2 m r + m^2)/r^2 with rbar = r + m
    a = (2.0 * m * r + m * m) / r ** 2
    # da = 2 (rbar/r) d(rbar/r) with d(rbar/r) = (r mp/(1-mp) - m)/r^2
    da = 2.0 * (rb / r) * (r * mp / (1.0 - mp) - m) / r ** 2
    # b: 1 + b = 1/((1-mp)^2 (1 - h00bar)), h00bar = cs rbar^{2-n}
    w = h00
    denom = (1.0 - mp) ** 2 * (1.0 - w)
    num = 2.0 * mp - mp * mp + w * (1.0 - mp) ** 2
    b = num / denom
    dw = dh00
    dnum = (2.0 - 2.0 * mp) * dmp_dr + dw * (1.0 - mp) ** 2 \
        - 2.0 * w * (1.0 - mp) * dmp_dr
    ddenom = -2.0 * (1.0 - mp) * dmp_dr * (1.0 - w) - (1.0 - mp) ** 2 * dw
    db = (dnum * denom - num * ddenom) / denom ** 2
    return (h00, dh00), (a, da), (b, db)


def harmonic_deviation(chart: HarmonicChart, r: float) -> dict:
    """Deviation h = g - eta of the harmonic-chart metric at radius r.

    Returns the scalar profiles {"h00", "tangential", "radial"} and their
    radial derivatives, computed without O(1) cancellation (usable far
    below machine epsilon relative to the identity part).
    """
    (h00, dh00), (a, da), (b, db) = _radial_profiles(chart, r)
    return {"h00": h00, "tangential": a, "radial": b,
            "dh00": dh00, "dtangential": da, "dradial": db}


def harmonic_metric(chart: HarmonicChart, point) -> MetricAtPoint:
    """Metric components in the harmonic chart at spatial point x.

    Radial profile functions come from the ODE chart; angular structure is
    closed-form.  Derivatives are analytic through the chart's ODE
    relations.
    """
    x, r = _spatial_point(point, chart.params.n)
    (h00, dh00), (a, da), (b, db) = _radial_profiles(chart, r)
    return _static_metric("harmonic-ode", x, r, h00, dh00, a, da, b, db)


# ---------------------------------------------------------------------------
# Wave-gauge residual


def wave_gauge_residual(chart: HarmonicChart, r: float) -> np.ndarray:
    """Residual V^c = g^{ab} Gamma^c_{ab} of the chart at radius r.

    Uses the chart's closed-form metric derivatives, so the residual
    reflects only the chart construction error (the ODE tolerance), not
    finite-difference noise.  The massless chart gives exact zeros.
    """
    mp = harmonic_metric(chart, r)
    return np.einsum("ab,cab->c", mp.ginv, mp.christoffels)


# ---------------------------------------------------------------------------
# Geodesics


@dataclass
class GeodesicState:
    """Position and velocity on the product spacetime (harmonic chart)."""

    t: float
    x: np.ndarray
    v_t: float
    v_x: np.ndarray
    torus: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v_torus: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lam: float = 0.0


@dataclass
class GeodesicTrajectory:
    chart: HarmonicChart
    lam: np.ndarray
    t: np.ndarray
    x: np.ndarray           # (N, n)
    v_t: np.ndarray
    v_x: np.ndarray         # (N, n)
    torus: np.ndarray
    v_torus: np.ndarray
    captured: bool

    @property
    def r(self) -> np.ndarray:
        return np.linalg.norm(self.x, axis=1)

    def velocity_norm(self) -> np.ndarray:
        """g(dot gamma, dot gamma) along the flow (drift diagnostic)."""
        out = np.empty(len(self.lam))
        for i in range(len(self.lam)):
            mp = harmonic_metric(self.chart, self.x[i])
            v = np.concatenate([[self.v_t[i]], self.v_x[i]])
            out[i] = v @ mp.g @ v + np.dot(self.v_torus[i], self.v_torus[i])
        return out

    def energy(self) -> np.ndarray:
        """Killing charge -g(dot gamma, d_t)."""
        out = np.empty(len(self.lam))
        for i in range(len(self.lam)):
            rb = self.chart.rbar_of_r(float(np.linalg.norm(self.x[i])))
            out[i] = self.chart.params.f(rb) * self.v_t[i]
        return out


def integrate_geodesic(chart: HarmonicChart, init: GeodesicState,
                       lam_end: float, exterior_probe: bool = False,
                       n_output: int = 400) -> GeodesicTrajectory:
    """Integrate the geodesic equation on harmonic Schwarzschild x torus.

    Causal initial velocity required.  Launch points outside |x| <= t - 2
    must be flagged as exterior probes.  Terminates on horizon capture.
    Flat space (C_S = 0) skips the metric, so it may launch at the origin.
    """
    params = chart.params
    n, d = params.n, len(init.torus)
    flat = params.cs == 0.0
    g0 = (np.diag([-1.0] + [1.0] * n) if flat
          else harmonic_metric(chart, init.x).g)
    v0 = np.concatenate([[init.v_t], init.v_x])
    norm0 = v0 @ g0 @ v0 + np.dot(init.v_torus, init.v_torus)
    if norm0 > 1e-10:
        raise ValueError(f"initial velocity is spacelike: g(v,v) = {norm0:.3e}")
    if not exterior_probe and np.linalg.norm(init.x) > init.t - 2.0:
        raise ValueError(
            "launch point outside |x| <= t - 2; pass exterior_probe=True"
        )

    def rhs(lam, y):
        xs = y[1:1 + n]
        vt = y[1 + n + d]
        vx = y[2 + n + d:2 + 2 * n + d]
        vth = y[2 + 2 * n + d:]
        dv = np.zeros(1 + n)
        if not flat:
            gam = harmonic_metric(chart, xs).christoffels
            v = np.concatenate([[vt], vx])
            dv = -np.einsum("cab,a,b->c", gam, v, v)
        return np.concatenate([[vt], vx, vth, dv, np.zeros(d)])

    def horizon(lam, y):
        rb = chart.rbar_of_r(float(np.linalg.norm(y[1:1 + n])))
        # stop slightly above the hard exterior guard so trial evaluations
        # of the right-hand side never cross it during the capture step
        return rb - 1.05 * params.min_radius
    horizon.terminal = True
    horizon.direction = -1

    y0 = np.concatenate([[init.t], init.x, init.torus,
                         [init.v_t], init.v_x, init.v_torus])
    t_eval = np.linspace(init.lam, lam_end, n_output)
    sol = solve_ivp(rhs, (init.lam, lam_end), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, events=horizon, t_eval=t_eval)
    if sol.status == -1:
        raise StepFailureError(f"geodesic integration failed: {sol.message}")
    captured = sol.status == 1
    Y = sol.y
    return GeodesicTrajectory(
        chart=chart, lam=sol.t, t=Y[0], x=Y[1:1 + n].T,
        torus=Y[1 + n:1 + n + d].T, v_t=Y[1 + n + d],
        v_x=Y[2 + n + d:2 + 2 * n + d].T, v_torus=Y[2 + 2 * n + d:].T,
        captured=captured,
    )


def write_trajectory_csv(path, traj: GeodesicTrajectory) -> None:
    r = traj.r
    drdt = np.gradient(r, traj.t) if len(r) > 2 else np.zeros_like(r)
    gnorm = traj.velocity_norm()
    energy = traj.energy()
    with open(path, "w") as fh:
        fh.write(f"# n={traj.chart.params.n} cs={traj.chart.params.cs!r} "
                 f"captured={int(traj.captured)}\n")
        fh.write("lam,t,r,drdt,gnorm,energy\n")
        for i in range(len(traj.lam)):
            fh.write(f"{traj.lam[i]:.17g},{traj.t[i]:.17g},{r[i]:.17g},"
                     f"{drdt[i]:.17g},{gnorm[i]:.17g},{energy[i]:.17g}\n")
