"""Time evolution of radial Klein-Gordon modes and a quasilinear surrogate.

Method of lines: centered second-order stencils in r, classical four-stage
Runge-Kutta in t.  The regular axis limit replaces the radial Laplacian by
n * u_rr at r = 0.  Hyperboloid samples are captured on the fly from a
four-step rolling window, so long runs never store the dense history.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import ModeField, SliceData
from .geometry import grid_apply, make_slice
from .internal import FlatTorus


class CFLError(ValueError):
    """Time step too large for the (possibly perturbed) characteristic speed."""


class NaNGuardError(RuntimeError):
    """Non-finite values appeared during a linear evolution."""


class WindowDepthError(ValueError):
    """Stored history too shallow for the requested commutation order."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Run parameters for the radial solvers.

    Initial data must be supported in r <= t_start - 2 so the support cone
    r <= t - 1 contains the solution for all later times.
    """

    n: int
    dr: float = 1.0 / 64.0
    cfl: float = 0.4
    t_start: float = 4.0
    t_end: float = 100.0
    r_max: float | None = None
    nonlinearity: str = "linear"
    eps: float = 0.0
    eps_max: float = 1e-2
    store_history: bool = True
    store_every: int = 8
    monitor_every: int = 16
    sample_derivs: int = 2
    observers: tuple[float, ...] = ()
    workers: int = 1
    blowup_factor: float = 10.0

    def __post_init__(self):
        if self.cfl > 0.5:
            raise CFLError(f"cfl={self.cfl} exceeds the 0.5 stability margin")
        if self.t_start < 2.0:
            raise ValueError("t_start < 2 leaves no room for the support cone")
        if self.nonlinearity not in ("linear", "quasilinear-toy"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if abs(self.eps) > self.eps_max:
            raise ValueError(f"eps={self.eps} exceeds eps_max={self.eps_max}")

    @property
    def dt(self) -> float:
        return self.cfl * self.dr

    def resolved_r_max(self) -> float:
        if self.r_max is not None:
            return self.r_max
        # support stays inside r <= t - 1; pad by a few cells
        return self.t_end - 1.0 + 8.0 * self.dr


def default_pulse(r: np.ndarray, width: float = 2.0, amplitude: float = 1.0) -> np.ndarray:
    """Smooth compactly supported bump, = amplitude at r=0, 0 for r >= width."""
    r = np.asarray(r, dtype=float)
    x = np.clip(r / width, 0.0, 1.0)
    out = np.zeros_like(r)
    inside = x < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


_LAP_COEFF_CACHE: dict = {}


def radial_laplacian(u: np.ndarray, dr: float, n: int) -> np.ndarray:
    """u_rr + (n-1)/r u_r on the last axis, with the regular axis limit.

    Discretized in conservative (flux) form r^{1-n} d_r(r^{n-1} d_r u),
    which is self-adjoint in the r^{n-1} weight: the semi-discrete
    operator has real nonpositive spectrum, so the wave update is free of
    the spurious exponential modes the plain centered form develops near
    the axis for large n.
    """
    size = u.shape[-1]
    key = (n, size)
    coeff = _LAP_COEFF_CACHE.get(key)
    if coeff is None:
        k = np.arange(1, size - 1, dtype=float)
        rp = ((k + 0.5) / k) ** (n - 1)
        rm = ((k - 0.5) / k) ** (n - 1)
        _LAP_COEFF_CACHE[key] = coeff = (rp, rm)
    rp, rm = coeff
    out = np.empty_like(u)
    inv_dr2 = 1.0 / dr ** 2
    out[..., 1:-1] = (rp * (u[..., 2:] - u[..., 1:-1])
                      - rm * (u[..., 1:-1] - u[..., :-2])) * inv_dr2
    out[..., 0] = n * 2.0 * (u[..., 1] - u[..., 0]) * inv_dr2
    out[..., -1] = 0.0
    return out


def _stencil_sample(row: np.ndarray, cols: np.ndarray, b: int, dr: float) -> np.ndarray:
    """b-th radial derivative at the given columns, even extension at r=0."""
    top = row.shape[-1] - 1

    def at(off):
        return row[..., np.minimum(np.abs(cols + off), top)]

    if b == 0:
        return at(0)
    if b == 1:
        return (at(1) - at(-1)) / (2.0 * dr)
    if b == 2:
        return (at(1) - 2.0 * at(0) + at(-1)) / dr ** 2
    if b == 3:
        return (at(2) - 2.0 * at(1) + 2.0 * at(-1) - at(-2)) / (2.0 * dr ** 3)
    if b == 4:
        return (at(2) - 4.0 * at(1) + 6.0 * at(0) - 4.0 * at(-1) + at(-2)) / dr ** 4
    raise ValueError(f"unsupported radial derivative order {b}")


class SliceSampler:
    """Captures hyperboloid samples from a rolling four-step window.

    Each radial node k of a target slice s crosses the evolution at
    t*_k = sqrt(s^2 + r_k^2); when t*_k enters the center interval of the
    window the node's values and radial derivatives are interpolated
    (4-point Lagrange in t) and stored.  Works for forward and backward
    sweeps; the done-mask accumulates across both.
    """

    def __init__(self, targets, n: int, dr: float, max_b: int = 2,
                 r_cap=None, leading_shape: tuple = ()):
        self.n = n
        self.dr = dr
        self.max_b = max_b
        self._buf: deque = deque(maxlen=4)
        self._first_window = False
        self.entries = []
        for s in targets:
            cap = r_cap(s) if callable(r_cap) else r_cap
            slc = make_slice(s, n, dr, r_cap=cap)
            cols = np.round(slc.r / dr).astype(int)
            store = {
                ("u", b): np.zeros(leading_shape + slc.r.shape)
                for b in range(max_b + 1)
            }
            store.update({
                ("v", b): np.zeros(leading_shape + slc.r.shape)
                for b in range(max_b + 1)
            })
            self.entries.append({
                "s": s, "slc": slc, "cols": cols, "tstar": slc.t,
                "done": np.zeros(slc.r.shape, dtype=bool), "store": store,
            })

    def t_range_needed(self) -> tuple[float, float]:
        los = [e["tstar"][0] for e in self.entries]
        his = [e["tstar"][-1] for e in self.entries]
        return (min(los), max(his)) if los else (np.inf, -np.inf)

    def new_sweep(self) -> None:
        self._buf.clear()
        self._first_window = True

    def observe(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        self._buf.append((t, u, v))
        if len(self._buf) < 4:
            return
        times = np.array([b[0] for b in self._buf])
        if self._first_window:
            lo, hi = min(times[:3]), max(times[:3])
            self._first_window = False
        else:
            lo, hi = sorted((times[1], times[2]))
        for entry in self.entries:
            tstar = entry["tstar"]
            i0 = np.searchsorted(tstar, lo, side="left")
            i1 = np.searchsorted(tstar, hi, side="left")
            if i1 <= i0:
                continue
            sel = slice(i0, i1)
            pend = ~entry["done"][sel]
            if not pend.any():
                continue
            idx = np.arange(i0, i1)[pend]
            tq = tstar[idx]
            cols = entry["cols"][idx]
            # Lagrange weights over the four buffered times
            w = []
            for i in range(4):
                num = np.ones_like(tq)
                for j in range(4):
                    if j != i:
                        num *= (tq - times[j]) / (times[i] - times[j])
                w.append(num)
            store = entry["store"]
            for b in range(self.max_b + 1):
                acc = sum(wi * _stencil_sample(buf[1], cols, b, self.dr)
                          for wi, buf in zip(w, self._buf))
                store[("u", b)][..., idx] = acc
            for b in range(max(self.max_b, 1)):
                acc = sum(wi * _stencil_sample(buf[2], cols, b, self.dr)
                          for wi, buf in zip(w, self._buf))
                store[("v", b)][..., idx] = acc
            entry["done"][idx] = True

    def raw_results(self, strict: bool = True) -> dict:
        out = {}
        for entry in self.entries:
            if strict and not entry["done"].all():
                missing = (~entry["done"]).sum()
                raise WindowDepthError(
                    f"slice s={entry['s']}: {missing} nodes never crossed the "
                    f"evolved window (need t in {tuple(self.t_range_needed())})"
                )
            out[entry["s"]] = (entry["slc"], entry["store"])
        return out

    def slice_data(self, lam: float, component: int | None = None) -> dict[float, SliceData]:
        """Package captures as SliceData (selecting one leading component)."""
        out = {}
        for s, (slc, store) in self.raw_results().items():
            def pick(key):
                arr = store.get(key)
                if arr is None:
                    return None
                return arr if component is None else arr[component]
            out[s] = SliceData(
                slc=slc, lam=lam,
                u=pick(("u", 0)), ut=pick(("v", 0)), ur=pick(("u", 1)),
                urr=pick(("u", 2)), utr=pick(("v", 1)),
                urrr=pick(("u", 3)), utrr=pick(("v", 2)),
                urrrr=pick(("u", 4)), utrrr=pick(("v", 3)),
            )
        return out


@dataclass
class EvolutionResult:
    """Output bundle of a radial run."""

    config: EvolutionConfig
    lam: float
    field: ModeField | None
    monitors: dict[str, np.ndarray]
    slices: dict[float, SliceData] = field(default_factory=dict)
    blowup_time: float | None = None
    component_fields: list[ModeField] | None = None
    component_slices: dict[float, list[SliceData]] = field(default_factory=dict)


def _support_radius(u: np.ndarray, dr: float, tol: float = 1e-12) -> float:
    row = np.abs(u)
    if row.ndim > 1:
        row = row.max(axis=tuple(range(row.ndim - 1)))
    m = row.max()
    if m == 0.0:
        return 0.0
    nz = np.nonzero(row > tol * m)[0]
    return float(nz[-1]) * dr if len(nz) else 0.0


def _run_sweep(u, v, t0, n_steps, dt, accel, sampler, on_monitor=None,
               monitor_every=0, guard_scale=None, blowup_factor=np.inf,
               cfl_check=None):
    """Shared stepping loop.  accel(t, u, v) -> dv/dt; du/dt = v.

    Returns (u, v, t, blowup_time, stored) where stored collects
    (step_index, t, u, v) tuples handed to on_monitor.
    """
    t = t0
    if sampler is not None:
        sampler.new_sweep()
        sampler.observe(t, u, v)
    if on_monitor is not None:
        on_monitor(0, t, u, v)
    for j in range(1, n_steps + 1):
        half = 0.5 * dt
        k1v = accel(t, u, v)
        u2 = u + half * v
        v2 = v + half * k1v
        k2v = accel(t + half, u2, v2)
        u3 = u + half * v2
        v3 = v + half * k2v
        k3v = accel(t + half, u3, v3)
        u4 = u + dt * v3
        v4 = v + dt * k3v
        k4v = accel(t + dt, u4, v4)
        u = u + (dt / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        u[..., -1] = 0.0
        v[..., -1] = 0.0
        t = t0 + j * dt
        if sampler is not None:
            sampler.observe(t, u, v)
        if j % 50 == 0 or j == n_steps:
            sup = float(np.max(np.abs(u)))
            if not np.isfinite(sup):
                raise NaNGuardError(f"non-finite field at t={t:.4f}")
            if guard_scale is not None and sup > blowup_factor * guard_scale:
                return u, v, t, t, None
            if cfl_check is not None:
                cfl_check(t, u)
        if on_monitor is not None and monitor_every and j % monitor_every == 0:
            on_monitor(j, t, u, v)
    return u, v, t, None, None


def _prepare_init(init, r, config):
    if init is None:
        u0, v0 = default_pulse(r), np.zeros_like(r)
    else:
        u0, v0 = init
        u0 = u0(r) if callable(u0) else np.asarray(u0, dtype=float).copy()
        v0 = v0(r) if callable(v0) else np.asarray(v0, dtype=float).copy()
    sup_r = _support_radius(np.abs(u0) + np.abs(v0), config.dr)
    if sup_r > config.t_start - 2.0 + 1e-9:
        raise ValueError(
            f"initial support radius {sup_r:.3f} exceeds t_start - 2 = "
            f"{config.t_start - 2.0}"
        )
    return u0, v0


def flat_slice_energy(u, v, dr, n, lam, area=None) -> float:
    """Energy of a flat t=const slice: int (v^2 + u_r^2 + lam u^2) r^{n-1} dr."""
    from .geometry import sphere_area
    if area is None:
        area = sphere_area(n)
    r = dr * np.arange(u.shape[-1])
    ur = np.gradient(u, dr, axis=-1)
    dens = (np.abs(v) ** 2 + np.abs(ur) ** 2 + lam * np.abs(u) ** 2) * r ** (n - 1)
    w = np.full(u.shape[-1], dr)
    w[0] = w[-1] = 0.5 * dr
    return float(area * np.sum(dens * w))


def _auto_slice_cap(slice_r_cap, n_nodes: int, dr: float):
    """Default capture cap: full slice if it fits, else the grid edge.

    Truncating at the grid edge is exact when the edge lies outside the
    solution's light cone on the slice (support radius (s^2 - 4)/4 for data
    supported in r <= t_start - 2 = 2); otherwise the grid cannot hold the
    slice and we refuse.
    """
    if slice_r_cap is not None:
        return slice_r_cap
    r_top = (n_nodes - 5) * dr

    def cap(s):
        full = (s * s - 1.0) / 2.0
        if full <= r_top:
            return full
        if (s * s - 4.0) / 4.0 + 2.0 <= r_top:
            return r_top
        raise ValueError(
            f"slice s={s} needs capture out to r={(s * s - 4.0) / 4.0 + 2.0:.1f} "
            f"but the grid ends at r={r_top:.1f}; raise r_max or t_end"
        )

    return cap


def evolve_kg_radial(lam: float, n: int, init=None, config: EvolutionConfig | None = None,
                     *, forcing=None, slice_s=(), slice_r_cap=None) -> EvolutionResult:
    """Evolve (d_t^2 - Lap_r + lam) u = f from compactly supported data.

    slice_s requests hyperboloid captures; slices whose nodes cross times
    before t_start are completed by a backward sweep (the scheme is time
    reversible).  slice_r_cap(s) truncates capture where the solution is
    known to vanish.
    """
    if config is None:
        config = EvolutionConfig(n=n)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    dr, dt = config.dr, config.dt
    r = dr * np.arange(int(round(config.resolved_r_max() / dr)) + 1)
    u0, v0 = _prepare_init(init, r, config)

    sampler = None
    if slice_s:
        sampler = SliceSampler(sorted(slice_s), n, dr,
                               max_b=config.sample_derivs,
                               r_cap=_auto_slice_cap(slice_r_cap, len(r), dr))
        for entry in sampler.entries:
            if entry["cols"].max() > len(r) - 4:
                raise ValueError(
                    f"slice s={entry['s']} reaches r={entry['cols'].max() * dr:.2f}, "
                    f"beyond the grid; raise r_max or pass slice_r_cap"
                )
    t_hi_needed = sampler.t_range_needed()[1] + 4 * dt if sampler else -np.inf
    t_end = max(config.t_end, t_hi_needed)
    n_steps = int(math.ceil((t_end - config.t_start) / dt - 1e-9))

    if forcing is None:
        if lam:
            def accel(t, u, v):
                return radial_laplacian(u, dr, n) - lam * u
        else:
            def accel(t, u, v):
                return radial_laplacian(u, dr, n)
    else:
        def accel(t, u, v):
            return radial_laplacian(u, dr, n) - lam * u + forcing(t, r)

    mon = {k: [] for k in ("t", "sup", "support_radius", "cfl_margin", "energy")}
    for ro in config.observers:
        mon[f"obs_r{ro:g}"] = []
    obs_cols = [int(round(ro / dr)) for ro in config.observers]
    history = {"t": [], "u": [], "v": []} if config.store_history else None

    def on_monitor(j, t, u, v):
        if config.store_history and j % config.store_every == 0:
            history["t"].append(t)
            history["u"].append(u.copy())
            history["v"].append(v.copy())
        if j % config.monitor_every == 0:
            mon["t"].append(t)
            mon["sup"].append(float(np.max(np.abs(u))))
            sr = _support_radius(np.abs(u) + dt * np.abs(v), dr)
            mon["support_radius"].append(sr)
            mon["cfl_margin"].append(0.5 - config.cfl)
            mon["energy"].append(flat_slice_energy(u, v, dr, n, lam))
            for name_col, col in zip(config.observers, obs_cols):
                mon[f"obs_r{name_col:g}"].append(float(np.abs(u[col])))

    # monitor callback does double duty as history recorder; force every
    # store_every step through it
    every = math.gcd(config.store_every, config.monitor_every)
    u, v, t, blow, _ = _run_sweep(
        u0.copy(), v0.copy(), config.t_start, n_steps, dt, accel, sampler,
        on_monitor=on_monitor, monitor_every=every,
        guard_scale=float(np.max(np.abs(u0))) or None,
        blowup_factor=np.inf,
    )

    if sampler is not None:
        t_lo_needed = sampler.t_range_needed()[0]
        if t_lo_needed < config.t_start:
            n_back = int(math.ceil((config.t_start - t_lo_needed) / dt)) + 4
            _run_sweep(u0.copy(), v0.copy(), config.t_start, n_back, -dt,
                       accel, sampler)

    field_out = None
    if config.store_history:
        field_out = ModeField(
            lam=lam, n=n, t0=history["t"][0], dt=history["t"][1] - history["t"][0]
            if len(history["t"]) > 1 else dt * config.store_every,
            dr=dr, u=np.array(history["u"]), v=np.array(history["v"]),
        )
    slices = sampler.slice_data(lam) if sampler is not None else {}
    monitors = {k: np.array(vals) for k, vals in mon.items()}
    return EvolutionResult(config=config, lam=lam, field=field_out,
                           monitors=monitors, slices=slices, blowup_time=blow)


# ---------------------------------------------------------------------------
# Tiny full-grid oracle: (t, r, theta) solver on R^{1+n} x T^1


def evolve_full_grid_torus(n: int, torus: FlatTorus, init, config: EvolutionConfig,
                           m_theta: int = 16):
    """Direct product-grid solver for d=1 flat torus (oracle path, n <= 3).

    init = (u0, v0) callables of (r, theta).  The internal derivative is
    pseudospectral (exact on band-limited data), so the comparison isolates
    the mode-decomposition machinery.  Returns (t_array, u_history) with
    u_history shape (n_t, m_theta, n_r), decimated by store_every.
    """
    if torus.d != 1:
        raise ValueError("full-grid oracle supports d=1 only")
    dr, dt = config.dr, config.dt
    L = torus.periods[0]
    r = dr * np.arange(int(round(config.resolved_r_max() / dr)) + 1)
    theta = L * np.arange(m_theta) / m_theta
    # theta first, radial last: the sweep's Dirichlet edge is the last axis
    TH, R = np.meshgrid(theta, r, indexing="ij")
    u = init[0](R, TH)
    v = init[1](R, TH)
    k = 2.0 * np.pi * np.fft.rfftfreq(m_theta, d=L / m_theta)
    minus_k2 = -(k ** 2)[:, None]

    def accel(t, u, v):
        lap_r = radial_laplacian(u, dr, n)
        lap_th = np.fft.irfft(minus_k2 * np.fft.rfft(u, axis=0), n=m_theta, axis=0)
        return lap_r + lap_th

    ts, hist = [], []

    def on_monitor(j, t, u, v):
        ts.append(t)
        hist.append(u.copy())

    n_steps = int(math.ceil((config.t_end - config.t_start) / dt - 1e-9))
    u, v, t, _, _ = _run_sweep(u, v, config.t_start, n_steps, dt, accel, None,
                               on_monitor=on_monitor,
                               monitor_every=config.store_every)
    return np.array(ts), np.array(hist)


# ---------------------------------------------------------------------------
# Quasilinear toy with the quadratic nonlinearity Q


def _pack_sym(a00, a0r, arr) -> np.ndarray:
    """Symmetric (..., 2, 2) matrices from their (00, 0r, rr) components."""
    out = np.empty(np.shape(a00) + (2, 2))
    out[..., 0, 0] = a00
    out[..., 0, 1] = out[..., 1, 0] = a0r
    out[..., 1, 1] = arr
    return out


def inverse_metric_components(h):
    """H = (eta + h)^{-1} - eta^{-1} to second order, component-wise.

    h = (h_00, h_0r, h_rr), e.g. a (3, ...) stack.  With eta = diag(-1, 1),
    H = -h# + (h eta h)#, # raising both indices:
        H^00 = -h_00 - h_00^2 + h_0r^2,   H^0r = h_0r (1 + h_00 - h_rr),
        H^rr = -h_rr + h_rr^2 - h_0r^2.
    """
    h00, h0r, hrr = h
    return (-h00 - h00 * h00 + h0r * h0r, h0r * (1.0 + h00 - hrr),
            -hrr + hrr * hrr - h0r * h0r)


def inverse_metric_derivative(h, dh):
    """dH = -dh# + (dh eta h)# + (h eta dh)#, the chain rule of
    `inverse_metric_components` along a derivative dh of h:
        dH^00 = -dh_00 - 2 h_00 dh_00 + 2 h_0r dh_0r,
        dH^0r = dh_0r (1 + h_00 - h_rr) + h_0r (dh_00 - dh_rr),
        dH^rr = -dh_rr + 2 h_rr dh_rr - 2 h_0r dh_0r.
    """
    h00, h0r, hrr = h
    d00, d0r, drr = dh
    return (-d00 + 2.0 * (h0r * d0r - h00 * d00),
            d0r * (1.0 + h00 - hrr) + h0r * (d00 - drr),
            -drr + 2.0 * (hrr * drr - h0r * d0r))


def inverse_metric_perturbation(h: np.ndarray) -> np.ndarray:
    """`inverse_metric_components` for symmetric h of shape (..., 2, 2)."""
    return _pack_sym(*inverse_metric_components((h[..., 0, 0], h[..., 0, 1],
                                                 h[..., 1, 1])))


def _matmul2(X, Y):
    return [[X[i][0] * Y[0][j] + X[i][1] * Y[1][j] for j in (0, 1)] for i in (0, 1)]


def q_nonlinearity(h, dh_t, dh_r):
    """The quadratic form Q_mn(dg, dg) of the reduced system, component-wise.

    Q is the semilinear term of the reduced Einstein equations in harmonic
    gauge (Lindblad & Rodnianski, Global stability of Minkowski space-time
    in harmonic gauge, Ann. Math. 171 (2010)) on the (t, r) block:
        Q_mn = g^cd g^ab ( d_n g_db d_a g_mc + d_m g_ca d_b g_nd
                           - 1/2 d_n g_db d_m g_ca
                           + d_c g_ma d_d g_nb - d_c g_ma d_b g_nd )
             = t1_mn + t2_mn - 1/2 t3_mn + t4_mn - t5_mn.
    h, dh_t, dh_r are the (00, 0r, rr) components of h = g - eta and of
    d_t g, d_r g.  With G = g^{-1}, D_c = d_c g, A_c = G D_c, B_c = A_c G and
    W_c = G^c0 A_0 + G^cr A_r (a, b, c, d over {0, r}):
        t1_mn = B_n^00 (D_0)_0m + B_n^0r [(D_0)_rm + (D_r)_0m] + B_n^rr (D_r)_rm,
        t2_mn = t1_nm,
        t3_mn = B_m^00 (D_n)_00 + 2 B_m^0r (D_n)_0r + B_m^rr (D_n)_rr,
        t4_mn = sum_c (D_c)_m0 (W_c)^0_n + (D_c)_mr (W_c)^r_n,
        t5_mn = sum_{b,c} (A_c)^b_m (A_b)^c_n.
    Returns (Q_00, Q_0r, Q_rr); Q is symmetric.
    """
    h00, h0r, hrr = h
    g00, grr = h00 - 1.0, hrr + 1.0
    inv_det = 1.0 / (g00 * grr - h0r * h0r)
    G0r = -h0r * inv_det
    G = ((grr * inv_det, G0r), (G0r, g00 * inv_det))
    D = [((a, b), (b, c)) for a, b, c in (dh_t, dh_r)]
    A = [_matmul2(G, Dc) for Dc in D]
    B = [_matmul2(Ac, G) for Ac in A]
    W = [[[G[c][0] * A[0][i][j] + G[c][1] * A[1][i][j] for j in (0, 1)]
          for i in (0, 1)] for c in (0, 1)]
    t1 = {(m, n): B[n][0][0] * D[0][0][m] + B[n][0][1] * (D[0][1][m] + D[1][0][m])
          + B[n][1][1] * D[1][1][m] for m in (0, 1) for n in (0, 1)}

    def q(m, n):
        t3 = (B[m][0][0] * D[n][0][0] + 2.0 * B[m][0][1] * D[n][0][1]
              + B[m][1][1] * D[n][1][1])
        t4 = (D[0][m][0] * W[0][0][n] + D[0][m][1] * W[0][1][n]
              + D[1][m][0] * W[1][0][n] + D[1][m][1] * W[1][1][n])
        t5 = (A[0][0][m] * A[0][0][n] + A[0][1][m] * A[1][0][n]
              + A[1][0][m] * A[0][1][n] + A[1][1][m] * A[1][1][n])
        return t1[m, n] + t1[n, m] - 0.5 * t3 + t4 - t5

    return q(0, 0), q(0, 1), q(1, 1)


def _ddr_last(u: np.ndarray, dr: float) -> np.ndarray:
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dr)
    out[..., 0] = 0.0
    out[..., -1] = 0.0
    return out


def _d2dr2_last(u: np.ndarray, dr: float) -> np.ndarray:
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dr ** 2
    out[..., 0] = 2.0 * (u[..., 1] - u[..., 0]) / dr ** 2
    out[..., -1] = 0.0
    return out


def quasilinear_coefficients(u3: np.ndarray, v3: np.ndarray, ur3: np.ndarray,
                             eps: float):
    """H components and Q stack for the 3-component surrogate.

    Returns (H, Q3) where H has shape (..., 2, 2) and Q3 = (3, ...) is Q
    packed back to the component stack.  h = eps * u; dg built from
    (d_t u = v, d_r u).
    """
    h = eps * u3
    H = _pack_sym(*inverse_metric_components(h))
    q3 = np.stack(q_nonlinearity(h, eps * v3, eps * ur3))
    return H, q3


def evolve_quasilinear_toy(config: EvolutionConfig, lam: float = 0.0, init=None,
                           slice_s=(), slice_r_cap=None) -> EvolutionResult:
    """Quasilinear surrogate: (eta + H)^{ab} d_a d_b u - lam u = eps Q.

    Three components (h_00, h_0r, h_rr) carrying the full Q index structure;
    H is the second-order inverse-metric expansion in h = eps u.  With
    eps = 0 the step reuses the linear right-hand side verbatim, so the run
    is bit-identical to the linear solver.
    """
    n, dr, dt, eps = config.n, config.dr, config.dt, config.eps
    r = dr * np.arange(int(round(config.resolved_r_max() / dr)) + 1)
    if init is None:
        base = default_pulse(r)
        u0 = np.stack([base, 0.5 * base, -base])
        v0 = np.zeros_like(u0)
    else:
        u0, v0 = (np.asarray(a, dtype=float).copy() for a in init)

    if eps == 0.0:
        if lam:
            def accel(t, u, v):
                return radial_laplacian(u, dr, n) - lam * u
        else:
            def accel(t, u, v):
                return radial_laplacian(u, dr, n)
    else:
        def accel(t, u, v):
            ur = _ddr_last(u, dr)
            H, q3 = quasilinear_coefficients(u, v, ur, eps)
            lap = radial_laplacian(u, dr, n)
            urr = _d2dr2_last(u, dr)
            vr = _ddr_last(v, dr)
            rhs = (lap + H[..., 1, 1] * urr + 2.0 * H[..., 0, 1] * vr
                   - lam * u - eps * q3)
            return rhs / (1.0 - H[..., 0, 0])

    def cfl_check(t, u):
        if eps == 0.0:
            return
        h00 = np.max(np.abs(eps * u[0]))
        hrr = np.max(np.abs(eps * u[2]))
        h0r = np.max(np.abs(eps * u[1]))
        speed = math.sqrt((1.0 + 2.0 * hrr) / max(1.0 - 2.0 * h00, 1e-6)) + 4.0 * h0r
        if config.cfl * speed > 0.55:
            raise CFLError(
                f"perturbed characteristic speed {speed:.3f} breaks the CFL "
                f"margin at t={t:.3f}"
            )

    sampler = None
    if slice_s:
        sampler = SliceSampler(sorted(slice_s), n, dr, max_b=max(config.sample_derivs, 1),
                               r_cap=_auto_slice_cap(slice_r_cap, len(r), dr),
                               leading_shape=(3,))
    t_hi = sampler.t_range_needed()[1] + 4 * dt if sampler else -np.inf
    t_end = max(config.t_end, t_hi)
    n_steps = int(math.ceil((t_end - config.t_start) / dt - 1e-9))

    mon = {k: [] for k in ("t", "sup", "support_radius")}
    history = {"t": [], "u": [], "v": []} if config.store_history else None

    def on_monitor(j, t, u, v):
        if config.store_history and j % config.store_every == 0:
            history["t"].append(t)
            history["u"].append(u.copy())
            history["v"].append(v.copy())
        if j % config.monitor_every == 0:
            mon["t"].append(t)
            mon["sup"].append(float(np.max(np.abs(u))))
            mon["support_radius"].append(_support_radius(u, dr))

    every = math.gcd(config.store_every, config.monitor_every)
    u, v, t, blow, _ = _run_sweep(
        u0.copy(), v0.copy(), config.t_start, n_steps, dt, accel, sampler,
        on_monitor=on_monitor, monitor_every=every,
        guard_scale=float(np.max(np.abs(u0))), blowup_factor=config.blowup_factor,
        cfl_check=cfl_check,
    )

    if sampler is not None and blow is None:
        t_lo = sampler.t_range_needed()[0]
        if t_lo < config.t_start:
            n_back = int(math.ceil((config.t_start - t_lo) / dt)) + 4
            _run_sweep(u0.copy(), v0.copy(), config.t_start, n_back, -dt,
                       accel, sampler)

    comp_fields = None
    if config.store_history and history["t"]:
        tt = history["t"]
        dts = tt[1] - tt[0] if len(tt) > 1 else dt * config.store_every
        uu, vv = np.array(history["u"]), np.array(history["v"])
        comp_fields = [ModeField(lam=lam, n=n, t0=tt[0], dt=dts, dr=dr,
                                 u=uu[:, c], v=vv[:, c]) for c in range(3)]
    comp_slices = {}
    if sampler is not None and blow is None:
        for c in range(3):
            for s, data in sampler.slice_data(lam, component=c).items():
                comp_slices.setdefault(s, []).append(data)
    monitors = {k: np.array(vals) for k, vals in mon.items()}
    return EvolutionResult(config=config, lam=lam, field=None, monitors=monitors,
                           blowup_time=blow, component_fields=comp_fields,
                           component_slices=comp_slices)


# ---------------------------------------------------------------------------
# Commuted sources


@dataclass
class SourceTerms:
    """Commuted source grids (on the stored decimated lattice).

    f1[word]: Z-derivatives of the quadratic source eps*Q per component;
    f3[word]: commutator [Z^word, H^{ab} d_a d_b] h per component;
    f2: identically zero for flat internal models (asserted);
    g_constant[word]: measured C in |F3| <= C |dH|_E |Z^word dh|_E.
    Border cells touched by the stencils are NaN.
    """

    f1: dict
    f2: np.ndarray
    f3: dict
    g_constant: dict
    order: int


_WORDS = {0: [()], 1: [("T",), ("Xr",), ("Z0r",)]}
_WORDS[2] = [w1 + w2 for w1 in _WORDS[1] for w2 in _WORDS[1]]


def _apply_word(word, grid, dt, dr, t0):
    out = grid
    for kind in reversed(word):
        out = grid_apply(kind, out, dt, dr, t0)
    return out


def commuted_sources(result: EvolutionResult, order: int = 1) -> SourceTerms:
    """Evaluate F^1, F^2, F^3 and the G-majorant constant on a stored run.

    Requires a quasilinear result with component histories; order <= 2.
    """
    if order > 2:
        raise WindowDepthError("commutation order capped at 2 by window depth")
    if result.component_fields is None:
        raise ValueError("commuted_sources needs a run with stored history")
    fields = result.component_fields
    cfg, eps, lam = result.config, result.config.eps, result.lam
    n, dr = cfg.n, fields[0].dr
    dts, t0 = fields[0].dt, fields[0].t0
    nt = fields[0].u.shape[0]
    if nt < 4 * (order + 1):
        raise WindowDepthError("stored history too short for the stencil depth")

    u3 = np.stack([f.u for f in fields])          # (3, nt, nr)
    v3 = np.stack([f.v for f in fields])
    ur3 = _ddr_last(u3, dr)
    H, q3 = quasilinear_coefficients(u3, v3, ur3, eps)

    words = [w for ln in range(order + 1) for w in _WORDS[ln]]
    f1 = {w: np.stack([_apply_word(w, eps * q3[c], dts, dr, t0)
                       for c in range(3)]) for w in words}

    def second_derivs(w3):
        wt = np.gradient(w3, dts, axis=1)
        wtt = np.gradient(wt, dts, axis=1)
        wr = _ddr_last(w3, dr)
        wtr = np.gradient(wr, dts, axis=1)
        wrr = _d2dr2_last(w3, dr)
        return wtt, wtr, wrr

    def op(w3):
        wtt, wtr, wrr = second_derivs(w3)
        return (H[..., 0, 0] * wtt + 2.0 * H[..., 0, 1] * wtr
                + H[..., 1, 1] * wrr)

    h3 = eps * u3
    op_h = op(h3)
    f3, g_constant = {}, {}
    dH = np.sqrt(sum(np.gradient(H[..., a, b], dts, axis=0) ** 2
                     + _ddr_last(H[..., a, b], dr) ** 2
                     for a in range(2) for b in range(2)))
    for w in words:
        zw_h = np.stack([_apply_word(w, h3[c], dts, dr, t0) for c in range(3)])
        f3w = (np.stack([_apply_word(w, op_h[c], dts, dr, t0) for c in range(3)])
               - op(zw_h))
        f3[w] = f3w
        # measured constant for |F3| <= C |dH| |Z^w dh|
        zt = np.gradient(zw_h, dts, axis=1)
        zr = _ddr_last(zw_h, dr)
        zdh = np.sqrt(np.sum(zt ** 2 + zr ** 2, axis=0))
        num = np.sqrt(np.sum(f3w ** 2, axis=0))
        den = dH * zdh
        ok = np.isfinite(num) & np.isfinite(den)
        thresh = 1e-6 * np.max(den[ok]) if ok.any() else 0.0
        mask = ok & (den > thresh) if thresh > 0 else ok
        g_constant[w] = float(np.max(num[mask] / den[mask])) if mask.any() else 0.0

    f2 = np.zeros_like(q3)
    assert not f2.any()  # flat internal model: curvature coupling vanishes
    return SourceTerms(f1=f1, f2=f2, f3=f3, g_constant=g_constant, order=order)


def write_monitor_csv(path, monitors: dict) -> None:
    keys = list(monitors)
    rows = len(monitors[keys[0]]) if keys else 0
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for i in range(rows):
            fh.write(",".join(f"{monitors[k][i]:.17g}" for k in keys) + "\n")
