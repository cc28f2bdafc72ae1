"""Time evolution of radial Klein-Gordon modes and a quasilinear surrogate.

Method of lines: centered second-order stencils in r, classical four-stage
Runge-Kutta in t.  The regular axis limit replaces the radial Laplacian by
n * u_rr at r = 0.  Hyperboloid samples are captured on the fly from a
four-step rolling window, so long runs never store the dense history.

Compactly supported data stay inside the light cone, and the grid columns
past the numerical front hold exact zeros.  Each step therefore runs the
right-hand side and the RK4 update on an active window of columns that
starts at the axis and ends a few columns past the last occupied one (see
`_run_sweep`); the columns beyond it are the +0.0 that the full-grid step
would have written there, so every output keeps its bits.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .fields import ModeField, SliceData, d2dr2, ddr
from .geometry import make_slice, sphere_area


class CFLError(ValueError):
    """Time step too large for the (possibly perturbed) characteristic speed."""


class NaNGuardError(RuntimeError):
    """Non-finite values appeared during a linear evolution."""


class WindowDepthError(ValueError):
    """A requested slice has nodes that the evolved window never crossed."""


#: Largest amplitude eps of the quasilinear surrogate that a config accepts.
EPS_MAX = 1e-2


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
    store_history: bool = True
    store_every: int = 8
    monitor_every: int = 16
    sample_derivs: int = 2
    observers: tuple[float, ...] = ()
    # blow-up guard: sup|u| > blowup_factor * max|u0|; linear focusing alone
    # lifts sup|u| 59-fold at n = 9 from the default pulse
    blowup_factor: float = 1e3

    def __post_init__(self):
        if self.cfl > 0.5:
            raise CFLError(f"cfl={self.cfl} exceeds the 0.5 stability margin")
        # RK4 keeps the imaginary-axis eigenvalues +-i dt sqrt(rho) / dr of
        # the wave system inside its stability interval |z| <= 2 sqrt(2)
        root_rho = math.sqrt(_laplacian_spectral_radius(self.n))
        if self.cfl * root_rho > 2.0 * math.sqrt(2.0):
            raise CFLError(
                f"cfl={self.cfl} breaks RK4 stability for the n={self.n} radial "
                f"Laplacian: cfl must be <= {2.0 * math.sqrt(2.0) / root_rho:.4f}")
        if self.t_start < 2.0:
            raise ValueError("t_start < 2 leaves no room for the support cone")
        if self.nonlinearity not in ("linear", "quasilinear-toy"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not 0 <= self.eps <= EPS_MAX:
            raise ValueError(f"eps={self.eps} outside [0, eps_max={EPS_MAX}]")

    def check_model(self, model: str) -> None:
        """Each entry point runs one model, which nonlinearity must name."""
        if self.nonlinearity != model:
            raise ValueError(f"nonlinearity={self.nonlinearity!r}, but this "
                             f"solver runs {model!r}")

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
    # one coefficient pair per n, grown to the longest grid and sliced to
    # this one: each entry depends on its k alone, so a slice has the bits
    # of coefficients built for `size` nodes
    coeff = _LAP_COEFF_CACHE.get(n)
    if coeff is None or len(coeff[0]) < size - 2:
        k = np.arange(1, size - 1, dtype=float)
        rp = ((k + 0.5) / k) ** (n - 1)
        rm = ((k - 0.5) / k) ** (n - 1)
        _LAP_COEFF_CACHE[n] = coeff = (rp, rm)
    rp, rm = coeff[0][:size - 2], coeff[1][:size - 2]
    out = np.empty_like(u)
    inv_dr2 = 1.0 / dr ** 2
    d = u[..., 1:] - u[..., :-1]
    out[..., 1:-1] = (rp * d[..., 1:] - rm * d[..., :-1]) * inv_dr2
    out[..., 0] = n * 2.0 * d[..., 0] * inv_dr2
    out[..., -1] = 0.0
    return out


@functools.lru_cache(maxsize=None)
def _laplacian_spectral_radius(n: int, size: int = 400) -> float:
    """Spectral radius of `radial_laplacian` at dr = 1 on a size-node block.

    The operator is tridiagonal on the nodes below the Dirichlet edge, with
    positive products of opposite off-diagonal entries, so it is similar to
    the symmetric matrix whose off-diagonals are the square roots of those
    products.  The largest magnitude sits at the axis, where the weights
    ((k +- 1/2)/k)^(n-1) grow with n.
    """
    k = np.arange(1, size - 1, dtype=float)
    rp = ((k + 0.5) / k) ** (n - 1)
    rm = ((k - 0.5) / k) ** (n - 1)
    diag = np.concatenate(([-2.0 * n], -(rp + rm)))
    off = np.sqrt(np.concatenate(([2.0 * n], rp[:-1])) * rm)
    # imported here so that `import kkstab` stays free of scipy; sterf works
    # on the two diagonals, with no dense matrix and no BLAS buffers
    from scipy.linalg import eigvalsh_tridiagonal
    eig = eigvalsh_tridiagonal(diag, off, lapack_driver="sterf")
    return float(np.max(np.abs(eig)))


def _radial_stencil(g: np.ndarray, b: int, dr: float) -> np.ndarray:
    """b-th radial derivative from a (..., 5, m) gather at column offsets
    -2..2 (even extension at r=0, clamped at the grid edge)."""

    def at(off):
        return g[..., off + 2, :]

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


_STENCIL_OFFSETS = np.arange(-2, 3)[:, None]
_EYE4 = np.eye(4)
_DIAG4 = (np.arange(4), np.arange(4))


class SliceSampler:
    """Captures hyperboloid samples from a rolling four-step window.

    Each radial node k of a target slice s crosses the evolution at
    t*_k = sqrt(s^2 + r_k^2); when t*_k enters the center interval of the
    window the node's values and radial derivatives are interpolated
    (4-point Lagrange in t) and stored.  Works for forward and backward
    sweeps; the done-mask accumulates across both.

    The nodes of all slices share one concatenated store per (u|v, order),
    searched through one t*-sorted index; each entry's "cols", "done" and
    "store" arrays are views into it.  u is captured to radial order max_b,
    v = d_t u below max(max_b, 1).
    """

    def __init__(self, targets, n: int, dr: float, max_b: int = 2,
                 r_cap=None, leading_shape: tuple = ()):
        self.n = n
        self.dr = dr
        self.max_b = max_b
        self._buf: deque = deque(maxlen=4)
        self._first_window = False
        slcs = [make_slice(s, n, dr, r_cap=r_cap(s) if callable(r_cap) else r_cap)
                for s in targets]
        self._tstar = np.concatenate([slc.t for slc in slcs] or [np.empty(0)])
        self._cols = np.round(np.concatenate([slc.r for slc in slcs] or [np.empty(0)])
                              / dr).astype(int)
        self._order = np.argsort(self._tstar, kind="stable")
        self._tsorted = self._tstar[self._order]
        self._done = np.zeros(self._tstar.shape, dtype=bool)
        self._n_orders = {"u": max_b + 1, "v": max(max_b, 1)}
        self._store = {(f, b): np.zeros(leading_shape + self._tstar.shape)
                       for f, nb in self._n_orders.items() for b in range(nb)}
        self.entries = []
        start = 0
        for s, slc in zip(targets, slcs):
            sel = slice(start, start + len(slc.r))
            start = sel.stop
            self.entries.append({
                "s": s, "slc": slc, "cols": self._cols[sel], "tstar": slc.t,
                "done": self._done[sel],
                "store": {key: arr[..., sel] for key, arr in self._store.items()},
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
        times = [b[0] for b in self._buf]
        if self._first_window:
            lo, hi = min(times[:3]), max(times[:3])
            self._first_window = False
        else:
            lo, hi = sorted((times[1], times[2]))
        i0, i1 = np.searchsorted(self._tsorted, (lo, hi), side="left")
        if i1 <= i0:
            return
        idx = self._order[i0:i1]
        idx = idx[~self._done[idx]]
        if not len(idx):
            return
        # Lagrange weights over the four buffered times: w_i is the product
        # over j of (t* - t_j) / (t_i - t_j), with the j = i ratio set to 1.0
        # (exact); the eye keeps the diagonal of den away from zero
        times = np.array(times)
        den = times[:, None] - times + _EYE4
        ratio = (self._tstar[idx] - times[:, None]) / den[:, :, None]
        ratio[_DIAG4] = 1.0
        w = ratio[:, 0] * ratio[:, 1] * ratio[:, 2] * ratio[:, 3]
        w = w.reshape((4,) + (1,) * u.ndim + w.shape[1:])
        # one (5, m) neighbourhood gather per buffered u and v row
        gather = np.minimum(np.abs(self._cols[idx] + _STENCIL_OFFSETS), u.shape[-1] - 1)
        rows = np.stack([buf[pos][..., gather] for buf in self._buf for pos in (1, 2)])
        rows = rows.reshape((4, 2) + rows.shape[1:])
        for b in range(self.max_b + 1):
            # the weighted sum in buffer order, as a sum over the first axis
            acc = sum(w * _radial_stencil(rows, b, self.dr))
            self._store["u", b][..., idx] = acc[0]
            if b < self._n_orders["v"]:
                self._store["v", b][..., idx] = acc[1]
        self._done[idx] = True

    def slice_data(self, lam: float, component: int | None = None) -> dict[float, SliceData]:
        """Package captures as SliceData (selecting one leading component)."""
        out = {}
        for entry in self.entries:
            if not entry["done"].all():
                missing = (~entry["done"]).sum()
                raise WindowDepthError(
                    f"slice s={entry['s']}: {missing} nodes never crossed the "
                    f"evolved window (need t in {tuple(self.t_range_needed())})"
                )
            store = entry["store"]

            def pick(key):
                arr = store.get(key)
                if arr is None:
                    return None
                return arr if component is None else arr[component]
            out[entry["s"]] = SliceData(
                slc=entry["slc"], lam=lam,
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
    #: work of both sweeps, as counted by `_run_sweep`
    counts: dict[str, int] = field(default_factory=dict)


def _support_radius(u: np.ndarray, dr: float, tol: float = 1e-12) -> float:
    row = np.abs(u)
    if row.ndim > 1:
        row = row.max(axis=tuple(range(row.ndim - 1)))
    m = row.max()
    if m == 0.0:
        return 0.0
    nz = np.nonzero(row > tol * m)[0]
    return float(nz[-1]) * dr if len(nz) else 0.0


class _History:
    """Decimated rows of a sweep, written into arrays sized for the whole run.

    Rows come at steps 0, every, 2 every, ...; indexing by field name gives
    the rows written so far, fewer than allocated after an early return.
    """

    def __init__(self, n_steps: int, every: int, shape: tuple):
        self.t: list[float] = []
        self._rows = {f: np.empty((n_steps // every + 1,) + shape) for f in ("u", "v")}

    def record(self, t: float, **rows) -> None:
        k = len(self.t)
        self.t.append(t)
        for f, row in rows.items():
            self._rows[f][k] = row

    def __getitem__(self, f: str) -> np.ndarray:
        return self._rows[f][:len(self.t)]


#: columns that one RK4 step can move the last occupied column: each of the
#: four stages applies 3-point radial stencils once
_FRONT_STEP = 4
#: steps between exact rescans of the last occupied column
_RESCAN_EVERY = 64


def _last_occupied(u: np.ndarray, v: np.ndarray) -> int:
    """Last column where u or v holds anything but +0.0 (a nonzero value,
    NaN or -0.0) in any leading component; -1 when there is none."""
    occupied = (u != 0) | np.signbit(u) | (v != 0) | np.signbit(v)
    cols = np.flatnonzero(occupied.reshape(-1, u.shape[-1]).any(axis=0))
    return int(cols[-1]) if len(cols) else -1


def _run_sweep(u, v, t0, n_steps, dt, accel, sampler, on_monitor=None,
               monitor_every=0, guard_scale=None, blowup_factor=np.inf,
               cfl_check=None, windowed=True, counts=None):
    """Shared stepping loop.  accel(t, u, v) -> dv/dt; du/dt = v.

    on_monitor(j, t, u, v) runs at step 0 and every monitor_every steps.
    Returns the blow-up time, or None when the guard never fired.

    Active window: with `windowed`, a step hands accel and the RK4 update
    only the columns [0, last + 6), where `last` bounds the last column in
    which u or v is not +0.0.  One step moves that column by at most
    _FRONT_STEP, so `last` grows by that much per step and is rescanned
    exactly every _RESCAN_EVERY steps.  The window's edge column lies past
    the stencils' reach, where the full-grid step writes zeros, and every
    column beyond it keeps +0.0, which is what the full-grid step makes of
    +0.0 data.  accel must act column by column, up to the radial stencils,
    and map zero data to zero; a forcing of unknown support does not, and
    its run passes windowed=False.  Each step still returns fresh
    full-length u and v, since the sampler keeps the rows it buffers.

    counts, when given, accumulates "steps", "rhs_evals", "node_steps" (grid
    nodes times steps) and "active_node_steps" (window nodes times steps).
    """
    nr = u.shape[-1]
    w, active_cols, blowup, j = nr, 0, None, 0
    t = t0
    if sampler is not None:
        sampler.new_sweep()
        sampler.observe(t, u, v)
    if on_monitor is not None:
        on_monitor(0, t, u, v)
    for j in range(1, n_steps + 1):
        if windowed:
            if (j - 1) % _RESCAN_EVERY == 0:
                last = _last_occupied(u, v)
            w = min(last + _FRONT_STEP + 2, nr)
            last += _FRONT_STEP
        uw, vw = u[..., :w], v[..., :w]
        half = 0.5 * dt
        k1v = accel(t, uw, vw)
        u2 = uw + half * vw
        v2 = vw + half * k1v
        k2v = accel(t + half, u2, v2)
        u3 = uw + half * v2
        v3 = vw + half * k2v
        k3v = accel(t + half, u3, v3)
        u4 = uw + dt * v3
        v4 = vw + dt * k3v
        k4v = accel(t + dt, u4, v4)
        u, v = np.empty_like(u), np.empty_like(v)
        np.add(uw, (dt / 6.0) * (vw + 2.0 * v2 + 2.0 * v3 + v4), out=u[..., :w])
        np.add(vw, (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
               out=v[..., :w])
        # the columns past the window and the Dirichlet edge column
        u[..., min(w, nr - 1):] = 0.0
        v[..., min(w, nr - 1):] = 0.0
        active_cols += w
        t = t0 + j * dt
        if sampler is not None:
            sampler.observe(t, u, v)
        if j % 50 == 0 or j == n_steps:
            sup = float(np.max(np.abs(u)))
            if not np.isfinite(sup):
                raise NaNGuardError(f"non-finite field at t={t:.4f}")
            if guard_scale is not None and sup > blowup_factor * guard_scale:
                blowup = t
                break
            if cfl_check is not None:
                cfl_check(t, u)
        if on_monitor is not None and monitor_every and j % monitor_every == 0:
            on_monitor(j, t, u, v)
    if counts is not None:
        nodes_per_col = u.size // nr
        counts["steps"] += j
        counts["rhs_evals"] += 4 * j
        counts["node_steps"] += j * nr * nodes_per_col
        counts["active_node_steps"] += active_cols * nodes_per_col
    return blowup


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


def flat_slice_energy(u, v, dr, n, lam) -> float:
    """Energy of a flat t=const slice: int (v^2 + u_r^2 + lam u^2) r^{n-1} dr."""
    r = dr * np.arange(u.shape[-1])
    ur = np.gradient(u, dr, axis=-1)
    dens = (np.abs(v) ** 2 + np.abs(ur) ** 2 + lam * np.abs(u) ** 2) * r ** (n - 1)
    w = np.full(u.shape[-1], dr)
    w[0] = w[-1] = 0.5 * dr
    return float(sphere_area(n) * np.sum(dens * w))


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


def _evolve(config: EvolutionConfig, init, make_accel, monitor_row=None, *,
            slice_s=(), slice_r_cap=None, cfl_check=None, windowed=True):
    """The one evolution driver of the radial and quasilinear runs.

    Builds the grid r, the initial data (`_prepare_init`; their leading
    shape is the sampler's), accel = make_accel(r), the slice sampler and
    the stored history; monitor_row(t, u, v) -> {column: value} runs every
    config.monitor_every steps.  The forward sweep stops when sup|u| exceeds
    config.blowup_factor * max|u0| (no guard for zero u0); unless it did,
    a backward sweep completes the slices that reach below t_start.
    Both sweeps step an active window (`_run_sweep`) unless windowed is
    False.  Returns (history, monitors, sampler, blowup_time, counts); the
    sampler is None without slices or after a blow-up, and counts are the
    sweeps' work counts.
    """
    dr, dt = config.dr, config.dt
    r = dr * np.arange(int(round(config.resolved_r_max() / dr)) + 1)
    u0, v0 = _prepare_init(init, r, config)
    accel = make_accel(r)

    sampler, t_end = None, config.t_end
    if slice_s:
        sampler = SliceSampler(sorted(slice_s), config.n, dr,
                               max_b=max(config.sample_derivs, 1),
                               r_cap=_auto_slice_cap(slice_r_cap, len(r), dr),
                               leading_shape=u0.shape[:-1])
        for entry in sampler.entries:
            if entry["cols"].max() > len(r) - 4:
                raise ValueError(
                    f"slice s={entry['s']} reaches r={entry['cols'].max() * dr:.2f}, "
                    f"beyond the grid; raise r_max or pass slice_r_cap"
                )
        t_end = max(t_end, sampler.t_range_needed()[1] + 4 * dt)
    n_steps = int(math.ceil((t_end - config.t_start) / dt - 1e-9))

    history = (_History(n_steps, config.store_every, u0.shape)
               if config.store_history else None)
    mon: dict[str, list] = {}

    def on_monitor(j, t, u, v):
        if history is not None and j % config.store_every == 0:
            history.record(t, u=u, v=v)
        if monitor_row is not None and j % config.monitor_every == 0:
            for key, val in monitor_row(t, u, v).items():
                mon.setdefault(key, []).append(val)

    # monitor callback does double duty as history recorder; force every
    # store_every step through it
    every = math.gcd(config.store_every, config.monitor_every)
    counts: Counter = Counter()
    blow = _run_sweep(
        u0.copy(), v0.copy(), config.t_start, n_steps, dt, accel, sampler,
        on_monitor=on_monitor, monitor_every=every,
        guard_scale=float(np.max(np.abs(u0))) or None,
        blowup_factor=config.blowup_factor, cfl_check=cfl_check,
        windowed=windowed, counts=counts,
    )
    if blow is not None:
        sampler = None
    elif sampler is not None:
        t_lo = sampler.t_range_needed()[0]
        if t_lo < config.t_start:
            n_back = int(math.ceil((config.t_start - t_lo) / dt)) + 4
            _run_sweep(u0.copy(), v0.copy(), config.t_start, n_back, -dt,
                       accel, sampler, windowed=windowed, counts=counts)
    monitors = {k: np.array(vals) for k, vals in mon.items()}
    return history, monitors, sampler, blow, dict(counts)


def _mode_field(history: _History, lam: float, config: EvolutionConfig,
                c=Ellipsis) -> ModeField:
    """ModeField of the stored rows (of leading component c)."""
    tt = history.t
    return ModeField(
        lam=lam, n=config.n, t0=tt[0],
        dt=tt[1] - tt[0] if len(tt) > 1 else config.dt * config.store_every,
        dr=config.dr, u=history["u"][:, c], v=history["v"][:, c],
    )


def _check_lam(lam: float) -> None:
    if not lam >= 0:
        raise ValueError(f"lam={lam} must be nonnegative")


def _linear_accel(n: int, dr: float, lam: float, forcing=None, r=None):
    """dv/dt = Lap_r u - lam u (+ forcing(t, r)) of the linear equation."""
    if forcing is not None:
        def accel(t, u, v):
            return radial_laplacian(u, dr, n) - lam * u + forcing(t, r)
    elif lam:
        def accel(t, u, v):
            return radial_laplacian(u, dr, n) - lam * u
    else:
        def accel(t, u, v):
            return radial_laplacian(u, dr, n)
    return accel


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
    if config.n != n:
        raise ValueError(f"n={n} differs from config.n={config.n}")
    config.check_model("linear")
    _check_lam(lam)
    dr, dt = config.dr, config.dt
    observers = [(f"obs_r{ro:g}", int(round(ro / dr))) for ro in config.observers]

    def monitor_row(t, u, v):
        row = {"t": t, "sup": float(np.max(np.abs(u))),
               "support_radius": _support_radius(np.abs(u) + dt * np.abs(v), dr),
               "cfl_margin": 0.5 - config.cfl,
               "energy": flat_slice_energy(u, v, dr, n, lam)}
        row.update((name, float(np.abs(u[col]))) for name, col in observers)
        return row

    # a forcing's support is unknown, so its run steps the whole grid
    history, monitors, sampler, blow, counts = _evolve(
        config, init, lambda r: _linear_accel(n, dr, lam, forcing, r),
        monitor_row, slice_s=slice_s, slice_r_cap=slice_r_cap,
        windowed=forcing is None)
    return EvolutionResult(
        config=config, lam=lam, monitors=monitors, blowup_time=blow,
        counts=counts,
        field=_mode_field(history, lam, config) if history is not None else None,
        slices=sampler.slice_data(lam) if sampler is not None else {})


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


def _quasilinear_accel(config: EvolutionConfig, lam: float):
    """dv/dt of the surrogate; at eps = 0 the linear right-hand side."""
    n, dr, eps = config.n, config.dr, config.eps
    if eps == 0.0:
        return _linear_accel(n, dr, lam)

    def accel(t, u, v):
        ur = ddr(u, dr)
        H, q3 = quasilinear_coefficients(u, v, ur, eps)
        lap = radial_laplacian(u, dr, n)
        urr = d2dr2(u, dr)
        vr = ddr(v, dr)
        rhs = (lap + H[..., 1, 1] * urr + 2.0 * H[..., 0, 1] * vr
               - lam * u - eps * q3)
        return rhs / (1.0 - H[..., 0, 0])

    return accel


def _default_pulse3(r):
    base = default_pulse(r)
    return np.stack([base, 0.5 * base, -base])


def evolve_quasilinear_toy(config: EvolutionConfig, lam: float = 0.0, init=None,
                           slice_s=(), slice_r_cap=None) -> EvolutionResult:
    """Quasilinear surrogate: (eta + H)^{ab} d_a d_b u - lam u = eps Q.

    Three components (h_00, h_0r, h_rr) carrying the full Q index structure;
    H is the second-order inverse-metric expansion in h = eps u.  With
    eps = 0 the step reuses the linear right-hand side verbatim, so the run
    is bit-identical to the linear solver.
    """
    config.check_model("quasilinear-toy")
    _check_lam(lam)
    dr, eps = config.dr, config.eps

    def cfl_check(t, u):
        h00 = np.max(np.abs(eps * u[0]))
        hrr = np.max(np.abs(eps * u[2]))
        h0r = np.max(np.abs(eps * u[1]))
        speed = math.sqrt((1.0 + 2.0 * hrr) / max(1.0 - 2.0 * h00, 1e-6)) + 4.0 * h0r
        if config.cfl * speed > 0.55:
            raise CFLError(
                f"perturbed characteristic speed {speed:.3f} breaks the CFL "
                f"margin at t={t:.3f}"
            )

    def monitor_row(t, u, v):
        return {"t": t, "sup": float(np.max(np.abs(u))),
                "support_radius": _support_radius(u, dr)}

    if init is None:
        init = (_default_pulse3, lambda r: np.zeros((3,) + r.shape))
    history, monitors, sampler, blow, counts = _evolve(
        config, init, lambda r: _quasilinear_accel(config, lam), monitor_row,
        slice_s=slice_s, slice_r_cap=slice_r_cap,
        cfl_check=cfl_check if eps != 0.0 else None)
    comp_slices = {}
    if sampler is not None:
        for c in range(3):
            for s, data in sampler.slice_data(lam, component=c).items():
                comp_slices.setdefault(s, []).append(data)
    return EvolutionResult(
        config=config, lam=lam, field=None, monitors=monitors, blowup_time=blow,
        counts=counts, component_slices=comp_slices,
        component_fields=(None if history is None else
                          [_mode_field(history, lam, config, c) for c in range(3)]))


def write_monitor_csv(path, monitors: dict) -> None:
    keys = list(monitors)
    rows = len(monitors[keys[0]]) if keys else 0
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for i in range(rows):
            fh.write(",".join(f"{monitors[k][i]:.17g}" for k in keys) + "\n")
