"""Time evolution of radial Klein-Gordon modes and a quasilinear surrogate.

Method of lines: centered second-order stencils in r, classical RK4 in t.
The regular axis limit replaces the radial Laplacian by n * u_rr at r = 0.
The linear equation (and the quasilinear surrogate at eps = 0) is linear and
autonomous, so RK4's one-step map is the degree-4 Taylor polynomial of h A:
a linear step applies the operator Lap_r - lam twice, to the stacked (u, v)
and to that result (`_taylor_step`).  The quasilinear surrogate at eps > 0
steps the four stages of RK4 (`_stage_step`).  Hyperboloid samples are
captured on the fly: each new row is gathered once at the stencil columns
of the slice nodes that read it, and the captures are interpolated in
blocks of steps (`SliceSampler`), so long runs never store the dense
history.

Compactly supported data stay inside the light cone, and the grid columns
past the numerical front hold exact zeros.  Each step therefore runs on an
active window of columns that starts at the axis and ends a few columns
past the last occupied one (see `_run_sweep`); the columns beyond it are the
+0.0 that the full-grid step would have written there, so every output
keeps its bits; the blow-up guard and the monitors read that window.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from numbers import Integral

import numpy as np

from .fields import (ModeField, SliceData, SnapshotWriter, make_slice, read_snapshot,
                     sphere_area)


class CFLError(ValueError):
    """Time step too large for the (possibly perturbed) characteristic speed."""


class NaNGuardError(RuntimeError):
    """Non-finite values appeared during a linear evolution."""


class WindowDepthError(ValueError):
    """A requested slice has nodes that the evolved window never crossed."""


#: Largest amplitude eps of the quasilinear surrogate that a config accepts.
EPS_MAX = 1e-2
#: Weights of the (h_00, h_0r, h_rr) components in |h|_E^2: h_0r appears twice.
E_WEIGHTS = (1.0, 2.0, 1.0)


#: RK4's stability interval on the imaginary axis, |z| <= 2 sqrt(2)
#: (Hairer & Wanner, Solving ODEs II, Sec. IV.2)
RK4_IMAGINARY_BOUND = 2.0 * math.sqrt(2.0)
#: Fraction of RK4's bound at which the default step runs: n = 9's step
#: cfl = 0.4 is 0.718 of its bound 0.557
CFL_FRACTION = 0.72


def rk4_margin(n: int, dr: float, dt: float, lam: float = 0.0,
               speed: float = 1.0) -> float:
    """|dt| speed sqrt(rho(n) / dr^2 + lam) / (2 sqrt 2), at most 1 for a
    stable step.

    The wave system du/dt = v, dv/dt = (Lap_r - lam) u has the imaginary
    eigenvalues +-i sqrt(mu + lam), mu in the spectrum of -Lap_r, whose
    radius is rho(n) / dr^2 (`_laplacian_spectral_radius`); RK4 keeps
    dt times them inside |z| <= 2 sqrt(2).  speed scales the principal part
    (a characteristic speed above 1), and lam may stand for any stiffness
    added to the radial Laplacian's.
    """
    rate = math.sqrt(_laplacian_spectral_radius(n) / dr ** 2 + lam)
    return abs(dt) * speed * rate / RK4_IMAGINARY_BOUND


#: Largest q of a default step 2/q, which n = 13 takes.  The axis rows make
#: the radial Laplacian's stiffness grow like 1.5^n, so n = 14 would take
#: q = 14, n = 20 47 and n = 30 352 (and a CLI run's snapshot grows with its
#: step count)
DEFAULT_Q_MAX = 12


def default_cfl(n: int) -> float:
    """2/q for the smallest integer q >= 3 whose step runs at no more than
    CFL_FRACTION of RK4's bound: 2/3 at n <= 4, 1/2 at n 5..7, 2/5 (the
    double 0.4) at n 8 and 9, and 2/7, 1/4, 1/5, 1/6 at n 10..13.  With a
    dyadic dr, the step 2 dr / q divides an integer span, so the run lands
    on t_end.  The cap cfl <= 2/3 keeps RK4's dissipation below the late
    energy drift that the n = 3 tests gate.  An n that needs
    q > DEFAULT_Q_MAX raises CFLError."""
    for q in range(3, DEFAULT_Q_MAX + 1):
        if rk4_margin(n, 1.0, 2.0 / q) <= CFL_FRACTION:
            return 2.0 / q
    raise CFLError(f"n={n} needs a step finer than the default's floor "
                   f"cfl = 2/{DEFAULT_Q_MAX} (n <= 13) to stay inside RK4's bound")


#: EvolutionConfig's domain, field -> (test(value, config), what it must be),
#: checked in field order, so a test may read the fields above its own
_DOMAIN = {
    "n": (lambda v, c: isinstance(v, Integral) and v >= 1, "an integer >= 1"),
    "dr": (lambda v, c: 0 < v < math.inf, "positive and finite"),
    "cfl": (lambda v, c: v is None or v > 0, "positive, or None for default_cfl(n)"),
    "t_start": (lambda v, c: 2 <= v < math.inf, "finite and >= 2"),
    "t_end": (lambda v, c: c.t_start <= v < math.inf, "finite and >= t_start"),
    "r_max": (lambda v, c: v is None or c.t_start - 2 < v < math.inf,
              "None, or finite and above t_start - 2"),
    "nonlinearity": (lambda v, c: v in ("linear", "quasilinear-toy"),
                     "'linear' or 'quasilinear-toy'"),
    "eps": (lambda v, c: 0 <= v <= EPS_MAX, f"in [0, eps_max={EPS_MAX}]"),
    "store_history": (lambda v, c: isinstance(v, bool), "a bool"),
    "store_every": (lambda v, c: isinstance(v, Integral) and v >= 1, "an integer >= 1"),
    "monitor_every": (lambda v, c: isinstance(v, Integral) and v >= 1, "an integer >= 1"),
    "sample_derivs": (lambda v, c: isinstance(v, Integral) and 1 <= v < len(CENTRED_STENCILS),
                      "an integer in 1..4, the radial orders of the sampler's stencils"),
    "observers": (lambda v, c: isinstance(v, tuple)
                  and all(0 <= r <= c.resolved_r_max() for r in v),
                  "a tuple of radii on the grid, 0 <= r <= r_max"),
    "blowup_factor": (lambda v, c: 0 < v < math.inf, "positive and finite"),
}


@dataclass(frozen=True)
class EvolutionConfig:
    """Run parameters for the radial solvers.

    Initial data must be supported in r <= t_start - 2 so the support cone
    r <= t - 1 contains the solution for all later times.

    The step is dt = cfl * dr.  cfl = None (the default) resolves to
    `default_cfl(n)`, 2/q at no more than CFL_FRACTION = 0.72 of RK4's bound
    2 sqrt(2) / sqrt(rho(n)), the fraction at which n = 9 runs its
    cfl = 0.4.  Any cfl, given or resolved, must keep `rk4_margin` <= 1;
    `_evolve` checks it again with the run's lam.  `dataclasses.replace`
    carries the resolved cfl: a replaced n needs cfl=None to get its own.
    """

    n: int
    dr: float = 1.0 / 64.0
    cfl: float | None = None
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
        for f in fields(self):
            v, (test, what) = getattr(self, f.name), _DOMAIN[f.name]
            # a field takes a bool where its default is one; a raising test fails
            with contextlib.suppress(TypeError):
                if isinstance(v, bool) == isinstance(f.default, bool) and test(v, self):
                    continue
            raise ValueError(f"{f.name}={v!r} must be {what}")
        if self.cfl is None:
            object.__setattr__(self, "cfl", default_cfl(self.n))
        if rk4_margin(self.n, 1.0, self.cfl) > 1.0:
            bound = RK4_IMAGINARY_BOUND / math.sqrt(_laplacian_spectral_radius(self.n))
            raise CFLError(f"cfl={self.cfl} breaks RK4 stability for the n={self.n} "
                           f"radial Laplacian: cfl must be <= {bound:.4f}")
        r_max, top = self.resolved_r_max(), np.iinfo(np.intp).max
        if not (r_max / self.dr < top and (self.t_end - self.t_start) / self.dt < top):
            raise ValueError(f"dr={self.dr} with r_max={r_max} gives a grid whose node "
                             f"count r_max/dr, or with cfl={self.cfl} whose step count, "
                             f"is not finite or above the largest array index {top}")

    def check_model(self, model: str) -> None:
        """Each entry point runs one model, which nonlinearity must name, and
        refuses the key that its model does not read: the linear equation
        has no eps, and the surrogate's monitors have no observers."""
        if self.nonlinearity != model:
            raise ValueError(f"nonlinearity={self.nonlinearity!r}, but this "
                             f"solver runs {model!r}")
        key = "eps" if model == "linear" else "observers"
        if getattr(self, key):
            raise ValueError(f"{key}={getattr(self, key)!r} is not read by the "
                             f"{model!r} solver")

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


@functools.lru_cache(maxsize=32)
def _radial_operator(n: int, dr: float, size: int):
    """The radial weights of the nodes k = 0..size-1, read-only.  (cp, cm):
    `radial_laplacian`'s flux coefficients ((k +- 1/2)/k)^(n-1) / dr^2, with
    the axis coefficient 2n / dr^2 in cp[0].  (cell, face): E_h's cell
    weights r_k^(n-1) dr (r_(1/2)^(n-1) dr / (2n) on the axis) and face
    weights r_(k+1/2)^(n-1) / dr, so cell_k (Lap u)_k = face_k du_k -
    face_(k-1) du_(k-1).  Each entry depends on its k alone: callers read
    the prefix of the build at `_pow2` of their length, which the growing
    windows of a run share.  Past n = 1751 the weights overflow to inf,
    where no finite step is stable."""
    k = np.arange(size, dtype=float)
    r, kk = dr * k, k[1:-1]
    axis, dr2 = 2.0 * n, dr ** 2
    with np.errstate(over="ignore"):
        cp = np.concatenate(([axis], ((kk + 0.5) / kk) ** (n - 1))) / dr2
        cm = ((kk - 0.5) / kk) ** (n - 1) / dr2
        cell = r ** (n - 1) * dr
        cell[0] = (0.5 * dr) ** (n - 1) * dr / axis
        face = (r[:-1] + 0.5 * dr) ** (n - 1) / dr
    for w in (cp, cm, cell, face):
        w.flags.writeable = False
    return cp, cm, cell, face


def _pow2(m: int) -> int:
    """The power of two at which a length-m caller reads `_radial_operator`."""
    return 1 << (m - 1).bit_length()


def discrete_energy(u, v, dr: float, n: int, lam: float) -> np.ndarray:
    """E_h = |S^(n-1)| (sum cell (v^2 + lam u^2) + sum face (du)^2) along the
    last axis, with the weights of `_radial_operator`, conserved by
    du/dt = v, dv/dt = Lap_r u - lam u while the edge column is 0.  Summed
    left to right, so a window that ends past the last occupied column has
    the bits of the whole row."""
    m = u.shape[-1]
    _, _, cell, face = _radial_operator(n, dr, _pow2(m))
    dens = (v * v + lam * (u * u)) * cell[:m]
    dens[..., :-1] += face[:m - 1] * (u[..., 1:] - u[..., :-1]) ** 2
    return sphere_area(n) * np.cumsum(dens, axis=-1)[..., -1]


def radial_laplacian(u: np.ndarray, dr: float, n: int) -> np.ndarray:
    """u_rr + (n-1)/r u_r on the last axis, with the regular axis limit.

    Discretized in conservative (flux) form r^{1-n} d_r(r^{n-1} d_r u),
    which is self-adjoint in the r^{n-1} weight: the semi-discrete
    operator has real nonpositive spectrum, so the wave update is free of
    the spurious exponential modes the plain centered form develops near
    the axis for large n.

    The 1/dr^2 is folded into the coefficients cp, cm of `_radial_operator`,
    read at the next power of two above the length of u, so a call makes
    four passes over u: the differences d, cp * d written into the result,
    cm * d in place, and its subtraction in place.  For a power-of-two dr
    the scaling is exact, and the result has the bits of the weighted
    differences scaled by 1/dr^2 unless a product rounds as a subnormal.
    """
    size = u.shape[-1]
    cp, cm, _, _ = _radial_operator(n, dr, _pow2(size))
    out = np.empty_like(u)
    d = u[..., 1:] - u[..., :-1]
    np.multiply(cp[:size - 1], d, out=out[..., :-1])
    below = d[..., :-1]
    below *= cm[:size - 2]
    out[..., 1:-1] -= below
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
    cp, cm, _, _ = _radial_operator(n, 1.0, _pow2(size))
    cp, cm = cp[:size - 1], cm[:size - 2]
    if not np.isfinite(cp).all():
        return math.inf
    diag = -np.concatenate((cp[:1], cp[1:] + cm))
    off = np.sqrt(cp[:-1] * cm)
    # imported here so that `import kkstab` stays free of scipy; sterf works
    # on the two diagonals, with no dense matrix and no BLAS buffers
    from scipy.linalg import eigvalsh_tridiagonal
    eig = eigvalsh_tridiagonal(diag, off, lapack_driver="sterf")
    return float(np.max(np.abs(eig)))


#: Centred radial stencils by derivative order b: the (column offset, weight)
#: taps in summation order, the first of weight +1, and c of the divisor c dr^b
CENTRED_STENCILS = {
    0: (((0, 1.0),), 1.0),
    1: (((1, 1.0), (-1, -1.0)), 2.0),
    2: (((1, 1.0), (0, -2.0), (-1, 1.0)), 1.0),
    3: (((2, 1.0), (1, -2.0), (-1, 2.0), (-2, -1.0)), 2.0),
    4: (((2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)), 1.0),
}


def centred_stencil(at, b: int, dr: float) -> np.ndarray:
    """The b-th radial derivative from `CENTRED_STENCILS`, at(off) giving the
    values at column offset off.  A tap of weight w is added as |w| * at(off)
    or subtracted for w < 0, with no multiply for |w| = 1."""
    taps, c = CENTRED_STENCILS[b]
    acc = at(taps[0][0])
    for off, w in taps[1:]:
        term = at(off) if abs(w) == 1.0 else abs(w) * at(off)
        acc = acc + term if w > 0 else acc - term
    # order 0 is the value itself, with no division
    return acc / (c * dr ** b) if b else acc


def radial_derivative(u: np.ndarray, b: int, dr: float) -> np.ndarray:
    """Centred d^b/dr^b, b = 1 or 2, along the last axis.  At the axis the
    even extension: 0 for b = 1, 2 (u_1 - u_0) / dr^2 for b = 2; 0 in the
    edge column, where the data vanish by the support cone."""
    m = u.shape[-1]
    out = np.empty_like(u)
    out[..., 1:-1] = centred_stencil(lambda off: u[..., 1 + off:m - 1 + off], b, dr)
    out[..., 0] = 0.0 if b == 1 else 2.0 * (u[..., 1] - u[..., 0]) / dr ** 2
    out[..., -1] = 0.0
    return out


_STENCIL_OFFSETS = np.arange(-2, 3)[:, None]
_EYE4 = np.eye(4)[..., None]
_DIAG4 = (np.arange(4), np.arange(4))
#: capture steps whose samples one flush computes together: between flushes
#: the sampler holds the gathers of at most _FLUSH_EVERY + 3 rows
_FLUSH_EVERY = 64


class SliceSampler:
    """Captures hyperboloid samples as a sweep passes through them.

    The slices (`_plan_slices`) have their nodes on grid columns of spacing
    dr.  Each radial node k of a slice s crosses the evolution at
    t*_k = sqrt(s^2 + r_k^2).  Row j of a sweep comes at t_j = t0 + j dt;
    the row j >= 3 captures the nodes whose t* lies in [t_{j-2}, t_{j-1})
    ([t_0, t_2) for j = 3; the bounds swap in a backward sweep), and each
    capture interpolates the node's values and radial derivatives over rows
    j-3..j (4-point Lagrange in t).  Works for forward and backward sweeps;
    the done-mask accumulates across both.

    `new_sweep` tells the sampler the times of the sweep, and its row 0,
    which shows the last grid column, schedules every capture of the sweep
    at once: a sweep captures each slice node at most once, so the schedule
    is bounded by the slice nodes.  When a row arrives, `observe` gathers
    its u and v once at the 5-column neighbourhoods of the nodes that read
    it (those of steps j..j+3, one contiguous stretch of the schedule) and
    marks the nodes of step j done.  Every _FLUSH_EVERY steps, and before
    the next sweep or `slice_data`, one pass interpolates all completed
    captures.

    The nodes of all slices share one concatenated store per (a, b), the
    samples of d_t^a d_r^b u, searched through one t*-sorted index; each
    entry's "cols", "done" and "store" arrays are views into it.  u (a = 0)
    is captured to radial order max_b >= 1, v = d_t u (a = 1) below max_b.
    """

    def __init__(self, slices, dr: float, max_b: int = 2, leading_shape: tuple = ()):
        self.dr = dr
        #: grid columns gathered per row of u (the same of v), over all rows
        self.gathered_columns = 0
        self._tstar = np.concatenate([slc.t for slc in slices] or [np.empty(0)])
        self._cols = np.round(np.concatenate([slc.r for slc in slices] or [np.empty(0)])
                              / dr).astype(int)
        self._order = np.argsort(self._tstar, kind="stable")
        self._tsorted = self._tstar[self._order]
        self._done = np.zeros(self._tstar.shape, dtype=bool)
        self._n_orders = (max_b + 1, max_b)
        self._store = {(a, b): np.zeros(leading_shape + self._tstar.shape)
                       for a, nb in enumerate(self._n_orders) for b in range(nb)}
        self.entries = []
        start = 0
        for slc in slices:
            sel = slice(start, start + len(slc.r))
            start = sel.stop
            self.entries.append({
                "s": slc.s, "slc": slc, "cols": self._cols[sel], "done": self._done[sel],
                "store": {key: arr[..., sel] for key, arr in self._store.items()},
            })
        # no sweep yet: observe refuses every row, and _flush has nothing
        self._row, self._next, self._gathers = 0, 0, []
        self.new_sweep(0.0, 0.0, -1)

    @property
    def captured_nodes(self) -> int:
        return int(np.count_nonzero(self._done))

    def t_range_needed(self) -> tuple[float, float]:
        t = self._tsorted
        return (float(t[0]), float(t[-1])) if t.size else (math.inf, -math.inf)

    def new_sweep(self, t0: float, dt: float, n_steps: int) -> None:
        """Start a sweep whose row j = 0..n_steps comes at t0 + j * dt,
        the floats of `_run_sweep`'s rows, which `_evolve` passes to
        `observe`."""
        self._flush()
        self._t0, self._dt, self._n_steps = t0, dt, n_steps
        self._row = self._next = 0
        # (row, position of its first reader, u gather, v gather)
        self._gathers: list = []

    def _plan(self, top: int) -> None:
        """Schedule the sweep's captures in step order, by store index, step
        and gather columns (clamped at top, the last grid column); _bound[J],
        J = 0..n_steps + 4, is the position of the first capture of a step >= J."""
        j = np.arange(3, self._n_steps + 1)
        # t_1..t_{n_steps-1}; window of step j: t_{j-2}, t_{j-1}; of step 3: t_0..t_2
        t = self._t0 + np.arange(1, self._n_steps) * self._dt
        lo, hi = np.minimum(t[:-1], t[1:]), np.maximum(t[:-1], t[1:])
        lo[:1], hi[:1] = np.minimum(lo[:1], self._t0), np.maximum(hi[:1], self._t0)
        i0 = np.searchsorted(self._tsorted, lo, side="left")
        n_in = np.maximum(np.searchsorted(self._tsorted, hi, side="left") - i0, 0)
        ranks = np.arange(n_in.sum()) + np.repeat(i0 - (np.cumsum(n_in) - n_in), n_in)
        node = self._order[ranks]
        pending = ~self._done[node]
        self._node, self._step = node[pending], np.repeat(j, n_in)[pending]
        self._bound = np.searchsorted(self._step, np.arange(self._n_steps + 5))
        self._gcol = np.minimum(np.abs(self._cols[self._node] + _STENCIL_OFFSETS), top)

    def observe(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        """Take row number k of the sweep, at t = t0 + k * dt."""
        k = self._row
        if k > self._n_steps or t != self._t0 + k * self._dt:
            raise ValueError(f"row {k} of the sweep comes at t={t!r}, but the sweep "
                             f"announced rows 0..{self._n_steps} at t0 + j dt, "
                             f"t0={self._t0!r}, dt={self._dt!r}")
        if k == 0:
            self._plan(u.shape[-1] - 1)
        self._row = k + 1
        p, p1, q = self._bound[k], self._bound[k + 1], self._bound[k + 4]
        if q > p:
            cols = self._gcol[:, p:q]
            self._gathers.append((k, p, u[..., cols], v[..., cols]))
            self.gathered_columns += cols.size
        # the captures of step k, and a flush after the last step of a block
        if p1 > p:
            self._done[self._node[p:p1]] = True
        if (k - 2) % _FLUSH_EVERY == 0:
            self._flush()

    def _flush(self) -> None:
        """Interpolate every scheduled capture whose four rows have come."""
        # row 0 of a sweep schedules its captures
        end = self._bound[self._row] if self._row else 0
        if end > self._next:
            idx, step = self._node[self._next:end], self._step[self._next:end]
            rows = step + np.arange(-3, 1)[:, None]
            # each capture's four rows, as columns of the concatenated gathers
            got = np.array([g[:2] for g in self._gathers])
            width = np.array([g[2].shape[-1] for g in self._gathers])
            which = np.searchsorted(got[:, 0], rows)
            col = (np.cumsum(width) - width - got[:, 1])[which] + np.arange(self._next, end)
            # each field's gathers as (4 rows, ..., 5 offsets, captures)
            g = [np.moveaxis(np.concatenate([gi[2 + a] for gi in self._gathers],
                                            axis=-1)[..., col], -2, 0)
                 for a in (0, 1)]
            # Lagrange weights over the four rows: w_i is the product over j
            # of (t* - t_j) / (t_i - t_j), with the j = i ratio set to 1.0
            # (exact); the eye keeps the diagonal of den away from zero
            times = self._t0 + rows * self._dt
            den = times[:, None] - times + _EYE4
            ratio = (self._tstar[idx] - times) / den
            ratio[_DIAG4] = 1.0
            w = ratio[:, 0] * ratio[:, 1] * ratio[:, 2] * ratio[:, 3]
            w = w.reshape((4,) + (1,) * (g[0].ndim - 3) + (-1,))
            for a, gf in enumerate(g):
                for b in range(self._n_orders[a]):
                    # the weighted sum in row order, as a sum over the first axis
                    self._store[a, b][..., idx] = sum(
                        w * centred_stencil(lambda off: gf[..., off + 2, :], b, self.dr))
            self._next = end
        # the rows that the captures still scheduled read
        self._gathers = [g for g in self._gathers if g[0] >= self._row - 3]

    def slice_data(self, lam: float) -> dict[float, SliceData]:
        """The captures of each slice as SliceData, over the leading shape."""
        self._flush()
        out = {}
        for entry in self.entries:
            if not entry["done"].all():
                missing = (~entry["done"]).sum()
                raise WindowDepthError(
                    f"slice s={entry['s']}: {missing} nodes never crossed the "
                    f"evolved window (need t in {self.t_range_needed()})"
                )
            out[entry["s"]] = SliceData(entry["slc"], lam, dict(entry["store"]))
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
    #: "rk4_margin", the step's `rk4_margin` with lam; the quasilinear run
    #: adds "rk4_margin_peak", the largest over its measured speeds; and
    #: "blowup_margin", the peak sup|u| that the blow-up guard read over
    #: blowup_factor * max|u0| (above 1 when it fired; absent for zero u0)
    margins: dict[str, float] = field(default_factory=dict)


def _support_radius(u: np.ndarray, dr: float, tol: float = 1e-12) -> float:
    row = np.abs(u).reshape(-1, u.shape[-1]).max(axis=0)
    nz = np.nonzero(row > tol * row.max())[0]
    return float(nz[-1]) * dr if len(nz) else 0.0


#: steps between exact rescans of the last occupied column
_RESCAN_EVERY = 64


def _last_occupied(y: np.ndarray) -> int:
    """Last column where y holds anything but +0.0 (a nonzero value, NaN or
    -0.0) in any leading component; -1 when there is none."""
    occupied = (y != 0) | np.signbit(y)
    cols = np.flatnonzero(occupied.reshape(-1, y.shape[-1]).any(axis=0))
    return int(cols[-1]) if len(cols) else -1


def _stage_step(accel, dt):
    """The four-stage RK4 step of du/dt = v, dv/dt = accel(t, u, v):
    step(t, y, out) writes the step of the stacked window y = (u, v) to out."""
    half = 0.5 * dt

    def step(t, y, out):
        uw, vw = y
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
        np.add(uw, (dt / 6.0) * (vw + 2.0 * v2 + 2.0 * v3 + v4), out=out[0])
        np.add(vw, (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v), out=out[1])

    return step


def _taylor_step(operator, dt):
    """RK4's step of the linear autonomous system du/dt = v, dv/dt = L u
    (L = operator).  There RK4's one-step map is its stability function of
    h A (Hairer & Wanner, Solving ODEs II, Sec. IV.2), the Taylor polynomial

        Y + h A Y + h^2/2 A^2 Y + h^3/6 A^3 Y + h^4/24 A^4 Y,  A = [[0, 1], [L, 0]].

    With P = L Y = (a, b) and Q = L P = (c, d): A Y = (v, a), A^2 Y = P,
    A^3 Y = (b, c) and A^4 Y = Q, so a step takes two operator applications
    on the stacked rows instead of four right-hand sides.  It is evaluated
    in Horner form, which rounds differently from the four stages.
    step(t, y, out) as in `_stage_step`.
    """
    def step(t, y, out):
        p = operator(y)
        q = operator(p)
        acc = q * (dt / 4.0)
        acc[0] += p[1]
        acc[1] += q[0]
        acc *= dt / 3.0
        acc += p
        acc *= dt / 2.0
        acc[0] += y[1]
        acc[1] += p[0]
        acc *= dt
        np.add(y, acc, out=out)

    return step


def _run_sweep(u, v, t0, n_steps, dt, accel, on_row=None, counts=None, operator=None):
    """Shared stepping loop of du/dt = v, dv/dt = accel(t, u, v).

    Given operator, a linear map L of stacked rows, the system is the linear
    autonomous dv/dt = L u, accel is not called (it may be None), and each
    step applies L twice (`_taylor_step`); otherwise each step runs accel
    four times (`_stage_step`).  Both kernels take the same steps, window
    and rows.

    Row j = 0..n_steps comes at t = t0 + j * dt, and on_row(j, t, u, v, w)
    takes it, where from column w - 1 on u and v hold +0.0 alone; a true
    return ends the sweep at that row.  Returns the last row's j.

    Active window: a step hands the kernel only the columns [0, last + k +
    2), where `last` bounds the last column in which u or v is not +0.0.
    A step applies 3-point stencils k = per_step times, each moving that
    column by at most 1, so `last` grows by k per step and is rescanned
    every _RESCAN_EVERY steps.  The window's edge column lies past the
    stencils' reach, where the full-grid step writes zeros, and every column
    beyond it keeps +0.0, the full-grid step's image of +0.0 data.  accel
    and operator must act column by column, up to the radial stencils, and
    map zero data to zero.  Each step writes fresh full-length u and v (the
    rows of one new (2, ...) array); on_row copies what it keeps of a row.

    counts, when given, accumulates "steps", "operator_applications" (Taylor
    kernel) or "rhs_evals" (stage kernel), "node_steps" (grid nodes times
    steps) and "active_node_steps" (window nodes times steps).
    """
    if operator is not None:
        step, work, per_step = _taylor_step(operator, dt), "operator_applications", 2
    else:
        step, work, per_step = _stage_step(accel, dt), "rhs_evals", 4
    y = np.stack((u, v))
    u, v = y
    nr = y.shape[-1]
    active_cols, j, t = 0, 0, t0
    stop = on_row is not None and on_row(0, t, u, v, min(_last_occupied(y) + 2, nr))
    while not stop and j < n_steps:
        j += 1
        if (j - 1) % _RESCAN_EVERY == 0:
            last = _last_occupied(y)
        w = min(last + per_step + 2, nr)
        last += per_step
        y_next = np.empty_like(y)
        step(t, y[..., :w], y_next[..., :w])
        # the columns past the window and the Dirichlet edge column
        y_next[..., min(w, nr - 1):] = 0.0
        y = y_next
        u, v = y
        active_cols += w
        t = t0 + j * dt
        stop = on_row is not None and on_row(j, t, u, v, w)
    if counts is not None:
        nodes_per_col = u.size // nr
        counts["steps"] += j
        counts[work] += per_step * j
        counts["node_steps"] += j * nr * nodes_per_col
        counts["active_node_steps"] += active_cols * nodes_per_col
    return j


def _prepare_init(init, r, config, lead):
    """(u0, v0, R): the initial data on r, of shape lead + r.shape, and the
    radius R of their support, which must lie in r <= t_start - 2."""
    if init is None:
        init = default_pulse, np.zeros_like
    u0, v0 = (np.array(f(r) if callable(f) else f, dtype=float) for f in init)
    if not u0.shape == v0.shape == lead + r.shape:
        raise ValueError(f"init has u of shape {u0.shape} and v of shape {v0.shape}, "
                         f"where the solver wants {lead + r.shape}")
    sup_r = _support_radius(np.abs(u0) + np.abs(v0), config.dr)
    if sup_r > config.t_start - 2.0 + 1e-9:
        raise ValueError(f"initial support radius {sup_r:.3f} exceeds t_start - 2 = "
                         f"{config.t_start - 2.0} for t_start={config.t_start}")
    return u0, v0, sup_r


def _plan_slices(slice_s, slice_r_cap, config: EvolutionConfig, r: np.ndarray,
                 support: float) -> list:
    """The slices of a run's captures: one `make_slice` per distinct s of
    slice_s, in increasing s, cut at slice_r_cap or by default at the grid
    edge, column len(r) - 5 (a repeated s is one slice, captured once).

    A default slice ends where it fits: at its full end r = (s^2 - 1)/2,
    t = (s^2 + 1)/2, or at the grid edge.  Data supported in r <= support
    at t_start stay in r <= support + |t - t_start|, so the full end is exact
    when s^2 >= t_start + support (always when the end comes after t_start,
    as support <= t_start - 2); a slice whose end lies inside the data's
    backward light cone is refused.  The edge is exact when it lies outside
    the solution's light cone on the slice (support radius (s^2 - 4)/4 for
    data supported in r <= t_start - 2 = 2); a slice that fits neither way
    is refused.  A given slice_r_cap is taken as it is, and refused when the
    slice then reaches past column len(r) - 4.
    """
    t_start, r_top, slices = config.t_start, (len(r) - 5) * config.dr, []
    for s in sorted(set(slice_s)):
        if slice_r_cap is None:
            full, reach = (s * s - 1.0) / 2.0, (s * s - 4.0) / 4.0 + 2.0
            if s * s < t_start + support:
                raise ValueError(
                    f"slice s={s} ends at r={full:g}, t={full + 1.0:g}, inside the backward "
                    f"light cone of the data (support r <= {support:g} at t_start="
                    f"{t_start:g}), where the field is not zero; take s^2 >= t_start + "
                    f"{support:g} = {t_start + support:g} or pass slice_r_cap")
            if min(full, reach) > r_top:
                raise ValueError(f"slice s={s} needs capture out to r={reach:.1f} but the "
                                 f"grid ends at r={r_top:.1f}; raise r_max or t_end")
        slc = make_slice(s, config.n, config.dr,
                         r_cap=r_top if slice_r_cap is None else slice_r_cap)
        if len(slc.r) > len(r) - 3:
            raise ValueError(f"slice s={s} reaches r={slc.r[-1]:.2f}, beyond the grid; "
                             f"raise r_max or pass slice_r_cap")
        slices.append(slc)
    return slices


#: steps between the blow-up guard's reads, which also read the last step
_GUARD_EVERY = 50


def _guard_sup(j, n_steps, t, u, w):
    """sup|u| over the window at the guard's rows, every _GUARD_EVERY steps
    and the last of n_steps (None at row 0 and the others); a non-finite
    field raises NaNGuardError."""
    if j == 0 or (j % _GUARD_EVERY and j != n_steps):
        return None
    sup = float(np.max(np.abs(u[..., :w])))
    if not np.isfinite(sup):
        raise NaNGuardError(f"non-finite field at t={t:.4f}")
    return sup


def _evolve(config: EvolutionConfig, init, lam: float, accel=None, *, lead=(),
            operator=None, slice_s=(), slice_r_cap=None, cfl_check=None,
            snapshot=None) -> EvolutionResult:
    """The one evolution driver of the radial and quasilinear runs.

    Checks lam (`_check_lam`), builds the grid r, the initial data
    (`_prepare_init`, of shape lead + r.shape), the slice sampler and the
    stored history, and steps dv/dt = accel(t, u, v), or the linear
    dv/dt = operator(u), on the light-cone window (`_run_sweep`).  Before
    each sweep the sampler hears of its times (`SliceSampler.new_sweep`).
    Each forward row meets, in order: the sampler (`SliceSampler.observe`);
    the guard (`_guard_sup`), which ends the sweep before the row is kept
    when sup|u| > config.blowup_factor * max|u0| (never for zero u0), and
    otherwise runs cfl_check(t, u), which returns the step's RK4 margin at
    t or raises CFLError; the history, every store_every steps; the
    monitors, every monitor_every steps: t, sup |u|, support_radius of
    |u| + dt |v|, energy (E_h at lam, summed with E_WEIGHTS over the
    surrogate's components) and |u| at each observer ("obs_r<radius>").
    Unless the guard fired, a backward sweep, whose rows meet the sampler
    and the guard's NaN check alone, completes the slices that reach below
    t_start.
    The history is stored when config.store_history is set, or, when
    snapshot, a path, is given, written there as it is recorded
    (`fields.SnapshotWriter`, for lead = () alone): the file is closed with
    the rows written when the sweeps return, and removed when they raise.

    Returns the EvolutionResult: field is the ModeField of the stored rows
    over lead + r.shape (mapped read-only from a snapshot file, None
    without history), slices the sampler's (none after a blow-up), counts
    the sweeps' work counts with the sampler's "captured_nodes" and
    "gathered_columns" (0 without slices), and margins every margin of
    `EvolutionResult.margins`, "rk4_margin_peak" the peak of cfl_check's.
    """
    margins = {"rk4_margin": _check_lam(lam, config)}
    dr, dt, r_max = config.dr, config.dt, config.resolved_r_max()
    n_nodes = int(round(r_max / dr)) + 1
    try:
        r = dr * np.arange(n_nodes)
    except MemoryError as exc:
        raise MemoryError(f"dr={dr} with r_max={r_max} gives {n_nodes} grid nodes: "
                          f"{exc}") from exc
    u0, v0, support = _prepare_init(init, r, config, lead)

    sampler, t_end = None, config.t_end
    if slice_s:
        sampler = SliceSampler(_plan_slices(slice_s, slice_r_cap, config, r, support), dr,
                               max_b=config.sample_derivs, leading_shape=u0.shape[:-1])
        t_end = max(t_end, sampler.t_range_needed()[1] + 4 * dt)
    n_steps = int(math.ceil((t_end - config.t_start) / dt - 1e-9))

    # the stored rows come every store_every steps; their spacing is t_1 - t_0
    # of the row times as `_run_sweep` forms them, or store_every steps for a
    # single row, the same float in a snapshot's header at open and at close
    nt, every = n_steps // config.store_every + 1, config.store_every * dt
    row_dt = (config.t_start + every) - config.t_start
    times, store, writer = [], None, None
    if snapshot is not None:
        writer = SnapshotWriter(snapshot, n=config.n, lam=lam, t0=config.t_start,
                                dt=row_dt if nt > 1 else every, dr=dr,
                                shape=(nt,) + u0.shape)
        store = writer.u, writer.v
    elif config.store_history:
        store = np.empty((nt,) + u0.shape), np.empty((nt,) + u0.shape)
    observers = [(f"obs_r{ro:g}", int(round(ro / dr))) for ro in config.observers]
    surrogate, rows = config.nonlinearity == "quasilinear-toy", []
    guard_scale = float(np.max(np.abs(u0))) or None
    limit = config.blowup_factor * guard_scale if guard_scale else math.inf
    peak, blow = 0.0, None

    def on_row(j, t, u, v, w):
        nonlocal peak, blow
        if sampler is not None:
            sampler.observe(t, u, v)
        sup = _guard_sup(j, n_steps, t, u, w)
        if sup is not None:
            peak = max(peak, sup)
            if sup > limit:
                blow = t
                return True
            if cfl_check is not None:
                margins["rk4_margin_peak"] = max(cfl_check(t, u),
                                                 margins.get("rk4_margin_peak", 0.0))
        if store is not None and j % config.store_every == 0:
            store[0][len(times)], store[1][len(times)] = u, v
            times.append(t)
        if j % config.monitor_every == 0:
            uw, vw = u[..., :w], v[..., :w]
            e = discrete_energy(uw, vw, dr, config.n, lam)
            rows.append({"t": t, "sup": float(np.max(np.abs(uw))),
                         "support_radius": _support_radius(np.abs(uw) + dt * np.abs(vw), dr),
                         "energy": float(np.dot(E_WEIGHTS, e) if surrogate else np.sum(e)),
                         **{name: float(np.abs(u[..., col])) for name, col in observers}})
        return False

    counts: Counter = Counter()
    with writer or contextlib.nullcontext():
        if sampler is not None:
            sampler.new_sweep(config.t_start, dt, n_steps)
        _run_sweep(u0, v0, config.t_start, n_steps, dt, accel, on_row,
                   counts=counts, operator=operator)
        if blow is None and sampler is not None:
            t_lo = sampler.t_range_needed()[0]
            if t_lo < config.t_start:
                n_back = int(math.ceil((config.t_start - t_lo) / dt)) + 4

                def nan_check(j, t, u, v, w):
                    sampler.observe(t, u, v)
                    _guard_sup(j, n_back, t, u, w)

                sampler.new_sweep(config.t_start, -dt, n_back)
                _run_sweep(u0, v0, config.t_start, n_back, -dt, accel, nan_check,
                           counts=counts, operator=operator)
        row_dt = row_dt if len(times) > 1 else every
        if writer is not None:
            writer.close(len(times), row_dt)
    for key in ("captured_nodes", "gathered_columns"):
        counts[key] = getattr(sampler, key) if sampler is not None else 0
    if guard_scale is not None:
        margins["blowup_margin"] = peak / limit
    field_ = None
    if writer is not None:
        field_ = read_snapshot(snapshot, mmap=True)
    elif store is not None:
        field_ = ModeField(lam=lam, n=config.n, t0=times[0], dt=row_dt, dr=dr,
                           u=store[0][:len(times)], v=store[1][:len(times)])
    return EvolutionResult(
        config=config, lam=lam, field=field_,
        # row 0 is a monitor row of every run
        monitors={k: np.array([row[k] for row in rows]) for k in rows[0]},
        slices=sampler.slice_data(lam) if sampler is not None and blow is None else {},
        blowup_time=blow, counts=dict(counts), margins=margins)


def _check_lam(lam: float, config: EvolutionConfig) -> float:
    """Refuse a lam that is negative, not finite, or too stiff for RK4 at the
    config's step; returns the step's `rk4_margin` with lam."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam={lam} must be nonnegative and finite")
    n, dr, dt = config.n, config.dr, config.dt
    margin = rk4_margin(n, dr, dt, lam)
    if margin > 1.0:
        lam_max = (RK4_IMAGINARY_BOUND / dt) ** 2 - _laplacian_spectral_radius(n) / dr ** 2
        raise CFLError(f"lambda={lam} is too stiff for RK4 at n={n}, dr={dr}, "
                       f"dt={dt:.6g}: lambda must be <= {lam_max:.6g}")
    return margin


def _linear_operator(n: int, dr: float, lam: float):
    """The operator Lap_r - lam of the linear equation dv/dt = Lap_r u - lam u,
    on stacked rows."""
    if lam:
        def operator(y):
            out = radial_laplacian(y, dr, n)
            out -= lam * y
            return out
    else:
        def operator(y):
            return radial_laplacian(y, dr, n)
    return operator


def evolve_kg_radial(lam: float, n: int, init=None, config: EvolutionConfig | None = None,
                     *, slice_s=(), slice_r_cap=None, snapshot=None) -> EvolutionResult:
    """Evolve (d_t^2 - Lap_r + lam) u = 0 from compactly supported data.

    slice_s requests hyperboloid captures; slices whose nodes cross times
    before t_start are completed by a backward sweep (the scheme is time
    reversible).  slice_r_cap, a radius, cuts every slice there instead of
    at its default end (`_plan_slices`), where the solution is known to
    vanish beyond it.  snapshot, a path, writes the stored history there as
    it is recorded (the bytes of `fields.write_snapshot` of the in-memory
    field), whatever config.store_history says; result.field then maps the
    finished file read-only instead of holding the history in memory.
    """
    if config is None:
        config = EvolutionConfig(n=n)
    if config.n != n:
        raise ValueError(f"n={n} differs from config.n={config.n}")
    config.check_model("linear")
    return _evolve(config, init, lam, operator=_linear_operator(n, config.dr, lam),
                   slice_s=slice_s, slice_r_cap=slice_r_cap, snapshot=snapshot)


# ---------------------------------------------------------------------------
# Quasilinear toy with the quadratic nonlinearity Q


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


#: the 21 products D_i D_j, i <= j, of Q's derivative rows D = (d_t h, d_r h)
_PAIRS = np.triu_indices(6)


def _q_table() -> np.ndarray:
    """Q's (18, 21) coefficients: row 6 q + m holds, for the component q of
    (Q_00, Q_0r, Q_rr) and the monomial m of (XX, XY, XZ, YY, YZ, ZZ), the
    coefficient of each product D_i D_j, i <= j.  Each einsum is one of the
    contractions of `q_nonlinearity`, with adj^ij one of X, Y, Z (x, y) and
    d_k g_ij the row D_{3k+i+j} (s, t); an unordered pair sums both orders."""
    adj = np.eye(3)[[[0, 1], [1, 2]]]
    dg = np.eye(6)[[[[0, 1], [1, 2]], [[3, 4], [4, 5]]]]

    def term(factors):
        return np.einsum(f"cdx,aby,{factors}->mnxyst", adj, adj, dg, dg)

    q = (term("ndbs,amct") + term("mcas,bndt") - 0.5 * term("ndbs,mcat")
         + term("cmas,dnbt") - term("cmas,bndt"))[[0, 0, 1], [0, 1, 1]]
    i, j = np.triu_indices(3)
    q = (q[:, i, j] + q[:, j, i]) / (1 + (i == j))[:, None, None]
    i, j = _PAIRS
    return ((q[..., i, j] + q[..., j, i]) / (1 + (i == j))).reshape(18, 21)


_Q_TABLE = _q_table()


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
    d_t g, d_r g: scalars or arrays of one shape.

    Q is homogeneous of degree 2 in g^{-1} = adj(g) / det g, with
        adj(g) = [[X, Y], [Y, Z]],  X = g_rr = 1 + h_rr,  Y = -h_0r,
        Z = g_00 = h_00 - 1,  det g = XZ - Y^2,
    so Q = P / det^2 with P = sum_m A_m (table @ (D_i D_j)_{i<=j})_m over
    the monomials A = (XX, XY, XZ, YY, YZ, ZZ) and the rows D = (d_t h,
    d_r h), the table `_q_table` folds from the contractions.
    Returns the (3, ...) stack (Q_00, Q_0r, Q_rr); Q is symmetric.
    """
    h00, h0r, hrr = h
    X, Y, Z = hrr + 1.0, -h0r, h00 - 1.0
    shape = np.shape(dh_t[0])
    d = np.array([*dh_t, *dh_r]).reshape(6, -1)
    coef = (_Q_TABLE @ (d[_PAIRS[0]] * d[_PAIRS[1]])).reshape(3, 6, -1)
    mono = np.array([X * X, X * Y, X * Z, Y * Y, Y * Z, Z * Z]).reshape(6, -1)
    out = np.einsum("qmk,mk->qk", coef, mono)
    out *= 1.0 / (mono[2] - mono[3]) ** 2
    return out.reshape((3,) + shape)


def quasilinear_coefficients(u3: np.ndarray, v3: np.ndarray, ur3: np.ndarray,
                             eps: float):
    """(H, Q3) of the 3-component surrogate at h = eps u3, d_t h = eps v3,
    d_r h = eps ur3: H as (..., 2, 2) matrices, Q3 the (3, ...) stack of Q."""
    h = eps * u3
    H00, H0r, Hrr = inverse_metric_components(h)
    H = np.stack((H00, H0r, H0r, Hrr), axis=-1).reshape(np.shape(H00) + (2, 2))
    return H, q_nonlinearity(h, eps * v3, eps * ur3)


def _quasilinear_rhs(config: EvolutionConfig, lam: float) -> dict:
    """The surrogate's right-hand side as `_run_sweep`'s accel and operator
    keywords: at eps = 0 the linear operator, so the run has the bits of
    the linear solver, and accel(t, u, v) = dv/dt otherwise."""
    n, dr, eps = config.n, config.dr, config.eps
    if eps == 0.0:
        return {"accel": None, "operator": _linear_operator(n, dr, lam)}

    def accel(t, u, v):
        h = eps * u
        H00, H0r, Hrr = inverse_metric_components(h)
        q3 = q_nonlinearity(h, eps * v, eps * radial_derivative(u, 1, dr))
        # (lap + H^rr u_rr + 2 H^0r v_r - lam u - eps Q) / (1 - H^00),
        # accumulated in place in the Laplacian's result, left to right
        rhs = radial_laplacian(u, dr, n)
        rhs += Hrr * radial_derivative(u, 2, dr)
        rhs += 2.0 * H0r * radial_derivative(v, 1, dr)
        rhs -= lam * u
        rhs -= eps * q3
        rhs /= 1.0 - H00
        return rhs

    return {"accel": accel, "operator": None}


def _default_pulse3(r):
    base = default_pulse(r)
    return np.stack([base, 0.5 * base, -base])


def evolve_quasilinear_toy(config: EvolutionConfig, lam: float = 0.0, init=None,
                           slice_s=(), slice_r_cap=None) -> EvolutionResult:
    """Quasilinear surrogate: (eta + H)^{ab} d_a d_b u - lam u = eps Q.

    Three components (h_00, h_0r, h_rr) carrying the full Q index structure;
    H is the second-order inverse-metric expansion in h = eps u.  With
    eps = 0 the step is the linear solver's Taylor kernel on the same
    operator, so the run is bit-identical to the linear solver.
    """
    config.check_model("quasilinear-toy")
    dr, eps = config.dr, config.eps

    def cfl_check(t, u):
        h00 = np.max(np.abs(eps * u[0]))
        hrr = np.max(np.abs(eps * u[2]))
        h0r = np.max(np.abs(eps * u[1]))
        speed = math.sqrt((1.0 + 2.0 * hrr) / max(1.0 - 2.0 * h00, 1e-6)) + 4.0 * h0r
        margin = rk4_margin(config.n, dr, config.dt, lam, speed)
        if margin > 1.0:
            raise CFLError(
                f"perturbed characteristic speed {speed:.3f} breaks RK4 stability "
                f"at t={t:.3f}: margin {margin:.3f} > 1")
        return margin

    if init is None:
        init = (_default_pulse3, lambda r: np.zeros((3,) + r.shape))
    res = _evolve(config, init, lam, lead=(3,), **_quasilinear_rhs(config, lam),
                  slice_s=slice_s, slice_r_cap=slice_r_cap,
                  cfl_check=cfl_check if eps != 0.0 else None)
    comps = None if res.field is None else [
        replace(res.field, u=res.field.u[:, c], v=res.field.v[:, c]) for c in range(3)]
    return replace(res, field=None, slices={}, component_fields=comps,
                   component_slices={
                       s: [SliceData(d.slc, lam, {k: a[c] for k, a in d.samples.items()})
                           for c in range(3)]
                       for s, d in res.slices.items()})
