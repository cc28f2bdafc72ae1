"""Reference implementations that the tests compare the package against.

Each is an independent code path for a quantity the package computes
another way.
"""

import dataclasses
import json
import math

import numpy as np

from kkstab import evolve as ev
from kkstab.energy import REPORT_MAGIC
from kkstab.fields import SliceData, WindowError, d2dr2, ddr
from kkstab.geometry import make_slice
from kkstab.schwarzschild import _christoffels, harmonic_metric


# ---------------------------------------------------------------------------
# Energy density through the stress tensor


def stress_tensor(lam: float, derivs: dict, gamma: dict | None = None) -> dict:
    """Mixed components T^mu_nu on the (t, r) block.

    derivs: {'ut', 'ur', 'u'} arrays; gamma: optional contravariant block
    {'00', '0r', 'rr'}.  The internal gradient and curvature terms reduce to
    the eigenvalue weight lam |u|^2.
    """
    ut, ur, u = derivs["ut"], derivs["ur"], derivs["u"]
    g = {"00": 0.0, "0r": 0.0, "rr": 0.0}
    if gamma:
        g.update(gamma)
    a00 = -1.0 + g["00"]
    a0r = g["0r"]
    arr = 1.0 + g["rr"]
    trace = a00 * ut * ut + 2.0 * a0r * ut * ur + arr * ur * ur + lam * u * u
    return {
        "00": a00 * ut * ut + a0r * ur * ut - 0.5 * trace,
        "0r": a00 * ut * ur + a0r * ur * ur,
        "r0": a0r * ut * ut + arr * ur * ut,
        "rr": a0r * ut * ur + arr * ur * ur - 0.5 * trace,
    }


def stress_integrand(data: SliceData, gamma: dict | None = None) -> np.ndarray:
    """The density of `energy.def_integrand` as -2 T^mu_0 n_mu."""
    T = stress_tensor(data.lam, {"ut": data.ut, "ur": data.ur, "u": data.u},
                      gamma)
    n0 = 1.0
    nr = -data.r / data.t
    return -2.0 * (T["00"] * n0 + T["r0"] * nr)


# ---------------------------------------------------------------------------
# The inverse-metric expansion by generic index contraction

ETA2 = np.diag([-1.0, 1.0])


def pack_sym(a00, a0r, arr) -> np.ndarray:
    """Symmetric (..., 2, 2) matrices from their (00, 0r, rr) components."""
    out = np.empty(np.shape(a00) + (2, 2))
    out[..., 0, 0] = a00
    out[..., 0, 1] = out[..., 1, 0] = a0r
    out[..., 1, 1] = arr
    return out


def sharp(m):
    """m# = eta m eta: both indices raised."""
    return np.einsum("ab,...bc,cd->...ad", ETA2, m, ETA2)


def sharp_prod(x, y):
    """(x eta y)# = eta x eta y eta."""
    return np.einsum("ab,...bc,cd,...de,ef->...af", ETA2, x, ETA2, y, ETA2)


def inverse_metric_einsum(h):
    """H = -h# + (h eta h)#, the second-order (eta + h)^{-1} - eta^{-1}."""
    return -sharp(h) + sharp_prod(h, h)


# ---------------------------------------------------------------------------
# Full-grid (t, r, theta) solver on R^{1+n} x T^1, and Fourier synthesis


def evolve_full_grid_torus(n: int, torus, init, config: ev.EvolutionConfig,
                           m_theta: int = 16):
    """Direct product-grid solver for a d = 1 flat torus (n <= 3).

    init = (u0, v0) callables of (r, theta).  The internal derivative is
    pseudospectral (exact on band-limited data), so the comparison isolates
    the mode decomposition.  Runs through `evolve._evolve`, with the radial
    Laplacian looked up on the module at each call.  Returns (t_array,
    u_history), u_history of shape (n_t, m_theta, n_r), decimated by
    store_every.
    """
    if torus.d != 1:
        raise ValueError("full-grid oracle supports d=1 only")
    config.check_model("linear")
    L = torus.periods[0]
    theta = L * np.arange(m_theta) / m_theta

    def on_mesh(f):
        # theta first, radial last: the sweep's Dirichlet edge is the last axis
        def of_r(r):
            TH, R = np.meshgrid(theta, r, indexing="ij")
            return f(R, TH)
        return of_r

    k = 2.0 * np.pi * np.fft.rfftfreq(m_theta, d=L / m_theta)
    minus_k2 = -(k ** 2)[:, None]

    def accel(t, u, v):
        lap_r = ev.radial_laplacian(u, config.dr, n)
        lap_th = np.fft.irfft(minus_k2 * np.fft.rfft(u, axis=0), n=m_theta, axis=0)
        return lap_r + lap_th

    history = ev._evolve(dataclasses.replace(config, store_history=True),
                         (on_mesh(init[0]), on_mesh(init[1])), lambda r: accel)[0]
    return np.array(history.t), history["u"]


def mode_reconstruct(coeffs: dict, model, grid_shape: tuple) -> np.ndarray:
    """Inverse of `fields.mode_decompose` on the same internal grid."""
    d = model.d
    base_shape = next(iter(coeffs.values())).shape
    out = np.zeros(base_shape + grid_shape, dtype=complex)
    axes_coords = [np.arange(m) / m for m in grid_shape]
    mesh = np.meshgrid(*axes_coords, indexing="ij")
    for k, c in coeffs.items():
        phase = sum(2j * math.pi * kj * g for kj, g in zip(k, mesh))
        out += np.asarray(c).reshape(base_shape + (1,) * d) * np.exp(phase)
    return np.real_if_close(out, tol=1e6)


# ---------------------------------------------------------------------------
# Hyperboloid samples interpolated from a stored history


def interp_rows(field, arr: np.ndarray, tq: np.ndarray, kq: np.ndarray) -> np.ndarray:
    """4-point Lagrange interpolation in t of arr[:, kq] at times tq, on the
    time lattice of the ModeField `field`."""
    jf = (tq - field.t0) / field.dt
    j1 = np.clip(np.floor(jf).astype(int), 1, arr.shape[0] - 3)
    th = jf - j1  # in [0, 1] for interior queries
    jm1, j2, j3 = j1 - 1, j1 + 1, j1 + 2
    w0 = -th * (th - 1.0) * (th - 2.0) / 6.0
    w1 = (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0
    w2 = -(th + 1.0) * th * (th - 2.0) / 2.0
    w3 = (th + 1.0) * th * (th - 1.0) / 6.0
    return (w0 * arr[jm1, kq] + w1 * arr[j1, kq]
            + w2 * arr[j2, kq] + w3 * arr[j3, kq])


def sample_on_hyperboloid(field, s: float, with_second: bool = True,
                          r_cap: float | None = None) -> SliceData:
    """u, d_t u and radial derivatives of a stored ModeField on the slice s.

    Cubic in t per radial node; r-derivatives by centered differences on
    the stored rows before interpolation (order-preserving O(dr^2)).
    """
    slc = make_slice(s, field.n, field.dr,
                     r_cap=r_cap if r_cap is not None else field.r_max)
    t_needed = slc.t
    if t_needed.min() < field.t0 + field.dt or t_needed.max() > field.t1 - 2 * field.dt:
        raise WindowError(
            f"slice s={s} needs t in [{t_needed.min():.3f}, {t_needed.max():.3f}] "
            f"outside the stored window [{field.t0}, {field.t1}]"
        )
    kq = np.round(slc.r / field.dr).astype(int)

    def at_slice(arr):
        return interp_rows(field, arr, t_needed, kq)

    data = SliceData(slc=slc, lam=field.lam, u=at_slice(field.u),
                     ut=at_slice(field.v), ur=at_slice(ddr(field.u, field.dr)))
    if with_second:
        data.urr = at_slice(d2dr2(field.u, field.dr))
        data.utr = at_slice(ddr(field.v, field.dr))
    return data


# ---------------------------------------------------------------------------
# Finite-difference curvature and wave-gauge residuals


def christoffel_fd(metric_fn, x, step):
    """Gamma^c_{ab} at x from fourth-order central differences of metric_fn."""
    D = len(x)
    g0 = metric_fn(x)
    dg = np.zeros((D,) + g0.shape)
    for mu in range(D):
        e = np.zeros(D)
        e[mu] = step
        dg[mu] = (8.0 * (metric_fn(x + e) - metric_fn(x - e))
                  - (metric_fn(x + 2 * e) - metric_fn(x - 2 * e))) / (12.0 * step)
    return _christoffels(np.linalg.inv(g0), dg)


def wave_gauge_residual_of(metric_fn, x, step: float = 1e-2) -> np.ndarray:
    """V^c = g^{ab} Gamma^c_{ab}[g] at x (reference: Cartesian Minkowski).

    metric_fn(x) -> (D, D) components, differentiated by `christoffel_fd`.
    """
    x = np.asarray(x, dtype=float)
    ginv = np.linalg.inv(metric_fn(x))
    return np.einsum("ab,cab->c", ginv, christoffel_fd(metric_fn, x, step))


def ricci_tensor(metric_fn, x, step: float = 1e-2) -> np.ndarray:
    """Ricci tensor by nested finite differences of Christoffels."""
    x = np.asarray(x, dtype=float)
    D = len(x)
    gamma0 = christoffel_fd(metric_fn, x, step)
    dgamma = np.zeros((D, D, D, D))
    for mu in range(D):
        e = np.zeros(D)
        e[mu] = step
        dgamma[mu] = (christoffel_fd(metric_fn, x + e, step)
                      - christoffel_fd(metric_fn, x - e, step)) / (2.0 * step)
    return (np.einsum("ccab->ab", dgamma)
            - np.einsum("accb->ab", dgamma)
            + np.einsum("ccd,dab->ab", gamma0, gamma0)
            - np.einsum("cad,dcb->ab", gamma0, gamma0))


def scalar_curvature(metric_fn, x, step: float = 1e-2) -> float:
    ric = ricci_tensor(metric_fn, x, step)
    ginv = np.linalg.inv(metric_fn(np.asarray(x, dtype=float)))
    return float(np.einsum("ab,ab->", ginv, ric))


def product_slice_metric(chart):
    """Spatial metric of a t = const slice: harmonic Schwarzschild block
    times a flat torus."""
    n = chart.params.n

    def fn(x):
        m = np.eye(len(x))
        m[:n, :n] = harmonic_metric(chart, x[:n]).g[1:, 1:]
        return m

    return fn


# ---------------------------------------------------------------------------
# Reports


def constants_stable(rows: list, name: str, tol: float = 0.2) -> bool:
    """True when the measured constant of estimate `name` varies within
    +-tol around the midpoint of its range."""
    vals = [row.c_measured for row in rows
            if row.name == name and not row.skipped]
    if not vals:
        return False
    mid = 0.5 * (max(vals) + min(vals))
    return (max(vals) - mid) <= tol * mid


def read_report(path) -> dict:
    """The JSON body of a file written by `energy.write_report`."""
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != REPORT_MAGIC:
            raise ValueError(f"bad report magic {magic!r}")
        return json.load(fh)
