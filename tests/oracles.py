"""Reference implementations that the tests compare the package against.

Each is an independent code path for a quantity the package computes
another way.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import sympy as sp
from scipy.optimize import brentq

from kkstab import evolve as ev
from kkstab.cli import REPORT_MAGIC
from kkstab.energy import GammaBlock, hyperboloidal_energy
from kkstab.fields import DomainError, SliceData, WindowError, make_slice, sphere_area
from kkstab.schwarzschild import _christoffels, harmonic_metric


# ---------------------------------------------------------------------------
# Geometry: the hyperboloidal chart and the radial generator brackets


def to_hyperboloidal(t: float, x) -> tuple[float, np.ndarray]:
    """Map a Cartesian point inside the light cone to (s, y)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r2 = float(np.dot(x, x))
    if t * t <= r2:
        raise DomainError(f"point (t={t}, |x|={math.sqrt(r2)}) not inside the light cone")
    return math.sqrt(t * t - r2), x.copy()


#: Structure constants of the radial subalgebra {T, Xr, Z0r}:
#: [A, B] = sum_C c_C C with entries ((A, B), {C: coeff}).
RADIAL_BRACKETS = {
    ("T", "Xr"): {},
    ("T", "Z0r"): {"Xr": 1.0},
    ("Xr", "Z0r"): {"T": 1.0},
}


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


def _matmul2(X, Y):
    return [[X[i][0] * Y[0][j] + X[i][1] * Y[1][j] for j in (0, 1)] for i in (0, 1)]


def q_contractions(h, dh_t, dh_r):
    """Oracle: Q_mn(dg, dg) as the five contractions, component-wise.

    Q_mn = t1_mn + t2_mn - 1/2 t3_mn + t4_mn - t5_mn (see
    `evolve.q_nonlinearity`).  With G = g^{-1}, D_c = d_c g, A_c = G D_c,
    B_c = A_c G and W_c = G^c0 A_0 + G^cr A_r (a, b, c, d over {0, r}):
        t1_mn = B_n^00 (D_0)_0m + B_n^0r [(D_0)_rm + (D_r)_0m] + B_n^rr (D_r)_rm,
        t2_mn = t1_nm,
        t3_mn = B_m^00 (D_n)_00 + 2 B_m^0r (D_n)_0r + B_m^rr (D_n)_rr,
        t4_mn = sum_c (D_c)_m0 (W_c)^0_n + (D_c)_mr (W_c)^r_n,
        t5_mn = sum_{b,c} (A_c)^b_m (A_b)^c_n.
    Plain arithmetic on the entries, so it also runs on sympy symbols.
    Returns (Q_00, Q_0r, Q_rr).
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
    # the theta term adds k_max^2 to the radial Laplacian's stiffness, which
    # the config's RK4 guard does not see
    assert ev.rk4_margin(n, config.dr, config.dt, lam=float(k[-1] ** 2)) <= 1.0, \
        "the step is too large for the theta term's stiffness"

    def accel(t, u, v):
        lap_r = ev.radial_laplacian(u, config.dr, n)
        lap_th = np.fft.irfft(minus_k2 * np.fft.rfft(u, axis=0), n=m_theta, axis=0)
        return lap_r + lap_th

    field = ev._evolve(dataclasses.replace(config, store_history=True),
                       (on_mesh(init[0]), on_mesh(init[1])), 0.0, accel,
                       lead=(m_theta,)).field
    return field.t0 + field.dt * np.arange(len(field.u)), field.u


# ---------------------------------------------------------------------------
# Exact solutions of the radial wave equation


def full_grid_laplacian(u, dr, n):
    """Oracle: the flux-form Laplacian with 1/dr^2 folded into coefficients
    built for this array's own length."""
    size = u.shape[-1]
    k = np.arange(1, size - 1, dtype=float)
    cp = ((k + 0.5) / k) ** (n - 1) / dr ** 2
    cm = ((k - 0.5) / k) ** (n - 1) / dr ** 2
    out = np.empty_like(u)
    d = u[..., 1:] - u[..., :-1]
    out[..., 1:-1] = cp * d[..., 1:] - cm * d[..., :-1]
    out[..., 0] = 2.0 * n / dr ** 2 * d[..., 0]
    out[..., -1] = 0.0
    return out


def odd_n_wave(n: int, power: int = 12, width: int = 2):
    """The exact lam = 0 radial wave of odd n from zero velocity, as
    u(tau, r) with tau = t - t_start (arrays of one shape, tau >= 0).

    With k = (n - 1)/2 and the even profile Phi(x) = (1 - x^2/W^2)^P on
    |x| < W (0 outside), u = (1/r d_r)^k [Phi(r + tau) + Phi(r - tau)] / c
    solves u_tt = u_rr + (n - 1)/r u_r: (1/r) d_r maps radial waves in
    dimension m to radial waves in dimension m + 2.  c makes u(0, 0) = 1.
    The data are supported in r <= W.  For r < W - tau both terms are
    inside, their sum is a polynomial S in q = r^2, and u = (2 d_q)^k S / c
    is evaluated without the cancellation of 1/r near the axis; for
    |r - tau| < W <= r + tau one term is left; elsewhere u = 0.  P > 2k
    keeps Phi^(2k), and with it the axis value, continuous.
    """
    k = (n - 1) // 2
    if n % 2 != 1 or power <= 2 * k:
        raise ValueError(f"n={n} must be odd and power={power} above n - 1")
    x, r, q, tau = sp.symbols("x r q tau", real=True)
    phi = (1 - x ** 2 / sp.Integer(width) ** 2) ** power
    both = sp.Poly(sp.expand(phi.subs(x, r + tau) + phi.subs(x, r - tau)), r)
    inner = sum(coef * q ** (deg // 2) for (deg,), coef in both.terms())
    inner = 2 ** k * sp.diff(inner, q, k)
    c = inner.subs({q: 0, tau: 0})
    outer = phi.subs(x, r - tau)
    for _ in range(k):
        outer = sp.diff(outer, r) / r
    inner = sp.lambdify((q, tau), sp.expand(inner / c), "numpy")
    outer = sp.lambdify((r, tau), outer / c, "numpy")

    def u(tau_, r_):
        tau_, r_ = np.broadcast_arrays(np.asarray(tau_, float), np.asarray(r_, float))
        out = np.zeros(tau_.shape)
        a = r_ < width - tau_
        out[a] = inner(r_[a] ** 2, tau_[a])
        # r = 0 lies in the one-term region only at tau >= W, where u = 0
        b = ~a & (np.abs(r_ - tau_) < width) & (r_ > 0)
        out[b] = outer(r_[b], tau_[b])
        return out

    return u


def semi_discrete_solution(n: int, dr: float, lam: float, u0, v0, t):
    """(u, v) at the times t (an array, measured from the data's time) of
    the semi-discrete system du/dt = v, dv/dt = (L - lam) u, exact in time.

    L is `full_grid_laplacian` on the grid of u0, read off as a matrix, with
    the Dirichlet edge column held at 0.  It is tridiagonal with positive
    products of opposite off-diagonal entries, so D L D^-1 = S is symmetric
    for the diagonal D with D_(i+1) / D_i = sqrt(L_(i,i+1) / L_(i+1,i));
    `eigh_tridiagonal` gives S = Q diag(mu) Q^T, and with omega = sqrt(lam
    - mu), u(t) = D^-1 Q (cos(omega t) a + sin(omega t) / omega b) for
    a = Q^T D u0 and b = Q^T D v0.  Returns arrays of shape t.shape + u0.shape.
    """
    from scipy.linalg import eigh_tridiagonal

    m = u0.shape[-1] - 1
    L = full_grid_laplacian(np.eye(m + 1), dr, n).T[:m, :m]
    up, down = np.diag(L, 1), np.diag(L, -1)
    d = np.concatenate(([1.0], np.cumprod(np.sqrt(up / down))))
    mu, Q = eigh_tridiagonal(np.diag(L), np.sqrt(up * down))
    omega = np.sqrt(lam - mu)
    a, b = Q.T @ (d * u0[:m]), Q.T @ (d * v0[:m])
    wt = np.multiply.outer(np.asarray(t, float), omega)
    cos, sin = np.cos(wt), np.sin(wt)
    u, v = np.zeros(wt.shape[:-1] + (m + 1,)), np.zeros(wt.shape[:-1] + (m + 1,))
    u[..., :m] = ((cos * a + sin / omega * b) @ Q.T) / d
    v[..., :m] = ((-omega * sin * a + cos * b) @ Q.T) / d
    return u, v


# ---------------------------------------------------------------------------
# The energy monitor


def discrete_energy_sums(u, v, dr, n, lam) -> float:
    """E_h = |S^{n-1}| dr^n [sum w_k v_k^2 + sum (k+1/2)^{n-1} (u_{k+1} - u_k)^2
    / dr^2 + lam sum w_k u_k^2], w_k = k^{n-1} and w_0 = 2^{1-n} / (2n), over
    every entry of 1-D rows, each sum exactly rounded (math.fsum)."""
    k = np.arange(u.shape[-1], dtype=float)
    w = k ** (n - 1)
    w[0] = 2.0 ** (1 - n) / (2 * n)
    face = (k[:-1] + 0.5) ** (n - 1)
    du = np.diff(u)
    sums = (math.fsum(w * v * v), math.fsum(face * du * du) / dr ** 2,
            lam * math.fsum(w * u * u))
    return sphere_area(n) * dr ** n * math.fsum(sums)


def pulse_energy(n: int, width: float = 2.0) -> float:
    """|S^{n-1}| int psi'(r)^2 r^{n-1} dr of the default pulse
    psi(r) = exp(1 - 1/(1 - (r/width)^2)), the exact energy of the data
    (psi, 0) for lam = 0: Gauss-Legendre on 400 nodes of [0, width]."""
    x, wq = np.polynomial.legendre.leggauss(400)
    r = 0.5 * width * (x + 1.0)
    y = r / width
    dpsi = np.exp(1.0 - 1.0 / (1.0 - y * y)) * (-2.0 * y / (1.0 - y * y) ** 2) / width
    return sphere_area(n) * 0.5 * width * float(np.sum(wq * dpsi * dpsi * r ** (n - 1)))


def torus_spectrum_loop(periods, cutoff: float) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) pairs of a flat torus, one wavevector at a
    time: every k from `itertools.product`, its |k/L|^2 as a Python sum,
    buckets keyed on round(|k/L|^2, 9), each bucket's eigenvalue from its
    first wavevector, each wavevector counted once per tensor component."""
    d = len(periods)
    tmult = d * (d + 1) // 2
    two_pi = 2.0 * math.pi

    def lattice_norm(k):
        return sum((kj / Lj) ** 2 for kj, Lj in zip(k, periods))

    k_bounds = [int(math.floor(math.sqrt(cutoff) * L / two_pi)) for L in periods]
    buckets: dict[float, list[tuple[int, ...]]] = {}
    for k in itertools.product(*(range(-b, b + 1) for b in k_bounds)):
        q = lattice_norm(k)
        if two_pi ** 2 * q <= cutoff + 1e-12:
            buckets.setdefault(round(q, 9), []).append(k)
    return [(two_pi ** 2 * lattice_norm(ks[0]), len(ks) * tmult)
            for _, ks in sorted(buckets.items())]


class AliasingError(ValueError):
    """Grid field has content above the internal Nyquist limit."""


def mode_decompose(h: np.ndarray, model, nyquist_guard: float = 1e-10
                   ) -> dict[tuple[int, ...], np.ndarray]:
    """Project a gridded product field onto internal Fourier modes of a flat
    torus `model` (d = 1, 2).

    h has shape (*base_shape, m1[, m2]) with the trailing axes sampling the
    torus uniformly.  Returns {wavevector: complex coefficient array over the
    base shape}.  Content at the Nyquist wavenumber is an aliasing error.
    """
    d = model.d
    if d not in (1, 2):
        raise ValueError("full-grid decomposition supports flat tori with d <= 2 only")
    axes = tuple(range(h.ndim - d, h.ndim))
    coeffs_grid = np.fft.fftn(h, axes=axes) / math.prod(h.shape[a] for a in axes)
    sizes = [h.shape[a] for a in axes]
    scale = np.max(np.abs(coeffs_grid)) or 1.0
    out: dict[tuple[int, ...], np.ndarray] = {}
    for idx in np.ndindex(*sizes):
        k = tuple(i if i <= m // 2 else i - m for i, m in zip(idx, sizes))
        c = coeffs_grid[(Ellipsis, *idx)]
        if any(i == m // 2 and m % 2 == 0 for i, m in zip(idx, sizes)):
            if np.max(np.abs(c)) > nyquist_guard * scale:
                raise AliasingError(
                    f"content at the internal Nyquist wavenumber {k} exceeds the guard"
                )
            continue
        out[k] = np.asarray(c)
    return out


def mode_reconstruct(coeffs: dict, model, grid_shape: tuple) -> np.ndarray:
    """Inverse of `mode_decompose` on the same internal grid."""
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
# Centred radial derivatives, one hand-written formula per order: the
# references for `evolve.CENTRED_STENCILS` and its appliers


def ddr(u: np.ndarray, dr: float) -> np.ndarray:
    """Centered d/dr along the last axis: 0 at the axis by even symmetry, and
    0 in the edge column, where the data vanish by the support cone."""
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dr)
    out[..., 0] = 0.0
    out[..., -1] = 0.0
    return out


def d2dr2(u: np.ndarray, dr: float) -> np.ndarray:
    """Centered d^2/dr^2 along the last axis: the even extension at the axis,
    and 0 in the edge column, where the data vanish by the support cone."""
    out = np.empty_like(u)
    out[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dr ** 2
    out[..., 0] = 2.0 * (u[..., 1] - u[..., 0]) / dr ** 2
    out[..., -1] = 0.0
    return out


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

    samples = {(0, 0): at_slice(field.u), (1, 0): at_slice(field.v),
               (0, 1): at_slice(ddr(field.u, field.dr))}
    if with_second:
        samples[0, 2] = at_slice(d2dr2(field.u, field.dr))
        samples[1, 1] = at_slice(ddr(field.v, field.dr))
    return SliceData(slc, field.lam, samples)


# ---------------------------------------------------------------------------
# The harmonic chart's inverse by bracketing


def rbar_of_r_bracketed(chart, r: float) -> float:
    """rbar with chart.r_of_rbar(rbar) = r, by brentq between the chart's
    inner end and an upper end doubled until it brackets the root."""
    lo = chart._r_min
    hi = max(2.0 * r, lo)
    while chart.r_of_rbar(hi) < r:
        hi *= 2.0
    return brentq(lambda x: chart.r_of_rbar(x) - r, lo, hi,
                  xtol=1e-300, rtol=4 * np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Static metric derivatives, one spatial axis at a time


def static_metric_dg_loop(x, r, dh00, a, da, b, db) -> np.ndarray:
    """dg[mu, a, b] = d_mu g_ab of g_00 = -1 + h00(r),
    g_ij = (1 + a) delta_ij + (b - a) xhat_i xhat_j: for each axis k, with
    d_k xhat = (e_k - xhat_k xhat) / r, the products in the order
    `schwarzschild._static_metric` takes them."""
    n = len(x)
    xh = x / r
    dg = np.zeros((n + 1,) * 3)
    for k in range(n):
        dxh = (np.eye(n)[k] - xh[k] * xh) / r
        dg[1 + k, 0, 0] = dh00 * xh[k]
        dg[1 + k, 1:, 1:] = (da * xh[k] * np.eye(n)
                             + (db - da) * xh[k] * np.outer(xh, xh)
                             + (b - a) * (np.outer(dxh, xh) + np.outer(xh, dxh)))
    return dg


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
    """The JSON body of energy-report.json, below its magic line."""
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != REPORT_MAGIC:
            raise ValueError(f"bad report magic {magic!r}")
        return json.load(fh)


# ---------------------------------------------------------------------------
# Energy equivalence, decay envelopes and the estimate hypotheses

#: Smallness threshold on sup t|gamma|_E below which the 2-sided energy
#: equivalence is asserted rather than merely reported.
SMALLNESS_EPS = 0.05


def zero_gamma(shape) -> GammaBlock:
    """The gamma block that vanishes, with its derivatives, on every node."""
    return GammaBlock(*(np.zeros((3,) + tuple(shape)) for _ in range(3)))


def integrable(n: int) -> bool:
    """beta = (n - 2)/4 > 3/2, equivalent to n > 8."""
    return (n - 2) / 4.0 > 1.5


@dataclasses.dataclass
class EquivalenceResult:
    ratio: float
    sup_t_gamma: float
    conclusive: bool
    within_two_sided: bool


def equivalence_check(data: SliceData, gamma: GammaBlock,
                      eps_n: float = SMALLNESS_EPS) -> EquivalenceResult:
    """Ratio E[0]/E[gamma] with the smallness hypothesis sup t|gamma|_E."""
    e0 = hyperboloidal_energy(data)
    eg = hyperboloidal_energy(data, gamma)
    ratio = e0 / eg if eg != 0 else np.inf
    sup_tg = float(np.max(data.t * gamma.euclidean_norm()))
    return EquivalenceResult(ratio=float(ratio), sup_t_gamma=sup_tg,
                             conclusive=sup_tg <= eps_n,
                             within_two_sided=0.5 <= ratio <= 2.0)


def envelope(t, u_abs, min_separation: int = 3):
    """Local maxima of |u(t)|: the oscillation envelope for KG fits."""
    t = np.asarray(t)
    u_abs = np.asarray(u_abs)
    idx = [i for i in range(1, len(t) - 1)
           if u_abs[i] >= u_abs[i - 1] and u_abs[i] >= u_abs[i + 1]
           and u_abs[i] > 0]
    pruned = []
    for i in idx:
        if not pruned or i - pruned[-1] >= min_separation:
            pruned.append(i)
    return t[pruned], u_abs[pruned]
