"""Mode-expanded tensor perturbations and their norms.

A perturbation on the product spacetime is stored as a list of radial scalar
mode fields, each tagged with its internal eigenvalue (effective mass^2).
Slice samples carry enough derivative data that commuted fields can be built
without going back to the full history.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import internal as internal_mod
from .geometry import DomainError, HyperboloidSlice, make_slice, sphere_area

SNAPSHOT_MAGIC = "kkstab-field v1"

#: Component labels for the symmetric 2-tensor blocks.
COMPONENT_KINDS = ("minkowski", "mixed", "internal")


class WindowError(ValueError):
    """Requested slice or time outside the stored evolution window."""


class AliasingError(ValueError):
    """Grid field has content above the internal Nyquist limit."""


# ---------------------------------------------------------------------------
# Slice samples


@dataclass
class SliceData:
    """A mode field restricted to a hyperboloid, with derivative samples.

    u, ut, ur are mandatory; urr, utr optionally support commuted (boosted)
    energies.  All arrays are aligned with slice.r.  Higher pure-time
    derivatives close through the radial Klein-Gordon operator.
    """

    slc: HyperboloidSlice
    lam: float
    u: np.ndarray
    ut: np.ndarray
    ur: np.ndarray
    urr: np.ndarray | None = None
    utr: np.ndarray | None = None
    urrr: np.ndarray | None = None
    utrr: np.ndarray | None = None
    urrrr: np.ndarray | None = None
    utrrr: np.ndarray | None = None

    @property
    def s(self) -> float:
        return self.slc.s

    @property
    def n(self) -> int:
        return self.slc.n

    @property
    def r(self) -> np.ndarray:
        return self.slc.r

    @property
    def t(self) -> np.ndarray:
        return self.slc.t

    def _radial_laplacian_of(self, w, wr, wrr):
        # n * w_rr at the axis (regular limit), w_rr + (n-1)/r w_r elsewhere.
        out = np.empty_like(w)
        out[1:] = wrr[1:] + (self.n - 1) * wr[1:] / self.r[1:]
        out[0] = self.n * wrr[0]
        return out

    def deriv(self, a: int, b: int) -> np.ndarray:
        """d_t^a d_r^b u on the slice, using the PDE to close time derivatives."""
        table = {
            (0, 0): self.u, (1, 0): self.ut, (0, 1): self.ur,
            (0, 2): self.urr, (1, 1): self.utr, (0, 3): self.urrr,
            (1, 2): self.utrr, (0, 4): self.urrrr, (1, 3): self.utrrr,
        }
        got = table.get((a, b), None)
        if got is not None:
            return got
        if a >= 2:
            # d_t^2 X = Lap_r X - lam X applied to X = d_t^{a-2} d_r^b u,
            # with [d_r, Lap_r] corrections from the (n-1)/r coefficient.
            base_a = a - 2
            if b == 0:
                w = self.deriv(base_a, 0)
                wr = self.deriv(base_a, 1)
                wrr = self.deriv(base_a, 2)
                return self._radial_laplacian_of(w, wr, wrr) - self.lam * w
            if b == 1:
                # d_r of the PDE: d_t^2 u_r = u_rrr + (n-1)/r u_rr
                #   - (n-1)/r^2 u_r - lam u_r   (axis value by even symmetry: 0)
                wr = self.deriv(base_a, 1)
                wrr = self.deriv(base_a, 2)
                wrrr = self.deriv(base_a, 3)
                out = np.empty_like(wr)
                r = self.r
                out[1:] = (wrrr[1:] + (self.n - 1) * wrr[1:] / r[1:]
                           - (self.n - 1) * wr[1:] / r[1:] ** 2 - self.lam * wr[1:])
                out[0] = 0.0
                return out
            if b == 2:
                # d_r^2 of the PDE; the axis node carries zero quadrature
                # weight (r^{n-1} measure), so copy the first interior value.
                wr = self.deriv(base_a, 1)
                wrr = self.deriv(base_a, 2)
                wrrr = self.deriv(base_a, 3)
                wrrrr = self.deriv(base_a, 4)
                out = np.empty_like(wr)
                r = self.r
                nm1 = self.n - 1
                out[1:] = (wrrrr[1:] + nm1 * wrrr[1:] / r[1:]
                           - 2.0 * nm1 * wrr[1:] / r[1:] ** 2
                           + 2.0 * nm1 * wr[1:] / r[1:] ** 3
                           - self.lam * wrr[1:])
                out[0] = out[1]
                return out
        raise WindowError(
            f"derivative d_t^{a} d_r^{b} not available from the captured samples"
        )

    def y_derivative(self, a: int = 0, b: int = 0) -> np.ndarray:
        """Hyperboloidal radial derivative Y u = u_r + (r/t) u_t of deriv(a, b)."""
        return self.deriv(a, b + 1) + (self.r / self.t) * self.deriv(a + 1, b)


# ---------------------------------------------------------------------------
# Mode fields (gridded histories)


@dataclass
class ModeField:
    """Radial scalar mode u(t, r) stored on a uniform (t, r) lattice.

    The stored time spacing may be a decimated multiple of the evolution
    step.  v = du/dt is stored alongside so slice interpolation never
    differentiates the coarse time axis.
    """

    lam: float
    n: int
    t0: float
    dt: float
    dr: float
    u: np.ndarray  # (n_t, n_r)
    v: np.ndarray  # (n_t, n_r)
    component: str = "minkowski"

    def __post_init__(self):
        if self.component not in COMPONENT_KINDS:
            raise ValueError(f"unknown component kind {self.component!r}")
        if self.u.shape != self.v.shape:
            raise ValueError("u and v histories must share one lattice")

    @property
    def t1(self) -> float:
        return self.t0 + self.dt * (self.u.shape[0] - 1)

    @property
    def r(self) -> np.ndarray:
        return self.dr * np.arange(self.u.shape[1])

    @property
    def r_max(self) -> float:
        return self.dr * (self.u.shape[1] - 1)

    def support_radius(self, j: int, tol: float = 1e-13) -> float:
        row = np.abs(self.u[j]) + np.abs(self.v[j])
        scale = row.max()
        if scale == 0.0:
            return 0.0
        nz = np.nonzero(row > tol * scale)[0]
        return 0.0 if len(nz) == 0 else float(nz[-1] * self.dr)

    def _interp_rows(self, arr: np.ndarray, tq: np.ndarray, kq: np.ndarray) -> np.ndarray:
        """4-point Lagrange interpolation in t of arr[:, kq] at times tq."""
        jf = (tq - self.t0) / self.dt
        j1 = np.clip(np.floor(jf).astype(int), 1, arr.shape[0] - 3)
        th = jf - j1  # in [0, 1] for interior queries
        jm1, j2, j3 = j1 - 1, j1 + 1, j1 + 2
        w0 = -th * (th - 1.0) * (th - 2.0) / 6.0
        w1 = (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0
        w2 = -(th + 1.0) * th * (th - 2.0) / 2.0
        w3 = (th + 1.0) * th * (th - 1.0) / 6.0
        return (w0 * arr[jm1, kq] + w1 * arr[j1, kq]
                + w2 * arr[j2, kq] + w3 * arr[j3, kq])

    def sample_on_hyperboloid(self, s: float, with_second: bool = True,
                              r_cap: float | None = None) -> SliceData:
        """Interpolate u, d_t u and radial derivatives onto the slice s.

        Cubic in t per radial node; r-derivatives by centered differences on
        the stored rows before interpolation (order-preserving O(dr^2)).
        """
        slc = make_slice(s, self.n, self.dr, r_cap=r_cap if r_cap is not None else self.r_max)
        t_needed = slc.t
        if t_needed.min() < self.t0 + self.dt or t_needed.max() > self.t1 - 2 * self.dt:
            raise WindowError(
                f"slice s={s} needs t in [{t_needed.min():.3f}, {t_needed.max():.3f}] "
                f"outside the stored window [{self.t0}, {self.t1}]"
            )
        kq = np.round(slc.r / self.dr).astype(int)
        ur_rows = _ddr(self.u, self.dr)
        urr_rows = _d2dr2(self.u, self.dr)
        data = SliceData(
            slc=slc,
            lam=self.lam,
            u=self._interp_rows(self.u, t_needed, kq),
            ut=self._interp_rows(self.v, t_needed, kq),
            ur=self._interp_rows(ur_rows, t_needed, kq),
        )
        if with_second:
            data.urr = self._interp_rows(urr_rows, t_needed, kq)
            data.utr = self._interp_rows(_ddr(self.v, self.dr), t_needed, kq)
        return data


def _ddr(arr: np.ndarray, dr: float) -> np.ndarray:
    """Centered d/dr rows with even symmetry at the axis."""
    out = np.empty_like(arr)
    out[:, 1:-1] = (arr[:, 2:] - arr[:, :-2]) / (2.0 * dr)
    out[:, 0] = 0.0
    out[:, -1] = (arr[:, -1] - arr[:, -2]) / dr
    return out


def _d2dr2(arr: np.ndarray, dr: float) -> np.ndarray:
    out = np.empty_like(arr)
    out[:, 1:-1] = (arr[:, 2:] - 2.0 * arr[:, 1:-1] + arr[:, :-2]) / dr ** 2
    out[:, 0] = 2.0 * (arr[:, 1] - arr[:, 0]) / dr ** 2  # even extension
    out[:, -1] = out[:, -2]
    return out


# ---------------------------------------------------------------------------
# Product fields


@dataclass
class ProductTensorField:
    """A perturbation as a finite internal-mode expansion on one lattice."""

    modes: list[ModeField]
    model: internal_mod.InternalModel
    spectrum: internal_mod.ModeSpectrum | None = None

    def __post_init__(self):
        if self.modes:
            ref = self.modes[0]
            for m in self.modes[1:]:
                if (m.dr, m.dt, m.t0, m.n) != (ref.dr, ref.dt, ref.t0, ref.n):
                    raise ValueError("all modes must share one lattice")
        if self.spectrum is not None:
            for m in self.modes:
                if not self.spectrum.contains(m.lam):
                    raise ValueError(f"mode lambda={m.lam} not in the internal spectrum")

    def sup_norm_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, sum over modes of sup_r |u^lam|): pointwise sup bound over K."""
        ref = self.modes[0]
        t = ref.t0 + ref.dt * np.arange(ref.u.shape[0])
        total = sum(np.max(np.abs(m.u), axis=1) for m in self.modes)
        return t, total


# ---------------------------------------------------------------------------
# Norms


def euclidean_pointwise(components: dict[str, float | np.ndarray]) -> float | np.ndarray:
    """|u|_E at a point: the Euclidean metric is the identity in these
    coordinates, so the norm is the component sum of squares."""
    total = 0.0
    for value in components.values():
        total = total + np.asarray(value) ** 2
    return np.sqrt(total)


def h_ell_internal(lam: float, coeff_l2: float, ell: int) -> float:
    """H^ell(K) of a single mode: (sum_{j<=ell} lam^j)^{1/2} ||coeff||."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return math.sqrt(sum(lam ** j for j in range(ell + 1))) * coeff_l2


def l2_on_slice(data: SliceData) -> float:
    """L^2(Sigma_s) of one mode coefficient (flat measure)."""
    return math.sqrt(data.slc.integrate(data.u ** 2))


def l2_product_slice(slices: list[SliceData]) -> float:
    """L^2(Sigma_s x K) via Parseval over the mode expansion."""
    return math.sqrt(sum(data.slc.integrate(data.u ** 2) for data in slices))


# ---------------------------------------------------------------------------
# Mode decomposition (tiny-full-grid oracle path, flat torus, d = 1, 2)


def mode_decompose(h: np.ndarray, model: internal_mod.FlatTorus,
                   nyquist_guard: float = 1e-10) -> dict[tuple[int, ...], np.ndarray]:
    """Project a gridded product field onto internal Fourier modes.

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


def mode_reconstruct(coeffs: dict[tuple[int, ...], np.ndarray],
                     model: internal_mod.FlatTorus, grid_shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of mode_decompose on the same internal grid."""
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
# Snapshot format: text header, then row-major float64 payload


def write_snapshot(path, field_: ModeField) -> None:
    with open(path, "wb") as fh:
        header = io.StringIO()
        header.write(f"{SNAPSHOT_MAGIC}\n")
        header.write(f"n={field_.n} lam={field_.lam!r} component={field_.component}\n")
        header.write(f"dt={field_.dt!r} dr={field_.dr!r} t0={field_.t0!r}\n")
        header.write(f"shape={field_.u.shape[0]}x{field_.u.shape[1]}\n")
        fh.write(header.getvalue().encode())
        # memoryview writes the array's own buffer: no bytes copy of the payload
        fh.write(memoryview(np.ascontiguousarray(field_.u, dtype="<f8")))
        fh.write(memoryview(np.ascontiguousarray(field_.v, dtype="<f8")))


def read_snapshot(path) -> ModeField:
    with open(path, "rb") as fh:
        magic = fh.readline().decode().strip()
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        meta = dict(kv.split("=", 1) for kv in fh.readline().decode().split())
        grid = dict(kv.split("=", 1) for kv in fh.readline().decode().split())
        shape = tuple(int(x) for x in fh.readline().decode().strip().split("=")[1].split("x"))
        count = shape[0] * shape[1]
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != 16 * count:
            raise ValueError(
                f"snapshot payload is {found} bytes, but the header shape "
                f"{shape[0]}x{shape[1]} needs {16 * count} bytes (u and v)"
            )
        u = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape).copy()
        v = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape).copy()
    return ModeField(
        lam=float(meta["lam"]), n=int(meta["n"]), component=meta["component"],
        t0=float(grid["t0"]), dt=float(grid["dt"]), dr=float(grid["dr"]), u=u, v=v,
    )
