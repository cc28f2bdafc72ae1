"""Radial mode fields, their hyperboloid slice samples, and snapshot I/O.

A perturbation on the product spacetime is a set of radial scalar mode
fields, each tagged with its internal eigenvalue (effective mass^2).  Slice
samples carry enough derivative data that generator words (boosted
energies) are evaluated without going back to the full history.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from . import internal as internal_mod
from .geometry import HyperboloidSlice

SNAPSHOT_MAGIC = "kkstab-field v1"
#: longest header line read: a payload without newlines is not read whole
_HEADER_LINE_MAX = 4096


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

    def __post_init__(self):
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


# ---------------------------------------------------------------------------
# Mode decomposition (flat torus, d = 1, 2)


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


# ---------------------------------------------------------------------------
# Snapshot format: text header, then row-major float64 payload


def write_snapshot(path, field_: ModeField) -> None:
    with open(path, "wb") as fh:
        header = io.StringIO()
        header.write(f"{SNAPSHOT_MAGIC}\n")
        header.write(f"n={field_.n} lam={field_.lam!r} component=minkowski\n")
        header.write(f"dt={field_.dt!r} dr={field_.dr!r} t0={field_.t0!r}\n")
        header.write(f"shape={field_.u.shape[0]}x{field_.u.shape[1]}\n")
        fh.write(header.getvalue().encode())
        # memoryview writes the array's own buffer: no bytes copy of the payload
        fh.write(memoryview(np.ascontiguousarray(field_.u, dtype="<f8")))
        fh.write(memoryview(np.ascontiguousarray(field_.v, dtype="<f8")))


def _shape(text: str) -> tuple[int, int]:
    nt, nr = (int(x) for x in text.split("x"))
    if nt < 0 or nr < 0:
        raise ValueError(text)
    return nt, nr


def _header_line(fh, lineno: int, spec: dict) -> dict:
    """The `key=value` pairs of one header line, each key of spec once,
    converted by spec[key]; anything else is a ValueError naming the line."""
    text = fh.readline(_HEADER_LINE_MAX).decode("utf-8", errors="replace").strip()
    try:
        pairs = [kv.split("=", 1) for kv in text.split()]
        values = {key: spec[key](value) for key, value in pairs}
        if len(values) != len(spec) or len(pairs) != len(spec):
            raise ValueError(text)
        return values
    except (KeyError, ValueError):
        want = " ".join(f"{key}=" for key in spec)
        raise ValueError(f"bad snapshot header line {lineno} {text[:80]!r}: "
                         f"expected {want}") from None


def read_snapshot(path) -> ModeField:
    with open(path, "rb") as fh:
        magic = fh.readline(_HEADER_LINE_MAX).decode("utf-8", errors="replace").strip()
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic[:80]!r}")
        meta = _header_line(fh, 2, {"n": int, "lam": float, "component": str})
        if meta["component"] != "minkowski":
            raise ValueError(f"bad snapshot header line 2: component="
                             f"{meta['component']!r} is not 'minkowski'")
        grid = _header_line(fh, 3, {"dt": float, "dr": float, "t0": float})
        shape = _header_line(fh, 4, {"shape": _shape})["shape"]
        count = shape[0] * shape[1]
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != 16 * count:
            raise ValueError(
                f"snapshot payload is {found} bytes, but the header shape "
                f"{shape[0]}x{shape[1]} needs {16 * count} bytes (u and v)"
            )
        u = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape).copy()
        v = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape).copy()
    return ModeField(lam=meta["lam"], n=meta["n"], t0=grid["t0"], dt=grid["dt"],
                     dr=grid["dr"], u=u, v=v)
