"""Hyperboloid slices, radial mode fields, their slice samples, and
snapshot I/O.

A perturbation on the product spacetime is a set of radial scalar mode
fields, each tagged with its internal eigenvalue (effective mass^2).  Slice
samples, one table keyed by derivative orders (a, b), evaluate generator
words (boosted energies) without going back to the full history.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SNAPSHOT_MAGIC = "kkstab-field v1"
#: longest header line read: a payload without newlines is not read whole
_HEADER_LINE_MAX = 4096
#: bytes that one step of `_move` reads and writes
_MOVE_CHUNK = 1 << 20


class WindowError(ValueError):
    """Requested slice or time outside the stored evolution window."""


class DomainError(ValueError):
    """Point outside the chart's domain of validity."""


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


def make_slice(s: float, n: int, dr: float, r_cap: float | None = None) -> HyperboloidSlice:
    """Build a radial slice sampled at spacing dr out to r_cap.

    By default the slice is truncated where it meets |x| = t - 1, the region
    the energy integrals live on.
    """
    limit = 0.5 * (s * s - 1.0)
    cap = limit if r_cap is None else min(r_cap, limit)
    k_max = max(int(math.floor(cap / dr)), 2)
    r = np.arange(k_max + 1) * dr
    return HyperboloidSlice(s=s, n=n, r=r)


# ---------------------------------------------------------------------------
# Slice samples


@dataclass
class SliceData:
    """A mode field on a hyperboloid: samples[(a, b)] is d_t^a d_r^b u at
    the slice nodes slc.r; `deriv` closes a >= 2 through the PDE."""

    slc: HyperboloidSlice
    lam: float
    samples: dict

    @property
    def u(self) -> np.ndarray:
        return self.samples[0, 0]

    @property
    def ut(self) -> np.ndarray:
        return self.samples[1, 0]

    @property
    def ur(self) -> np.ndarray:
        return self.samples[0, 1]

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

    def deriv(self, a: int, b: int) -> np.ndarray:
        """d_t^a d_r^b u: a sample, or for a >= 2 d_r^b of the radial
        Klein-Gordon equation d_t^2 X = X_rr + (n-1)/r X_r - lam X at
        X = d_t^{a-2} u, with d_r^b((n-1)/r X_r) =
        (n-1) sum_j C(b,j) (-1)^j j! r^-(j+1) d_r^(b+1-j) X."""
        if (a, b) in self.samples:
            return self.samples[a, b]
        if a < 2:
            raise WindowError(
                f"derivative d_t^{a} d_r^{b} not available from the captured samples")
        x = {k: self.deriv(a - 2, k) for k in range(min(b, 1), b + 3)}
        r, nm1 = self.r[1:], self.n - 1
        acc = x[b + 2][1:]
        for j in range(b + 1):
            coeff = (-1) ** j * math.perm(b, j) * nm1
            acc = acc + coeff * x[b + 1 - j][1:] / r ** (j + 1)
        out = np.empty_like(x[b])
        out[1:] = acc - self.lam * x[b][1:]
        # the axis row: the regular limit n X_rr - lam X for b = 0, 0 for odd
        # b by even symmetry, else node 1's value (the axis has zero weight)
        out[0] = (self.n * x[2][0] - self.lam * x[0][0] if b == 0
                  else 0.0 if b % 2 else out[1])
        return out


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


# ---------------------------------------------------------------------------
# Snapshot format: text header, then row-major float64 payload


def _header(n, lam, t0, dt, dr, shape) -> bytes:
    # float(x)!r: a NumPy scalar's repr would be "np.float64(0.5)"
    return (f"{SNAPSHOT_MAGIC}\n"
            f"n={n} lam={float(lam)!r} component=minkowski\n"
            f"dt={float(dt)!r} dr={float(dr)!r} t0={float(t0)!r}\n"
            f"shape={shape[0]}x{shape[1]}\n").encode()


def _pwrite(fd: int, data, offset: int) -> None:
    """All of data's bytes at offset (os.pwrite may write fewer)."""
    view = memoryview(data)
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def _move(fd: int, src: int, dst: int, size: int) -> None:
    """Copy size bytes from offset src to offset dst of the file, in chunks,
    in the order that reads every byte before the copy overwrites it."""
    if src == dst:
        return
    starts = range(0, size, _MOVE_CHUNK)
    for start in (starts if dst < src else reversed(starts)):
        length = min(_MOVE_CHUNK, size - start)
        _pwrite(fd, os.pread(fd, length, src + start), dst + start)


class _Block:
    """The u or v rows of a snapshot file: block[k] = rows writes rows (one
    row, or consecutive rows) from row k on, at their place in the file."""

    def __init__(self, fd: int, offset: int, row_bytes: int):
        self._fd, self._offset, self._row_bytes = fd, offset, row_bytes

    def __setitem__(self, k: int, rows) -> None:
        # the array's own buffer is written: no bytes copy of the rows
        data = np.ascontiguousarray(rows, dtype="<f8").reshape(-1).view(np.uint8)
        _pwrite(self._fd, data, self._offset + k * self._row_bytes)


class SnapshotWriter:
    """A snapshot file written as its rows arrive.

    The header and block offsets are those of a `shape` = (nt, nr)
    payload.  The file is made under a temporary name beside `path`; `u`
    and `v` are its two blocks (`_Block`).  `close(rows, dt)` keeps the first
    `rows` rows of each block, rewriting the header for that count and
    dt, and renames the file to `path`.  Used as a context manager, an
    exception removes the file and a normal exit closes it at its planned
    shape and dt.
    """

    def __init__(self, path, *, n, lam, t0, dt, dr, shape):
        self.path = Path(path)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._meta = {"n": n, "lam": lam, "t0": t0, "dr": dr}
        self._dt, self._shape = dt, shape
        self._head = _header(dt=dt, shape=shape, **self._meta)
        self._fd = os.open(self._tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
        _pwrite(self._fd, self._head, 0)
        nt, nr = shape
        self.u = _Block(self._fd, len(self._head), 8 * nr)
        self.v = _Block(self._fd, len(self._head) + 8 * nt * nr, 8 * nr)

    def close(self, rows: int, dt: float) -> None:
        nt, nr = self._shape
        head = _header(dt=dt, shape=(rows, nr), **self._meta)
        block, old = 8 * rows * nr, len(self._head)
        # v next to the rows kept of u, then both behind the new header
        _move(self._fd, old + 8 * nt * nr, old + block, block)
        _move(self._fd, old, len(head), 2 * block)
        _pwrite(self._fd, head, 0)
        os.ftruncate(self._fd, len(head) + 2 * block)
        os.close(self._fd)
        self._fd = None
        os.replace(self._tmp, self.path)

    def discard(self) -> None:
        os.close(self._fd)
        self._fd = None
        self._tmp.unlink()

    def __enter__(self) -> SnapshotWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._fd is not None:
            if exc_type is None:
                self.close(self._shape[0], self._dt)
            else:
                self.discard()


def write_snapshot(path, field_: ModeField) -> None:
    with SnapshotWriter(path, n=field_.n, lam=field_.lam, t0=field_.t0, dt=field_.dt,
                        dr=field_.dr, shape=field_.u.shape) as out:
        out.u[0] = field_.u
        out.v[0] = field_.v


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


def read_snapshot(path, mmap: bool = False) -> ModeField:
    """The ModeField of a snapshot file; with mmap, u and v are read-only
    np.memmap views of the file instead of arrays read into memory."""
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
        if mmap:
            u, v = (np.memmap(path, dtype="<f8", mode="r", shape=shape,
                              offset=fh.tell() + 8 * count * i) for i in (0, 1))
        else:
            u = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape).copy()
            v = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape).copy()
    return ModeField(lam=meta["lam"], n=meta["n"], t0=grid["t0"], dt=grid["dt"],
                     dr=grid["dr"], u=u, v=v)
