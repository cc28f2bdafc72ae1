"""Spectral model of the compact internal manifold.

The evolution depends on the internal space only through the spectrum of the
tensor operator -Lap - 2 R(.) acting on symmetric 2-tensors.  Flat tori carry
that spectrum exactly (Riem = 0, componentwise Fourier Laplacian); anything
curved enters through a user-supplied eigenvalue list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Absolute float guard on the stability threshold; spectra here are exact
#: or file-supplied, so this only protects against round-off.
STABILITY_TOL = 1e-10

TWO_PI = 2.0 * math.pi


class SpectrumFileError(ValueError):
    """Malformed internal-spectrum file (message carries the line number)."""


@dataclass(frozen=True)
class FlatTorus:
    """Flat d-torus with the given periods; Riem = 0 so the operator is -Lap."""

    periods: tuple[float, ...]

    def __post_init__(self):
        if not self.periods or any(not 0 < L < math.inf for L in self.periods):
            raise ValueError(f"torus periods must be positive and finite: {self.periods}")
        object.__setattr__(self, "periods", tuple(float(L) for L in self.periods))

    @property
    def d(self) -> int:
        return len(self.periods)


@dataclass(frozen=True)
class SpectralData:
    """Abstract internal space given by its eigenvalue list.

    Each entry is (eigenvalue, multiplicity); eigentensor structure is opaque.
    """

    modes: tuple[tuple[float, int], ...]
    d: int

    def __post_init__(self):
        modes = tuple(sorted((float(l), int(m)) for l, m in self.modes))
        if any(m <= 0 for _, m in modes):
            raise ValueError("mode multiplicities must be positive")
        if self.d <= 0:
            raise ValueError(f"internal dimension d={self.d} must be positive")
        object.__setattr__(self, "modes", modes)


def tensor_multiplicity(d: int) -> int:
    """Components of a symmetric 2-tensor on a d-dimensional space."""
    return d * (d + 1) // 2


def lichnerowicz_spectrum(model: FlatTorus, cutoff: float) -> SpectralData:
    """Eigenvalues of -Lap - 2 R(.) up to the cutoff.

    Flat torus: lambda = 4 pi^2 |k/L|^2, |k/L|^2 = sum_j (k_j / L_j)^2 over
    k in Z^d, each wavevector carrying tensor multiplicity d(d+1)/2.
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    tmult = tensor_multiplicity(model.d)
    k_bounds = [int(math.floor(math.sqrt(cutoff) * L / TWO_PI)) for L in model.periods]
    # |k/L|^2 over the whole lattice, flattened in C order (k_1 slowest); the
    # axis terms are added left to right, as a sum over j adds them, so each
    # norm has the bits of that sum
    q = np.zeros(())
    for b, L in zip(k_bounds, model.periods):
        q = np.add.outer(q, [(kj / L) ** 2 for kj in range(-b, b + 1)])
    q = q[TWO_PI ** 2 * q <= cutoff + 1e-12]
    # bucket on |k/L|^2, before the 4 pi^2 factor: the sum is exact on unit
    # and power-of-two periods, so equal lattice norms share one key; the
    # rounding absorbs last-bit differences for other periods.  A bucket's
    # eigenvalue comes from its first wavevector in lattice order.
    norms, first, counts = np.unique(q, return_index=True, return_counts=True)
    buckets: dict[float, tuple[int, int]] = {}
    for norm, i, c in zip(norms.tolist(), first.tolist(), counts.tolist()):
        key = round(norm, 9)
        i0, c0 = buckets.get(key, (i, 0))
        buckets[key] = (min(i0, i), c0 + c)
    return SpectralData(
        modes=tuple((TWO_PI ** 2 * float(q[i]), c * tmult) for i, c in buckets.values()),
        d=model.d)


def is_linearly_stable(model: FlatTorus | SpectralData) -> tuple[bool, float]:
    """Stability certificate: lowest eigenvalue of the tensor operator >= 0.

    A flat torus is always stable with lam_min = 0 (constant tensors are
    harmonic); SpectralData is judged from its supplied list.
    """
    if isinstance(model, FlatTorus):
        return True, 0.0
    lam_min = min(l for l, _ in model.modes)
    return lam_min >= -STABILITY_TOL, lam_min


# ---------------------------------------------------------------------------
# Spectrum files: `internal-spectrum v1 d=<d>` header, `lambda mult [label]` rows


def parse_spectrum_file(path) -> SpectralData:
    """Strict parser for the internal-spectrum text format.

    Malformed lines raise SpectrumFileError with a 1-based line number, and
    a path that cannot be read as UTF-8 text one that names the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise SpectrumFileError(f"spectrum file {str(path)!r}: {reason}") from exc
    header_seen = False
    d = None
    modes: list[tuple[float, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "internal-spectrum" or parts[1] != "v1":
                raise SpectrumFileError(f"line {lineno}: expected header 'internal-spectrum v1 d=<d>'")
            if not parts[2].startswith("d="):
                raise SpectrumFileError(f"line {lineno}: missing d=<d> in header")
            try:
                d = int(parts[2][2:])
            except ValueError as exc:
                raise SpectrumFileError(f"line {lineno}: bad dimension {parts[2]!r}") from exc
            header_seen = True
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise SpectrumFileError(f"line {lineno}: expected 'lambda multiplicity [label]'")
        try:
            lam = float(parts[0])
        except ValueError as exc:
            raise SpectrumFileError(f"line {lineno}: bad eigenvalue {parts[0]!r}") from exc
        if not math.isfinite(lam):
            raise SpectrumFileError(f"line {lineno}: eigenvalue {parts[0]!r} is not finite")
        try:
            mult = int(parts[1])
        except ValueError as exc:
            raise SpectrumFileError(f"line {lineno}: bad multiplicity {parts[1]!r}") from exc
        if mult <= 0:
            raise SpectrumFileError(f"line {lineno}: multiplicity must be positive")
        modes.append((lam, mult))
    if not header_seen:
        raise SpectrumFileError("line 1: missing 'internal-spectrum v1' header")
    if not modes:
        raise SpectrumFileError(f"line {len(lines)}: no modes listed")
    return SpectralData(modes=tuple(modes), d=d)


def write_spectrum_file(path, data: SpectralData) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"internal-spectrum v1 d={data.d}\n")
        for lam, mult in data.modes:
            fh.write(f"{lam:.12e} {mult}\n")
