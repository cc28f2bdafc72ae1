"""Spectral model of the compact internal manifold.

The evolution depends on the internal space only through the spectrum of the
tensor operator -Lap - 2 R(.) acting on symmetric 2-tensors.  Flat tori carry
that spectrum exactly (Riem = 0, componentwise Fourier Laplacian); anything
curved enters through a user-supplied eigenvalue list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
        if not self.periods or any(L <= 0 for L in self.periods):
            raise ValueError(f"torus periods must be positive, got {self.periods}")
        object.__setattr__(self, "periods", tuple(float(L) for L in self.periods))

    @property
    def d(self) -> int:
        return len(self.periods)

    @property
    def volume(self) -> float:
        return math.prod(self.periods)

    def lattice_norm(self, k: tuple[int, ...]) -> float:
        """|k/L|^2 = sum_j (k_j / L_j)^2; the eigenvalue is 4 pi^2 times it."""
        return sum((kj / Lj) ** 2 for kj, Lj in zip(k, self.periods))

    def eigenvalue(self, k: tuple[int, ...]) -> float:
        return sum((TWO_PI * kj / Lj) ** 2 for kj, Lj in zip(k, self.periods))


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


InternalModel = FlatTorus | SpectralData


@dataclass(frozen=True)
class SpectrumEntry:
    lam: float
    multiplicity: int
    labels: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class ModeSpectrum:
    entries: tuple[SpectrumEntry, ...]
    cutoff: float
    d: int
    has_zero_mode: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "has_zero_mode", any(abs(e.lam) <= STABILITY_TOL for e in self.entries)
        )

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([e.lam for e in self.entries])

    @property
    def lam_min(self) -> float:
        if not self.entries:
            raise ValueError("empty spectrum")
        return self.entries[0].lam

    def contains(self, lam: float, tol: float = 1e-9) -> bool:
        return any(abs(e.lam - lam) <= tol * max(1.0, abs(lam)) for e in self.entries)


def tensor_multiplicity(d: int) -> int:
    """Components of a symmetric 2-tensor on a d-dimensional space."""
    return d * (d + 1) // 2


def lichnerowicz_spectrum(
    model: InternalModel, cutoff: float, per_component: bool = False
) -> ModeSpectrum:
    """Eigenvalues of -Lap - 2 R(.) up to the cutoff.

    Flat torus: lambda = sum_j (2 pi k_j / L_j)^2 over k in Z^d, each
    wavevector carrying tensor multiplicity d(d+1)/2 unless per_component
    is set (scalar counting, used by the decomposition oracle).
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if isinstance(model, SpectralData):
        entries = tuple(
            SpectrumEntry(lam=l, multiplicity=m) for l, m in model.modes if l <= cutoff
        )
        return ModeSpectrum(entries=entries, cutoff=cutoff, d=model.d)

    tmult = 1 if per_component else tensor_multiplicity(model.d)
    k_bounds = [int(math.floor(math.sqrt(cutoff) * L / TWO_PI)) for L in model.periods]
    buckets: dict[float, list[tuple[int, ...]]] = {}
    for k in itertools.product(*(range(-b, b + 1) for b in k_bounds)):
        q = model.lattice_norm(k)
        if TWO_PI ** 2 * q <= cutoff + 1e-12:
            # bucket on |k/L|^2, before the 4 pi^2 factor: the sum is exact on
            # unit and power-of-two periods, so equal lattice norms share one
            # key; the rounding absorbs last-bit differences for other periods
            buckets.setdefault(round(q, 9), []).append(k)
    entries = tuple(
        SpectrumEntry(lam=TWO_PI ** 2 * model.lattice_norm(ks[0]),
                      multiplicity=len(ks) * tmult, labels=tuple(sorted(ks)))
        for _, ks in sorted(buckets.items())
    )
    return ModeSpectrum(entries=entries, cutoff=cutoff, d=model.d)


def is_linearly_stable(model: InternalModel) -> tuple[bool, float]:
    """Stability certificate: lowest eigenvalue of the tensor operator >= 0.

    A flat torus is always stable with lam_min = 0 (constant tensors are
    harmonic); SpectralData is judged from its supplied list.
    """
    if isinstance(model, FlatTorus):
        return True, 0.0
    lam_min = min(l for l, _ in model.modes)
    return lam_min >= -STABILITY_TOL, lam_min


# ---------------------------------------------------------------------------
# Elliptic norm equivalence on the torus


def _random_band_limited(model: FlatTorus, cutoff: float, rng, n_components: int = 1):
    """Random band-limited field as {wavevector: complex coefficient array}."""
    spec = lichnerowicz_spectrum(model, cutoff, per_component=True)
    coeffs = {}
    for entry in spec.entries:
        for k in entry.labels:
            c = rng.standard_normal(n_components) + 1j * rng.standard_normal(n_components)
            coeffs[k] = c
    return coeffs


def _mode_norms(model: FlatTorus, coeffs, ell: int):
    """(H^{2l} norm, ||Lap^l u||, ||u||) from Fourier coefficients.

    Per mode ||u_k||_{H^m}^2 = sum_{j<=m} lam_k^j |c_k|^2 with the flat-torus
    eigenvalue lam_k.
    """
    h2 = 0.0
    lap_l = 0.0
    l2 = 0.0
    for k, c in coeffs.items():
        lam = model.eigenvalue(k)
        c2 = float(np.sum(np.abs(c) ** 2))
        h2 += sum(lam ** j for j in range(2 * ell + 1)) * c2
        lap_l += lam ** (2 * ell) * c2
        l2 += c2
    return math.sqrt(h2), math.sqrt(lap_l), math.sqrt(l2)


def elliptic_equivalence_check(
    model: FlatTorus,
    ell: int,
    cutoff: float = 200.0,
    draws: int = 100,
    seed: int = 0,
) -> dict:
    """Sandwich check ||u||_{H^{2l}} ~ ||Lap^l u|| + ||u|| on random fields.

    Returns the extreme ratios over the draws; both must be finite and the
    upper one bounded (c1 = c2 = 1 works exactly on the torus up to a
    dimensional constant measured here).
    """
    if ell % 2 != 0 or ell < 0 or ell > 4:
        raise ValueError(f"ell must be an even integer in [0, 4], got {ell}")
    rng = np.random.default_rng(seed)
    ncomp = tensor_multiplicity(model.d)
    upper = 0.0
    lower = math.inf
    for _ in range(draws):
        coeffs = _random_band_limited(model, cutoff, rng, ncomp)
        h2, lap_l, l2 = _mode_norms(model, coeffs, ell)
        rhs = lap_l + l2
        if rhs == 0.0:
            continue
        ratio = h2 / rhs
        upper = max(upper, ratio)
        lower = min(lower, ratio)
    return {"max_ratio": upper, "min_ratio": lower, "draws": draws, "ell": ell}


def parseval_check(model: FlatTorus, coeffs) -> tuple[float, float]:
    """||u||_{L2}^2 from mode sums vs direct quadrature on a fine grid (d<=2)."""
    l2_modes = sum(float(np.sum(np.abs(c) ** 2)) for c in coeffs.values()) * model.volume
    if model.d > 2:
        raise ValueError("direct quadrature oracle only implemented for d <= 2")
    m = 64
    axes = [np.arange(m) * (L / m) for L in model.periods]
    grid = np.meshgrid(*axes, indexing="ij")
    total = 0.0
    ncomp = len(next(iter(coeffs.values())))
    for comp in range(ncomp):
        u = np.zeros_like(grid[0], dtype=complex)
        for k, c in coeffs.items():
            phase = sum(TWO_PI * kj / Lj * g for kj, Lj, g in zip(k, model.periods, grid))
            u += c[comp] * np.exp(1j * phase)
        total += float(np.mean(np.abs(u) ** 2)) * model.volume
    return l2_modes, total


# ---------------------------------------------------------------------------
# Spectrum files: `internal-spectrum v1 d=<d>` header, `lambda mult [label]` rows


def parse_spectrum_file(path) -> SpectralData:
    """Strict parser for the internal-spectrum text format.

    Malformed lines raise SpectrumFileError with a 1-based line number.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
