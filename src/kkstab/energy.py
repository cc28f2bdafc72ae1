"""Hyperboloidal energies, the energy identity, and estimate verification.

All quantities live on radially sampled hyperboloid slices (SliceData).
Generator words over {T, Xr, Z0r} act through the exact expansion of
`geometry._word_terms`, evaluated here with the slice's derivative closure,
so boosted energies need no extra stored history.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .evolve import (inverse_metric_components, inverse_metric_derivative,
                     quasilinear_coefficients)
from .fields import SliceData
from .geometry import _eval_terms, _word_terms, _words_upto

REPORT_MAGIC = "kkstab-report v1"

#: Component weights of the Euclidean norm for the (h_00, h_0r, h_rr)
#: surrogate stack: the off-diagonal component appears twice in |h|_E^2.
E_WEIGHTS = (1.0, 2.0, 1.0)

#: Smallness threshold on sup t|gamma|_E below which the 2-sided energy
#: equivalence is asserted rather than merely reported.
SMALLNESS_EPS = 0.05


class InsufficientSpanError(ValueError):
    """Decay fit asked for with too few samples or too little dynamic range."""


class SupportClassError(ValueError):
    """Field is neither compactly supported nor tail-decay compliant."""


@dataclass(frozen=True)
class SobolevParams:
    """Dimension-derived exponents used throughout the estimate suite."""

    n: int
    d: int
    d_tilde: int
    nu_tilde: int
    beta: float
    n_big: int

    @classmethod
    def from_dims(cls, n: int, d: int) -> "SobolevParams":
        d_tilde = d // 2 + 1
        if d_tilde % 2:
            d_tilde += 1
        nu_tilde = math.floor(n / 2 + d_tilde) + 1
        beta = (n - 2) / 4.0
        n_big = math.floor((n + d + 8) / 2) + 1
        if n_big % 2:
            n_big += 1
        return cls(n=n, d=d, d_tilde=d_tilde, nu_tilde=nu_tilde, beta=beta,
                   n_big=n_big)

    @property
    def integrable(self) -> bool:
        """beta > 3/2, equivalent to n > 8."""
        return self.beta > 1.5


# ---------------------------------------------------------------------------
# The basic energy


def def_integrand(data: SliceData, gamma: dict | None = None) -> np.ndarray:
    """Energy density on the slice: (s/t)^2 u_t^2 + |Yu|^2 + lam u^2 + gamma terms."""
    t, r = data.t, data.r
    ut, ur, u = data.ut, data.ur, data.u
    yu = ur + (r / t) * ut
    out = (data.s / t) ** 2 * ut ** 2 + yu ** 2 + data.lam * u ** 2
    if gamma:
        g00 = gamma.get("00", 0.0)
        g0r = gamma.get("0r", 0.0)
        grr = gamma.get("rr", 0.0)
        out = out - 2.0 * ((g00 * ut + g0r * ur)
                           - (r / t) * (g0r * ut + grr * ur)) * ut
        out = out + g00 * ut ** 2 + 2.0 * g0r * ut * ur + grr * ur ** 2
    return out


def hyperboloidal_energy(data: SliceData, gamma: dict | None = None) -> float:
    return data.slc.integrate(def_integrand(data, gamma))


# ---------------------------------------------------------------------------
# Generator words on slices (exact integer coefficient expansion)


def word_apply(data: SliceData, word) -> np.ndarray:
    """Z^word u sampled on the slice."""
    return _eval_terms(data.t, data.r, data.deriv, _word_terms(tuple(word)))


def word_energy(data: SliceData, word) -> float:
    """E[0; Z^word u; s] via the derivative closure."""
    terms = _word_terms(tuple(word))
    if not terms:
        return 0.0
    t, r = data.t, data.r
    w = _eval_terms(t, r, data.deriv, terms)
    wt = _eval_terms(t, r, data.deriv, _word_terms(("T",) + tuple(word)))
    wr = _eval_terms(t, r, data.deriv, _word_terms(("Xr",) + tuple(word)))
    yw = wr + (r / t) * wt
    dens = (data.s / t) ** 2 * wt ** 2 + yw ** 2 + data.lam * w ** 2
    return data.slc.integrate(dens)


def boosted_energy(data: SliceData, k: int) -> float:
    """E_k(s) = sum over |I| + 2j <= k-1 of lam^{2j} E[0; Z^I u; s], k <= 4.

    The internal Laplacian power enters as the eigenvalue weight and counts
    two derivative units per application.
    """
    if not 1 <= k <= 4:
        raise ValueError("boosted energy implemented for 1 <= k <= 4")
    total = 0.0
    for j in range((k - 1) // 2 + 1):
        weight = data.lam ** (2 * j)
        if weight == 0.0 and j > 0:
            continue
        for word in _words_upto(k - 1 - 2 * j):
            total += weight * word_energy(data, word)
    return total


# ---------------------------------------------------------------------------
# Gamma blocks and the energy identity


@dataclass
class GammaBlock:
    """Contravariant perturbation gamma^{ab} on a slice, radially reduced.

    gamma^{00} = c00, gamma^{0i} = c0r x^i/r, gamma^{ij} = crr x^i x^j / r^2.
    Time and radial derivatives are stored for the identity's flux terms.
    """

    c00: np.ndarray
    c0r: np.ndarray
    crr: np.ndarray
    dt00: np.ndarray
    dt0r: np.ndarray
    dtrr: np.ndarray
    dr0r: np.ndarray
    drrr: np.ndarray

    @classmethod
    def zero(cls, shape) -> "GammaBlock":
        z = np.zeros(shape)
        return cls(*(z.copy() for _ in range(8)))

    def as_dict(self) -> dict:
        return {"00": self.c00, "0r": self.c0r, "rr": self.crr}

    def euclidean_norm(self) -> np.ndarray:
        return np.sqrt(self.c00 ** 2 + 2.0 * self.c0r ** 2 + self.crr ** 2)


def quasilinear_gamma(comp_slices: list, eps: float) -> GammaBlock:
    """Gamma block H = (eta+h)^{-1} - eta^{-1} (2nd order) from h = eps u.

    comp_slices: the three component SliceData (h_00, h_0r, h_rr) on one
    slice.  H and its derivatives are the component formulas of
    `evolve.inverse_metric_components` and `evolve.inverse_metric_derivative`,
    the latter fed the sampled first derivatives of u.
    """
    h = [eps * c.u for c in comp_slices]
    c00, c0r, crr = inverse_metric_components(h)
    dt00, dt0r, dtrr = inverse_metric_derivative(
        h, [eps * c.ut for c in comp_slices])
    _, dr0r, drrr = inverse_metric_derivative(
        h, [eps * c.ur for c in comp_slices])
    return GammaBlock(c00=c00, c0r=c0r, crr=crr, dt00=dt00, dt0r=dt0r,
                      dtrr=dtrr, dr0r=dr0r, drrr=drrr)


def quasilinear_source(comp_slices: list, eps: float) -> np.ndarray:
    """F = eps Q per component, recomputed from slice samples, shape (3, m)."""
    u3 = np.stack([c.u for c in comp_slices])
    v3 = np.stack([c.ut for c in comp_slices])
    ur3 = np.stack([c.ur for c in comp_slices])
    _, q3 = quasilinear_coefficients(u3, v3, ur3, eps)
    return eps * q3


def _gamma_flux_density(data: SliceData, gamma: GammaBlock, n: int) -> np.ndarray:
    """Integrand of the identity's gamma line (before the s/t weight).

    -2 (d_a gamma^{ab}) <d_b u, d_t u> + (d_t gamma^{ab}) <d_a u, d_b u>,
    with the Cartesian divergence of the radially reduced block.
    """
    r = data.r
    safe_r = np.where(r > 0, r, 1.0)
    div0 = gamma.dt00 + gamma.dr0r + (n - 1) * gamma.c0r / safe_r
    divr = gamma.dt0r + gamma.drrr + (n - 1) * gamma.crr / safe_r
    div0 = np.where(r > 0, div0, 0.0)
    divr = np.where(r > 0, divr, 0.0)
    ut, ur = data.ut, data.ur
    flux = -2.0 * (div0 * ut + divr * ur) * ut
    flux = flux + (gamma.dt00 * ut ** 2 + 2.0 * gamma.dt0r * ut * ur
                   + gamma.dtrr * ur ** 2)
    return flux


def energy_identity_residual(slices: dict, s1: float, s2: float,
                             gamma_at=None, f_at=None, n: int | None = None) -> dict:
    """Check E[g;u;s1] = E[g;u;s2] + flux integrals between s1 and s2.

    slices: {s: SliceData or list of component SliceData}; gamma_at(s, data)
    -> GammaBlock or None; f_at(s, data) -> source array aligned with u (the
    F of the wave operator convention (eta+gamma)^{ab} d_a d_b u - lam u = F).
    Returns a dict with the relative residual and the pieces.
    """
    ss = sorted(s for s in slices if s1 - 1e-12 <= s <= s2 + 1e-12)
    if len(ss) < 2 or abs(ss[0] - s1) > 1e-9 or abs(ss[-1] - s2) > 1e-9:
        raise ValueError("need sampled slices covering [s1, s2] inclusive")

    def components(s):
        entry = slices[s]
        return entry if isinstance(entry, (list, tuple)) else [entry]

    weights = E_WEIGHTS if len(components(ss[0])) == 3 else (1.0,)
    if n is None:
        n = components(ss[0])[0].n

    def total_energy(s):
        comps = components(s)
        gamma = gamma_at(s, comps) if gamma_at else None
        gd = gamma.as_dict() if gamma is not None else None
        return sum(w * hyperboloidal_energy(c, gd)
                   for w, c in zip(weights, comps))

    def flux(s):
        comps = components(s)
        gamma = gamma_at(s, comps) if gamma_at else None
        fsrc = f_at(s, comps) if f_at else None
        slc = comps[0].slc
        st = s / comps[0].t
        total = 0.0
        for i, (w, c) in enumerate(zip(weights, comps)):
            dens = np.zeros_like(c.u)
            if fsrc is not None:
                fi = fsrc[i] if np.ndim(fsrc) > 1 else fsrc
                dens = dens + (-2.0) * fi * c.ut
            if gamma is not None:
                dens = dens + _gamma_flux_density(c, gamma, n)
            total += w * slc.integrate(dens * st)
        return total

    e1, e2 = total_energy(s1), total_energy(s2)
    fluxes = np.array([flux(s) for s in ss])
    integral = float(np.trapezoid(fluxes, ss))
    scale = max(abs(e1), abs(e2), 1e-300)
    residual = abs(e1 - (e2 + integral)) / scale
    return {"s1": s1, "s2": s2, "E1": e1, "E2": e2, "flux_integral": integral,
            "residual": residual}


# ---------------------------------------------------------------------------
# Energy equivalence


@dataclass
class EquivalenceResult:
    ratio: float
    sup_t_gamma: float
    conclusive: bool
    within_two_sided: bool


def equivalence_check(data: SliceData, gamma: GammaBlock,
                      eps_n: float = SMALLNESS_EPS) -> EquivalenceResult:
    """Ratio E[0]/E[gamma] with the smallness hypothesis sup t|gamma|_E."""
    e0 = hyperboloidal_energy(data)
    eg = hyperboloidal_energy(data, gamma.as_dict())
    ratio = e0 / eg if eg != 0 else np.inf
    sup_tg = float(np.max(data.t * gamma.euclidean_norm()))
    return EquivalenceResult(ratio=float(ratio), sup_t_gamma=sup_tg,
                             conclusive=sup_tg <= eps_n,
                             within_two_sided=0.5 <= ratio <= 2.0)


# ---------------------------------------------------------------------------
# Estimate suite


@dataclass
class EstimateRow:
    name: str
    s: float
    dr: float
    lhs: float
    rhs: float
    c_measured: float
    support_class: str
    skipped: bool = False


def _classify_support(data: SliceData, n: int) -> str:
    amp = np.abs(data.u)
    scale = amp.max()
    if scale == 0.0:
        return "zero"
    edge = amp[-3:].max()
    if edge <= 1e-10 * scale:
        return "compact"
    # tail-decay hypothesis: |u| <~ r^{-(n-1)/2} on the outer quarter
    m = len(amp)
    sel = slice(3 * m // 4, m)
    rr, aa = data.r[sel], amp[sel]
    good = aa > 0
    if good.sum() < 5:
        return "compact"
    slope = np.polyfit(np.log(rr[good]), np.log(aa[good]), 1)[0]
    if slope <= -(n - 1) / 2.0 + 0.5:
        return "tail"
    raise SupportClassError(
        f"field neither compactly supported nor tail-decaying "
        f"(outer slope {slope:.2f})"
    )


def estimate_suite(slices: dict, params: SobolevParams, order: int = 2,
                   dr_label: float | None = None) -> list[EstimateRow]:
    """Measured constants of the Hardy, Sobolev and distributed estimates.

    slices: {s: SliceData}.  Commutation is capped at `order` (<= 2): the
    suite verifies inequality shape and constant stability, not the
    full-order statements.
    """
    if order > 2:
        raise ValueError("commutation order capped at 2")
    n = params.n
    rows = []
    words = _words_upto(order, alphabet=("Z0r",))
    for s in sorted(slices):
        data = slices[s]
        dr = dr_label if dr_label is not None else float(data.r[1] - data.r[0])
        if np.max(np.abs(data.u)) == 0.0:
            for name in ("hardy", "sobolev-sup-t", "sobolev-sup-s", "l2-distributed"):
                rows.append(EstimateRow(name, s, dr, 0.0, 0.0, 0.0, "zero", True))
            continue
        support = _classify_support(data, n)
        slc, t, r = data.slc, data.t, data.r

        # Hardy: ||r^{-1} u|| <= C ||Y u||
        safe_r = np.where(r > 0, r, 1.0)
        inv_r_u = np.where(r > 0, data.u / safe_r, 0.0)
        lhs = math.sqrt(slc.integrate(inv_r_u ** 2))
        yu = data.ur + (r / t) * data.ut
        rhs = math.sqrt(slc.integrate(yu ** 2))
        rows.append(EstimateRow("hardy", s, dr, lhs, rhs,
                                lhs / rhs if rhs else np.inf, support))

        # Sobolev sup estimates: sup weight^2 |u|^2 <= C sum E[0; Z^I u]
        rhs_e = sum(word_energy(data, w) for w in words)
        if data.lam:
            rhs_e += data.lam ** 2 * word_energy(data, ())
        sup_t = float(np.max(t ** n * data.u ** 2))
        rows.append(EstimateRow("sobolev-sup-t", s, dr, sup_t, rhs_e,
                                sup_t / rhs_e if rhs_e else np.inf, support))
        sup_s = float(s ** (4 * params.beta) * np.max(data.u ** 2))
        rows.append(EstimateRow("sobolev-sup-s", s, dr, sup_s, rhs_e,
                                sup_s / rhs_e if rhs_e else np.inf, support))

        # distributed derivative: ||t^{-1} Z^I u|| <= C sum E^{1/2}
        lhs_d = max(math.sqrt(slc.integrate((word_apply(data, w) / t) ** 2))
                    for w in words)
        rhs_d = sum(math.sqrt(max(word_energy(data, w), 0.0)) for w in words)
        rows.append(EstimateRow("l2-distributed", s, dr, lhs_d, rhs_d,
                                lhs_d / rhs_d if rhs_d else np.inf, support))
    return rows


# ---------------------------------------------------------------------------
# Decay fits


@dataclass
class DecayFit:
    exponent: float
    ci_low: float
    ci_high: float
    n_samples: int
    span: float


def decay_fit(x, y, window=None, bootstrap: int = 200, seed: int = 0) -> DecayFit:
    """Least-squares slope of log y vs log x with a residual-bootstrap CI.

    Requires >= 10 samples spanning a factor >= 4 in x.  Zero or negative
    samples of y are dropped (oscillation nodes of envelopes).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if window is not None:
        lo, hi = window
        keep = (x >= lo) & (x <= hi)
        x, y = x[keep], y[keep]
    keep = y > 0
    x, y = x[keep], y[keep]
    if len(x) < 10:
        raise InsufficientSpanError(f"need >= 10 positive samples, got {len(x)}")
    span = x.max() / x.min()
    if span < 4.0:
        raise InsufficientSpanError(f"abscissa span {span:.2f} < 4")
    lx, ly = np.log(x), np.log(y)
    coef = np.polyfit(lx, ly, 1)
    fitted = np.polyval(coef, lx)
    resid = ly - fitted
    rng = np.random.default_rng(seed)
    slopes = np.empty(bootstrap)
    for i in range(bootstrap):
        perturbed = fitted + rng.choice(resid, size=len(resid), replace=True)
        slopes[i] = np.polyfit(lx, perturbed, 1)[0]
    lo_q, hi_q = np.quantile(slopes, [0.025, 0.975])
    return DecayFit(exponent=float(coef[0]), ci_low=float(lo_q),
                    ci_high=float(hi_q), n_samples=len(x), span=float(span))


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


# ---------------------------------------------------------------------------
# Reports


@dataclass
class EnergyReport:
    """Energies, boosted energies and estimate tables of one run.

    energies: {s: E[0; u; s]}; boosted: {s: {k: E_k(s)}} (`boosted_energy`).
    """

    s_grid: list = field(default_factory=list)
    energies: dict = field(default_factory=dict)
    boosted: dict = field(default_factory=dict)
    estimate_rows: list = field(default_factory=list)
    notes: list = field(default_factory=lambda: [
        "commuted estimate verification capped at order 2; the suite checks "
        "inequality shape and constant stability, not full-order statements",
    ])


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return _jsonable(asdict(obj))
    return obj


def write_report(path, report: EnergyReport) -> None:
    """Serialize as versioned structured text (JSON body under a magic line)."""
    body = json.dumps(_jsonable(report), sort_keys=True, indent=1)
    with open(path, "w") as fh:
        fh.write(REPORT_MAGIC + "\n")
        fh.write(body + "\n")


def write_estimate_csv(path, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write("name,s,dr,lhs,rhs,c_measured,support_class,skipped\n")
        for row in rows:
            fh.write(f"{row.name},{row.s:.17g},{row.dr:.17g},{row.lhs:.17g},"
                     f"{row.rhs:.17g},{row.c_measured:.17g},"
                     f"{row.support_class},{int(row.skipped)}\n")
