"""Hyperboloidal energies, the energy identity, and estimate verification.

All quantities live on radially sampled hyperboloid slices (SliceData).
Generator words over {T, Xr, Z0r} act through their exact integer
expansion (`_word_terms`), evaluated with the slice's derivative closure,
so boosted energies need no extra stored history.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .evolve import (E_WEIGHTS, inverse_metric_components,
                     inverse_metric_derivative, q_nonlinearity)
from .fields import SliceData


class InsufficientSpanError(ValueError):
    """Decay fit asked for with too few samples or too little dynamic range."""


class SupportClassError(ValueError):
    """Field is neither compactly supported nor tail-decay compliant."""

# ---------------------------------------------------------------------------
# The basic energy


def def_integrand(data: SliceData, gamma: GammaBlock | None = None) -> np.ndarray:
    """Energy density on the slice: (s/t)^2 u_t^2 + |Yu|^2 + lam u^2 + gamma terms."""
    t, r = data.t, data.r
    ut, ur, u = data.ut, data.ur, data.u
    yu = ur + (r / t) * ut
    out = (data.s / t) ** 2 * ut ** 2 + yu ** 2 + data.lam * u ** 2
    if gamma is not None:
        g00, g0r, grr = gamma.H
        out = out - 2.0 * ((g00 * ut + g0r * ur)
                           - (r / t) * (g0r * ut + grr * ur)) * ut
        out = out + g00 * ut ** 2 + 2.0 * g0r * ut * ur + grr * ur ** 2
    return out


def hyperboloidal_energy(data: SliceData, gamma: GammaBlock | None = None) -> float:
    return data.slc.integrate(def_integrand(data, gamma))


# ---------------------------------------------------------------------------
# Generator words on slices (exact integer coefficient expansion)


# Each radial generator as a sum of t^i r^j d_axis pieces (i, j, axis), with
# axis 0 for d_t and 1 for d_r: Z0r = t d_r + r d_t.
_GENERATORS = {"T": ((0, 0, 0),), "Xr": ((0, 0, 1),),
               "Z0r": ((1, 0, 1), (0, 1, 0))}


@functools.lru_cache(maxsize=None)
def _word_terms(word: tuple) -> tuple:
    """Expand Z^word u into ((a, b), ((i, j, c), ...)) terms.

    The coefficient of d_t^a d_r^b u is the sum of c t^i r^j over the listed
    monomials.  The generators act right to left by the product rule on
    integer polynomials, so the expansion is exact; "rotation" annihilates
    radial fields and gives the empty expansion.
    """
    terms = {(0, 0): Counter({(0, 0): 1})}
    for kind in reversed(word):
        if kind == "rotation":
            return ()
        if kind not in _GENERATORS:
            raise ValueError(f"unknown generator {kind!r}")
        new = defaultdict(Counter)
        for (a, b), poly in terms.items():
            for p, q, axis in _GENERATORS[kind]:
                for (i, j), c in poly.items():
                    # t^p r^q d_axis (C d_t^a d_r^b u), C = c t^i r^j
                    new[a + 1 - axis, b + axis][i + p, j + q] += c
                    k = (i, j)[axis]
                    if k:
                        new[a, b][i + p - 1 + axis, j + q - axis] += k * c
        terms = new
    return tuple(sorted(
        (key, tuple(sorted((i, j, c) for (i, j), c in poly.items() if c)))
        for key, poly in terms.items() if any(poly.values())))


def _words_upto(length: int, alphabet=("T", "Xr", "Z0r")):
    words = [()]
    horizon = [()]
    for _ in range(length):
        horizon = [w + (a,) for w in horizon for a in alphabet]
        words.extend(horizon)
    return words


def word_apply(data: SliceData, word) -> np.ndarray:
    """Z^word u sampled on the slice: the sum of coefficient(t, r) *
    d_t^a d_r^b u over the word's expanded terms."""
    t, r = data.t, data.r
    out = np.zeros_like(t)
    for (a, b), monomials in _word_terms(tuple(word)):
        # c * r**j * t**i left to right, as the tests' lambdified symbolic
        # coefficients evaluate it (a zero power is an exact factor 1.0)
        coeff = sum(c * r ** j * t ** i for i, j, c in monomials)
        out = out + coeff * data.deriv(a, b)
    return out


def word_energy(data: SliceData, word) -> float:
    """E[0; Z^word u; s]: the `def_integrand` of Z^word u, T Z^word u and
    Xr Z^word u, from the derivative closure."""
    word = tuple(word)
    if not _word_terms(word):
        return 0.0
    w, wt, wr = (word_apply(data, g + word) for g in ((), ("T",), ("Xr",)))
    samples = {(0, 0): w, (1, 0): wt, (0, 1): wr}
    return data.slc.integrate(def_integrand(SliceData(data.slc, data.lam, samples)))


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

    H = (gamma^00, gamma^0r, gamma^rr) as (3, m) rows, with gamma^{0i} =
    gamma^0r x^i/r and gamma^{ij} = gamma^rr x^i x^j / r^2; dH_t and dH_r
    are their time and radial derivatives, for the identity's flux terms.
    """

    H: np.ndarray
    dH_t: np.ndarray
    dH_r: np.ndarray

    def euclidean_norm(self) -> np.ndarray:
        return np.sqrt(self.H[0] ** 2 + 2.0 * self.H[1] ** 2 + self.H[2] ** 2)


def quasilinear_gamma(comp_slices: list, eps: float) -> GammaBlock:
    """Gamma block H = (eta+h)^{-1} - eta^{-1} (2nd order) from h = eps u.

    comp_slices: the three component SliceData (h_00, h_0r, h_rr) on one
    slice.  H and its derivatives are the component formulas of
    `evolve.inverse_metric_components` and `evolve.inverse_metric_derivative`,
    the latter fed the sampled first derivatives of u.
    """
    h = [eps * c.u for c in comp_slices]
    dh_t, dh_r = ([eps * getattr(c, f) for c in comp_slices] for f in ("ut", "ur"))
    return GammaBlock(np.stack(inverse_metric_components(h)),
                      np.stack(inverse_metric_derivative(h, dh_t)),
                      np.stack(inverse_metric_derivative(h, dh_r)))


def quasilinear_source(comp_slices: list, eps: float) -> np.ndarray:
    """F = eps Q per component, recomputed from slice samples, shape (3, m)."""
    h = [eps * c.u for c in comp_slices]
    dh_t = [eps * c.ut for c in comp_slices]
    dh_r = [eps * c.ur for c in comp_slices]
    return eps * q_nonlinearity(h, dh_t, dh_r)


def _gamma_flux_density(data: SliceData, gamma: GammaBlock, n: int) -> np.ndarray:
    """Integrand of the identity's gamma line (before the s/t weight).

    -2 (d_a gamma^{ab}) <d_b u, d_t u> + (d_t gamma^{ab}) <d_a u, d_b u>,
    with the Cartesian divergence of the radially reduced block.
    """
    r = data.r
    safe_r = np.where(r > 0, r, 1.0)
    div0, divr = np.where(r > 0, gamma.dH_t[:2] + gamma.dH_r[1:]
                          + (n - 1) * gamma.H[1:] / safe_r, 0.0)
    ut, ur = data.ut, data.ur
    flux = -2.0 * (div0 * ut + divr * ur) * ut
    dt00, dt0r, dtrr = gamma.dH_t
    return flux + (dt00 * ut ** 2 + 2.0 * dt0r * ut * ur + dtrr * ur ** 2)


def energy_identity_residual(slices: dict, s1: float, s2: float,
                             gamma_at=None, f_at=None, n: int | None = None) -> dict:
    """Check E[g;u;s2] = E[g;u;s1] + the flux integral from s1 to s2.

    The flux density, -2 F u_t - 2 (d_a gamma^{ab}) d_b u u_t
    + (d_t gamma^{bc}) d_b u d_c u times s/t, is the divergence d_a J^a of
    the current whose flux through H_s is `def_integrand`; Stokes' theorem
    with dt dx = (s/t) ds dx makes its integral the growth of the energy.
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

    gammas = {s: gamma_at(s, components(s)) if gamma_at else None for s in ss}

    def total_energy(s):
        return sum(w * hyperboloidal_energy(c, gammas[s])
                   for w, c in zip(weights, components(s)))

    def flux(s):
        comps, gamma = components(s), gammas[s]
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
    residual = abs(e2 - (e1 + integral)) / scale
    return {"s1": s1, "s2": s2, "E1": e1, "E2": e2, "flux_integral": integral,
            "residual": residual}


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
    """Support class, "compact" or "tail", of a field that is not
    identically 0 on its slice (estimate_suite writes a zero field's rows)."""
    amp = np.abs(data.u)
    if amp[-3:].max() <= 1e-10 * amp.max():
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


def estimate_suite(slices: dict, n: int) -> list[EstimateRow]:
    """Measured constants of the Hardy, Sobolev and distributed estimates.

    slices: {s: SliceData} in R^{1+n}; each row's dr is its slice's spacing.
    Commutation is capped at order 2: the suite verifies inequality shape
    and constant stability, not the full-order statements.
    """
    beta = (n - 2) / 4.0
    rows = []
    words = _words_upto(2, alphabet=("Z0r",))
    for s in sorted(slices):
        data = slices[s]
        dr = float(data.r[1] - data.r[0])
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
        sup_s = float(s ** (4 * beta) * np.max(data.u ** 2))
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


#: Resamples and generator seed of `decay_fit`'s residual bootstrap.
FIT_BOOTSTRAP, FIT_SEED = 200, 0


def decay_fit(x, y) -> DecayFit:
    """Least-squares slope of log y vs log x with a residual-bootstrap CI.

    Requires >= 10 samples spanning a factor >= 4 in x.  Zero or negative
    samples of y are dropped (oscillation nodes of envelopes).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
    rng = np.random.default_rng(FIT_SEED)
    slopes = np.empty(FIT_BOOTSTRAP)
    for i in range(FIT_BOOTSTRAP):
        perturbed = fitted + rng.choice(resid, size=len(resid), replace=True)
        slopes[i] = np.polyfit(lx, perturbed, 1)[0]
    lo_q, hi_q = np.quantile(slopes, [0.025, 0.975])
    return DecayFit(exponent=float(coef[0]), ci_low=float(lo_q), ci_high=float(hi_q))
