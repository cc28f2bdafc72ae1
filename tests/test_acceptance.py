"""Acceptance gate: the quantitative claims the package must reproduce.

Each test pins its tolerance explicitly.  The expensive evolutions are
module-scoped fixtures so the suite stays within its runtime budget.
"""

import time

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special

from kkstab import energy as en
from kkstab import evolve as ev
from kkstab import internal
from kkstab.energy import (
    GammaBlock,
    SobolevParams,
    decay_fit,
    envelope,
    equivalence_check,
    estimate_suite,
    hyperboloidal_energy,
)
from kkstab.evolve import EvolutionConfig, evolve_kg_radial, evolve_quasilinear_toy
from kkstab.geometry import make_slice
from kkstab.schwarzschild import (
    GeodesicState,
    HarmonicChart,
    SchwarzschildParams,
    harmonic_deviation,
    harmonic_metric,
    integrate_geodesic,
    wave_gauge_residual,
)
from oracles import constants_stable, evolve_full_grid_torus
from symbolic import scaling_family_slice


# ---------------------------------------------------------------------------
# 1. Wave decay: lam = 0, n = 9 radial pulse.  A fixed observer at radius r
#    sees its peak amplitude as the outgoing shell passes at t ~ r, and the
#    peak scales like t^{-(n-1)/2} = t^{-4.0} +- 0.3 across observers spanning
#    t in [20, 200].  Validated against an exact closed-form n = 9 solution
#    (global sup between shell passages is a dispersive lattice wake that
#    converges away under refinement; the shell peak is the physical signal).
#    Budget 2 min.


def test_wave_decay_exponent_n9():
    start = time.monotonic()
    r_obs = np.round(np.geomspace(20.0, 200.0, 12), 2)
    cfg = EvolutionConfig(n=9, dr=1 / 16, t_start=10.0, t_end=216.0,
                          r_max=220.0, monitor_every=2, store_history=False,
                          observers=tuple(r_obs), blowup_factor=1e9)
    res = evolve_kg_radial(0.0, 9, init=(_wide_pulse, lambda r: np.zeros_like(r)),
                           config=cfg)
    peaks = np.array([np.max(res.monitors[f"obs_r{r0:g}"]) for r0 in r_obs])
    fit = decay_fit(r_obs, peaks)
    assert abs(fit.exponent - (-4.0)) <= 0.3
    # compensated peaks are flat: the prefactor is a genuine constant
    comp = peaks * r_obs ** 4
    assert comp.max() / comp.min() <= 1.1
    assert time.monotonic() - start <= 120.0


# ---------------------------------------------------------------------------
# 2. Klein-Gordon decay: lam = 4 pi^2, n = 9, envelope along the t-axis falls
#    like t^{-n/2} = t^{-4.5} +- 0.5.  The fit window sits in the asymptotic
#    regime; wide Gaussian data keeps the sub-exponential transient of
#    rougher pulses out of the window.  Cross-checked against the closed-form
#    stationary-phase amplitude (an independent oracle).  Budget 2 min.


WIDE_R0 = 8.0


def _wide_pulse(r):
    out = np.zeros_like(r)
    m = r < WIDE_R0
    x = r[m] / WIDE_R0
    out[m] = np.exp(-(r[m] / 2.0) ** 2) * np.exp(1 - 1 / (1 - x ** 2))
    return out


def test_klein_gordon_envelope_exponent_n9():
    start = time.monotonic()
    lam = 4 * np.pi ** 2
    cfg = EvolutionConfig(n=9, dr=1 / 16, t_start=10.0, t_end=302.0,
                          r_max=155.0, observers=(0.0,), monitor_every=1,
                          store_history=False, blowup_factor=1e9)
    res = evolve_kg_radial(lam, 9, init=(_wide_pulse, lambda r: np.zeros_like(r)),
                           config=cfg)
    t = res.monitors["t"]
    u = np.abs(res.monitors["obs_r0"])
    et, eu = envelope(t, u)
    fit = decay_fit(et, eu, window=(70.0, 300.0))
    assert abs(fit.exponent - (-4.5)) <= 0.5

    # independent oracle: u(t,0) ~ (2 pi)^{-n} u0hat(0) (2 pi sqrt(lam)/t)^{n/2},
    # which for lam = 4 pi^2 reduces to amplitude u0hat(0) t^{-9/2}
    prof = lambda rr: np.exp(-(rr / 2.0) ** 2) * np.exp(1 - 1 / (1 - (rr / WIDE_R0) ** 2))
    I, _ = sp_integrate.quad(lambda rr: prof(rr) * rr ** 8, 0.0, WIDE_R0)
    amp = 2 * np.pi ** 4.5 / special.gamma(4.5) * I
    sel = (t >= 215.0) & (t <= 225.0)
    peak = u[sel].max()
    ratio = peak / (amp * 220.0 ** -4.5)
    assert 0.5 <= ratio <= 1.5
    assert time.monotonic() - start <= 120.0


# ---------------------------------------------------------------------------
# 3. Hyperboloidal decay: sup over Sigma_s of |u| for a linear n = 9 product
#    solution falls with exponent <= -(n-2)/2 + 0.4 = -3.1.  A massive mode
#    (lam = 4 pi^2) carries the genuine slowly decaying interior; slices are
#    truncated at r = 20 so the fit window sits past the derivative transient
#    and inside the resolved region.  Measured ~ -4.4, matching the t^{-n/2}
#    interior rate.  Budget 3 min.


def test_hyperboloidal_sup_decay_n9():
    start = time.monotonic()
    s_grid = tuple(np.round(np.geomspace(12.0, 60.0, 16), 3))
    cfg = EvolutionConfig(n=9, dr=1 / 16, t_start=10.0, t_end=66.0,
                          r_max=70.0, store_history=False, blowup_factor=1e9)
    res = evolve_kg_radial(4 * np.pi ** 2, 9,
                           init=(_wide_pulse, lambda r: np.zeros_like(r)),
                           config=cfg, slice_s=s_grid, slice_r_cap=20.0)
    sups = np.array([np.max(np.abs(res.slices[s].u)) for s in s_grid])
    fit = decay_fit(np.array(s_grid), sups)
    assert fit.exponent <= -3.1
    assert fit.ci_high <= -3.1
    assert time.monotonic() - start <= 180.0


# ---------------------------------------------------------------------------
# 4. Energy conservation: E[0; u; s] constant within 1% over s in [2, 20] for
#    a gamma = 0 linear run; within 0.25% at half grid spacing, with observed
#    convergence order >= 1.8.


def _energy_drift(dr):
    # t_start = 3 with a width-1 pulse keeps the (time-symmetric) solution
    # inside |x| <= t - 1 on every lateral boundary between Sigma_2 and
    # Sigma_20, the containment exact conservation needs
    s_grid = (2.0, 5.0, 10.0, 20.0)
    cfg = EvolutionConfig(n=3, dr=dr, t_start=3.0, t_end=105.0, r_max=110.0,
                          store_history=False, blowup_factor=1e9)
    res = evolve_kg_radial(1.0, 3,
                           init=(lambda r: ev.default_pulse(r, width=1.0),
                                 lambda r: np.zeros_like(r)),
                           config=cfg, slice_s=s_grid)
    es = np.array([hyperboloidal_energy(res.slices[s]) for s in s_grid])
    return (es.max() - es.min()) / es.max()


def test_energy_conservation_and_convergence():
    d1 = _energy_drift(1 / 128)
    d2 = _energy_drift(1 / 256)
    assert d1 <= 0.01
    assert d2 <= 0.0025
    assert np.log2(d1 / d2) >= 1.8


# ---------------------------------------------------------------------------
# 5. Energy nonnegativity: E[0; u; s] >= -1e-10 * scale over 100 random
#    field draws with eigenvalues from a stable internal model.


def test_energy_nonnegative_on_random_draws():
    torus = internal.FlatTorus(periods=(1.0, 1.0))
    spec = internal.lichnerowicz_spectrum(torus, cutoff=300.0)
    lams = [e.lam for e in spec.entries]
    stable, lam_min = internal.is_linearly_stable(torus)
    assert stable and lam_min >= 0.0

    slc = make_slice(4.0, 9, 1 / 16, r_cap=7.0)
    r = slc.r
    rng = np.random.default_rng(42)
    basis = np.stack([np.exp(-((r - c) / w) ** 2)
                      for c in (0.0, 1.0, 2.5, 4.0) for w in (0.5, 1.5)])
    dbasis = np.gradient(basis, r[1] - r[0], axis=1)
    for i in range(100):
        lam = lams[i % len(lams)]
        cu = rng.standard_normal(len(basis))
        cv = rng.standard_normal(len(basis))
        from kkstab.fields import SliceData
        data = SliceData(slc=slc, lam=lam, u=cu @ basis, ut=cv @ basis,
                         ur=cu @ dbasis)
        e = hyperboloidal_energy(data)
        scale = slc.integrate(np.abs(en.def_integrand(data)))
        assert e >= -1e-10 * scale


# ---------------------------------------------------------------------------
# 6. Equivalence window: with sup t|gamma|_E <= 1e-3 the ratio E[0]/E[gamma]
#    lies in [0.9, 1.1]; scanning upward, the ratio never leaves [1/2, 2]
#    while the smallness flag is still green.


def test_energy_equivalence_window():
    data = scaling_family_slice(6.0, 9, 1 / 32)
    shape = data.u.shape
    profile = np.exp(-data.r / 4.0)

    def gamma_of(delta):
        g = GammaBlock.zero(shape)
        g.c00 += delta * profile
        g.crr -= 0.5 * delta * profile
        return g

    unit_sup = float(np.max(data.t * gamma_of(1.0).euclidean_norm()))
    res_small = equivalence_check(data, gamma_of(1e-3 / unit_sup))
    assert res_small.sup_t_gamma <= 1e-3 + 1e-12
    assert 0.9 <= res_small.ratio <= 1.1

    for delta in np.geomspace(1e-4, 1.0, 40) / unit_sup:
        res = equivalence_check(data, gamma_of(delta))
        if res.conclusive:  # smallness flag still green
            assert res.within_two_sided


# ---------------------------------------------------------------------------
# 7. Spectrum exactness: T^2 Lichnerowicz spectrum equals 4 pi^2 (k1^2 + k2^2)
#    with multiplicities, to 1e-8, for all |k| <= 5, against an independent
#    direct-summation oracle.


def test_torus_spectrum_exact_with_multiplicities():
    torus = internal.FlatTorus(periods=(1.0, 1.0))
    kmax2 = 25  # |k|^2 <= 25
    cutoff = 4 * np.pi ** 2 * kmax2 + 1e-9
    spec = internal.lichnerowicz_spectrum(torus, cutoff=cutoff)

    # oracle: enumerate every wavevector directly and bin eigenvalues
    oracle: dict[float, int] = {}
    for k1 in range(-6, 7):
        for k2 in range(-6, 7):
            q = k1 * k1 + k2 * k2
            if q <= kmax2:
                lam = 4 * np.pi ** 2 * q
                oracle[lam] = oracle.get(lam, 0) + 3  # d(d+1)/2 = 3 per k
    got = {e.lam: e.multiplicity for e in spec.entries}
    assert len(got) == len(oracle)
    for lam_o, mult_o in sorted(oracle.items()):
        match = [lam for lam in got if abs(lam - lam_o) <= 1e-8]
        assert len(match) == 1
        assert got[match[0]] == mult_o


# ---------------------------------------------------------------------------
# 8. Estimate suite: Hardy and slice-Sobolev measured constants stable within
#    +-20% across s in {4, 8, 16} and across one resolution halving.


def test_estimate_constants_stable():
    params = SobolevParams.from_dims(9, 2)
    rows = []
    for dr in (1 / 32, 1 / 64):
        slices = {s: scaling_family_slice(s, 9, dr) for s in (4.0, 8.0, 16.0)}
        rows.extend(estimate_suite(slices, params, dr_label=dr))
    assert constants_stable(rows, "hardy", tol=0.2)
    assert constants_stable(rows, "sobolev-sup-s", tol=0.2)


# ---------------------------------------------------------------------------
# 9. Harmonic Schwarzschild: |g - eta| falls like r^{-(n-2)} = r^{-7} within
#    +-0.05 over r in [20, 200] for n = 9, C_S = 0.1; the wave-gauge residual
#    of the ODE-refined chart falls strictly faster than r^{-(n-1)} = r^{-8}.


def test_schwarzschild_deviation_and_gauge_slopes():
    params = SchwarzschildParams(n=9, cs=0.1)
    chart = HarmonicChart(params)
    radii = np.geomspace(20.0, 200.0, 10)
    dev_mag, gauge_mag = [], []
    for r in radii:
        dev = harmonic_deviation(chart, r)
        dev_mag.append(np.sqrt(dev["h00"] ** 2 + dev["tangential"] ** 2
                               + dev["radial"] ** 2))
        gauge_mag.append(np.linalg.norm(wave_gauge_residual(chart, r)))
    slope = np.polyfit(np.log(radii), np.log(dev_mag), 1)[0]
    assert abs(slope - (-7.0)) <= 0.05

    gauge_mag = np.array(gauge_mag)
    keep = gauge_mag > 0  # denormal-range values may underflow to zero
    assert keep.sum() >= 5
    vslope = np.polyfit(np.log(radii[keep]), np.log(gauge_mag[keep]), 1)[0]
    assert vslope < -8.0


# ---------------------------------------------------------------------------
# 10. Geodesic probe: outgoing radial null geodesic, n = 9, C_S = 0.05:
#     coordinate time strictly monotone, dr/dt -> 1 within 1e-3 by r = 1e3,
#     norm drift <= 1e-8 per unit affine parameter.


def test_radial_null_geodesic_probe():
    params = SchwarzschildParams(n=9, cs=0.05)
    chart = HarmonicChart(params)
    x0 = np.zeros(9)
    x0[0] = 10.0
    mp = harmonic_metric(chart, x0)
    vx = np.zeros(9)
    vx[0] = 1.0
    vt = np.sqrt(mp.g[1, 1] / -mp.g[0, 0])
    init = GeodesicState(t=50.0, x=x0, v_t=vt, v_x=vx)
    traj = integrate_geodesic(chart, init, lam_end=1500.0)

    assert np.all(np.diff(traj.t) > 0)
    r = traj.r
    drdt = np.gradient(r, traj.t)
    far = r >= 1e3
    assert far.any()
    assert np.max(np.abs(drdt[far] - 1.0)) <= 1e-3
    drift = np.max(np.abs(traj.velocity_norm()))
    assert drift / (traj.lam[-1] - traj.lam[0]) <= 1e-8


# ---------------------------------------------------------------------------
# 11. Oracle equivalence: mode-assembled linear product evolution matches the
#     tiny full-grid (r, theta) solver within 1e-6 in L-infinity over
#     t in [4, 20], for n = 3, d = 1.


def test_mode_vs_full_grid_oracle():
    torus = internal.FlatTorus(periods=(1.0,))
    m_theta = 16
    cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=20.0, r_max=24.0,
                          store_history=True, store_every=8, blowup_factor=1e9)

    prof0 = lambda r: ev.default_pulse(r)
    prof1 = lambda r: 0.5 * ev.default_pulse(r)
    u0f = lambda R, TH: prof0(R) + prof1(R) * np.cos(2 * np.pi * TH)
    v0f = lambda R, TH: np.zeros_like(R)
    ts, hist = evolve_full_grid_torus(3, torus, (u0f, v0f), cfg,
                                      m_theta=m_theta)

    lam1 = 4 * np.pi ** 2
    zero = lambda r: np.zeros_like(r)
    res0 = evolve_kg_radial(0.0, 3, init=(prof0, zero), config=cfg)
    res1 = evolve_kg_radial(lam1, 3, init=(prof1, zero), config=cfg)

    theta = np.arange(m_theta) / m_theta
    worst = 0.0
    for j, t in enumerate(ts):
        u_modes = (res0.field.u[j][None, :]
                   + res1.field.u[j][None, :] * np.cos(2 * np.pi * theta)[:, None])
        worst = max(worst, float(np.max(np.abs(u_modes - hist[j]))))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# 12. Quasilinear consistency: eps = 0 reproduces the linear run bit-for-bit;
#     eps = 1e-3, n = 9 runs to t_end = 200 without blow-up and the energy
#     identity residual (gamma flux + source flux) stays <= 5%.


def test_quasilinear_eps_zero_bitwise():
    cfg_q = EvolutionConfig(n=9, dr=1 / 16, t_start=4.0, t_end=20.0, r_max=24.0,
                            store_every=1, nonlinearity="quasilinear-toy",
                            blowup_factor=1e9)
    res_q = evolve_quasilinear_toy(cfg_q, lam=0.0)
    cfg_l = EvolutionConfig(n=9, dr=1 / 16, t_start=4.0, t_end=20.0, r_max=24.0,
                            store_every=1, blowup_factor=1e9)
    res_l = evolve_kg_radial(0.0, 9, config=cfg_l)
    assert np.array_equal(res_q.component_fields[0].u, res_l.field.u)
    assert np.array_equal(res_q.component_fields[0].v, res_l.field.v)
    assert np.array_equal(res_q.component_fields[2].u, -res_l.field.u)


def test_quasilinear_long_run_and_identity_residual():
    # long coarse run: the no-blow-up claim needs the full time range
    cfg_long = EvolutionConfig(n=9, dr=1 / 8, t_start=4.0, t_end=200.0,
                               r_max=204.0, eps=1e-3,
                               nonlinearity="quasilinear-toy",
                               blowup_factor=1e6, store_history=False)
    res_long = evolve_quasilinear_toy(cfg_long, lam=0.0)
    assert res_long.blowup_time is None
    assert np.all(np.isfinite(res_long.monitors["sup"]))

    # the s in [4, 8] slices only sample t <= sqrt(s^2 + r^2) <~ 33, so the
    # identity residual is measured on the same solution with a short run at
    # the resolution its r^8-weighted flux quadrature needs
    s_grid = (4.0, 5.0, 6.0, 7.0, 8.0)
    cfg = EvolutionConfig(n=9, dr=1 / 16, t_start=4.0, t_end=36.0, r_max=40.0,
                          eps=1e-3, nonlinearity="quasilinear-toy",
                          blowup_factor=1e6, store_history=False,
                          sample_derivs=2)
    res = evolve_quasilinear_toy(cfg, lam=0.0, slice_s=s_grid)
    assert res.blowup_time is None

    gamma_at = lambda s, comps: en.quasilinear_gamma(comps, cfg.eps)
    f_at = lambda s, comps: en.quasilinear_source(comps, cfg.eps)
    out = en.energy_identity_residual(res.component_slices, 4.0, 8.0,
                                      gamma_at=gamma_at, f_at=f_at, n=9)
    assert out["residual"] <= 0.05
