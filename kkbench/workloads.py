"""The three benchmark workloads: their calls into kkstab and their checks.

Each workload is a `run` that makes the timed calls into kkstab and
returns what they produced, and a `check` that compares those outputs with
values the benchmark computes itself (closed forms, quadratures, lattice
counts), never with a stored copy of an earlier run.  Every check is one
operation; the tolerances are justified in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import integrate

from kkstab import cli, energy, evolve


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    # a check that fails on every run because of a known fault in kkstab:
    # counted as a failed operation, not as a wrong result
    known_fault: bool = False


def _rel_check(name, got, want, tol) -> Check:
    rel = abs(got / want - 1.0)
    return Check(name, bool(rel <= tol), f"{got:.10g} vs {want:.10g}: "
                 f"rel {rel:.3g} <= {tol:g}")


# ---------------------------------------------------------------------------
# Reference computations (no kkstab code)


def sphere_area(n: int) -> float:
    """Area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def bump(x, width: float) -> np.ndarray:
    """exp(1 - 1/(1 - (x/w)^2)) for |x| < w, else 0."""
    y = np.abs(np.asarray(x, dtype=float)) / width
    out = np.zeros_like(y)
    inside = y < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))
    return out


def bump_prime(x, width: float) -> np.ndarray:
    """d/dx of bump(x) for x >= 0."""
    y = np.asarray(x, dtype=float) / width
    out = np.zeros_like(y)
    inside = y < 1.0
    yi = y[inside]
    out[inside] = (np.exp(1.0 - 1.0 / (1.0 - yi ** 2))
                   * (-2.0 * yi / (1.0 - yi ** 2) ** 2) / width)
    return out


def pulse_energy(n: int, width: float, amplitude: float) -> float:
    """Energy of the data (u, u_t) = (A bump(r), 0) in R^n: the quadrature
    A^2 |S^{n-1}| int_0^w bump'(r)^2 r^{n-1} dr of the closed-form bump."""
    val, _ = integrate.quad(
        lambda r: float(bump_prime(r, width)) ** 2 * r ** (n - 1),
        0.0, width, epsabs=0.0, epsrel=1e-12, limit=200)
    return amplitude ** 2 * sphere_area(n) * val


def dalembert_n3(t, r, t0: float, width: float, amplitude: float) -> np.ndarray:
    """Exact n = 3 wave with data (A bump(r), 0) at t0:
    r u = (F(r + tau) + F(r - tau))/2, F(x) = x A bump(|x|), tau = t - t0;
    at r = 0 the limit u = F'(tau) = A (bump(tau) + |tau| bump'(|tau|))."""
    t, r = np.broadcast_arrays(np.asarray(t, float), np.asarray(r, float))
    tau = t - t0

    def F(x):
        return x * amplitude * bump(x, width)

    out = np.empty_like(r)
    pos = r > 0
    rp, tp = r[pos], tau[pos]
    out[pos] = (F(rp + tp) + F(rp - tp)) / (2.0 * rp)
    at = np.abs(tau[~pos])
    out[~pos] = amplitude * (bump(at, width) + at * bump_prime(at, width))
    return out


def exact_inverse_perturbation(h: np.ndarray) -> np.ndarray:
    """(eta + h)^{-1} - eta for symmetric 2x2 h (..., 2, 2), eta = diag(-1, 1),
    by the closed-form 2x2 inverse."""
    g00, g01, g11 = h[..., 0, 0] - 1.0, h[..., 0, 1], h[..., 1, 1] + 1.0
    det = g00 * g11 - g01 * g01
    out = np.empty_like(h)
    out[..., 0, 0] = g11 / det + 1.0
    out[..., 1, 1] = g00 / det - 1.0
    out[..., 0, 1] = out[..., 1, 0] = -g01 / det
    return out


def amplitude(workload: str, seed: int) -> float | None:
    """Amplitude of the initial data, the only input the seed draws; None
    for cli-pipeline, whose inputs are fixed options."""
    span = AMPLITUDE_RANGE.get(workload)
    return random.Random(seed).uniform(*span) if span else None


# ---------------------------------------------------------------------------
# kg-hyperboloid: linear n = 3 wave, forward and backward sweeps, 4 slices

KG_SLICES = (2.0, 5.0, 10.0, 20.0)
KG_T0, KG_WIDTH = 3.0, 1.0
# per slice: twice the error measured at dr = 1/64 (README, convergence)
KG_ENERGY_TOL = {2.0: 0.0026, 5.0: 0.0073, 10.0: 0.019, 20.0: 0.053}
KG_SAMPLE_TOL = {2.0: 0.22, 5.0: 0.051, 10.0: 0.134, 20.0: 0.30}


def run_kg(amp: float, call, workdir: Path, dr: float = 1.0 / 64.0) -> dict:
    cfg = evolve.EvolutionConfig(n=3, dr=dr, t_start=KG_T0, t_end=105.0,
                                 r_max=110.0, store_history=False,
                                 blowup_factor=1e9)
    init = (lambda r: amp * evolve.default_pulse(r, width=KG_WIDTH),
            lambda r: np.zeros_like(r))
    res = evolve.evolve_kg_radial(0.0, 3, init=init, config=cfg,
                                  slice_s=KG_SLICES)
    energies = {s: energy.hyperboloidal_energy(res.slices[s])
                for s in KG_SLICES}
    return {"slices": res.slices, "energies": energies}


def kg_errors(out: dict, amp: float) -> dict:
    """Per slice: relative energy error and relative sup error of u."""
    e0 = pulse_energy(3, KG_WIDTH, amp)
    errs = {}
    for s in KG_SLICES:
        data = out["slices"][s]
        exact = dalembert_n3(data.t, data.r, KG_T0, KG_WIDTH, amp)
        errs[s] = (abs(out["energies"][s] / e0 - 1.0),
                   float(np.max(np.abs(data.u - exact)) / np.max(np.abs(exact))))
    return errs


def check_kg(out: dict, amp: float) -> list[Check]:
    checks = []
    for s, (e_err, u_err) in kg_errors(out, amp).items():
        checks.append(Check(f"energy s={s:g}", e_err <= KG_ENERGY_TOL[s],
                            f"rel {e_err:.3g} <= {KG_ENERGY_TOL[s]:g}"))
        checks.append(Check(f"samples s={s:g}", u_err <= KG_SAMPLE_TOL[s],
                            f"rel sup error {u_err:.3g} <= {KG_SAMPLE_TOL[s]:g}"))
    return checks


# ---------------------------------------------------------------------------
# quasilinear-identity: 3-component surrogate, n = 9, eps = 1e-3

QL_SLICES = (4.0, 4.5, 5.0, 5.5, 6.0)
QL_EPS = 1e-3
QL_RESIDUAL_TOL = 0.05
# |H - H_exact| allowance for rounding: H_exact subtracts O(1) numbers
QL_ROUNDING = 1e-15


def _ql_config(**kw) -> evolve.EvolutionConfig:
    return evolve.EvolutionConfig(n=9, dr=1.0 / 16.0, t_start=4.0, t_end=20.0,
                                  r_max=24.0, nonlinearity="quasilinear-toy",
                                  **kw)


def run_quasilinear(amp: float, call, workdir: Path) -> dict:
    cfg = _ql_config(eps=QL_EPS, blowup_factor=1e6, store_history=False,
                     sample_derivs=2)
    r = cfg.dr * np.arange(int(round(cfg.r_max / cfg.dr)) + 1)
    base = amp * evolve.default_pulse(r)
    u0 = np.stack([base, 0.5 * base, -base])
    v0 = np.zeros_like(u0)
    res = evolve.evolve_quasilinear_toy(cfg, lam=0.0, init=(u0, v0),
                                        slice_s=QL_SLICES)
    identity = energy.energy_identity_residual(
        res.component_slices, QL_SLICES[0], QL_SLICES[-1],
        gamma_at=lambda s, comps: energy.quasilinear_gamma(comps, QL_EPS),
        f_at=lambda s, comps: energy.quasilinear_source(comps, QL_EPS), n=9)
    coeffs = {}
    for s in QL_SLICES:
        comps = res.component_slices[s]
        u3 = np.stack([c.u for c in comps])
        H, _ = evolve.quasilinear_coefficients(
            u3, np.stack([c.ut for c in comps]),
            np.stack([c.ur for c in comps]), QL_EPS)
        coeffs[s] = (u3, H)

    cfg0 = _ql_config(store_every=1, blowup_factor=1e9)
    zero_eps = evolve.evolve_quasilinear_toy(cfg0, lam=0.0, init=(u0, v0))
    linear = evolve.evolve_kg_radial(
        0.0, 9, init=(base, np.zeros_like(base)),
        config=replace(cfg0, nonlinearity="linear"))
    return {"res": res, "identity": identity, "coeffs": coeffs,
            "zero_eps": zero_eps, "linear": linear}


def check_quasilinear(out: dict, amp: float) -> list[Check]:
    res = out["res"]
    finite = all(np.all(np.isfinite(v)) for v in res.monitors.values())
    finite &= all(np.all(np.isfinite(c.u)) and np.all(np.isfinite(c.ut))
                  for comps in res.component_slices.values() for c in comps)
    checks = [Check("no blow-up, finite", res.blowup_time is None and finite,
                    f"blowup_time={res.blowup_time}, finite={finite}")]

    resid = out["identity"]["residual"]
    checks.append(Check("identity residual", resid <= QL_RESIDUAL_TOL,
                        f"{resid:.4g} <= {QL_RESIDUAL_TOL:g}"))

    # (eta + h)^{-1} = sum_k (-1)^k (eta h)^k eta; the second-order H leaves
    # the k >= 3 tail, of Frobenius norm <= |h|^3 / (1 - |h|)
    worst, h_max = -np.inf, 0.0
    for u3, H in out["coeffs"].values():
        h = np.empty(u3.shape[1:] + (2, 2))
        h[..., 0, 0], h[..., 1, 1] = QL_EPS * u3[0], QL_EPS * u3[2]
        h[..., 0, 1] = h[..., 1, 0] = QL_EPS * u3[1]
        hn = np.sqrt(np.sum(h ** 2, axis=(-2, -1)))
        err = np.sqrt(np.sum((H - exact_inverse_perturbation(h)) ** 2,
                             axis=(-2, -1)))
        bound = hn ** 3 / (1.0 - hn) + QL_ROUNDING
        worst = max(worst, float(np.max(err / bound)))
        h_max = max(h_max, float(hn.max()))
    checks.append(Check("H to O(|h|^3)", worst <= 1.0,
                        f"max error/bound {worst:.3g} <= 1 (max |h| {h_max:.3g})"))

    zq, lin = out["zero_eps"].component_fields, out["linear"].field
    same = (np.array_equal(zq[0].u, lin.u) and np.array_equal(zq[0].v, lin.v)
            and np.array_equal(zq[2].u, -lin.u))
    checks.append(Check("eps=0 bitwise linear", bool(same),
                        f"{lin.u.shape[0]} stored steps compared"))
    return checks


# ---------------------------------------------------------------------------
# cli-pipeline: the six subcommands through kkstab.cli.main

CLI_RUNS = (
    ("spectrum", ["--d", "3", "--periods", "1,1,1", "--lmax", "12"]),
    ("evolve", []),
    ("energy", ["--n", "9", "--dr", "0.03125", "--t-end", "70",
                "--slice-s", "4,8,10"]),
    ("schwarzschild", []),
    ("geodesic", ["--n", "9", "--cs", "0.05", "--r0", "10",
                  "--lam-end", "1500"]),
    ("verify", []),
)
# defaults of `kkstab evolve` / `kkstab schwarzschild` the checks rely on
CLI_PULSE = (9, 2.0, 1.0)          # n, width, amplitude of the default pulse
CLI_GAUGE = (9, 0.1)               # n, cs
CLI_SPECTRUM = (3, 12)             # d, lmax on the unit 3-torus
# twice the error measured at the run's resolution (README, convergence)
CLI_MONITOR_TOL = 0.0023
CLI_ENERGY_TOL = {4.0: 0.0084, 8.0: 0.0242, 10.0: 0.033}
GEODESIC_ENERGY_TOL = 1e-9
GEODESIC_FAR_R, GEODESIC_DRDT_TOL = 1e3, 1e-3
GAUGE_TOL = 0.01


def run_cli(amp: float, call, workdir: Path) -> dict:
    codes = {}
    for sub, argv in CLI_RUNS:
        codes[sub] = call("cli." + sub, cli.main,
                          [sub, *argv, "--out", str(workdir / sub)])
    return {"codes": codes, "dir": workdir}


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _check_spectrum(d: Path) -> Check:
    """Each eigenvalue is 4 pi^2 |k|^2 for a lattice value |k|^2, every value
    appears, and the multiplicities of each value sum to 6 x its lattice
    points.  One entry per value is not required: see README.md."""
    dim, lmax = CLI_SPECTRUM
    with open(d / "spectrum.txt") as fh:
        header = fh.readline().split()
        rows = [ln.split() for ln in fh if ln.strip()]
    # cutoff 4 pi^2 lmax^2 d on the unit torus: |k|^2 <= d lmax^2
    k2_max = dim * lmax ** 2
    k = np.arange(-math.isqrt(k2_max), math.isqrt(k2_max) + 1)
    k2 = (k[:, None, None] ** 2 + k[None, :, None] ** 2
          + k[None, None, :] ** 2).ravel()
    values, points = np.unique(k2[k2 <= k2_max], return_counts=True)
    tmult = dim * (dim + 1) // 2
    got = np.zeros(len(values), dtype=int)
    on_lattice = True
    for lam, mult in rows:
        m = float(lam) / (4 * math.pi ** 2)
        i = int(np.searchsorted(values, round(m)))
        # eigenvalues are written with 13 significant digits
        if (i == len(values) or values[i] != round(m)
                or abs(m - round(m)) > 1e-11 * max(m, 1.0)):
            on_lattice = False
            continue
        got[i] += int(mult)
    ok = (header == ["internal-spectrum", "v1", f"d={dim}"] and on_lattice
          and np.array_equal(got, tmult * points))
    return Check("spectrum multiplicities", bool(ok),
                 f"{len(rows)} entries over {len(values)} values of |k|^2 <= "
                 f"{k2_max}, {int(got.sum())} vs {tmult} x {int(points.sum())} "
                 f"modes")


def _check_snapshot(path: Path) -> Check:
    with open(path, "rb") as fh:
        head = b"".join(fh.readline() for _ in range(4))
    shape = head.decode().strip().splitlines()[-1].split("=")[1]
    nt, nr = (int(x) for x in shape.split("x"))
    want = len(head) + 2 * 8 * nt * nr
    size = path.stat().st_size
    return Check("final-field.bin size", size == want and nt * nr > 0,
                 f"{size} bytes vs header {len(head)} + 16 x {nt} x {nr}")


def check_cli(out: dict, amp: float) -> list[Check]:
    d = out["dir"]
    checks = [Check(f"{sub} exit 0", code == 0, f"exit {code}")
              for sub, code in out["codes"].items()]
    checks.append(_check_spectrum(d / "spectrum"))

    e0 = pulse_energy(*CLI_PULSE)
    mon = np.array([float(r["energy"]) for r in _csv_rows(d / "evolve" / "monitors.csv")])
    worst = float(np.max(np.abs(mon / e0 - 1.0)))
    checks.append(Check("evolve energy monitor", worst <= CLI_MONITOR_TOL,
                        f"{len(mon)} rows, max rel {worst:.3g} vs {e0:.6g}"))
    report = _read_energy_report(d / "energy" / "energy-report.json")
    for s, tol in CLI_ENERGY_TOL.items():
        checks.append(_rel_check(f"energy s={s:g}", report[s], e0, tol))
    checks.append(_check_snapshot(d / "evolve" / "final-field.bin"))

    traj = _csv_rows(d / "geodesic" / "trajectory.csv")
    kill = np.array([float(r["energy"]) for r in traj])
    drift = float(np.max(np.abs(kill / kill[0] - 1.0)))
    checks.append(Check("geodesic Killing energy", drift <= GEODESIC_ENERGY_TOL,
                        f"max rel drift {drift:.3g}"))
    t = np.array([float(r["t"]) for r in traj])
    r = np.array([float(r["r"]) for r in traj])
    far = r >= GEODESIC_FAR_R
    dev = float(np.max(np.abs(np.gradient(r, t)[far] - 1.0))) if far.any() else np.inf
    checks.append(Check("geodesic dr/dt -> 1", dev <= GEODESIC_DRDT_TOL,
                        f"{int(far.sum())} samples at r >= {GEODESIC_FAR_R:g}, "
                        f"max |dr/dt - 1| {dev:.3g}"))

    verify = json.loads((d / "verify" / "verify-report.json").read_text())
    bad = [c["name"] for c in verify["checks"] if not c["ok"]]
    checks.append(Check("verify checks ok", not bad and bool(verify["checks"]),
                        f"{len(verify['checks'])} checks, failing: {bad}"))

    n, cs = CLI_GAUGE
    gauge = _csv_rows(d / "schwarzschild" / "gauge.csv")
    rel = [abs(float(g["metric_deviation"]) / (cs * float(g["r"]) ** (2 - n)) - 1.0)
           for g in gauge]
    misses = sum(x > GAUGE_TOL for x in rel)
    checks.append(Check("gauge.csv tail", misses == 0,
                        f"{misses}/{len(rel)} deviations off cs r^-(n-2) by > "
                        f"{GAUGE_TOL:g}", known_fault=True))
    return checks


def _read_energy_report(path: Path) -> dict[float, float]:
    with open(path) as fh:
        fh.readline()  # magic line
        body = json.load(fh)
    return {float(s): float(e) for s, e in body["energies"].items()}


# ---------------------------------------------------------------------------

WORKLOADS = {
    "kg-hyperboloid": (run_kg, check_kg),
    "quasilinear-identity": (run_quasilinear, check_quasilinear),
    "cli-pipeline": (run_cli, check_cli),
}
AMPLITUDE_RANGE = {"kg-hyperboloid": (0.5, 2.0),
                   "quasilinear-identity": (0.5, 1.5)}
