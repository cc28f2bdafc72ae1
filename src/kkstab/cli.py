"""Command-line experiment runner.

Subcommands: spectrum, evolve, energy, schwarzschild, geodesic, verify.
Option precedence: command-line flag > KKSTAB_* environment variable >
config-file key > built-in default.  Every run writes its resolved
configuration and the tool version beside its outputs; outputs are
byte-stable for a fixed config.  `main` writes run-meta.json once a
subcommand returns, passed or failed: it explains the run (phase timings,
library versions, and the subcommand's own keys, such as work counts) and is
the one file that differs between identical runs.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import importlib.metadata
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import energy as energy_mod
from . import evolve as evolve_mod
from . import fields, internal, schwarzschild

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """Configuration could not be parsed or resolved."""


# Defaults per subcommand; every key is also a flag and a KKSTAB_ env var.
DEFAULTS = {
    "spectrum": {"d": 2, "periods": "1,1", "lmax": 5, "spectrum_file": ""},
    "evolve": {"n": 9, "lam": 0.0, "t_end": 100.0, "dr": 1.0 / 64, "eps": 0.0},
    "energy": {"n": 9, "lam": 0.0, "t_end": 40.0, "dr": 1.0 / 32,
               "slice_s": "4,8,10"},
    "schwarzschild": {"n": 9, "cs": 0.1, "r_lo": 20.0, "r_hi": 200.0,
                      "samples": 12},
    "geodesic": {"n": 9, "cs": 0.1, "r0": 10.0, "lam_end": 1000.0},
    "verify": {},
}


def resolve_config(sub: str, args: argparse.Namespace) -> dict:
    """Merge flags, environment, config file, and defaults for `sub`."""
    defaults = DEFAULTS[sub]
    file_vals: dict[str, str] = {}
    if args.config:
        cp = configparser.ConfigParser()
        try:
            read = cp.read(args.config, encoding="utf-8")
            for section in ("common", sub):
                if cp.has_section(section):
                    file_vals.update(cp[section])
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {args.config}")
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        env_name = "KKSTAB_" + key.upper()
        if flag is not None:
            out[key] = flag
            continue
        if env_name in os.environ:
            raw, where = os.environ[env_name], f"environment variable {env_name}"
        elif key in file_vals:
            raw, where = file_vals[key], f"config key {key!r}"
        else:
            out[key] = default
            continue
        try:
            out[key] = type(default)(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return out


def _float_list(cfg: dict, key: str) -> list[float]:
    try:
        return [float(tok) for tok in cfg[key].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}={cfg[key]!r}: {exc}") from exc


def write_resolved(outdir: Path, sub: str, cfg: dict) -> None:
    lines = [f"[{sub}]"]
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, float):
            lines.append(f"{key} = {val:.17g}")
        else:
            # indented continuation lines, so configparser reads the value back
            lines.append(f"{key} = " + str(val).replace("\n", "\n\t"))
    lines.append("")
    lines.append("[tool]")
    lines.append(f"version = {__version__}")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "resolved-config.ini").write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"--out {str(outdir)!r}: {exc.strerror}") from exc


#: first line of energy-report.json, above its JSON body
REPORT_MAGIC = "kkstab-report v1"


def _jsonable(obj):
    """obj with NumPy scalars and arrays, tuples and dataclasses made JSON
    types, and dict keys made strings: before `json.dumps`, so that
    sort_keys orders float keys as strings ("10.0" < "4.0")."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _write_json(path: Path, payload, magic: str = "") -> None:
    """payload as sorted, indented JSON, under the magic line when one is given."""
    body = json.dumps(_jsonable(payload), sort_keys=True, indent=1) + "\n"
    path.write_text(f"{magic}\n{body}" if magic else body)


def _write_csv(path: Path, header: str, rows, comment: str = "") -> None:
    """An optional comment line, the header, then one comma-separated line per
    row: a str as it is, any other value as %.17g."""
    with open(path, "w") as fh:
        fh.write(f"{comment}\n{header}\n" if comment else f"{header}\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


class _PhaseClock:
    """Wall time of consecutive phases: lap(name) closes the running one."""

    def __init__(self):
        self.phases: dict[str, float] = {}
        self._start = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.phases[name] = now - self._start
        self._start = now


# ---------------------------------------------------------------------------
# Subcommand bodies: each cmd_* takes (cfg, outdir, clock), laps the clock at
# the end of each phase and returns (meta, failure), the run-meta.json keys
# that the run alone knows and the failed check's one-line message, or None


def _evolution_meta(result) -> dict:
    """An `EvolutionResult`'s run-meta keys: n, its work counts, the resolved
    cfl, its RK4 margins and the blow-up guard's margin."""
    return {"n": result.config.n, "counts": result.counts,
            "cfl": result.config.cfl, **result.margins}


def cmd_spectrum(cfg: dict, outdir: Path, clock: _PhaseClock):
    if cfg["spectrum_file"]:
        data = internal.parse_spectrum_file(cfg["spectrum_file"])
    else:
        periods = tuple(_float_list(cfg, "periods"))
        if int(cfg["d"]) != len(periods):
            raise ConfigError(f"d={cfg['d']} but {len(periods)} periods given")
        torus = internal.FlatTorus(periods)
        lmax = int(cfg["lmax"])
        if lmax < 0:
            raise ConfigError(f"lmax={lmax} must be nonnegative")
        cutoff = 4 * np.pi ** 2 * lmax ** 2 * sum(1.0 / L ** 2
                                                  for L in periods) + 1e-9
        data = internal.lichnerowicz_spectrum(torus, cutoff)
    clock.lap("spectrum")
    internal.write_spectrum_file(outdir / "spectrum.txt", data)
    stable, lam_min = internal.is_linearly_stable(data)
    _write_json(outdir / "spectrum-report.json", {
        "d": data.d, "n_modes": len(data.modes),
        "min_eigenvalue": float(lam_min),
        "linearly_stable": bool(stable),
    })
    clock.lap("write")
    return {}, None if stable else (f"spectrum not linearly stable: smallest "
                                    f"eigenvalue {lam_min:.6g} < 0")


def cmd_evolve(cfg: dict, outdir: Path, clock: _PhaseClock):
    """Run one radial evolution and write its artifacts.

    monitors.csv holds the monitor series and evolve-report.json the decay
    fit.  final-field.bin is a snapshot (`fields.read_snapshot` gives it
    back as a ModeField) of the whole stored (u, v) history (every
    EvolutionConfig.store_every-th step), not only the last time step; the
    linear run (eps = 0) writes it as the history is recorded, and the
    quasilinear surrogate (eps > 0) writes none and stores no history.  A
    snapshot left in outdir by an earlier run is removed first, so that a
    run without one leaves none.
    """
    snapshot = outdir / "final-field.bin"
    for stale in (snapshot, snapshot.with_name(snapshot.name + ".tmp")):
        stale.unlink(missing_ok=True)
    n, lam = int(cfg["n"]), float(cfg["lam"])
    config = evolve_mod.EvolutionConfig(
        n=n, dr=float(cfg["dr"]), t_end=float(cfg["t_end"]),
        nonlinearity="quasilinear-toy" if float(cfg["eps"]) > 0 else "linear",
        eps=float(cfg["eps"]), store_history=False)
    if float(cfg["eps"]) > 0:
        result = evolve_mod.evolve_quasilinear_toy(config, lam=lam)
    else:
        result = evolve_mod.evolve_kg_radial(lam, n, None, config, snapshot=snapshot)
    clock.lap("evolve")
    monitors = result.monitors
    _write_csv(outdir / "monitors.csv", ",".join(monitors), zip(*monitors.values()))
    clock.lap("write")
    report = {"n": n, "lam": lam, "t_end": config.t_end,
              "blowup_time": result.blowup_time}
    t, sup = monitors["t"], monitors["sup"]
    mask = (t >= max(20.0, config.t_end / 10)) & (sup > 0)
    if mask.sum() >= 10 and t[mask][-1] / t[mask][0] >= 4.0:
        fit = energy_mod.decay_fit(t[mask], sup[mask])
        report["decay_exponent"] = fit.exponent
        report["decay_exponent_ci"] = [fit.ci_low, fit.ci_high]
    _write_json(outdir / "evolve-report.json", report)
    clock.lap("report")
    return _evolution_meta(result), None if result.blowup_time is None else (
        f"blow-up guard fired at t={result.blowup_time:.4f}: sup|u| passed "
        f"blowup_factor * max|u0|, blowup_factor = {config.blowup_factor:g}")


def cmd_energy(cfg: dict, outdir: Path, clock: _PhaseClock):
    n, lam = int(cfg["n"]), float(cfg["lam"])
    slice_s = _float_list(cfg, "slice_s")
    if not slice_s:
        raise ConfigError(f"slice_s={cfg['slice_s']!r} names no slice s to read "
                          f"energies on")
    config = evolve_mod.EvolutionConfig(
        n=n, dr=float(cfg["dr"]), t_end=float(cfg["t_end"]),
        sample_derivs=3, store_history=False)
    # t_end sizes the grid, and through it the slice caps; the sweep itself
    # stops 4 steps past the last slice capture, where the slices end
    config = dataclasses.replace(config, r_max=config.resolved_r_max(),
                                 t_end=config.t_start)
    result = evolve_mod.evolve_kg_radial(lam, n, None, config,
                                         slice_s=slice_s)
    clock.lap("evolve")
    energies = {s: energy_mod.hyperboloidal_energy(data)
                for s, data in sorted(result.slices.items())}
    vals = np.array(list(energies.values()))
    drift = float(np.ptp(vals) / vals.max()) if vals.max() > 0 else 0.0
    boosted = {s: {k: energy_mod.boosted_energy(data, k) for k in (1, 2, 3)}
               for s, data in sorted(result.slices.items())}
    rows = energy_mod.estimate_suite(result.slices)
    clock.lap("estimates")
    _write_csv(outdir / "estimates.csv",
               ",".join(f.name for f in dataclasses.fields(energy_mod.EstimateRow)),
               map(dataclasses.astuple, rows))
    # energies: {s: E[0; u; s]}; boosted: {s: {k: E_k(s)}}
    _write_json(outdir / "energy-report.json", {
        "s_grid": list(energies), "energies": energies, "boosted": boosted,
        "estimate_rows": rows,
        "notes": ["commuted estimate verification capped at order 2; the suite "
                  "checks inequality shape and constant stability, not "
                  "full-order statements"],
    }, magic=REPORT_MAGIC)
    clock.lap("write")
    return _evolution_meta(result), None if drift <= 0.05 else (
        f"hyperboloidal energy drift {drift:.3g} across slices "
        f"s={','.join(f'{s:g}' for s in energies)} above 0.05")


def cmd_schwarzschild(cfg: dict, outdir: Path, clock: _PhaseClock):
    if float(cfg["cs"]) == 0.0:
        raise ConfigError("cs=0 is the flat chart: its metric deviation is identically 0")
    r_lo, r_hi = float(cfg["r_lo"]), float(cfg["r_hi"])
    if not 0 < r_lo < r_hi < np.inf:
        raise ConfigError(f"r_lo={r_lo}, r_hi={r_hi}: the radii must satisfy "
                          f"0 < r_lo < r_hi < inf")
    # the decay fit's own needs; geomspace keeps both ends exact
    samples = int(cfg["samples"])
    if samples < 10 or r_hi < 4 * r_lo:
        raise ConfigError(f"samples={samples}, r_lo={r_lo}, r_hi={r_hi}: the decay fit "
                          f"needs samples >= 10 and r_hi >= 4 r_lo")
    params = schwarzschild.SchwarzschildParams(int(cfg["n"]), float(cfg["cs"]))
    chart = schwarzschild.HarmonicChart(params)
    clock.lap("chart")
    radii = np.geomspace(r_lo, r_hi, samples)
    rows = []
    for r in radii:
        # max |g - eta| from the deviation profiles: subtracting eta from g
        # would lose the r^{-(n-2)} tail to cancellation
        h = schwarzschild.harmonic_deviation(chart, float(r))
        dev = max(abs(h["h00"]), abs(h["tangential"]), abs(h["radial"]))
        v = schwarzschild.wave_gauge_residual(chart, float(r))
        rows.append((float(r), dev, float(np.max(np.abs(v)))))
    clock.lap("samples")
    devs = np.array([row[1] for row in rows])
    zeros = int(np.sum(devs == 0))
    if zeros:
        raise ConfigError(f"cs={params.cs!r}: the metric deviation underflows to 0 "
                          f"at {zeros} of the {len(devs)} radii in [{r_lo:g}, {r_hi:g}]")
    _write_csv(outdir / "gauge.csv", "r,metric_deviation,wave_gauge_residual", rows)
    fit = energy_mod.decay_fit(radii, devs)
    _write_json(outdir / "schwarzschild-report.json", {
        "n": params.n, "cs": params.cs,
        "deviation_exponent": fit.exponent,
        "expected_exponent": -(params.n - 2),
    })
    clock.lap("write")
    return {"n": params.n}, None if abs(fit.exponent + (params.n - 2)) < 0.1 else (
        f"metric deviation exponent {fit.exponent:.4g} is not -(n-2) = "
        f"{2 - params.n} within 0.1")


def cmd_geodesic(cfg: dict, outdir: Path, clock: _PhaseClock):
    params = schwarzschild.SchwarzschildParams(int(cfg["n"]), float(cfg["cs"]))
    chart = schwarzschild.HarmonicChart(params)
    clock.lap("chart")
    r0 = float(cfg["r0"])
    if not 0 < r0 < np.inf:
        raise ConfigError(f"r0={r0} must be positive and finite: the probe "
                          f"launches outward")
    mp = schwarzschild.harmonic_metric(chart, r0)
    # outgoing radial null velocity: -f vt^2 + g_rr vr^2 = 0
    vr = 1.0
    vt = float(np.sqrt(mp.g[1, 1] / (-mp.g[0, 0]))) * vr
    init = schwarzschild.GeodesicState(
        t=0.0, x=np.concatenate([[r0], np.zeros(params.n - 1)]),
        v_t=vt, v_x=np.concatenate([[vr], np.zeros(params.n - 1)]))
    traj = schwarzschild.integrate_geodesic(chart, init, float(cfg["lam_end"]))
    clock.lap("integrate")
    # the metric refuses a sample at r = 0 before dr/dt would divide by it
    gnorm = traj.velocity_norm()
    drdt = traj.drdt
    _write_csv(outdir / "trajectory.csv", "lam,t,r,drdt,gnorm,energy",
               zip(traj.lam, traj.t, traj.r, drdt, gnorm, traj.energy()),
               comment=f"# n={params.n} cs={params.cs!r} captured={int(traj.captured)}")
    drift = float(np.max(np.abs(gnorm)))
    monotone = bool(np.all(np.diff(traj.t) > 0))
    _write_json(outdir / "geodesic-report.json", {
        "captured": traj.captured, "final_r": float(traj.r[-1]),
        "final_drdt": float(drdt[-1]), "norm_drift": drift,
        "t_monotone": monotone,
    })
    clock.lap("write")
    meta = {"n": params.n, "counts": {"nfev": traj.nfev}}
    bound = 1e-8 * traj.lam[-1] + 1e-12
    if not drift <= bound:
        return meta, (f"geodesic velocity norm drift {drift:.3g} above "
                      f"1e-8 lam_end + 1e-12 = {bound:.3g}")
    return meta, None if monotone else (
        "geodesic coordinate time t is not increasing along the probe")


def cmd_verify(cfg: dict, outdir: Path, clock: _PhaseClock):
    """Three fast checks of numbers the laboratory computes: the torus's
    tensor spectrum against its lattice, the snapshot round trip (a history
    streamed to a temporary directory, not outdir, read back against the
    one held in memory) and the harmonic chart's radius against its
    asymptote.  A failed check's error gives the number it measured and its
    bound."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append({"name": name, "ok": True})
        except Exception as exc:  # report, don't crash the suite
            checks.append({"name": name, "ok": False, "error": str(exc)})

    def _spectrum():
        torus = internal.FlatTorus((1.0, 1.0))
        cutoff = 4 * np.pi ** 2 * 9 + 1e-9
        spec = internal.lichnerowicz_spectrum(torus, cutoff)
        # each lattice eigenvalue 4 pi^2 |k|^2 once per tensor component
        oracle = np.repeat(sorted(
            4 * np.pi ** 2 * (k1 ** 2 + k2 ** 2)
            for k1 in range(-3, 4) for k2 in range(-3, 4)
            if k1 ** 2 + k2 ** 2 <= 9), internal.tensor_multiplicity(2))
        got = sorted(np.repeat([l for l, _ in spec.modes],
                               [m for _, m in spec.modes]))
        assert len(got) == len(oracle), (f"{len(got)} eigenvalues counted with "
                                         f"multiplicity, not the lattice's {len(oracle)}")
        assert np.allclose(got, oracle, atol=1e-8), (
            f"an eigenvalue is {np.max(np.abs(np.subtract(got, oracle))):.3g} off "
            f"its lattice value, above 1e-8 + 1e-5 of that value")

    def _snapshot_roundtrip():
        cfg0 = evolve_mod.EvolutionConfig(n=3, dr=1.0 / 16, t_end=6.0)
        held = evolve_mod.evolve_kg_radial(0.0, 3, None, cfg0).field
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "roundtrip.bin"
            evolve_mod.evolve_kg_radial(0.0, 3, None, cfg0, snapshot=path)
            back = fields.read_snapshot(path)
            off = {f.name: float(np.max(np.abs(np.subtract(getattr(back, f.name),
                                                           getattr(held, f.name)))))
                   for f in dataclasses.fields(back)}
            del back  # the mapping goes before its directory
        assert not any(off.values()), (
            "the snapshot written as the history is recorded reads back off by "
            + ", ".join(f"{name} {x:.3g}" for name, x in off.items() if x) + ", not 0")

    def _metric_identity():
        params = schwarzschild.SchwarzschildParams(9, 1.0)
        mp = schwarzschild.schwarzschild_metric(params, 10.0)
        assert mp.lorentzian_signature(), (
            f"the metric has {int(np.sum(np.linalg.eigvalsh(mp.g) < 0))} negative "
            f"eigenvalues, not 1")
        m = 1.0 / 14e6  # C_S rbar^{3-n} / (2 (n-2)); the next term is 5e-8 of it
        r = schwarzschild.HarmonicChart(params).r_of_rbar(10.0)
        assert abs(r - (10.0 - m)) < 1e-6 * m, (
            f"r(rbar = 10) is {r - (10.0 - m):.3g} off 10 - m, above 1e-6 m = "
            f"{1e-6 * m:.3g}")

    check("torus-spectrum-oracle", _spectrum)
    check("snapshot-roundtrip", _snapshot_roundtrip)
    check("schwarzschild-metric", _metric_identity)
    clock.lap("checks")

    _write_json(outdir / "verify-report.json",
                {"checks": checks,
                 "ok": all(c["ok"] for c in checks)})
    clock.lap("write")
    failed = [c["name"] for c in checks if not c["ok"]]
    return {}, f"verify checks failed: {', '.join(failed)}" if failed else None


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kkstab",
        description="Numerical stability laboratory for product spacetimes")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for sub, defaults in DEFAULTS.items():
        # no abbreviations: a removed flag must not resolve to a longer one
        # (energy's old --d would read as --dr)
        sp = subs.add_parser(sub, allow_abbrev=False)
        sp.add_argument("--config", default=None,
                        help="INI config file (sections [common] and "
                             f"[{sub}])")
        sp.add_argument("--out", "-o", default=None,
                        help="output directory (default: kkstab-<sub>)")
        for key, dval in defaults.items():
            flag = "--" + key.replace("_", "-")
            if key == "lam":
                sp.add_argument("--lambda", dest="lam", type=float,
                                default=None)
            else:
                sp.add_argument(flag, dest=key, type=type(dval), default=None)
    return parser


def _report(exc: Exception | str) -> None:
    """One stderr line, also for a message on several (configparser's)."""
    text = " ".join(line.strip() for line in str(exc).splitlines())
    print(f"kkstab: {text}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    sub = args.subcommand
    outdir = Path(args.out or f"kkstab-{sub}")
    try:
        cfg = resolve_config(sub, args)
        write_resolved(outdir, sub, cfg)
        handler = {"spectrum": cmd_spectrum, "evolve": cmd_evolve,
                   "energy": cmd_energy, "schwarzschild": cmd_schwarzschild,
                   "geodesic": cmd_geodesic, "verify": cmd_verify}[sub]
        clock = _PhaseClock()
        meta, failure = handler(cfg, outdir, clock)
    except (ValueError, MemoryError) as exc:
        # ConfigError and the package's domain errors (a slice past the grid,
        # a probe inside the horizon, a malformed spectrum file, ...) are
        # ValueErrors; an input too large to allocate (a grid or a lattice)
        # is refused as one
        _report(exc)
        return EXIT_USAGE
    except (evolve_mod.NaNGuardError, schwarzschild.StepFailureError) as exc:
        # a run that started but failed: a non-finite field or a stalled
        # adaptive integration
        _report(exc)
        return EXIT_ASSERTION
    # run-meta.json: how the run went, outside the byte-identical outputs;
    # n_in_theorem_range says whether n >= 9, the stability theorem's range
    if "n" in meta:
        meta["n_in_theorem_range"] = meta["n"] >= 9
    _write_json(outdir / "run-meta.json", {
        "phases_s": clock.phases,
        "versions": {"kkstab": __version__, "python": platform.python_version(),
                     "numpy": np.__version__, "scipy": importlib.metadata.version("scipy")},
        **meta})
    if failure is None:
        return EXIT_OK
    _report(failure)
    return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
