"""End-to-end tests of the kkstab command line interface."""

import argparse
import configparser
import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

from kkstab import cli, energy, evolve, fields, internal, schwarzschild
from kkstab.fields import make_slice
from kkstab.cli import main
from oracles import read_report


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def stderr_line(capsys) -> str:
    """The one line that a failed run writes to stderr."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return err[0]


def assert_run_meta(out, written: bool) -> None:
    """run-meta.json, with its phase timings and versions, is in out exactly
    when written: after a subcommand returns, passed or failed, and not
    after one that raised."""
    path = out / "run-meta.json"
    assert path.exists() is written
    if written:
        assert {"phases_s", "versions"} <= set(json.loads(path.read_text()))


def _shift_one_eigenvalue(monkeypatch):
    spectrum = internal.lichnerowicz_spectrum

    def shifted(model, cutoff):
        data = spectrum(model, cutoff)
        (lam, mult), *rest = data.modes
        return internal.SpectralData(((lam + 1e-3, mult), *rest), data.d)

    monkeypatch.setattr(internal, "lichnerowicz_spectrum", shifted)


def _alter_snapshot(change):
    """A snapshot reader whose field takes the dataclasses.replace keywords
    change(field)."""
    def patch(monkeypatch):
        read = fields.read_snapshot

        def altered(path):
            field = read(path)
            return dataclasses.replace(field, **change(field))

        monkeypatch.setattr(fields, "read_snapshot", altered)
    return patch


def _alter_written_rows(monkeypatch):
    """A snapshot writer whose blocks store every row 1e-12 above its value."""
    write = fields._Block.__setitem__
    monkeypatch.setattr(fields._Block, "__setitem__",
                        lambda block, k, rows: write(block, k, np.add(rows, 1e-12)))


def _drop_chart_deviation(monkeypatch):
    monkeypatch.setattr(schwarzschild.HarmonicChart, "r_of_rbar",
                        lambda self, rbar: rbar)


#: verify's checks in report order
VERIFY_CHECKS = ["torus-spectrum-oracle", "snapshot-roundtrip", "schwarzschild-metric"]
#: (check, a way to break its subject), by test id
VERIFY_BREAKS = {
    "torus-spectrum-oracle": ("torus-spectrum-oracle", _shift_one_eigenvalue),
    "snapshot-roundtrip": ("snapshot-roundtrip",
                           _alter_snapshot(lambda f: {"u": f.u + 1e-12})),
    "snapshot-roundtrip-v": ("snapshot-roundtrip",
                             _alter_snapshot(lambda f: {"v": f.v + 1.0})),
    "snapshot-roundtrip-dt": ("snapshot-roundtrip",
                              _alter_snapshot(lambda f: {"dt": 99.0})),
    "snapshot-roundtrip-writer": ("snapshot-roundtrip", _alter_written_rows),
    "schwarzschild-metric": ("schwarzschild-metric", _drop_chart_deviation),
}


class TestVerify:
    def test_trivial_suite_passes(self, tmp_path):
        code, out = run_cli(["verify"], tmp_path, "v")
        assert code == 0
        report = json.loads((out / "verify-report.json").read_text())
        assert list(report) == ["checks", "ok"]
        assert all(c["ok"] for c in report["checks"])
        assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
        # the round trip's snapshot is written outside the output directory
        assert {p.name for p in out.iterdir()} == {
            "resolved-config.ini", "verify-report.json", "run-meta.json"}


class TestSpectrum:
    def test_default_run(self, tmp_path):
        code, out = run_cli(["spectrum", "--lmax", "3"], tmp_path, "s")
        assert code == 0
        first = (out / "spectrum.txt").read_text().splitlines()[0]
        assert first == "internal-spectrum v1 d=2"
        report = json.loads((out / "spectrum-report.json").read_text())
        assert report["linearly_stable"] is True
        assert report["min_eigenvalue"] == 0.0

    def test_unstable_input_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "bad-spec.txt"
        spec.write_text("internal-spectrum v1 d=2\n-1.0 1\n0.0 3\n")
        code, out = run_cli(["spectrum", "--spectrum-file", str(spec)],
                            tmp_path, "u")
        assert code == 1
        assert stderr_line(capsys) == ("kkstab: spectrum not linearly stable: "
                                       "smallest eigenvalue -1 < 0")

    def test_non_finite_eigenvalue_exit_2(self, tmp_path, capsys):
        """A NaN eigenvalue is a malformed file, not a failed check whose
        report would hold the invalid JSON token NaN."""
        spec = tmp_path / "nan-spec.txt"
        spec.write_text("internal-spectrum v1 d=2\nnan 1\n")
        code, out = run_cli(["spectrum", "--spectrum-file", str(spec)],
                            tmp_path, "n")
        assert code == 2
        assert "line 2" in stderr_line(capsys)
        assert not (out / "spectrum-report.json").exists()

    def test_malformed_file_exit_2_with_line(self, tmp_path, capsys):
        spec = tmp_path / "mangled.txt"
        spec.write_text("internal-spectrum v1 d=2\n0.0 3\nnot numbers here\n")
        code, _ = run_cli(["spectrum", "--spectrum-file", str(spec)],
                          tmp_path, "m")
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_one_entry_per_lattice_norm(self, tmp_path):
        """Unit 3-torus, lmax 12: one entry for each of the 363 values of
        |k|^2 <= 432, with multiplicity 6 x its lattice points.  Equal norms
        such as 74 = |(8,3,1)|^2 = |(7,5,0)|^2 are never split."""
        code, out = run_cli(["spectrum", "--d", "3", "--periods", "1,1,1",
                             "--lmax", "12"], tmp_path, "t3")
        assert code == 0
        rows = [ln.split() for ln in
                (out / "spectrum.txt").read_text().splitlines()[1:] if ln.strip()]
        k = np.arange(-20, 21)
        k2 = (k[:, None, None] ** 2 + k[None, :, None] ** 2
              + k[None, None, :] ** 2).ravel()
        values, points = np.unique(k2[k2 <= 3 * 12 ** 2], return_counts=True)
        assert len(rows) == len(values) == 363
        for (lam, mult), q, count in zip(rows, values, points):
            assert float(lam) == pytest.approx(4 * np.pi ** 2 * q, rel=1e-12)
            assert int(mult) == 6 * count

    def test_d_disagreeing_with_periods_exit_2(self, tmp_path, capsys):
        code, _ = run_cli(["spectrum", "--periods", "1"], tmp_path, "dp")
        assert code == 2
        err = stderr_line(capsys)
        assert "d=2" in err and "1 periods" in err

    def test_resolved_config_written(self, tmp_path):
        _, out = run_cli(["spectrum", "--lmax", "2"], tmp_path, "rc")
        cp = configparser.ConfigParser()
        cp.read(out / "resolved-config.ini")
        assert cp["spectrum"]["lmax"] == "2"
        assert cp.has_option("tool", "version")


def _differ_only_in_run_meta(out1, out2):
    """Two output directories hold the same files, byte-identical but for
    run-meta.json, whose phase timings alone may differ."""
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert "run-meta.json" in names
    for name in names:
        if name != "run-meta.json":
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    meta1, meta2 = (json.loads((d / "run-meta.json").read_text()) for d in (out1, out2))
    assert set(meta1["phases_s"]) == set(meta2["phases_s"])
    assert all(t >= 0.0 for t in meta1["phases_s"].values())
    assert ({k: v for k, v in meta1.items() if k != "phases_s"}
            == {k: v for k, v in meta2.items() if k != "phases_s"})
    return meta1


class TestEvolve:
    def test_deterministic_byte_identical(self, tmp_path):
        args = ["evolve", "--n", "3", "--lambda", "0", "--t-end", "10",
                "--dr", "0.0625"]
        _, out1 = run_cli(list(args), tmp_path, "a")
        _, out2 = run_cli(list(args), tmp_path, "b")
        _differ_only_in_run_meta(out1, out2)

    def test_quasilinear_deterministic_byte_identical(self, tmp_path):
        """The eps > 0 surrogate, whose Q goes through a BLAS matrix
        product, also writes the same bytes twice."""
        args = ["evolve", "--eps", "1e-3", "--n", "9", "--slice-s", "4.5,6",
                "--t-end", "20", "--dr", "0.0625"]
        _, out1 = run_cli(list(args), tmp_path, "a")
        _, out2 = run_cli(list(args), tmp_path, "b")
        _differ_only_in_run_meta(out1, out2)

    def test_run_meta(self, tmp_path):
        """run-meta.json: phase timings, the sweep's work counts, library
        versions and whether n is in the theorem range n >= 9."""
        code, out = run_cli(["evolve", "--n", "9", "--t-end", "8", "--dr",
                             "0.0625"], tmp_path, "m")
        assert code == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert set(meta["phases_s"]) == {"evolve", "write", "report"}
        steps = int(np.ceil((8.0 - 4.0) / (0.4 * 0.0625) - 1e-9))
        counts = meta["counts"]
        # the linear run applies the operator twice per step (the Taylor kernel)
        assert counts["steps"] == steps and counts["operator_applications"] == 2 * steps
        assert "rhs_evals" not in counts
        assert 0 < counts["active_node_steps"] < counts["node_steps"]
        # no slices requested: the sampler did no work
        assert counts["captured_nodes"] == counts["gathered_columns"] == 0
        assert meta["versions"]["numpy"] == np.__version__
        assert set(meta["versions"]) == {"kkstab", "python", "numpy", "scipy"}
        assert meta["n"] == 9 and meta["n_in_theorem_range"] is True
        # sup|u| stays below the guard's 1000 max|u0| by far
        assert 0.0 < meta["blowup_margin"] < 0.1

    @pytest.mark.parametrize("args, cfl, margin", [
        (["--n", "9"], 0.4, 0.7179),
        (["--n", "3", "--lambda", "1000"], 2 / 3, 0.7573),
        (["--n", "13"], 1 / 6, 0.6713),
    ], ids=["n9", "n3-lambda", "n13"])
    def test_run_meta_step(self, tmp_path, args, cfl, margin):
        """run-meta.json gives the resolved cfl and the step's RK4 margin with
        lam; n = 13, in the theorem's range, runs at its default step."""
        code, out = run_cli(["evolve", "--t-end", "8", "--dr", "0.0625"] + args,
                            tmp_path, "s")
        assert code == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["cfl"] == cfl
        assert meta["rk4_margin"] == pytest.approx(margin, abs=1e-4)
        assert "rk4_margin_peak" not in meta
        assert meta["n_in_theorem_range"] is (meta["n"] >= 9)
        steps = round(4.0 / (cfl * 0.0625))
        assert meta["counts"]["steps"] == steps

    def test_run_meta_eps_peak_margin(self, tmp_path):
        """An eps > 0 run adds the peak of the margins its speed checks
        measured, just above the unperturbed margin."""
        code, out = run_cli(["evolve", "--eps", "1e-3", "--n", "3", "--t-end", "10",
                             "--dr", "0.0625"], tmp_path, "q")
        assert code == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["cfl"] == 2 / 3
        assert meta["rk4_margin"] < meta["rk4_margin_peak"] < 1.0

    def test_outputs_present(self, tmp_path):
        code, out = run_cli(["evolve", "--n", "3", "--lambda", "0",
                             "--t-end", "10", "--dr", "0.0625"], tmp_path, "o")
        assert code == 0
        header = (out / "monitors.csv").read_text().splitlines()[0]
        assert header == "t,sup,support_radius,energy"
        assert (out / "final-field.bin").exists()
        assert (out / "evolve-report.json").exists()

    def test_decay_fit(self, tmp_path):
        """A run long enough for the sup-norm fit (t >= 20 spanning a factor
        4) writes its exponent and CI.  The massless wave at n = 3 decays
        like t^{-(n-1)/2} = t^-1; the fit reads -1.098 here, -1.116 at
        dr = 1/32 and -1.111 at t_end = 160, so the 0.1 offset is the fit
        window's, not the grid's."""
        n = 3
        code, out = run_cli(["evolve", "--n", str(n), "--dr", "0.0625",
                             "--t-end", "80"], tmp_path, "fit")
        assert code == 0
        report = json.loads((out / "evolve-report.json").read_text())
        exponent, (ci_low, ci_high) = report["decay_exponent"], report["decay_exponent_ci"]
        assert ci_low <= exponent <= ci_high
        assert abs(exponent + (n - 1) / 2) <= 0.2

    def test_history_is_not_held_in_memory(self, tmp_path):
        """final-field.bin is written as the history is recorded: the traced
        peak of the run stays below a quarter of the file's payload (3.7 MiB
        here), which a history held in memory would exceed."""
        run_cli(["evolve", "--t-end", "8", "--dr", "0.0625"], tmp_path, "warm")
        tracemalloc.start()
        try:
            code, out = run_cli(["evolve", "--t-end", "30", "--dr", "0.03125"],
                                tmp_path, "traced")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        field = fields.read_snapshot(out / "final-field.bin")
        payload = field.u.nbytes + field.v.nbytes
        assert peak < 0.25 * payload, (peak, payload)

    def test_eps_stores_no_history(self, tmp_path, monkeypatch):
        """The surrogate (eps > 0) writes no snapshot, so it stores no history."""
        configs = []
        run = evolve.evolve_quasilinear_toy

        def spy(config, **kwargs):
            configs.append(config)
            return run(config, **kwargs)

        monkeypatch.setattr(evolve, "evolve_quasilinear_toy", spy)
        code, out = run_cli(["evolve", "--eps", "1e-3", "--n", "3", "--t-end", "10",
                             "--dr", "0.0625"], tmp_path, "q")
        assert code == 0 and (out / "monitors.csv").exists()
        assert not (out / "final-field.bin").exists()
        assert [c.store_history for c in configs] == [False]

    def test_eps_run_leaves_no_earlier_snapshot(self, tmp_path):
        """A linear run and then an eps > 0 run into one directory: the
        second writes no snapshot, so it leaves none, nor a stray .tmp."""
        args = ["--n", "3", "--t-end", "10", "--dr", "0.0625"]
        code, out = run_cli(["evolve"] + args, tmp_path, "d")
        assert code == 0 and (out / "final-field.bin").exists()
        (out / "final-field.bin.tmp").write_bytes(b"partial")
        code, _ = run_cli(["evolve", "--eps", "1e-3"] + args, tmp_path, "d")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "evolve-report.json", "monitors.csv", "resolved-config.ini", "run-meta.json"]
        assert "rhs_evals" in json.loads((out / "run-meta.json").read_text())["counts"]


class TestEnergy:
    def test_outputs_present(self, tmp_path):
        slices = [4.0, 6.0, 8.0]
        code, out = run_cli(["energy", "--n", "3", "--dr", "0.0625",
                             "--slice-s", "4,6,8"], tmp_path, "e")
        assert code == 0
        for name in ("energy-report.json", "estimates.csv",
                     "resolved-config.ini"):
            assert (out / name).exists(), name
        report = read_report(out / "energy-report.json")
        assert sorted(float(s) for s in report["energies"]) == slices
        rows = (out / "estimates.csv").read_text().splitlines()[1:]
        for s in slices:
            assert sum(float(row.split(",")[1]) == s for row in rows) == 4

    def test_boosted_energies(self, tmp_path):
        """E_1..E_3 on every slice: E_1 is the slice energy itself, and
        each further word order adds nonnegative energies."""
        code, out = run_cli(["energy", "--n", "3", "--dr", "0.0625",
                             "--slice-s", "4,6,8"], tmp_path, "b")
        assert code == 0
        report = read_report(out / "energy-report.json")
        assert "identity_residuals" not in report and "decay_fits" not in report
        assert report["boosted"].keys() == report["energies"].keys()
        for s, by_k in report["boosted"].items():
            assert list(by_k) == ["1", "2", "3"]
            assert by_k["1"] == pytest.approx(report["energies"][s], rel=1e-12)
            assert 0.0 < by_k["1"] <= by_k["2"] <= by_k["3"]

    def test_runs_differ_only_in_run_meta(self, tmp_path):
        args = ["energy", "--n", "3", "--dr", "0.0625", "--slice-s", "4,6,8"]
        _, out1 = run_cli(list(args), tmp_path, "a")
        _, out2 = run_cli(list(args), tmp_path, "b")
        meta = _differ_only_in_run_meta(out1, out2)
        assert meta["n_in_theorem_range"] is False
        counts = meta["counts"]
        assert counts["steps"] > 0
        # every node of the three slices, each read in 4 rows at 5 columns
        report = read_report(out1 / "energy-report.json")
        assert counts["captured_nodes"] == sum(
            len(make_slice(float(s), 3, 0.0625).r) for s in report["energies"])
        assert counts["gathered_columns"] == 20 * counts["captured_nodes"]

    def test_run_meta_step(self, tmp_path):
        """energy writes its resolved cfl and RK4 margin as evolve does."""
        code, out = run_cli(["energy", "--n", "3", "--lambda", "100", "--dr", "0.0625",
                             "--slice-s", "4,6"], tmp_path, "s")
        assert code == 0
        meta = json.loads((out / "run-meta.json").read_text())
        # (1/24) sqrt(rho(3) 256 + 100) / (2 sqrt 2)
        assert meta["cfl"] == 2 / 3
        assert meta["rk4_margin"] == pytest.approx(0.6150, abs=1e-4)
        assert 0.0 < meta["blowup_margin"] <= 1e-3

    def test_defaults_exit_0(self, tmp_path):
        """Every default slice lies inside the default run."""
        code, out = run_cli(["energy"], tmp_path, "d")
        assert code == 0
        report = read_report(out / "energy-report.json")
        assert sorted(float(s) for s in report["energies"]) == [4.0, 8.0, 10.0]


class TestSchwarzschild:
    def test_defaults_follow_the_tail(self, tmp_path):
        """gauge.csv on the defaults (n = 9, cs = 0.1, 12 radii in [20, 200]):
        every metric deviation is nonzero and within 1% of cs r^-(n-2)."""
        code, out = run_cli(["schwarzschild"], tmp_path, "g")
        assert code == 0
        lines = (out / "gauge.csv").read_text().splitlines()
        assert lines[0] == "r,metric_deviation,wave_gauge_residual"
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
        assert len(rows) == 12
        for r, dev, _ in rows:
            assert dev > 0.0
            assert abs(dev / (0.1 * r ** -7) - 1.0) <= 0.01

    def test_smallest_resolved_mass(self, tmp_path):
        """cs = 1e-30, 29 decades below the default mass: the run exits 0
        and follows the tail."""
        code, out = run_cli(["schwarzschild", "--cs", "1e-30"], tmp_path, "g")
        assert code == 0
        rows = [[float(x) for x in ln.split(",")]
                for ln in (out / "gauge.csv").read_text().splitlines()[1:]]
        for r, dev, _ in rows:
            assert abs(dev / (1e-30 * r ** -7) - 1.0) <= 0.01

    @pytest.mark.parametrize("args", [
        ["schwarzschild", "--n", "13"], ["schwarzschild", "--n", "5", "--cs", "1"],
        ["schwarzschild", "--cs", "1e-32"]], ids=["n13", "n5-cs1", "cs-1e-32"])
    def test_exponent(self, tmp_path, args):
        """The closed-form chart's deviation falls like r^-(n-2) within 0.1,
        at n = 13, at n = 5 with cs = 1 and at a mass as small as 1e-32."""
        code, out = run_cli(args, tmp_path, "g")
        assert code == 0
        report = json.loads((out / "schwarzschild-report.json").read_text())
        assert abs(report["deviation_exponent"] - report["expected_exponent"]) < 0.1


class TestGeodesic:
    def test_near_horizon_probe(self, tmp_path):
        """Outgoing radial null ray from r0 = 1.2 at n = 5, C_S = 1 (horizon
        at rbar = 1), where the chart's inverse radius needs its bracketed
        root: exit 0, both artifacts, constant Killing energy."""
        code, out = run_cli(["geodesic", "--n", "5", "--cs", "1", "--r0",
                             "1.2", "--lam-end", "50"], tmp_path, "g")
        assert code == 0
        report = json.loads((out / "geodesic-report.json").read_text())
        assert not report["captured"] and report["t_monotone"]
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[1] == "lam,t,r,drdt,gnorm,energy"
        e = np.array([float(ln.split(",")[5]) for ln in lines[2:]])
        assert len(e) == 400
        assert np.max(np.abs(e / e[0] - 1.0)) <= 1e-9
        drdt = float(lines[-1].split(",")[3])
        assert report["final_drdt"] == drdt

    def test_tiny_mass(self, tmp_path, capsys):
        """cs = 1e-100: the probe runs as through flat space, quietly."""
        code, out = run_cli(["geodesic", "--cs", "1e-100", "--lam-end", "50"],
                            tmp_path, "t")
        assert capsys.readouterr().err == ""
        assert code == 0
        report = json.loads((out / "geodesic-report.json").read_text())
        assert report["final_drdt"] == 1.0

    def test_subnormal_lam_end_is_quiet(self, tmp_path, capsys):
        """400 samples over lam in [0, 1e-320] coincide in t; dr/dt is read
        off the state, so no difference over coincident samples warns."""
        code, out = run_cli(["geodesic", "--lam-end", "1e-320"], tmp_path, "s")
        assert capsys.readouterr().err == ""
        assert code == 0
        report = json.loads((out / "geodesic-report.json").read_text())
        assert report["final_drdt"] == pytest.approx(1.0, abs=0.1)


class TestRunMeta:
    """The subcommands besides evolve and energy explain their runs in
    run-meta.json too, the one file that two identical runs may differ in."""

    @pytest.mark.parametrize("args, phases, n", [
        (["spectrum", "--lmax", "3"], {"spectrum", "write"}, None),
        (["schwarzschild"], {"chart", "samples", "write"}, 9),
        (["geodesic", "--n", "5", "--cs", "1", "--r0", "1.2", "--lam-end", "50"],
         {"chart", "integrate", "write"}, 5),
        (["verify"], {"checks", "write"}, None),
    ], ids=["spectrum", "schwarzschild", "geodesic", "verify"])
    def test_runs_differ_only_in_run_meta(self, tmp_path, args, phases, n):
        runs = [run_cli(list(args), tmp_path, name) for name in ("a", "b")]
        assert [code for code, _ in runs] == [0, 0]
        meta = _differ_only_in_run_meta(runs[0][1], runs[1][1])
        assert set(meta["phases_s"]) == phases
        assert meta["versions"]["numpy"] == np.__version__
        assert set(meta["versions"]) == {"kkstab", "python", "numpy", "scipy"}
        if n is None:
            assert "n" not in meta and "n_in_theorem_range" not in meta
        else:
            assert meta["n"] == n and meta["n_in_theorem_range"] is (n >= 9)
        if args[0] == "geodesic":
            assert list(meta["counts"]) == ["nfev"] and meta["counts"]["nfev"] > 0
        else:
            assert "counts" not in meta
        assert set(meta) <= {"phases_s", "versions", "n", "n_in_theorem_range",
                             "counts"}


class TestDomainErrors:
    """A computation refusing its input exits 2 with one stderr line, not
    with a traceback and the exit 1 of a failed check."""

    @pytest.mark.parametrize("args, message", [
        (["schwarzschild", "--samples", "5"], "need >= 10 positive samples"),
        (["geodesic", "--r0", "0.1"], "inside the guarded exterior"),
        (["energy", "--slice-s", "30"], "slice s=30.0 needs capture"),
        (["energy", "--slice-s", ""], "slice_s='' names no slice s"),
        (["evolve", "--eps", "-0.001", "--n", "3", "--t-end", "10", "--dr",
          "0.0625"], "eps=-0.001 must be in [0, eps_max=0.01]"),
        (["evolve", "--lambda", "nan", "--n", "3", "--t-end", "8", "--dr",
          "0.0625"], "lam=nan must be nonnegative"),
        (["evolve", "--eps", "0.001", "--lambda", "-1", "--n", "3", "--t-end",
          "10", "--dr", "0.0625"], "lam=-1.0 must be nonnegative"),
        (["evolve", "--n", "3", "--lambda", "20000", "--dr", "0.0625", "--t-end",
          "8"], "lambda=20000.0 is too stiff for RK4 at n=3, dr=0.0625, "
                "dt=0.0416667: lambda must be <= 2965.4"),
        (["evolve", "--dr", "0"], "dr=0.0 must be positive and finite"),
        (["energy", "--dr", "0"], "dr=0.0 must be positive and finite"),
        (["evolve", "--t-end", "inf"], "t_end=inf must be finite"),
        (["energy", "--t-end", "inf"], "t_end=inf must be finite"),
        (["spectrum", "--periods", "1,inf", "--d", "2"],
         "torus periods must be positive and finite"),
        (["geodesic", "--lam-end", "0"], "lam_end=0.0 must be finite"),
        (["geodesic", "--lam-end", "inf"], "lam_end=inf must be finite"),
        (["geodesic", "--r0", "-1"], "r0=-1.0 must be positive"),
        (["geodesic", "--r0", "inf"], "r0=inf must be positive and finite"),
        (["evolve", "--t-end", "3", "--dr", "0.0625"],
         "t_end=3.0 must be finite and >= t_start"),
        (["evolve", "--n", "0", "--t-end", "8", "--dr", "0.0625"],
         "n=0 must be an integer >= 1"),
        (["schwarzschild", "--r-hi", "inf"], "r_hi=inf: the radii must satisfy "
                                             "0 < r_lo < r_hi < inf"),
        (["schwarzschild", "--r-lo", "0"], "r_lo=0.0, r_hi=200.0: the radii"),
        (["spectrum", "--lmax", "-1"], "lmax=-1 must be nonnegative"),
        (["schwarzschild", "--cs", "0"], "cs=0 is the flat chart"),
        (["schwarzschild", "--cs", "nan"], "cs=nan must be finite"),
        (["geodesic", "--cs", "inf"], "cs=inf must be finite"),
        (["evolve", "--lambda", "inf", "--n", "3", "--t-end", "8", "--dr",
          "0.0625"], "lam=inf must be nonnegative and finite"),
        (["energy", "--lambda", "inf", "--n", "3", "--dr", "0.0625"],
         "lam=inf must be nonnegative and finite"),
        (["evolve", "--dr", "1e-320"], "node count r_max/dr, or with cfl=0.4 whose step "
                                   "count, is not finite"),
        (["energy", "--dr", "1e-320"], "node count r_max/dr, or with cfl=0.4 whose step "
                                   "count, is not finite"),
        (["evolve", "--dr", "1e-300"], "dr=1e-300 with r_max=99.0 gives a grid"),
        (["energy", "--dr", "1e-300"], "dr=1e-300 with r_max=39.0 gives a grid"),
        (["evolve", "--n", "14"], "n=14 needs a step finer than the default's floor"),
        (["energy", "--n", "2000"], "n=2000 needs a step finer than the default's floor"),
        (["spectrum", "--spectrum-file", "no-such-spectrum.txt"],
         "spectrum file 'no-such-spectrum.txt': No such file or directory"),
        (["spectrum", "--spectrum-file", str(Path(__file__).parent)],
         f"spectrum file {str(Path(__file__).parent)!r}: Is a directory"),
        (["schwarzschild", "--cs", "1e-320"],
         "cs=1e-320: the metric deviation underflows to 0 at 12 of the 12 radii"),
        (["schwarzschild", "--cs", "1e-310"],
         "cs=1e-310: the metric deviation underflows to 0 at 4 of the 12 radii"),
        (["geodesic", "--lam-end", "1e200"],
         "lam_end=1e+200 must be finite, above 0 and less than 1.34e+154"),
        (["geodesic", "--r0", "1e300", "--lam-end", "1e308"],
         "lam_end=1e+308 must be finite, above 0 and less than 1.34e+154"),
        (["energy", "--slice-s", "2,3", "--t-end", "10", "--dr", "0.125"],
         "slice s=2.0 ends at r=1.5, t=2.5, inside the backward light cone of the data"),
        # each request is above the user address space of 64-bit Linux
        # (128 TiB, or 128 PiB with 5-level paging), so it fails at once
        # whatever the overcommit setting
        (["evolve", "--dr", "1e-15"], "dr=1e-15 with r_max=99.00000000000001 gives "
                                      "99000000000000001 grid nodes: Unable to allocate "
                                      "703. PiB"),
        (["energy", "--dr", "1e-15"], "dr=1e-15 with r_max=39.00000000000001 gives "
                                      "39000000000000009 grid nodes: Unable to allocate "
                                      "277. PiB"),
    ], ids=["schwarzschild", "geodesic", "energy", "energy-slice-s-empty", "evolve-eps",
            "evolve-lambda", "evolve-eps-lambda", "evolve-lambda-too-stiff", "evolve-dr0",
            "energy-dr0", "evolve-t-end-inf", "energy-t-end-inf",
            "spectrum-period-inf", "geodesic-lam-end-0", "geodesic-lam-end-inf",
            "geodesic-r0-negative", "geodesic-r0-inf", "evolve-t-end-before-t-start",
            "evolve-n0",
            "schwarzschild-r-hi-inf", "schwarzschild-r-lo-0", "spectrum-lmax-negative",
            "schwarzschild-cs-0", "schwarzschild-cs-nan", "geodesic-cs-inf",
            "evolve-lambda-inf", "energy-lambda-inf", "evolve-dr-subnormal",
            "energy-dr-subnormal", "evolve-dr-tiny", "energy-dr-tiny", "evolve-n14",
            "energy-n2000", "spectrum-file-missing", "spectrum-file-directory",
            "schwarzschild-cs-subnormal", "schwarzschild-cs-partly-subnormal",
            "geodesic-lam-end-1e200", "geodesic-r0-1e300-lam-end-1e308",
            "energy-slice-in-the-backward-cone", "evolve-dr-too-large-to-allocate",
            "energy-dr-too-large-to-allocate"])
    def test_exit_2_with_one_line(self, args, message, tmp_path, capsys):
        code, out = run_cli(args, tmp_path, args[0])
        assert code == 2
        err = stderr_line(capsys)
        assert err.startswith("kkstab: ") and message in err
        assert_run_meta(out, written=False)

    def test_spectrum_too_large_to_allocate(self, tmp_path, capsys, monkeypatch):
        """A lattice too large to allocate is refused like the grids above.
        The spectrum is monkeypatched: the real request (233 TiB at --lmax
        2000000) fits a 5-level-paging address space, where an overcommitting
        kernel could grant it."""
        def too_large(model, cutoff):
            raise MemoryError("Unable to allocate 233. TiB for an array")

        monkeypatch.setattr(internal, "lichnerowicz_spectrum", too_large)
        code, out = run_cli(["spectrum", "--lmax", "2000000"], tmp_path, "s")
        assert code == 2
        assert stderr_line(capsys) == "kkstab: Unable to allocate 233. TiB for an array"
        assert_run_meta(out, written=False)


class TestRuntimeFailures:
    """A run that starts but fails (non-finite field, stalled integration)
    exits 1 with one stderr line, not with a traceback."""

    @staticmethod
    def _raise(exc):
        def fail(*args, **kwargs):
            raise exc
        return fail

    def test_nan_guard_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evolve, "_run_sweep", self._raise(
            evolve.NaNGuardError("non-finite field at t=5.0000")))
        code, out = run_cli(["evolve", "--n", "3", "--t-end", "8", "--dr",
                             "0.0625"], tmp_path, "e")
        assert code == 1
        assert stderr_line(capsys) == "kkstab: non-finite field at t=5.0000"
        assert_run_meta(out, written=False)

    def test_step_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(schwarzschild, "integrate_geodesic", self._raise(
            schwarzschild.StepFailureError("geodesic integration failed")))
        code, out = run_cli(["geodesic", "--lam-end", "10"], tmp_path, "g")
        assert code == 1
        assert stderr_line(capsys) == "kkstab: geodesic integration failed"
        assert_run_meta(out, written=False)


class TestFailedChecks:
    """Each failed check exits 1 with one stderr line that names it, and
    run-meta.json is written."""

    def test_evolve_blow_up(self, tmp_path, capsys, monkeypatch):
        """A guard at 1e-3 max|u0| fires at its first check."""
        run = evolve.evolve_kg_radial

        def low_guard(lam, n, init, config, **kwargs):
            return run(lam, n, init, dataclasses.replace(config, blowup_factor=1e-3),
                       **kwargs)

        monkeypatch.setattr(evolve, "evolve_kg_radial", low_guard)
        code, out = run_cli(["evolve", "--n", "3", "--t-end", "8", "--dr", "0.0625"],
                            tmp_path, "e")
        assert code == 1
        assert stderr_line(capsys).startswith("kkstab: blow-up guard fired at t=")
        assert_run_meta(out, written=True)

    def test_energy_drift(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(energy, "hyperboloidal_energy", lambda data: data.slc.s)
        code, out = run_cli(["energy", "--n", "3", "--dr", "0.0625", "--slice-s", "4,5"],
                            tmp_path, "e")
        assert code == 1
        assert stderr_line(capsys) == ("kkstab: hyperboloidal energy drift 0.2 across "
                                       "slices s=4,5 above 0.05")
        assert_run_meta(out, written=True)

    def test_schwarzschild_exponent(self, tmp_path, capsys, monkeypatch):
        """A chart whose deviation m falls like rbar^-5, not like the
        harmonic chart's rbar^-6, makes the metric deviation fall like r^-6."""
        monkeypatch.setattr(schwarzschild.HarmonicChart, "m_mp",
                            lambda self, rb: (0.01 * rb ** -5, -0.05 * rb ** -6))
        code, out = run_cli(["schwarzschild"], tmp_path, "s")
        assert code == 1
        err = stderr_line(capsys)
        assert err.startswith("kkstab: metric deviation exponent -5.9")
        assert err.endswith("is not -(n-2) = -7 within 0.1")
        assert_run_meta(out, written=True)

    def test_geodesic_drift(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(schwarzschild.GeodesicTrajectory, "velocity_norm",
                            lambda self: np.full(len(self.lam), 1e-3))
        code, out = run_cli(["geodesic", "--lam-end", "2"], tmp_path, "g")
        assert code == 1
        assert stderr_line(capsys) == ("kkstab: geodesic velocity norm drift 0.001 "
                                       "above 1e-8 lam_end + 1e-12 = 2e-08")
        assert_run_meta(out, written=True)

    @pytest.mark.parametrize("case", list(VERIFY_BREAKS))
    def test_verify(self, tmp_path, capsys, monkeypatch, case):
        """Each verify check fails, alone, when its subject is broken, and
        its error says by how much."""
        name, breaks = VERIFY_BREAKS[case]
        breaks(monkeypatch)
        code, out = run_cli(["verify"], tmp_path, "v")
        assert code == 1
        assert stderr_line(capsys) == f"kkstab: verify checks failed: {name}"
        failed = [c for c in json.loads((out / "verify-report.json").read_text())["checks"]
                  if not c["ok"]]
        assert [c["name"] for c in failed] == [name] and failed[0]["error"]
        assert_run_meta(out, written=True)

    def test_verify_names_the_rows_a_broken_writer_stored(self, tmp_path, monkeypatch):
        """Rows that the streaming writer stores off by 1e-12 are named, with
        their size, against the history held in memory."""
        _alter_written_rows(monkeypatch)
        code, out = run_cli(["verify"], tmp_path, "v")
        assert code == 1
        check = json.loads((out / "verify-report.json").read_text())["checks"][1]
        assert check == {"name": "snapshot-roundtrip", "ok": False,
                         "error": "the snapshot written as the history is recorded "
                                  "reads back off by u 1e-12, v 1e-12, not 0"}


class TestExitContract:
    """Every settable key with each of VALUES on the short base configs of
    TestEveryKeyIsRead, through the flag that `build_parser()` makes for it,
    its KKSTAB_* variable and its config-file key: the exit code is 0, 1 or
    2, no traceback escapes, a failure prints one stderr line (argparse's
    usage block aside) and a success prints none."""

    VALUES = ("nan", "inf", "-inf", "0", "-1", "-0.5", "", "1,nan", "1e-320")

    @staticmethod
    def flags():
        """(subcommand, flag) of every key of cli.DEFAULTS, from the parser."""
        parser = cli.build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
        return [(sub, action.option_strings[0])
                for sub, sp in subs.choices.items() for action in sp._actions
                if action.dest in cli.DEFAULTS[sub]]

    def test_every_key_has_a_flag(self):
        assert len(self.flags()) == sum(map(len, cli.DEFAULTS.values()))

    @staticmethod
    def assert_contract(sub, args, file_vals, tmp_path, capsys):
        ini = tmp_path / "base.ini"
        ini.write_text(f"[{sub}]\n" + "".join(
            f"{k} = {v}\n"
            for k, v in {**TestEveryKeyIsRead.BASE[sub], **file_vals}.items()))
        code = main([sub, "--config", str(ini), *args, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        lines = err.splitlines()
        if lines and lines[0].startswith("usage: "):
            # argparse's usage block: its first line and indented continuations
            lines = [ln for ln in lines[1:] if not ln.startswith(" ")]
        assert len(lines) == (0 if code == 0 else 1), err

    @pytest.mark.parametrize("args", [
        ["schwarzschild", "--r-hi", "1e40"], ["geodesic", "--r0", "1e40"],
        ["geodesic", "--lam-end", "1e45"], ["geodesic", "--r0", "1e200"],
    ], ids=["schwarzschild-r-hi-1e40", "geodesic-r0-1e40",
            "geodesic-lam-end-1e45", "geodesic-r0-1e200"])
    def test_far_radius_runs(self, args, tmp_path, capsys):
        """Radii past where rbar^(n-1) or |x|^2 overflow a float run to exit
        0 with an empty stderr (a RuntimeWarning fails the suite)."""
        code, _ = run_cli(args, tmp_path, args[0])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("sub, flag", flags())
    def test_contract(self, sub, flag, value, tmp_path, capsys):
        self.assert_contract(sub, [f"{flag}={value}"], {}, tmp_path, capsys)

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("sub, key", [(sub, key) for sub, keys in
                                          cli.DEFAULTS.items() for key in keys])
    @pytest.mark.parametrize("route", ["env", "config"])
    def test_contract_env_and_config(self, route, sub, key, value, tmp_path,
                                     capsys, monkeypatch):
        if route == "env":
            monkeypatch.setenv("KKSTAB_" + key.upper(), value)
        self.assert_contract(sub, [], {key: value} if route == "config" else {},
                             tmp_path, capsys)


class TestConfigPrecedence:
    def test_env_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KKSTAB_LMAX", "2")
        _, out = run_cli(["spectrum"], tmp_path, "env")
        cp = configparser.ConfigParser()
        cp.read(out / "resolved-config.ini")
        assert cp["spectrum"]["lmax"] == "2"

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KKSTAB_LMAX", "2")
        _, out = run_cli(["spectrum", "--lmax", "4"], tmp_path, "fe")
        cp = configparser.ConfigParser()
        cp.read(out / "resolved-config.ini")
        assert cp["spectrum"]["lmax"] == "4"

    def test_config_file_section(self, tmp_path):
        ini = tmp_path / "conf.ini"
        ini.write_text("[spectrum]\nlmax = 3\nperiods = 1,2\n")
        _, out = run_cli(["spectrum", "--config", str(ini)], tmp_path, "cf")
        cp = configparser.ConfigParser()
        cp.read(out / "resolved-config.ini")
        assert cp["spectrum"]["lmax"] == "3"
        assert cp["spectrum"]["periods"] == "1,2"

    def test_multiline_value_reruns_from_resolved_config(self, tmp_path):
        """A value with a continuation line is written back indented, so the
        run repeats from its own resolved-config.ini."""
        ini = tmp_path / "multiline.ini"
        ini.write_text("[spectrum]\nd = 3\nperiods = 1,1\n  ,2\nlmax = 3\n")
        code, out1 = run_cli(["spectrum", "--config", str(ini)], tmp_path, "ml1")
        assert code == 0
        code, out2 = run_cli(["spectrum", "--config",
                              str(out1 / "resolved-config.ini")], tmp_path, "ml2")
        assert code == 0
        for name in ("spectrum.txt", "resolved-config.ini"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_malformed_env_value_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KKSTAB_DR", "abc")
        code, _ = run_cli(["evolve"], tmp_path, "ev")
        assert code == 2
        assert stderr_line(capsys).startswith("kkstab: environment variable KKSTAB_DR: ")

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes(b"[spectrum]\n# caf\xe9\nlmax = 3\n")
        code, _ = run_cli(["spectrum", "--config", str(ini)], tmp_path, "l1")
        assert code == 2
        err = stderr_line(capsys)
        assert err.startswith("kkstab: config file ") and "is not UTF-8" in err

    def test_interpolation_error_exit_2(self, tmp_path, capsys):
        """configparser reports a stray '%' only when the value is read."""
        ini = tmp_path / "percent.ini"
        ini.write_text("[spectrum]\nlmax = 3%\n")
        code, _ = run_cli(["spectrum", "--config", str(ini)], tmp_path, "pc")
        assert code == 2
        assert stderr_line(capsys).startswith("kkstab: config parse error")

    def test_missing_config_usage_error(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestEveryKeyIsRead:
    """Each settable key changes an artifact besides resolved-config.ini and
    run-meta.json.  A short base run of each subcommand comes from a config
    file, and the changed value from the key's KKSTAB_* variable, which
    outranks the file.  A key missing from CHANGED fails."""

    BASE = {
        "spectrum": {"lmax": "3"},
        "evolve": {"n": "3", "t_end": "8", "dr": "0.125"},
        "energy": {"n": "3", "t_end": "8", "dr": "0.125", "slice_s": "4,5"},
        "schwarzschild": {},
        "geodesic": {"lam_end": "2"},
        "verify": {},
    }
    CHANGED = {
        ("spectrum", "d"): "3",
        ("spectrum", "periods"): "1,2",
        ("spectrum", "lmax"): "4",
        ("spectrum", "spectrum_file"): "internal-spectrum v1 d=2\n0.0 3\n",
        ("evolve", "n"): "5",
        ("evolve", "lam"): "1",
        ("evolve", "t_end"): "9",
        ("evolve", "dr"): "0.0625",
        ("evolve", "eps"): "1e-3",
        ("evolve", "slice_s"): "2.5",
        ("energy", "n"): "5",
        ("energy", "lam"): "1",
        ("energy", "t_end"): "9",
        ("energy", "dr"): "0.0625",
        ("energy", "slice_s"): "4,4.5",
        ("schwarzschild", "n"): "7",
        ("schwarzschild", "cs"): "0.2",
        ("schwarzschild", "r_lo"): "25",
        ("schwarzschild", "r_hi"): "150",
        ("schwarzschild", "samples"): "11",
        ("geodesic", "n"): "7",
        ("geodesic", "cs"): "0.2",
        ("geodesic", "r0"): "12",
        ("geodesic", "lam_end"): "3",
    }
    # the two keys that change no artifact, and what is asserted instead
    EXCEPTIONS = {
        # a cross-check of periods: a value that disagrees is refused
        ("spectrum", "d"): "exit 2",
        # no artifact holds evolve's captures yet; s = 2.5 lies before
        # t_start, so the forward sweep is not lengthened
        ("evolve", "slice_s"): "same artifacts",
    }

    @classmethod
    def run(cls, sub, tmp_path, name, env=None):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(f"[{sub}]\n" + "".join(
            f"{k} = {v}\n" for k, v in cls.BASE[sub].items()))
        with pytest.MonkeyPatch.context() as mp:
            for var, value in (env or {}).items():
                mp.setenv(var, value)
            code = main([sub, "--config", str(ini), "--out", str(tmp_path / name)])
        artifacts = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                     if p.name not in ("resolved-config.ini", "run-meta.json")}
        return code, artifacts

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        return {sub: self.run(sub, tmp_path_factory.mktemp(sub), "base")
                for sub in cli.DEFAULTS}

    @pytest.mark.parametrize("sub, key", [(sub, key) for sub, keys in
                                          cli.DEFAULTS.items() for key in keys])
    def test_key_changes_an_artifact(self, sub, key, base, tmp_path):
        assert (sub, key) in self.CHANGED, f"no changed value listed for {sub} {key}"
        value = self.CHANGED[sub, key]
        if key == "spectrum_file":
            (tmp_path / "alt.txt").write_text(value)
            value = str(tmp_path / "alt.txt")
        code, artifacts = self.run(sub, tmp_path, "changed",
                                   {"KKSTAB_" + key.upper(): value})
        base_code, base_artifacts = base[sub]
        assert base_code == 0
        outcome = self.EXCEPTIONS.get((sub, key))
        if outcome == "exit 2":
            assert code == 2
        else:
            assert code in (0, 1)
            same = artifacts == base_artifacts
            assert same is (outcome == "same artifacts"), (
                f"{sub} {key}={value!r} changes {'no' if same else 'an'} artifact")


class TestUsage:
    def test_no_subcommand_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["spectrum", "--does-not-exist", "1"]) == 2

    @pytest.mark.parametrize("args", [["energy", "--d", "2"],
                                      ["geodesic", "--d", "2"],
                                      ["verify", "--suite", "trivial"]],
                             ids=["energy-d", "geodesic-d", "verify-suite"])
    def test_removed_flag_is_a_usage_error(self, args, tmp_path, capsys):
        """Flags are not abbreviated, so energy's removed --d is not read
        as --dr."""
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert "unrecognized arguments: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "kkstab.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0

    def test_energy_runs_without_sympy(self, tmp_path):
        """The word expansion is exact integer algebra: a whole `energy` run
        never imports sympy."""
        script = ("import sys; from kkstab.cli import main; "
                  f"code = main(['energy', '--n', '3', '--dr', '0.0625', "
                  f"'--slice-s', '4,6,8', '--out', {str(tmp_path / 'e')!r}]); "
                  "print(code, 'sympy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_import_is_free_of_scipy_and_sympy(self):
        """Importing the package, its computing modules and the CLI loads
        neither scipy nor sympy: each is imported where a computation needs
        it."""
        script = ("import sys, kkstab; "
                  "import kkstab.evolve, kkstab.energy, kkstab.fields, "
                  "kkstab.internal, kkstab.schwarzschild, kkstab.cli; "
                  "print('scipy' in sys.modules, 'sympy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_spectrum_runs_without_scipy(self, tmp_path):
        """A whole `spectrum` run, run-meta.json's scipy version included,
        loads no scipy module."""
        script = ("import sys; from kkstab.cli import main; "
                  f"code = main(['spectrum', '--out', {str(tmp_path / 's')!r}]); "
                  "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]
        meta = json.loads((tmp_path / "s" / "run-meta.json").read_text())
        assert meta["versions"]["scipy"] == scipy.__version__
