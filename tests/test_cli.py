"""End-to-end tests of the kkstab command line interface."""

import configparser
import json
import subprocess
import sys

import numpy as np
import pytest

from kkstab import evolve, schwarzschild
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


class TestVerify:
    def test_trivial_suite_passes(self, tmp_path):
        code, out = run_cli(["verify", "--suite", "trivial"], tmp_path, "v")
        assert code == 0
        report = json.loads((out / "verify-report.json").read_text())
        assert report["suite"] == "trivial"
        assert all(c["ok"] for c in report["checks"])
        assert len(report["checks"]) >= 5


class TestSpectrum:
    def test_default_run(self, tmp_path):
        code, out = run_cli(["spectrum", "--lmax", "3"], tmp_path, "s")
        assert code == 0
        first = (out / "spectrum.txt").read_text().splitlines()[0]
        assert first == "internal-spectrum v1 d=2"
        report = json.loads((out / "spectrum-report.json").read_text())
        assert report["linearly_stable"] is True
        assert report["min_eigenvalue"] == 0.0

    def test_unstable_input_exit_1(self, tmp_path):
        spec = tmp_path / "bad-spec.txt"
        spec.write_text("internal-spectrum v1 d=2\n-1.0 1\n0.0 3\n")
        code, out = run_cli(["spectrum", "--spectrum-file", str(spec)],
                            tmp_path, "u")
        assert code == 1

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
    del meta1["phases_s"], meta2["phases_s"]
    assert meta1 == meta2
    return meta1


class TestEvolve:
    def test_deterministic_byte_identical(self, tmp_path):
        args = ["evolve", "--n", "3", "--lambda", "0", "--t-end", "10",
                "--dr", "0.0625"]
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
        assert counts["steps"] == steps and counts["rhs_evals"] == 4 * steps
        assert 0 < counts["active_node_steps"] < counts["node_steps"]
        assert meta["versions"]["numpy"] == np.__version__
        assert set(meta["versions"]) == {"kkstab", "python", "numpy", "scipy"}
        assert meta["n"] == 9 and meta["n_in_theorem_range"] is True

    def test_outputs_present(self, tmp_path):
        code, out = run_cli(["evolve", "--n", "3", "--lambda", "0",
                             "--t-end", "10", "--dr", "0.0625"], tmp_path, "o")
        assert code == 0
        assert (out / "monitors.csv").exists()
        assert (out / "final-field.bin").exists()
        assert (out / "evolve-report.json").exists()


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
        assert meta["counts"]["steps"] > 0

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


class TestDomainErrors:
    """A computation refusing its input exits 2 with one stderr line, not
    with a traceback and the exit 1 of a failed check."""

    @pytest.mark.parametrize("args, message", [
        (["schwarzschild", "--samples", "5"], "need >= 10 positive samples"),
        (["geodesic", "--r0", "0.1"], "inside the guarded exterior"),
        (["energy", "--slice-s", "30"], "slice s=30.0 needs capture"),
        (["evolve", "--eps", "-0.001", "--n", "3", "--t-end", "10", "--dr",
          "0.0625"], "eps=-0.001 outside"),
        (["evolve", "--lambda", "nan", "--n", "3", "--t-end", "8", "--dr",
          "0.0625"], "lam=nan must be nonnegative"),
        (["evolve", "--eps", "0.001", "--lambda", "-1", "--n", "3", "--t-end",
          "10", "--dr", "0.0625"], "lam=-1.0 must be nonnegative"),
        (["evolve", "--n", "11"], "breaks RK4 stability"),
    ], ids=["schwarzschild", "geodesic", "energy", "evolve-eps",
            "evolve-lambda", "evolve-eps-lambda", "evolve-n11"])
    def test_exit_2_with_one_line(self, args, message, tmp_path, capsys):
        code, _ = run_cli(args, tmp_path, args[0])
        assert code == 2
        err = stderr_line(capsys)
        assert err.startswith("kkstab: ") and message in err


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
        code, _ = run_cli(["evolve", "--n", "3", "--t-end", "8", "--dr",
                           "0.0625"], tmp_path, "e")
        assert code == 1
        assert stderr_line(capsys) == "kkstab: non-finite field at t=5.0000"

    def test_step_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(schwarzschild, "integrate_geodesic", self._raise(
            schwarzschild.StepFailureError("geodesic integration failed")))
        code, _ = run_cli(["geodesic", "--lam-end", "10"], tmp_path, "g")
        assert code == 1
        assert stderr_line(capsys) == "kkstab: geodesic integration failed"


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


class TestUsage:
    def test_no_subcommand_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["spectrum", "--does-not-exist", "1"]) == 2

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
