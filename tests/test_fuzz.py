"""Seeded fuzz loops over the input parsers and the command line.

Valid inputs are mutated by byte flips, truncations and dropped tokens
(NumPy's generator, fixed seed).  Each parser succeeds or raises ValueError,
and `cli.main` returns 0, 1 or 2 with at most one stderr line.
"""

import re

import numpy as np
import pytest

from kkstab import cli, internal
from kkstab.fields import ModeField, read_snapshot, write_snapshot

SEED = 20240611
CASES = 60
SPECTRUM = b"internal-spectrum v1 d=2\n0.0 3  # constants\n39.47841760436 12\n78.95683520871 12\n"
INI = b"[common]\nd = 2\n\n[spectrum]\nperiods = 1,1\nlmax = 3\n"
ENV = {"KKSTAB_D": "2", "KKSTAB_PERIODS": "1,1", "KKSTAB_LMAX": "3"}


def mutate(data: bytes, rng, span: int | None = None) -> bytes:
    """1-3 byte flips or a dropped whitespace-separated token within
    data[:span], or a truncation anywhere."""
    span = len(data) if span is None else span
    kind = rng.integers(3)
    if kind == 0:
        buf = bytearray(data)
        for _ in range(rng.integers(1, 4)):
            buf[rng.integers(span)] = rng.integers(256)
        return bytes(buf)
    if kind == 1:
        return data[:rng.integers(len(data))]
    parts = re.split(rb"(\s+)", data[:span])
    words = [i for i, p in enumerate(parts) if p and not p.isspace()]
    del parts[words[rng.integers(len(words))]]
    return b"".join(parts) + data[span:]


def run_main(argv, capsys) -> int:
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and len(err.splitlines()) <= (code != 0), (code, err)
    return code


def parses(parser, path) -> bool:
    try:
        parser(path)
        return True
    except ValueError:
        return False


def test_spectrum_file(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    parsed = set()
    for case in range(CASES):
        path, out = tmp_path / f"spec{case}.txt", tmp_path / f"out{case}"
        path.write_bytes(mutate(SPECTRUM, rng))
        parsed.add(parses(internal.parse_spectrum_file, path))
        if run_main(["spectrum", "--spectrum-file", str(path), "--out", str(out)],
                    capsys) != 2:
            report = (out / "spectrum-report.json").read_text()
            assert "NaN" not in report and "Infinity" not in report
    assert parsed == {True, False}


def test_snapshot(tmp_path):
    t, r = np.meshgrid(2.0 + 0.1 * np.arange(4), 0.25 * np.arange(5), indexing="ij")
    u = np.cos(r) * np.exp(-t)
    write_snapshot(tmp_path / "field.kks",
                   ModeField(lam=1.5, n=3, t0=2.0, dt=0.1, dr=0.25, u=u, v=-u))
    data = (tmp_path / "field.kks").read_bytes()
    rng = np.random.default_rng(SEED)
    parsed = set()
    for case in range(CASES):
        path = tmp_path / f"field{case}.kks"
        path.write_bytes(mutate(data, rng, span=len(data) - 16 * u.size))
        parsed.add(parses(read_snapshot, path))
    assert False in parsed


def test_ini_file(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    codes = set()
    for case in range(CASES):
        ini = tmp_path / f"conf{case}.ini"
        ini.write_bytes(mutate(INI, rng))
        codes.add(run_main(["spectrum", "--config", str(ini),
                            "--out", str(tmp_path / f"out{case}")], capsys))
    assert {0, 2} <= codes


def _env_value(raw: bytes) -> str:
    return raw.decode("latin-1").replace("\0", "")  # no NUL in an environment


@pytest.mark.parametrize("key", sorted(ENV))
def test_env_values(tmp_path, capsys, monkeypatch, key):
    rng = np.random.default_rng(SEED)
    for k, v in ENV.items():
        monkeypatch.setenv(k, v)
    codes = set()
    for case in range(CASES // 3):
        monkeypatch.setenv(key, _env_value(mutate(ENV[key].encode(), rng)))
        codes.add(run_main(["spectrum", "--out", str(tmp_path / f"out{case}")], capsys))
    assert 2 in codes
