import tracemalloc

import numpy as np
import pytest

from kkstab import internal
from oracles import torus_spectrum_box, torus_spectrum_loop

TWO_PI_SQ = 4.0 * np.pi ** 2


def direct_torus_eigenvalues(periods, cutoff):
    """Independent direct summation over the wavevector lattice."""
    out = []
    bound = int(np.ceil(np.sqrt(cutoff) * max(periods) / (2 * np.pi))) + 1
    ranges = [range(-bound, bound + 1)] * len(periods)
    import itertools
    for k in itertools.product(*ranges):
        lam = sum((2 * np.pi * ki / L) ** 2 for ki, L in zip(k, periods))
        if lam <= cutoff + 1e-12:
            out.append(lam)
    return sorted(out)


def test_unit_torus_spectrum_against_direct_sum():
    torus = internal.FlatTorus((1.0, 1.0))
    cutoff = TWO_PI_SQ * 25 + 1e-9
    spec = internal.lichnerowicz_spectrum(torus, cutoff)
    got = sorted(np.repeat([l for l, _ in spec.modes],
                           [m for _, m in spec.modes]))
    # each wavevector once per component of a symmetric 2-tensor on T^2
    oracle = np.repeat(direct_torus_eigenvalues((1.0, 1.0), cutoff), 3)
    assert len(got) == len(oracle)
    assert np.allclose(got, oracle, atol=1e-8)


def test_tensor_multiplicity_factor():
    torus = internal.FlatTorus((1.0, 1.0))
    spec = internal.lichnerowicz_spectrum(torus, 10.0)
    zero = [(l, m) for l, m in spec.modes if l == 0.0]
    assert len(zero) == 1
    assert zero[0][1] == internal.tensor_multiplicity(2)


def test_anisotropic_torus():
    torus = internal.FlatTorus((1.0, 2.0))
    spec = internal.lichnerowicz_spectrum(torus, 60.0)
    # k = (0, +-1): two wavevectors, three tensor components each
    assert [m for l, m in spec.modes if abs(l - TWO_PI_SQ / 4.0) < 1e-9] == [6]


#: Period sets against the wavevector loop, with the lmax of each: unit,
#: power-of-two and non-dyadic periods, a 3-torus whose axis terms round
#: differently when added in another order, and a nearly square torus whose
#: two lowest nonzero norms differ by 3e-9, below an 8-digit bucket key
LOOP_PERIODS = [
    ((1.0,), 40), ((1.0, 1.0), 15), ((1.0, 1.7), 15), ((0.5, 2.0, 1.0), 6),
    ((1.0, 1.0, 1.0), 6), ((np.pi, 1.3), 15), ((1.0, 1.0, 1.0, 1.0), 3),
    ((1.0, 1.7, 2.3), 6), ((1.0, 1.0 + 1.5e-9), 4),
]


# the "-False" suffix keeps each case's id stable for test lists that name it
@pytest.mark.parametrize("per_component", [False])
@pytest.mark.parametrize("periods,lmax", LOOP_PERIODS, ids=[
    ",".join(f"{L:.12g}" for L in periods) for periods, _ in LOOP_PERIODS])
def test_lattice_pass_matches_wavevector_loop(periods, lmax, per_component):
    # the cutoff of `kkstab spectrum --lmax`
    cutoff = TWO_PI_SQ * lmax ** 2 * sum(1.0 / L ** 2 for L in periods) + 1e-9
    spec = internal.lichnerowicz_spectrum(internal.FlatTorus(periods), cutoff)
    assert spec.d == len(periods)
    assert list(spec.modes) == torus_spectrum_loop(periods, cutoff)


#: Unequal periods, d = 1..6 from their first d, with the lmax of each
BOX_PERIODS = (1.0, 1.7, 0.6, 2.3, 1.3, 0.9)


@pytest.mark.parametrize("d, lmax", [(1, 40), (2, 12), (3, 6), (4, 4), (5, 2), (6, 2)])
def test_ball_matches_box(d, lmax):
    """Dropping partial sums past the cutoff after each axis keeps the
    norms, their buckets and each bucket's first wavevector of the whole
    box, filtered at the end."""
    periods = BOX_PERIODS[:d]
    cutoff = TWO_PI_SQ * lmax ** 2 * sum(1.0 / L ** 2 for L in periods) + 1e-9
    spec = internal.lichnerowicz_spectrum(internal.FlatTorus(periods), cutoff)
    assert list(spec.modes) == torus_spectrum_box(internal.FlatTorus(periods), cutoff)


def test_spectrum_memory_follows_the_ball():
    """d = 6 at lmax = 3 keeps 829201 (7%) of its 15^6 box of norms: the
    traced peak stays below 64 MiB (28 MiB measured), where the whole box
    of float64 norms and its mask took 185 MiB."""
    periods = (1.0,) * 6
    cutoff = TWO_PI_SQ * 9 * 6 + 1e-9
    tracemalloc.start()
    try:
        internal.lichnerowicz_spectrum(internal.FlatTorus(periods), cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak


def test_stability_certificates():
    torus = internal.FlatTorus((1.0,))
    ok, lam_min = internal.is_linearly_stable(torus)
    assert ok and lam_min == 0.0
    bad = internal.SpectralData(modes=((-1.0, 2), (3.0, 1)), d=6)
    ok, lam_min = internal.is_linearly_stable(bad)
    assert not ok and lam_min == -1.0


def test_spectrum_file_roundtrip(tmp_path):
    data = internal.SpectralData(modes=((0.0, 3), (39.478, 12)), d=2)
    path = tmp_path / "spec.txt"
    internal.write_spectrum_file(path, data)
    text = path.read_text()
    assert text.startswith("internal-spectrum v1 d=2")
    back = internal.parse_spectrum_file(path)
    assert back.d == 2
    assert len(back.modes) == 2


def test_malformed_spectrum_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("internal-spectrum v1 d=2\n1.0 3\noops\n")
    with pytest.raises(internal.SpectrumFileError) as err:
        internal.parse_spectrum_file(path)
    assert "line 3" in str(err.value)


def test_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 3\n")
    with pytest.raises(internal.SpectrumFileError):
        internal.parse_spectrum_file(path)


@pytest.mark.parametrize("text, message", [
    ("internal-spectrum v1 n=2\n0.0 3\n", "line 1: missing d=<d> in header"),
    ("# comment\ninternal-spectrum v1 d=x\n0.0 3\n", "line 2: bad dimension 'd=x'"),
    ("internal-spectrum v1 d=2\n0.0 3\nabc 1\n", "line 3: bad eigenvalue 'abc'"),
    ("internal-spectrum v1 d=2\n0.0 1.5\n", "line 2: bad multiplicity '1.5'"),
    ("internal-spectrum v1 d=2\n0.0 3\n\n1.0 0\n", "line 4: multiplicity must be positive"),
    ("internal-spectrum v1 d=2\n# no rows\n", "line 2: no modes listed"),
    ("# only a comment\n\n", "line 1: missing 'internal-spectrum v1' header"),
], ids=["header-without-d", "d-not-an-integer", "eigenvalue-abc", "multiplicity-1.5",
        "multiplicity-0", "header-without-rows", "no-header"])
def test_spectrum_file_refusal_names_its_line(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(internal.SpectrumFileError) as err:
        internal.parse_spectrum_file(path)
    assert str(err.value) == message


@pytest.mark.parametrize("modes, d, message", [
    (((0.0, 3), (1.0, 0)), 2, "mode multiplicities must be positive"),
    (((0.0, 3),), 0, "internal dimension d=0 must be positive"),
], ids=["multiplicity-0", "d-0"])
def test_spectral_data_refusals(modes, d, message):
    with pytest.raises(ValueError, match=message):
        internal.SpectralData(modes=modes, d=d)


@pytest.mark.parametrize("cutoff", [0.0, -1.0])
def test_nonpositive_cutoff_refused(cutoff):
    with pytest.raises(ValueError, match=f"cutoff must be positive, got {cutoff}"):
        internal.lichnerowicz_spectrum(internal.FlatTorus((1.0, 1.0)), cutoff)


@pytest.mark.parametrize("row", ["nan 1", "-1e400 2", "inf 3"])
def test_non_finite_eigenvalue_reports_line(tmp_path, row):
    path = tmp_path / "bad.txt"
    path.write_text(f"internal-spectrum v1 d=2\n0.0 3\n{row}\n")
    with pytest.raises(internal.SpectrumFileError, match="line 3: .* not finite"):
        internal.parse_spectrum_file(path)
