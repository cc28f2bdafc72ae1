import numpy as np
import pytest

from kkstab import internal
from oracles import torus_spectrum_loop

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


@pytest.mark.parametrize("row", ["nan 1", "-1e400 2", "inf 3"])
def test_non_finite_eigenvalue_reports_line(tmp_path, row):
    path = tmp_path / "bad.txt"
    path.write_text(f"internal-spectrum v1 d=2\n0.0 3\n{row}\n")
    with pytest.raises(internal.SpectrumFileError, match="line 3: .* not finite"):
        internal.parse_spectrum_file(path)
