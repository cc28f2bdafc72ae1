"""Tests for hyperboloid slices, mode fields, slice sampling, mode
decomposition and snapshots."""

import dataclasses

import numpy as np
import pytest

from kkstab import fields, internal
from kkstab.fields import (
    ModeField,
    SliceData,
    SnapshotWriter,
    WindowError,
    make_slice,
    read_snapshot,
    write_snapshot,
)
from oracles import (AliasingError, mode_decompose, mode_reconstruct, sample_on_hyperboloid,
                     to_hyperboloidal)


def _analytic_field(lam=0.0, n=3, t0=2.0, dt=0.01, dr=0.05, nt=600, nr=200):
    """u = exp(-t) * cos(r) style separable smooth field (not a PDE solution;
    used only to exercise interpolation and storage)."""
    t = t0 + dt * np.arange(nt)
    r = dr * np.arange(nr)
    T, R = np.meshgrid(t, r, indexing="ij")
    u = np.exp(-0.3 * T) * np.cos(R)
    v = -0.3 * u
    return ModeField(lam=lam, n=n, t0=t0, dt=dt, dr=dr, u=u, v=v)


class TestModeField:
    def test_lattice_properties(self):
        f = _analytic_field()
        assert f.t1 == pytest.approx(2.0 + 0.01 * 599)
        assert f.r_max == pytest.approx(0.05 * 199)
        assert len(f.r) == 200

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModeField(lam=0.0, n=3, t0=2.0, dt=0.1, dr=0.1,
                      u=np.zeros((4, 5)), v=np.zeros((4, 6)))


class TestSliceSampling:
    def test_interpolation_accuracy(self):
        """Slice samples of a smooth separable field match the closed form."""
        f = _analytic_field()
        data = sample_on_hyperboloid(f, 3.0, r_cap=6.0)
        t_exact = data.t
        u_ref = np.exp(-0.3 * t_exact) * np.cos(data.r)
        assert np.max(np.abs(data.u - u_ref)) < 1e-6
        ut_ref = -0.3 * u_ref
        assert np.max(np.abs(data.ut - ut_ref)) < 1e-6
        ur_ref = -np.exp(-0.3 * t_exact) * np.sin(data.r)
        assert np.max(np.abs(data.ur - ur_ref)) < 1e-3  # O(dr^2)

    def test_second_derivatives_present(self):
        f = _analytic_field()
        data = sample_on_hyperboloid(f, 3.0, with_second=True, r_cap=6.0)
        urr_ref = -np.exp(-0.3 * data.t) * np.cos(data.r)
        assert np.max(np.abs(data.samples[0, 2] - urr_ref)) < 1e-2

    def test_window_error_outside_store(self):
        f = _analytic_field(nt=50)  # t in [2, 2.49]
        with pytest.raises(WindowError):
            sample_on_hyperboloid(f, 4.0, r_cap=2.0)

    def test_slice_data_time_derivative_closure(self):
        """d_t^2 closes through the radial KG operator: for u solving the
        mode equation, deriv(2, 0) equals Laplacian u - lam u."""
        s, n, dr, lam = 3.0, 3, 0.02, 1.0
        slc = make_slice(s, n, dr, r_cap=5.0)
        t, r = slc.t, slc.r
        # plane-like exact mode: u = cos(w t) j0(k r) with w^2 = k^2 + lam
        k = 2.0
        w = np.sqrt(k ** 2 + lam)
        u = np.cos(w * t) * np.sinc(k * r / np.pi)
        ut = -w * np.sin(w * t) * np.sinc(k * r / np.pi)
        x = k * r
        safe = np.where(x == 0, 1.0, x)
        dj = k * (np.cos(safe) / safe - np.sin(safe) / safe ** 2)
        dj[x == 0] = 0.0
        d2j = k ** 2 * (-np.sin(safe) / safe - 2 * np.cos(safe) / safe ** 2
                        + 2 * np.sin(safe) / safe ** 3)
        d2j[x == 0] = -k ** 2 / 3.0
        ur = np.cos(w * t) * dj
        urr = np.cos(w * t) * d2j
        data = SliceData(slc, lam, {(0, 0): u, (1, 0): ut, (0, 1): ur, (0, 2): urr})
        utt = data.deriv(2, 0)
        assert np.max(np.abs(utt - (-w ** 2 * u))) < 5e-3

    def test_missing_store_raises_window_error(self):
        slc = make_slice(3.0, 3, 0.1, r_cap=2.0)
        z = np.zeros_like(slc.r)
        data = SliceData(slc, 0.0, {(0, 0): z, (1, 0): z, (0, 1): z})
        with pytest.raises(WindowError, match="not available"):
            data.deriv(1, 2)


class TestModeDecomposition:
    def test_roundtrip_d1(self):
        torus = internal.FlatTorus(periods=(1.0,))
        m = 16
        base = np.random.default_rng(0).standard_normal((5,))
        theta = np.arange(m) / m
        h = base[:, None] * (1.0 + 0.5 * np.cos(2 * np.pi * 3 * theta))
        coeffs = mode_decompose(h, torus)
        back = mode_reconstruct(coeffs, torus, (m,))
        assert np.max(np.abs(back - h)) < 1e-12

    def test_roundtrip_d2(self):
        torus = internal.FlatTorus(periods=(1.0, 1.0))
        m = 8
        g1, g2 = np.meshgrid(np.arange(m) / m, np.arange(m) / m, indexing="ij")
        h = np.cos(2 * np.pi * (2 * g1 - g2))[None, :, :] * np.ones((3, 1, 1))
        coeffs = mode_decompose(h, torus)
        back = mode_reconstruct(coeffs, torus, (m, m))
        assert np.max(np.abs(back - h)) < 1e-12

    def test_nyquist_aliasing_guard(self):
        torus = internal.FlatTorus(periods=(1.0,))
        m = 8
        theta = np.arange(m) / m
        h = np.cos(2 * np.pi * 4 * theta)[None, :]  # exactly Nyquist for m=8
        with pytest.raises(AliasingError):
            mode_decompose(h, torus)


class TestSnapshots:
    def test_roundtrip_bitwise(self, tmp_path):
        """Read into memory, or mapped read-only (mmap=True)."""
        f = _analytic_field(lam=2.5, nt=40, nr=30)
        p = tmp_path / "field.kks"
        write_snapshot(p, f)
        for mmap in (False, True):
            g = read_snapshot(p, mmap=mmap)
            assert g.lam == f.lam and g.n == f.n
            assert g.dt == f.dt and g.dr == f.dr and g.t0 == f.t0
            assert np.array_equal(g.u, f.u) and np.array_equal(g.v, f.v)
            assert isinstance(g.u, np.memmap) == isinstance(g.v, np.memmap) == mmap
            assert g.u.flags.writeable == g.v.flags.writeable == (not mmap)

    @pytest.mark.parametrize("chunk", [1 << 20, 16])
    @pytest.mark.parametrize("rows, dt", [
        (12, 0.5), (3, 0.5), (3, 0.1 + 0.2), (1, 0.25), (11, 0.1 + 0.2)],
        ids=["all", "fewer-digits", "longer-dt", "one-row", "longer-dt-same-digits"])
    def test_writer_closed_at_the_rows_written(self, tmp_path, monkeypatch, rows, dt,
                                               chunk):
        """Rows written one at a time and closed at `rows` rows and `dt` give
        the bytes of write_snapshot of those rows, whether the header gets
        shorter (nt loses a digit) or longer (dt = 0.30000000000000004); a
        16-byte chunk moves the payload in many overlapping steps."""
        monkeypatch.setattr(fields, "_MOVE_CHUNK", chunk)
        f = _analytic_field(dt=0.5, nt=12, nr=7)
        out = SnapshotWriter(tmp_path / "streamed.kks", n=f.n, lam=f.lam, t0=f.t0,
                             dt=f.dt, dr=f.dr, shape=f.u.shape)
        for k in range(rows):
            out.u[k] = f.u[k]
            out.v[k] = f.v[k]
        out.close(rows, dt)
        write_snapshot(tmp_path / "whole.kks",
                       dataclasses.replace(f, dt=dt, u=f.u[:rows], v=f.v[:rows]))
        assert ((tmp_path / "streamed.kks").read_bytes()
                == (tmp_path / "whole.kks").read_bytes())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["streamed.kks", "whole.kks"]

    def test_numpy_scalar_header_round_trips(self, tmp_path):
        """A ModeField whose numbers are NumPy scalars writes plain floats,
        not "np.float64(0.01)", and reads back."""
        f = _analytic_field(lam=2.5, nt=10, nr=12)
        f = dataclasses.replace(f, lam=np.float64(f.lam), t0=np.float64(f.t0),
                                dt=np.float64(f.dt), dr=np.float64(f.dr))
        p = tmp_path / "field.kks"
        write_snapshot(p, f)
        assert p.read_bytes().split(b"\n")[1:3] == [
            b"n=3 lam=2.5 component=minkowski", b"dt=0.01 dr=0.05 t0=2.0"]
        g = read_snapshot(p)
        assert (g.lam, g.dt, g.dr, g.t0) == (2.5, 0.01, 0.05, 2.0)

    def test_magic_line(self, tmp_path):
        f = _analytic_field(nt=10, nr=10)
        p = tmp_path / "field.kks"
        write_snapshot(p, f)
        first = p.read_bytes().split(b"\n", 1)[0]
        assert first == b"kkstab-field v1"

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.kks"
        p.write_bytes(b"not-a-snapshot\nrest\n")
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(p)

    def test_truncated_payload_rejected(self, tmp_path):
        """A payload shorter than the header's shape names both byte counts."""
        f = _analytic_field(nt=10, nr=12)
        p = tmp_path / "field.kks"
        write_snapshot(p, f)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match=r"is 1912 bytes.*10x12 needs 1920 bytes"):
            read_snapshot(p)

    def test_header_lines(self, tmp_path):
        f = _analytic_field(lam=2.5, nt=10, nr=12)
        p = tmp_path / "field.kks"
        write_snapshot(p, f)
        assert p.read_bytes().split(b"\n")[1:4] == [
            b"n=3 lam=2.5 component=minkowski",
            b"dt=0.01 dr=0.05 t0=2.0", b"shape=10x12"]

    @staticmethod
    def _with_header_line(tmp_path, lineno, line):
        """A valid snapshot with its header line `lineno` (1-based) replaced."""
        p = tmp_path / "field.kks"
        write_snapshot(p, _analytic_field(nt=4, nr=5))
        lines = p.read_bytes().split(b"\n", 4)
        lines[lineno - 1] = line
        p.write_bytes(b"\n".join(lines))
        return p

    @pytest.mark.parametrize("lineno, line", [
        (2, b"n=3 component=minkowski"),
        (4, b"shape 4x5"),
        (3, b"dt=0.01 dr=abc t0=2.0"),
        (4, b"shape=4x5x1"),
        (2, b"n=3 n=3 lam=0.0 component=minkowski"),
        (3, b"dt=0.01 dr=0.05 t0=2.0 extra=1"),
    ], ids=["missing-key", "shape-without-equals", "bad-number", "three-dims",
            "repeated-key", "extra-key"])
    def test_bad_header_line_named(self, tmp_path, lineno, line):
        """Each malformed header line is a ValueError naming that line."""
        p = self._with_header_line(tmp_path, lineno, line)
        with pytest.raises(ValueError, match=f"bad snapshot header line {lineno} "
                                             f"'{line.decode()}'"):
            read_snapshot(p)

    def test_unknown_component_rejected(self, tmp_path):
        p = self._with_header_line(tmp_path, 2, b"n=3 lam=0.0 component=mixed")
        with pytest.raises(ValueError, match="line 2: component='mixed' is not "
                                             "'minkowski'"):
            read_snapshot(p)


def test_hyperboloidal_roundtrip():
    y = np.array([1.0, 2.0])
    t = np.sqrt(3.0 ** 2 + y @ y)  # the point (s = 3, y) of the slice
    s, y2 = to_hyperboloidal(t, y)
    assert abs(s - 3.0) < 1e-12
    assert np.allclose(y2, [1.0, 2.0])


def test_to_hyperboloidal_requires_interior():
    with pytest.raises(fields.DomainError):
        to_hyperboloidal(1.0, np.array([2.0]))


def test_t_max_on_slice():
    # t on the truncated slice r <= (s^2-1)/2 peaks at (s^2+1)/2
    s = 4.0
    slc = fields.make_slice(s, 3, 1.0 / 64)
    assert slc.t.max() <= (s * s + 1) / 2.0 + 1e-9


def test_sphere_area_values():
    assert abs(fields.sphere_area(2) - 2 * np.pi) < 1e-12
    assert abs(fields.sphere_area(3) - 4 * np.pi) < 1e-12


def test_slice_embedding_and_weights():
    slc = fields.make_slice(4.0, 3, 1.0 / 32)
    assert np.allclose(slc.t ** 2 - slc.r ** 2, 16.0)
    # quadrature: integral of 1 over the ball of slice radius
    r_max = slc.r[-1]
    vol = slc.integrate(np.ones_like(slc.r))
    exact = 4.0 / 3.0 * np.pi * r_max ** 3
    assert abs(vol - exact) / exact < 1e-3
    # 2t - 1 <= s^2 on the part |x| <= t - 1, and s^2 <= t^2 everywhere
    t, s2 = slc.t, slc.s ** 2
    assert np.all(2.0 * t[slc.r <= t - 1.0] - 1.0 <= s2 * (1 + 1e-12))
    assert np.all(s2 <= t ** 2 * (1 + 1e-12))


def test_slice_r_cap():
    slc = fields.make_slice(6.0, 3, 1.0 / 32, r_cap=5.0)
    assert slc.r[-1] <= 5.0 + 1e-12
    full = fields.make_slice(6.0, 3, 1.0 / 32)
    assert abs(full.r[-1] - (36 - 1) / 2.0) < 1.0 / 16


def test_small_s_rejected():
    with pytest.raises(ValueError):
        fields.make_slice(1.0, 3, 1.0 / 32)
