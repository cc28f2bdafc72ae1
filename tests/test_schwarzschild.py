"""Tests for the harmonic-gauge Schwarzschild machinery and geodesics."""

import numpy as np
import pytest

from kkstab import schwarzschild as sw
from kkstab.schwarzschild import (
    GeodesicState,
    HarmonicChart,
    HorizonError,
    MetricAtPoint,
    SchwarzschildParams,
    harmonic_deviation,
    harmonic_metric,
    integrate_geodesic,
    schwarzschild_metric,
    to_harmonic_chart,
    wave_gauge_residual,
)
from oracles import (
    product_slice_metric,
    ricci_tensor,
    scalar_curvature,
    wave_gauge_residual_of,
)

P = SchwarzschildParams(n=9, cs=0.1)


@pytest.fixture(scope="module")
def chart():
    return HarmonicChart(P)


class TestParams:
    def test_dimension_floor(self):
        with pytest.raises(ValueError, match="n >= 5"):
            SchwarzschildParams(n=4, cs=0.1)

    def test_negative_mass(self):
        with pytest.raises(ValueError):
            SchwarzschildParams(n=9, cs=-1.0)

    def test_horizon_radius(self):
        p = SchwarzschildParams(n=6, cs=16.0)
        assert p.horizon_radius == pytest.approx(2.0)
        assert SchwarzschildParams(n=9, cs=0.0).horizon_radius == 0.0

    def test_exterior_guard(self):
        with pytest.raises(HorizonError):
            P.check_exterior(0.5 * P.horizon_radius)


class TestExactMetric:
    def test_lorentzian_signature(self):
        mp = schwarzschild_metric(P, 5.0)
        assert mp.lorentzian_signature()

    def test_flat_limit(self):
        p0 = SchwarzschildParams(n=9, cs=0.0)
        mp = schwarzschild_metric(p0, 3.0)
        assert np.allclose(mp.g, np.diag([-1.0] + [1.0] * 9))
        assert np.max(np.abs(mp.dg)) == 0.0

    def test_analytic_dg_matches_fd(self):
        x = np.array([3.0, 1.0, -2.0, 0.5, 0.0, 0.0, 0.0, 0.0, 1.5])
        mp = schwarzschild_metric(P, x)
        step = 1e-5
        for k in (0, 2, 8):
            xp, xm = x.copy(), x.copy()
            xp[k] += step
            xm[k] -= step
            fd = (schwarzschild_metric(P, xp).g - schwarzschild_metric(P, xm).g) / (2 * step)
            assert np.max(np.abs(mp.dg[1 + k] - fd)) < 1e-8

    def test_vacuum_ricci(self):
        """The exact exterior metric is Ricci-flat (checked by nested FD)."""
        fn = lambda x: schwarzschild_metric(P, x[1:]).g
        x = np.zeros(10)
        x[1] = 4.0
        x[2] = 1.0
        ric = ricci_tensor(fn, x, step=1e-2)
        assert np.max(np.abs(ric)) < 1e-5

    def test_asymmetric_metric_rejected(self):
        g = np.diag([-1.0, 1.0, 1.0])
        bad = g.copy()
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            MetricAtPoint(chart="test", x=np.zeros(2), g=bad,
                          ginv=np.linalg.inv(g), dg=np.zeros((3, 3, 3)))


class TestHarmonicChart:
    def test_pinned_leading_example(self):
        """r(10) for C_S = 1, n = 9: leading transform gives 10 - 1/(2e6)."""
        p = SchwarzschildParams(n=9, cs=1.0)
        r = to_harmonic_chart(p, 10.0)
        assert r == pytest.approx(9.9999995, abs=1e-9)

    def test_ode_chart_matches_leading_far_out(self, chart):
        for rbar in (50.0, 200.0):
            r_lead = to_harmonic_chart(P, rbar)
            r_ode = chart.r_of_rbar(rbar)
            assert abs(r_lead - r_ode) < 1e-10 * rbar

    def test_roundtrip(self, chart):
        for rbar in (2.0, 10.0, 300.0):
            r = chart.r_of_rbar(rbar)
            assert chart.rbar_of_r(r) == pytest.approx(rbar, rel=1e-10)

    @pytest.mark.parametrize("r", [0.9, 0.95, 0.9932, 1.2, 2.0])
    def test_inverse_converges_near_horizon(self, r):
        """n = 5, C_S = 1 (horizon at rbar = 1): m' is not small there, so
        fixed-point steps alone do not invert r_of_rbar."""
        ch = HarmonicChart(SchwarzschildParams(n=5, cs=1.0))
        rb = ch.rbar_of_r(r)
        assert rb >= ch.params.horizon_radius
        assert abs(ch.r_of_rbar(rb) - r) <= 1e-12

    def test_inverse_refuses_inside_chart(self):
        ch = HarmonicChart(SchwarzschildParams(n=5, cs=1.0))
        with pytest.raises(HorizonError, match="inside the guarded exterior"):
            ch.rbar_of_r(0.1)

    def test_mass_profile_asymptote(self, chart):
        """m(r) ~ C_S r^{3-n} / (2(n-2)) far out."""
        r = 50.0
        expect = P.cs * r ** (3 - P.n) / (2.0 * (P.n - 2))
        assert chart.m(r) == pytest.approx(expect, rel=1e-3)


class TestHarmonicDeviation:
    def test_deviation_tail_slope(self, chart):
        """|g - eta| falls like r^{2-n} over r in [20, 200]."""
        radii = np.geomspace(20.0, 200.0, 8)
        mags = []
        for r in radii:
            dev = harmonic_deviation(chart, r)
            mags.append(np.sqrt(dev["h00"] ** 2 + dev["tangential"] ** 2
                                + dev["radial"] ** 2))
        slope = np.polyfit(np.log(radii), np.log(mags), 1)[0]
        assert slope == pytest.approx(-(P.n - 2), abs=0.05)

    def test_wave_gauge_residual_steeper(self, chart):
        """|V| decays faster than r^{-(n-1)} on the ODE chart."""
        radii = np.geomspace(20.0, 200.0, 8)
        vals = np.array([np.linalg.norm(wave_gauge_residual(chart, r))
                         for r in radii])
        # residuals sit at denormal scale; some radii underflow to exact zero
        keep = vals > 0
        assert keep.sum() >= 5
        slope = np.polyfit(np.log(radii[keep]), np.log(vals[keep]), 1)[0]
        assert slope < -(P.n - 1)
        assert vals.max() < 1e-20

    def test_flat_wave_gauge_exact_zero(self):
        p0 = SchwarzschildParams(n=9, cs=0.0)
        fn = lambda x: schwarzschild_metric(p0, x[1:]).g
        x = np.zeros(10)
        x[1] = 7.0
        v = wave_gauge_residual_of(fn, x)
        assert np.max(np.abs(v)) == 0.0

    def test_metric_consistency_with_deviation(self, chart):
        """harmonic_metric assembles exactly eta + deviation profiles."""
        r = 25.0
        mp = harmonic_metric(chart, r)
        dev = harmonic_deviation(chart, r)
        assert mp.g[0, 0] == pytest.approx(-1.0 + dev["h00"], rel=1e-12)
        # x on the first axis: radial direction is index 1
        assert mp.g[1, 1] == pytest.approx(1.0 + dev["radial"], rel=1e-12)
        assert mp.g[2, 2] == pytest.approx(1.0 + dev["tangential"], rel=1e-12)

    def test_one_radius_inversion_per_metric(self, monkeypatch):
        """harmonic_metric inverts the radius once, near the horizon (where
        the inversion takes a root) as in the far field, and still refuses
        a point inside the guarded exterior."""
        ch = HarmonicChart(SchwarzschildParams(n=5, cs=1.0))
        calls = []
        invert = ch.rbar_of_r
        monkeypatch.setattr(ch, "rbar_of_r",
                            lambda r: calls.append(r) or invert(r))
        for r in (1.2, 3.0, 20.0):
            calls.clear()
            harmonic_metric(ch, r)
            assert calls == [r]
        with pytest.raises(HorizonError):
            harmonic_metric(ch, 0.1)

    def test_harmonic_vacuum_ricci(self, chart):
        fn = lambda x: harmonic_metric(chart, x[1:]).g
        x = np.zeros(10)
        x[1] = 5.0
        assert abs(scalar_curvature(fn, x, step=1e-2)) < 1e-5


class TestConstraint:
    def test_time_symmetric_slice(self, chart):
        """Time-symmetric data: the Hamiltonian constraint reduces to a
        vanishing scalar curvature of the slice, and the momentum constraint
        holds identically."""
        fn = product_slice_metric(chart)
        x = np.zeros(9)
        x[0] = 5.0
        assert abs(scalar_curvature(fn, x, step=1e-2)) < 1e-4


@pytest.fixture(scope="module")
def null_radial():
    p = SchwarzschildParams(n=9, cs=0.05)
    ch = HarmonicChart(p)
    x0 = np.zeros(9)
    x0[0] = 10.0
    mp = harmonic_metric(ch, x0)
    vx = np.zeros(9)
    vx[0] = 1.0
    vt = np.sqrt(mp.g[1, 1] / -mp.g[0, 0])
    init = GeodesicState(t=50.0, x=x0, v_t=vt, v_x=vx)
    return integrate_geodesic(ch, init, lam_end=1500.0)


class TestGeodesics:

    def test_t_monotone(self, null_radial):
        traj = null_radial
        assert np.all(np.diff(traj.t) > 0)

    def test_null_norm_drift(self, null_radial):
        traj = null_radial
        drift = np.abs(traj.velocity_norm())
        per_lam = drift.max() / (traj.lam[-1] - traj.lam[0])
        assert per_lam < 1e-8

    def test_outgoing_speed_limit(self, null_radial):
        traj = null_radial
        r = traj.r
        drdt = np.gradient(r, traj.t)
        late = r > 1e3
        assert late.any()
        assert np.max(np.abs(drdt[late] - 1.0)) < 1e-3

    def test_energy_conserved(self, null_radial):
        traj = null_radial
        e = traj.energy()
        assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-9

    def test_spacelike_velocity_rejected(self):
        p = SchwarzschildParams(n=9, cs=0.0)
        vx = np.zeros(9)
        vx[0] = 2.0
        init = GeodesicState(t=50.0, x=np.zeros(9), v_t=1.0, v_x=vx)
        with pytest.raises(ValueError, match="spacelike"):
            integrate_geodesic(HarmonicChart(p), init, lam_end=10.0)

    def test_launch_cone_guard(self):
        p = SchwarzschildParams(n=9, cs=0.0)
        x0 = np.zeros(9)
        x0[0] = 10.0
        vx = np.zeros(9)
        vx[0] = 1.0
        init = GeodesicState(t=4.0, x=x0, v_t=1.0, v_x=vx)
        with pytest.raises(ValueError, match="exterior_probe"):
            integrate_geodesic(HarmonicChart(p), init, lam_end=10.0)

    def test_horizon_capture(self):
        p = SchwarzschildParams(n=5, cs=1.0)  # horizon at rbar = 1
        ch = HarmonicChart(p)
        x0 = np.zeros(5)
        x0[0] = 3.0
        mp = harmonic_metric(ch, x0)
        vx = np.zeros(5)
        vx[0] = -1.0
        vt = np.sqrt(mp.g[1, 1] / -mp.g[0, 0])
        init = GeodesicState(t=50.0, x=x0, v_t=vt, v_x=vx)
        traj = integrate_geodesic(ch, init, lam_end=100.0,
                                  exterior_probe=True)
        assert traj.captured

    def test_internal_motion_flat(self):
        """Torus velocity is constant: the product metric is block flat."""
        p = SchwarzschildParams(n=9, cs=0.0)
        x0 = np.zeros(9)
        x0[0] = 5.0  # off the coordinate origin (r = 0 is outside the chart)
        vx = np.zeros(9)
        init = GeodesicState(t=50.0, x=x0, v_t=1.0, v_x=vx,
                             torus=np.array([0.0]), v_torus=np.array([1.0]))
        traj = integrate_geodesic(HarmonicChart(p), init, lam_end=5.0)
        assert np.allclose(traj.v_torus, 1.0)
        assert traj.torus[-1, 0] == pytest.approx(5.0, rel=1e-9)


class TestTrajectoryCsv:
    def test_header_and_rows(self, tmp_path):
        p = SchwarzschildParams(n=9, cs=0.0)
        x0 = np.zeros(9)
        x0[0] = 5.0
        vx = np.zeros(9)
        vx[0] = 1.0
        init = GeodesicState(t=50.0, x=x0, v_t=1.0, v_x=vx)
        traj = integrate_geodesic(HarmonicChart(p), init, lam_end=3.0,
                                  n_output=10)
        path = tmp_path / "traj.csv"
        sw.write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert any("lam" in ln for ln in lines[:2])
        assert len(lines) >= 11
