"""Tests for the harmonic-gauge Schwarzschild machinery and geodesics."""

import warnings

import mpmath
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
    wave_gauge_residual,
)
from oracles import (
    product_slice_metric,
    rbar_of_r_bracketed,
    ricci_tensor,
    scalar_curvature,
    static_metric_dg_loop,
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

    @pytest.mark.parametrize("n, cs, message", [
        (9.5, 0.1, "n=9.5 must be an integer"),
        (True, 0.1, "n=True must be an integer"),
        (9, True, "cs=True must be a number, not a bool"),
    ], ids=["n-float", "n-bool", "cs-bool"])
    def test_field_types_refused(self, n, cs, message):
        with pytest.raises(ValueError, match=message):
            SchwarzschildParams(n=n, cs=cs)


class TestExactMetric:
    def test_lorentzian_signature(self):
        mp = schwarzschild_metric(P, 5.0)
        assert mp.lorentzian_signature()

    def test_flat_limit(self):
        p0 = SchwarzschildParams(n=9, cs=0.0)
        mp = schwarzschild_metric(p0, 3.0)
        assert np.allclose(mp.g, np.diag([-1.0] + [1.0] * 9))
        assert np.max(np.abs(mp.dg)) == 0.0

    def test_dg_has_the_bits_of_the_axis_loop(self):
        """The broadcast dg of every static metric equals the per-axis loop
        bit for bit, on points with zero components and profiles of mixed
        sizes and signs."""
        rng = np.random.default_rng(5)
        for i in range(50):
            n = int(rng.integers(5, 14))
            x = rng.standard_normal(n) * rng.uniform(0.5, 50.0)
            if i % 3 == 0:
                x[int(rng.integers(1, n)):] = 0.0
            r = float(np.linalg.norm(x))
            h00, dh00, a, da, b, db = rng.standard_normal(6) * 10.0 ** rng.uniform(-12, -1, 6)
            got = sw._static_metric(x, r, h00, dh00, a, da, b, db).dg
            want = static_metric_dg_loop(x, r, dh00, a, da, b, db)
            assert got.tobytes() == want.tobytes(), i

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
            MetricAtPoint(x=np.zeros(2), g=bad, ginv=np.linalg.inv(g),
                          dg=np.zeros((3, 3, 3)))


class TestHarmonicChart:
    def test_closed_form_matches_mpmath(self):
        """m and m' against 2F1 at 60 digits, from just outside the guard to
        100 horizon radii, on both sides of SERIES_Z (the series and
        hyp2f1): relative error <= 1e-13 (3.0e-14 measured)."""
        worst, branches = 0.0, set()
        with mpmath.workdps(60):
            for n in (5, 6, 9, 11, 13, 20):
                d = n - 2
                a, c = mpmath.mpf(-1) / d, mpmath.mpf(-2) / d
                for cs in (1e-13, 1e-3, 0.1, 1.0, 7.0):
                    ch = HarmonicChart(SchwarzschildParams(n=n, cs=cs))
                    for q in (1.0101, 1.05, 1.2, 2.0, 5.0, 20.0, 100.0):
                        rb = q * ch.params.horizon_radius
                        z = mpmath.mpf(cs) / mpmath.mpf(rb) ** d
                        branches.add(z >= sw.SERIES_Z)
                        one_minus_f = 1 - mpmath.hyp2f1(a, a, c, z)
                        zfp = a * a / c * z * mpmath.hyp2f1(a + 1, a + 1, c + 1, z)
                        want = (rb * one_minus_f, one_minus_f + d * zfp)
                        for got, exact in zip(ch.m_mp(rb), want):
                            worst = max(worst, float(abs(got / exact - 1)))
        assert branches == {False, True}
        assert worst <= 1e-13

    def test_m_below_chart_end_refused_quietly(self):
        """Below the chart's inner end z approaches 1 and passes it inside
        the horizon, where hyp2f1 gives NaN and a warning: m and m' refuse
        the radius instead."""
        ch = HarmonicChart(SchwarzschildParams(n=5, cs=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rb in (0.999 * ch._r_min, 0.5, float("nan")):
                with pytest.raises(HorizonError, match="chart ends at"):
                    ch.m_mp(rb)

    def test_roundtrip(self, chart):
        for rbar in (2.0, 10.0, 300.0):
            r = chart.r_of_rbar(rbar)
            assert chart.rbar_of_r(r) == pytest.approx(rbar, rel=1e-10)

    @pytest.mark.parametrize("r", [0.9, 0.95, 0.9932, 1.2, 2.0])
    def test_inverse_converges_near_horizon(self, r):
        """n = 5, C_S = 1 (horizon at rbar = 1): m' is not small there, where
        a fixed-point step rb <- r + m(rb) would barely move, yet Newton's
        method inverts r_of_rbar to 1e-12."""
        ch = HarmonicChart(SchwarzschildParams(n=5, cs=1.0))
        rb = ch.rbar_of_r(r)
        assert rb >= ch.params.horizon_radius
        assert abs(ch.r_of_rbar(rb) - r) <= 1e-12

    @pytest.mark.parametrize("cs", [1e-6, 0.1, 1e3])
    @pytest.mark.parametrize("n", [5, 9, 13])
    def test_inverse_against_bracketed_root(self, n, cs, monkeypatch):
        """At 50 radii from just outside the chart's inner end to 1e4 times
        it, rbar_of_r is within 1e-15 of the bracketed root, evaluates the
        chart at most 10 times, and at r >= 10 r_h lands on the float
        r + m(rbar) itself.  The massless chart returns r."""
        ch = HarmonicChart(SchwarzschildParams(n=n, cs=cs))
        calls = []
        m_mp = ch.m_mp
        monkeypatch.setattr(ch, "m_mp", lambda rb: calls.append(rb) or m_mp(rb))
        r_end = ch.r_of_rbar(ch._r_min)
        for r in np.geomspace(r_end * (1 + 1e-13), 1e4 * ch._r_min, 50).tolist():
            calls.clear()
            rb = ch.rbar_of_r(r)
            assert len(calls) <= 10
            assert abs(rb / rbar_of_r_bracketed(ch, r) - 1) <= 1e-15
            if r >= 10 * ch.params.horizon_radius:
                assert rb == r + m_mp(rb)[0]
        flat = HarmonicChart(SchwarzschildParams(n=n, cs=0.0))
        assert flat.rbar_of_r(r) is r

    def test_far_field_past_float_powers(self):
        """Where rbar^(n-2) overflows a float, m, f and f' still follow
        their far-field forms, and so does the tangential deviation."""
        p = SchwarzschildParams(n=5, cs=1e300)
        ch = HarmonicChart(p)
        for rb in (1e110, 1e160):
            assert ch.m_mp(rb)[0] == pytest.approx(1e300 / rb / rb / 6, rel=1e-12, abs=0)
            assert p.f(rb) == 1.0
        assert p.fp(1e110) == pytest.approx(3e300 / 1e110 / 1e110 / 1e110 / 1e110, rel=1e-12, abs=0)
        a = harmonic_deviation(ch, 1e160)["tangential"]
        assert a == pytest.approx(1e300 / 1e160 / 1e160 / 1e160 / 3, rel=1e-12, abs=0)

    def test_far_field_past_float_underflow(self):
        """Where rbar^(2-n) or z = cs rbar^(2-n) underflows a float while
        h00, dh00 or m is a normal float, each follows its leading term:
        h00 = cs r^(2-n), dh00 = (2-n) cs r^(1-n), m = cs rbar^(3-n) / (2(n-2))."""
        ch = HarmonicChart(SchwarzschildParams(n=5, cs=1e300))
        for r in (1e120, 1e160):
            dev = harmonic_deviation(ch, r)
            assert dev["h00"] == pytest.approx(1e300 / r / r / r, rel=1e-12, abs=0)
        dh00 = harmonic_deviation(ch, 1e120)["dh00"]
        assert dh00 == pytest.approx(-3e300 / 1e120 / 1e120 / 1e120 / 1e120, rel=1e-12, abs=0)
        assert ch.m_mp(1e300)[0] == pytest.approx(1e300 / 1e300 / 1e300 / 6, rel=1e-12, abs=0)

    def test_inverse_refuses_inside_chart(self):
        ch = HarmonicChart(SchwarzschildParams(n=5, cs=1.0))
        with pytest.raises(HorizonError, match="inside the guarded exterior"):
            ch.rbar_of_r(0.1)
        for r in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"harmonic radius {r} must be finite"):
                ch.rbar_of_r(r)

    def test_mass_profile_asymptote(self, chart):
        """m(r) ~ C_S r^{3-n} / (2(n-2)) far out."""
        r = 50.0
        expect = P.cs * r ** (3 - P.n) / (2.0 * (P.n - 2))
        assert chart.m_mp(r)[0] == pytest.approx(expect, rel=1e-12, abs=0)


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

    @pytest.mark.parametrize("cs", [0.1, 1e-13, 1e-30])
    @pytest.mark.parametrize("n", [5, 9, 11, 13])
    def test_tangential_leading_term(self, n, cs):
        """a = (rbar/r)^2 - 1 follows cs r^{2-n} / (n-2) within 1e-3 over
        r in [20, 200], also at masses far below the deviation's scale."""
        ch = HarmonicChart(SchwarzschildParams(n=n, cs=cs))
        for r in np.geomspace(20.0, 200.0, 6):
            a = harmonic_deviation(ch, r)["tangential"]
            assert abs(a / (cs * r ** (2 - n) / (n - 2)) - 1.0) <= 1e-3

    def test_wave_gauge_residual_is_round_off(self):
        """V^c = g^ab Gamma^c_ab is the round-off of its terms, |V^c| <= 4 eps
        sum_ab |g^ab Gamma^c_ab|, at 10 radii in [20, 200] and at the (n, cs)
        that the acceptance test's (9, 0.1) leaves out."""
        for n, cs in ((5, 1.0), (13, 0.1)):
            ch = HarmonicChart(SchwarzschildParams(n=n, cs=cs))
            for r in np.geomspace(20.0, 200.0, 10):
                mp = harmonic_metric(ch, r)
                terms = np.abs(np.einsum("ab,cab->cab", mp.ginv, mp.christoffels))
                bound = 4 * np.finfo(float).eps * terms.sum(axis=(1, 2))
                assert bound.max() > 0
                assert np.all(np.abs(wave_gauge_residual(ch, r)) <= bound)

    def test_flat_wave_gauge_exact_zero(self):
        p0 = SchwarzschildParams(n=9, cs=0.0)
        fn = lambda x: schwarzschild_metric(p0, x[1:]).g
        x = np.zeros(10)
        x[1] = 7.0
        v = wave_gauge_residual_of(fn, x)
        assert np.max(np.abs(v)) == 0.0

    def test_metric_consistency_with_deviation(self, chart):
        """harmonic_metric assembles eta + the deviation profiles bit for bit:
        with x on the first axis, g_00 = -1 + h00, the tangential g_22 =
        1 + a and the radial g_11 = (1 + a) + (b - a)."""
        r = 25.0
        g = harmonic_metric(chart, r).g
        dev = harmonic_deviation(chart, r)
        a, b = dev["tangential"], dev["radial"]
        assert g[0, 0] == -1.0 + dev["h00"]
        assert g[1, 1] == (1.0 + a) + (b - a)
        assert g[2, 2] == 1.0 + a

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

    @pytest.mark.parametrize("field, value, message", [
        ("x", np.array([10.0, 0.0, 0.0]), r"x has shape \(3,\), not \(9,\)"),
        ("v_x", np.eye(8)[0], r"v_x has shape \(8,\), not \(9,\)"),
        ("t", np.nan, "t=nan must be finite"),
        ("v_t", np.nan, "v_t=nan must be finite"),
    ], ids=["x-length", "v_x-length", "t-nan", "v_t-nan"])
    def test_malformed_state_refused(self, field, value, message):
        x0 = np.eye(9)[0] * 10.0
        init = GeodesicState(t=50.0, x=x0, v_t=1.1, v_x=np.eye(9)[0])
        setattr(init, field, value)
        with pytest.raises(ValueError, match=message):
            integrate_geodesic(HarmonicChart(P), init, lam_end=10.0)

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


class TestTrajectoryDrdt:
    def test_flat_radial_null_ray(self):
        p = SchwarzschildParams(n=9, cs=0.0)
        x0 = np.zeros(9)
        x0[0] = 5.0
        vx = np.zeros(9)
        vx[0] = 1.0
        init = GeodesicState(t=50.0, x=x0, v_t=1.0, v_x=vx)
        traj = integrate_geodesic(HarmonicChart(p), init, lam_end=3.0,
                                  n_output=10)
        drdt = traj.drdt
        # a flat radial null ray: dr/dt, read off the state, is 1 at every
        # sample, the first one included
        assert len(drdt) == len(traj.lam) >= 10
        assert np.all(np.abs(drdt - 1.0) <= 1e-15)
