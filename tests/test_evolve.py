"""Tests for the radial evolution solvers and the quasilinear toy model."""

import filecmp
import inspect
from collections import deque

import numpy as np
import pytest

from kkstab import evolve as ev
from kkstab import fields
from kkstab.cli import main as cli_main
from kkstab.evolve import (
    CFLError,
    EvolutionConfig,
    SliceSampler,
    default_pulse,
    evolve_kg_radial,
    evolve_quasilinear_toy,
    flat_slice_energy,
    radial_laplacian,
)
from kkstab.internal import FlatTorus
from oracles import (ETA2, evolve_full_grid_torus, interp_rows, inverse_metric_einsum,
                     pack_sym, sample_on_hyperboloid)


def _dalembert_n3(pulse, t, r, t0):
    """Exact n=3 wave solution from (u0, v0=0): u = [(r+s)psi(r+s)+(r-s)psi(r-s)]/(2r),
    s = t - t0, with psi the even extension of the radial profile."""
    s = t - t0
    num = (r + s) * pulse(np.abs(r + s)) + (r - s) * pulse(np.abs(r - s))
    out = np.empty_like(r)
    nz = r > 1e-12
    out[nz] = num[nz] / (2.0 * r[nz])
    # r -> 0 limit: psi(s) + s psi'(s); use a small finite difference
    eps = 1e-6
    out[~nz] = ((s + eps) * pulse(abs(s + eps)) - (s - eps) * pulse(abs(s - eps))) / (2 * eps)
    return out


class TestConfig:
    def test_cfl_cap(self):
        with pytest.raises(CFLError):
            EvolutionConfig(n=3, cfl=0.6)

    def test_t_start_floor(self):
        with pytest.raises(ValueError):
            EvolutionConfig(n=3, t_start=1.0)

    def test_eps_cap(self):
        with pytest.raises(ValueError, match=r"outside \[0, eps_max=0.01\]"):
            EvolutionConfig(n=3, eps=0.5)
        assert EvolutionConfig(n=3, eps=ev.EPS_MAX).eps == 0.01

    def test_unknown_nonlinearity(self):
        with pytest.raises(ValueError):
            EvolutionConfig(n=3, nonlinearity="cubic")

    def test_entry_point_must_match_nonlinearity(self):
        """The entry point selects the model, and a config naming the other
        model is refused instead of being run as the entry point's."""
        quasi = EvolutionConfig(n=3, t_end=5.0, nonlinearity="quasilinear-toy")
        linear = EvolutionConfig(n=3, t_end=5.0)
        with pytest.raises(ValueError, match="nonlinearity='quasilinear-toy'"):
            evolve_kg_radial(0.0, 3, config=quasi)
        with pytest.raises(ValueError, match="nonlinearity='quasilinear-toy'"):
            evolve_full_grid_torus(3, FlatTorus((1.0,)), (None, None), quasi)
        with pytest.raises(ValueError, match="nonlinearity='linear'"):
            evolve_quasilinear_toy(linear)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            evolve_kg_radial(-1.0, 3, config=EvolutionConfig(n=3, t_end=5.0))
        quasi = EvolutionConfig(n=3, t_end=5.0, eps=1e-3,
                                nonlinearity="quasilinear-toy")
        for lam in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="must be nonnegative"):
                evolve_quasilinear_toy(quasi, lam=lam)

    @pytest.mark.parametrize("n", [3, 9, 11])
    def test_spectral_radius_matches_operator(self, n):
        """The symmetrised tridiagonal has the eigenvalues of the flux-form
        Laplacian itself, built column by column below the Dirichlet edge."""
        m = 400
        lap = np.stack([radial_laplacian(e, 1.0, n) for e in np.eye(m)], axis=1)
        eig = np.linalg.eigvals(lap[:-1, :-1])
        assert np.max(np.abs(eig.imag)) < 1e-8
        rho = np.max(np.abs(eig))
        assert abs(ev._laplacian_spectral_radius(n) - rho) <= 1e-10 * rho

    def test_rk4_bound_per_dimension(self):
        """cfl sqrt(rho(n)) <= 2 sqrt(2): the default cfl = 0.4 gives 2.03 at
        n = 9 and 3.04 at n = 11, whose largest stable cfl is 0.372."""
        assert 0.4 * np.sqrt(ev._laplacian_spectral_radius(9)) == pytest.approx(2.03, abs=0.01)
        assert 0.4 * np.sqrt(ev._laplacian_spectral_radius(11)) == pytest.approx(3.04, abs=0.01)
        EvolutionConfig(n=9)
        with pytest.raises(CFLError, match="cfl must be <= 0.3722"):
            EvolutionConfig(n=11)

    def test_n11_runs_inside_the_bound(self):
        cfg = EvolutionConfig(n=11, dr=1 / 32, cfl=0.35, t_end=12.0)
        res = evolve_kg_radial(0.0, 11, config=cfg)
        assert res.blowup_time is None
        assert np.all(np.isfinite(res.field.u))


class TestLaplacian:
    def test_spectrum_real_nonpositive(self):
        """The conservative stencil is self-adjoint in the r^{n-1} weight."""
        m, dr, n = 80, 0.1, 9
        A = np.stack([radial_laplacian(e, dr, n) for e in np.eye(m)], axis=1)
        # symmetrize under the weight to confirm; raw eigenvalues already real
        lam = np.linalg.eigvals(A[:-1, :-1])
        assert np.max(np.abs(lam.imag)) < 1e-10
        assert np.max(lam.real) < 1e-10

    def test_matches_continuum_on_polynomial(self):
        r = 0.01 * np.arange(400)
        u = r ** 2
        out = radial_laplacian(u, 0.01, 5)
        # Lap r^2 = 2 n in n dimensions; the conservative stencil carries an
        # O(1/k^2) truncation near the axis, and the axis row itself is exact
        assert out[0] == pytest.approx(10.0, abs=1e-10)
        assert np.max(np.abs(out[50:-1] - 10.0)) < 5e-3


class TestLinearEvolution:
    def test_dalembert_oracle_n3(self):
        """lam=0, n=3 run matches the exact spherical-means solution."""
        cfg = EvolutionConfig(n=3, dr=1 / 64, t_start=4.0, t_end=12.0,
                              r_max=16.0, store_history=True, store_every=4)
        res = evolve_kg_radial(0.0, 3, config=cfg)
        f = res.field
        r = f.r
        u_num = f.u[-1]
        t_fin = f.t0 + f.dt * (f.u.shape[0] - 1)
        u_ref = _dalembert_n3(default_pulse, t_fin, r, cfg.t_start)
        assert np.max(np.abs(u_num - u_ref)) < 2e-3

    def test_energy_conservation(self):
        cfg = EvolutionConfig(n=3, dr=1 / 32, t_start=4.0, t_end=20.0,
                              r_max=24.0, monitor_every=8, store_history=False)
        res = evolve_kg_radial(1.0, 3, config=cfg)
        e = res.monitors["energy"]
        # O(dr^2) quadrature transient, then flat
        assert np.max(np.abs(e - e[0])) / e[0] < 5e-3
        late = e[len(e) // 2:]
        assert np.max(np.abs(late - late[0])) / e[0] < 1e-4

    def test_finite_propagation_speed(self):
        cfg = EvolutionConfig(n=3, dr=1 / 32, t_start=4.0, t_end=14.0,
                              r_max=18.0, monitor_every=8, store_history=False)
        res = evolve_kg_radial(4.0, 3, config=cfg)
        t = res.monitors["t"]
        sup_r = res.monitors["support_radius"]
        # light cone from initial support radius 2 at t_start=4; the stencil
        # moves roundoff-level tails at the grid speed dr/dt = 1/cfl > 1, so
        # allow a one-unit halo on the 1e-12-relative support measure
        assert np.all(sup_r <= 2.0 + (t - 4.0) + 1.0)

    def test_self_convergence_order(self):
        """Richardson order between dr, dr/2, dr/4 is at least 1.8."""
        sols = {}
        for k, dr in enumerate((1 / 16, 1 / 32, 1 / 64)):
            cfg = EvolutionConfig(n=3, dr=dr, t_start=4.0, t_end=8.0,
                                  r_max=12.0, store_history=True, store_every=1)
            res = evolve_kg_radial(0.0, 3, config=cfg)
            sols[dr] = res.field.u[-1][:: 2 ** k * 4]
        e1 = np.max(np.abs(sols[1 / 16] - sols[1 / 32]))
        e2 = np.max(np.abs(sols[1 / 32] - sols[1 / 64]))
        order = np.log2(e1 / e2)
        assert order > 1.8

    def test_forcing_term(self):
        """Zero data + forcing f(t) localized at origin produces response."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=6.0, r_max=8.0,
                              store_history=False, monitor_every=4)
        zero = (lambda r: np.zeros_like(r), lambda r: np.zeros_like(r))
        res = evolve_kg_radial(0.0, 3, init=zero, config=cfg,
                               forcing=lambda t, r: default_pulse(r))
        assert res.monitors["sup"][-1] > 1e-3

    def test_slice_capture_matches_field_sampling(self):
        """Sampler-captured slices agree with post-hoc field interpolation."""
        cfg = EvolutionConfig(n=3, dr=1 / 32, t_start=4.0, t_end=14.0,
                              r_max=18.0, store_history=True, store_every=1)
        res = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(5.0,))
        direct = res.slices[5.0]
        posthoc = sample_on_hyperboloid(res.field, 5.0, r_cap=direct.r.max())
        assert np.max(np.abs(direct.u - posthoc.u)) < 1e-6
        assert np.max(np.abs(direct.ut - posthoc.ut)) < 1e-6

    def test_backward_sweep_for_early_slices(self):
        """Slices reaching below t_start are completed by time reversal."""
        cfg = EvolutionConfig(n=3, dr=1 / 32, t_start=4.0, t_end=10.0,
                              r_max=14.0, store_history=False)
        res = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(2.5,))
        data = res.slices[2.5]
        assert data.t.min() < 4.0
        assert np.all(np.isfinite(data.u))
        assert np.max(np.abs(data.u)) > 1e-6

    def test_slice_beyond_grid_rejected(self):
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=40.0, r_max=10.0,
                              store_history=False)
        with pytest.raises(ValueError, match="slice_r_cap|grid"):
            evolve_kg_radial(0.0, 3, config=cfg, slice_s=(8.0,))

    def test_blowup_guard_fires(self):
        """config.blowup_factor guards the linear solver as it does the
        surrogate: a growing source lifts sup|u| past 1.5 max|u0|."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=14.0,
                              store_history=False, blowup_factor=1.5)
        res = evolve_kg_radial(0.0, 3, config=cfg,
                               forcing=lambda t, r: t * default_pulse(r))
        assert res.blowup_time is not None and res.blowup_time < 10.0

    def test_observer_columns(self):
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=6.0, r_max=8.0,
                              observers=(0.0, 1.0), monitor_every=4,
                              store_history=False)
        res = evolve_kg_radial(0.0, 3, config=cfg)
        assert "obs_r0" in res.monitors and "obs_r1" in res.monitors
        assert len(res.monitors["obs_r0"]) == len(res.monitors["t"])


class TestQuasilinearToy:
    def test_eps_zero_bitwise_linear(self):
        """eps=0 components with power-of-two amplitudes reproduce the linear
        run bit for bit."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0,
                              r_max=14.0, store_every=1, nonlinearity="quasilinear-toy")
        resq = evolve_quasilinear_toy(cfg, lam=0.0)
        cfg_lin = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0,
                                  r_max=14.0, store_every=1)
        res_lin = evolve_kg_radial(0.0, 3, config=cfg_lin)
        u_lin = res_lin.field.u
        assert np.array_equal(resq.component_fields[0].u, u_lin)
        assert np.array_equal(resq.component_fields[2].u, -u_lin)

    def test_small_eps_stays_near_linear(self):
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0,
                              r_max=14.0, eps=1e-4, store_every=1,
                              nonlinearity="quasilinear-toy", blowup_factor=100.0)
        resq = evolve_quasilinear_toy(cfg, lam=0.0)
        assert resq.blowup_time is None
        res_lin = evolve_kg_radial(0.0, 3, config=EvolutionConfig(
            n=3, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=14.0, store_every=1))
        diff = np.max(np.abs(resq.component_fields[0].u - res_lin.field.u))
        assert 0.0 < diff < 1e-2

    def test_default_guard_passes_linear_focusing(self):
        """At n = 9 the default pulse focuses to about 59 max|u0| at the axis
        by linear dynamics alone; the default blowup_factor lets it pass."""
        cfg = EvolutionConfig(n=9, dr=1 / 32, t_start=4.0, t_end=8.0, r_max=10.0,
                              eps=1e-3, nonlinearity="quasilinear-toy",
                              store_history=False, monitor_every=1)
        res = evolve_quasilinear_toy(cfg, lam=0.0)
        assert res.monitors["sup"].max() > 10.0
        assert res.blowup_time is None

    def test_slice_beyond_grid_rejected(self):
        """As for the linear solver: s = 6 capped at r = 17 leaves the grid
        (r_max = 14) instead of being clamped to its edge column."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=14.0,
                              store_history=False, nonlinearity="quasilinear-toy")
        with pytest.raises(ValueError, match="beyond the grid"):
            evolve_quasilinear_toy(cfg, slice_s=(6.0,), slice_r_cap=17.0)

    def test_initial_support_checked(self):
        """Data reaching past t_start - 2 leave the support cone r <= t - 1."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=6.0, r_max=10.0,
                              store_history=False, nonlinearity="quasilinear-toy")
        r = cfg.dr * np.arange(int(cfg.r_max / cfg.dr) + 1)
        wide = np.stack([default_pulse(r, width=3.0)] * 3)
        with pytest.raises(ValueError, match="support radius"):
            evolve_quasilinear_toy(cfg, init=(wide, np.zeros_like(wide)))

    def test_blowup_guard_fires(self):
        cfg = EvolutionConfig(n=9, dr=1 / 16, t_start=4.0, t_end=30.0,
                              r_max=32.0, store_history=False,
                              nonlinearity="quasilinear-toy", blowup_factor=1.5)
        res = evolve_quasilinear_toy(cfg, lam=0.0)
        assert res.blowup_time is not None

    def test_inverse_metric_expansion(self):
        """(eta + h)^{-1} - eta^{-1} matches the exact inverse to O(h^3)."""
        rng = np.random.default_rng(3)
        h = 1e-3 * rng.standard_normal((2, 2))
        h = 0.5 * (h + h.T)
        eta = np.diag([-1.0, 1.0])
        exact = np.linalg.inv(eta + h) - eta
        approx = pack_sym(*ev.inverse_metric_components((h[0, 0], h[0, 1], h[1, 1])))
        assert np.max(np.abs(approx - exact)) < 1e-8


#: component shapes of the oracle draws: one point, a right-hand side of
#: 385 nodes, and a stored (nt, nr) history
ORACLE_SHAPES = [(), (385,), (40, 200)]
ORACLE_RTOL = 1e-14


def q_einsum(ginv, dg):
    """Oracle: the five contractions of Q with dg[..., nu, a, b] = d_nu g_ab."""
    opt = True
    t1 = np.einsum("...cd,...ab,...ndb,...amc->...mn", ginv, ginv, dg, dg, optimize=opt)
    t2 = np.einsum("...cd,...ab,...mca,...bnd->...mn", ginv, ginv, dg, dg, optimize=opt)
    t3 = np.einsum("...cd,...ab,...ndb,...mca->...mn", ginv, ginv, dg, dg, optimize=opt)
    t4 = np.einsum("...cd,...ab,...cma,...dnb->...mn", ginv, ginv, dg, dg, optimize=opt)
    t5 = np.einsum("...cd,...ab,...cma,...bnd->...mn", ginv, ginv, dg, dg, optimize=opt)
    return t1 + t2 - 0.5 * t3 + t4 - t5


def quasilinear_coefficients_einsum(u3, v3, ur3, eps):
    h = pack_sym(*(eps * u3))
    ginv = np.linalg.inv(ETA2 + h)
    dg = np.stack([pack_sym(*(eps * v3)), pack_sym(*(eps * ur3))], axis=-3)
    q = q_einsum(ginv, dg)
    return inverse_metric_einsum(h), np.stack([q[..., 0, 0], q[..., 0, 1], q[..., 1, 1]])


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestClosedFormOracle:
    """The component formulas against the generic einsum contractions, on
    seeded draws with |eps u| up to 0.1."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_inverse_metric_matches_einsum(self, shape):
        rng = np.random.default_rng(11)
        h3 = rng.uniform(-0.1, 0.1, (3,) + shape)
        h = pack_sym(*h3)
        got = pack_sym(*ev.inverse_metric_components(h3))
        assert got.shape == h.shape
        assert _rel_err(got, inverse_metric_einsum(h)) <= ORACLE_RTOL

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_coefficients_match_einsum(self, shape):
        rng = np.random.default_rng(12)
        u3, v3, ur3 = (rng.uniform(-1.0, 1.0, (3,) + shape) for _ in range(3))
        H, q3 = ev.quasilinear_coefficients(u3, v3, ur3, 0.1)
        H_o, q3_o = quasilinear_coefficients_einsum(u3, v3, ur3, 0.1)
        assert H.shape == shape + (2, 2) and q3.shape == (3,) + shape
        assert _rel_err(H, H_o) <= ORACLE_RTOL
        assert _rel_err(q3, q3_o) <= ORACLE_RTOL

    def test_q_is_symmetric_in_the_oracle(self):
        """Packing Q as (00, 0r, rr) drops nothing: Q_r0 = Q_0r."""
        rng = np.random.default_rng(13)
        h = pack_sym(*rng.uniform(-0.1, 0.1, (3, 50)))
        dg = np.stack([pack_sym(*rng.uniform(-0.1, 0.1, (3, 50))) for _ in range(2)],
                      axis=-3)
        q = q_einsum(np.linalg.inv(ETA2 + h), dg)
        assert np.allclose(q[..., 0, 1], q[..., 1, 0], rtol=1e-13, atol=0.0)


def full_grid_laplacian(u, dr, n):
    """Oracle: the flux-form Laplacian with coefficients built for this
    array's own length."""
    size = u.shape[-1]
    k = np.arange(1, size - 1, dtype=float)
    rp = ((k + 0.5) / k) ** (n - 1)
    rm = ((k - 0.5) / k) ** (n - 1)
    out = np.empty_like(u)
    inv_dr2 = 1.0 / dr ** 2
    d = u[..., 1:] - u[..., :-1]
    out[..., 1:-1] = (rp * d[..., 1:] - rm * d[..., :-1]) * inv_dr2
    out[..., 0] = n * 2.0 * d[..., 0] * inv_dr2
    out[..., -1] = 0.0
    return out


def full_grid_sweep(u, v, t0, n_steps, dt, accel, sampler, on_monitor=None,
                    monitor_every=0, guard_scale=None, blowup_factor=np.inf,
                    cfl_check=None, **_):
    """Oracle: the RK4 loop that steps every column of the grid."""
    t = t0
    if sampler is not None:
        sampler.new_sweep()
        sampler.observe(t, u, v)
    if on_monitor is not None:
        on_monitor(0, t, u, v)
    for j in range(1, n_steps + 1):
        half = 0.5 * dt
        k1v = accel(t, u, v)
        u2 = u + half * v
        v2 = v + half * k1v
        k2v = accel(t + half, u2, v2)
        u3 = u + half * v2
        v3 = v + half * k2v
        k3v = accel(t + half, u3, v3)
        u4 = u + dt * v3
        v4 = v + dt * k3v
        k4v = accel(t + dt, u4, v4)
        u = u + (dt / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        u[..., -1] = 0.0
        v[..., -1] = 0.0
        t = t0 + j * dt
        if sampler is not None:
            sampler.observe(t, u, v)
        if j % 50 == 0 or j == n_steps:
            sup = float(np.max(np.abs(u)))
            if not np.isfinite(sup):
                raise ev.NaNGuardError(f"non-finite field at t={t:.4f}")
            if guard_scale is not None and sup > blowup_factor * guard_scale:
                return t
            if cfl_check is not None:
                cfl_check(t, u)
        if on_monitor is not None and monitor_every and j % monitor_every == 0:
            on_monitor(j, t, u, v)
    return None


@pytest.fixture
def full_grid(monkeypatch):
    """Runs fn() with the full-grid oracle sweep and Laplacian in place."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(ev, "_run_sweep", full_grid_sweep)
            m.setattr(ev, "radial_laplacian", full_grid_laplacian)
            return fn()
    return run


def _result_bytes(res) -> dict:
    """Every array of a result, by name, as bytes: -0.0 and 0.0 differ."""
    out = {"blowup_time": repr(res.blowup_time)}
    out.update((f"monitor {k}", v.tobytes()) for k, v in res.monitors.items())
    fields_ = [res.field] if res.field is not None else res.component_fields or []
    for c, f in enumerate(fields_):
        out[f"history {c}"] = (f.u.shape, f.u.tobytes(), f.v.tobytes())
    slices = {s: [d] for s, d in res.slices.items()}
    slices.update(res.component_slices)
    for s, comps in slices.items():
        for c, d in enumerate(comps):
            for key in SAMPLE_KEYS:
                a = getattr(d, key)
                out[f"slice {s} {c} {key}"] = None if a is None else a.tobytes()
    return out


class TestActiveWindow:
    """The windowed sweep against the full-grid oracle, byte for byte."""

    @pytest.mark.parametrize("n, lam", [(3, 0.0), (3, 0.5), (9, 2.0)])
    def test_kg_matches_full_grid(self, full_grid, n, lam):
        # s = 2.5 crosses t_start = 4, so the backward sweep captures too
        cfg = EvolutionConfig(n=n, dr=1 / 16, t_start=4.0, t_end=12.0,
                              r_max=16.0, store_every=1, monitor_every=4,
                              sample_derivs=3)

        def run():
            return evolve_kg_radial(lam, n, config=cfg, slice_s=(2.5, 5.0))

        got = run()
        want = full_grid(run)
        assert got.slices[2.5].t.min() < cfg.t_start
        assert _result_bytes(got) == _result_bytes(want)
        assert got.counts["active_node_steps"] < got.counts["node_steps"]

    @pytest.mark.parametrize("case", ["slices", "blow-up"])
    def test_quasilinear_matches_full_grid(self, full_grid, case):
        """The third component starts as -pulse, whose -0.0 columns hold the
        window open until the rescan after they turn +0.0."""
        if case == "slices":
            cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=12.0,
                                  r_max=16.0, eps=1e-3, store_every=1,
                                  nonlinearity="quasilinear-toy", blowup_factor=100.0)
            slice_s = (3.0, 4.5, 5.0)
        else:
            cfg = EvolutionConfig(n=9, dr=1 / 16, t_start=4.0, t_end=30.0,
                                  r_max=32.0, nonlinearity="quasilinear-toy",
                                  blowup_factor=1.5)
            slice_s = ()

        def run():
            return evolve_quasilinear_toy(cfg, slice_s=slice_s)

        got = run()
        want = full_grid(run)
        assert _result_bytes(got) == _result_bytes(want)
        if case == "slices":
            assert got.counts["active_node_steps"] < got.counts["node_steps"]
        else:
            assert got.blowup_time is not None

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_every_step_matches_full_grid(self, direction, eps):
        """Every state of both sweeps, including the -0.0 that the -pulse
        component keeps past the front when the sweep runs backward."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=12.0,
                              eps=eps, nonlinearity="quasilinear-toy")
        r = cfg.dr * np.arange(int(cfg.r_max / cfg.dr) + 1)
        u0 = ev._default_pulse3(r)
        assert np.signbit(u0[2, -1])
        states = {}
        for name, sweep in (("window", ev._run_sweep), ("full", full_grid_sweep)):
            seen = states[name] = []
            sweep(u0.copy(), np.zeros_like(u0), cfg.t_start, 150, direction * cfg.dt,
                  ev._quasilinear_accel(cfg, 0.0), None, monitor_every=1,
                  on_monitor=lambda j, t, u, v: seen.append(u.tobytes() + v.tobytes()))
        assert len(states["window"]) == 151
        assert states["window"] == states["full"]

    def test_eps_zero_bytes_of_the_linear_solver(self):
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0,
                              r_max=14.0, store_every=1, nonlinearity="quasilinear-toy")
        resq = evolve_quasilinear_toy(cfg, lam=0.0)
        lin = evolve_kg_radial(0.0, 3, config=EvolutionConfig(
            n=3, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=14.0, store_every=1))
        assert resq.component_fields[0].u.tobytes() == lin.field.u.tobytes()
        assert resq.component_fields[0].v.tobytes() == lin.field.v.tobytes()
        assert np.array_equal(resq.component_fields[2].u, -lin.field.u)

    def test_torus_matches_full_grid(self, full_grid):
        """The theta FFT acts column by column, so the window holds there."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=9.0,
                              r_max=12.0, store_every=2)
        init = (lambda r, th: default_pulse(r) * (1.0 + 0.3 * np.cos(2 * np.pi * th)),
                lambda r, th: np.zeros_like(r))

        def run():
            return evolve_full_grid_torus(3, FlatTorus((1.0,)), init, cfg,
                                          m_theta=8)

        (t_got, u_got), (t_want, u_want) = run(), full_grid(run)
        assert t_got == pytest.approx(t_want, abs=0.0)
        assert u_got.shape == u_want.shape and u_got.tobytes() == u_want.tobytes()

    def test_forcing_steps_the_whole_grid(self, full_grid):
        """A forcing's support is unknown: its run is the full-grid sweep."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=8.0,
                              r_max=12.0, store_every=1)

        def run():
            return evolve_kg_radial(0.0, 3, config=cfg, slice_s=(5.0,),
                                    forcing=lambda t, r: np.sin(t) * default_pulse(r, 1.0))

        got = run()
        assert _result_bytes(got) == _result_bytes(full_grid(run))
        assert got.counts["active_node_steps"] == got.counts["node_steps"]

    def test_counts(self):
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0,
                              r_max=14.0, store_history=False)
        res = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(2.5,))
        forward = int(np.ceil((cfg.t_end - cfg.t_start) / cfg.dt - 1e-9))
        backward = int(np.ceil((cfg.t_start - res.slices[2.5].t.min()) / cfg.dt)) + 4
        nodes = int(round(14.0 * 16)) + 1
        assert res.counts["steps"] == forward + backward
        assert res.counts["rhs_evals"] == 4 * res.counts["steps"]
        assert res.counts["node_steps"] == nodes * res.counts["steps"]
        assert 0 < res.counts["active_node_steps"] < res.counts["node_steps"]

    def test_cli_artifacts_match_full_grid(self, full_grid, tmp_path):
        args = ["evolve", "--n", "5", "--lambda", "1", "--t-end", "12",
                "--dr", "0.03125"]
        assert cli_main(args + ["--out", str(tmp_path / "window")]) == 0
        assert full_grid(lambda: cli_main(args + ["--out", str(tmp_path / "full")])) == 0
        for name in ("final-field.bin", "monitors.csv", "evolve-report.json"):
            assert filecmp.cmp(tmp_path / "window" / name, tmp_path / "full" / name,
                               shallow=False), name

    def test_sweep_parameters_the_benchmark_binds(self):
        """kkbench/layers.py binds these _run_sweep parameters by name to span
        the right-hand side and to count node-steps; a renamed one would
        silently stop the count."""
        params = inspect.signature(ev._run_sweep).parameters
        for name in ("u", "n_steps", "accel", "on_monitor"):
            assert name in params, name


class TestLaplacianCache:
    def test_one_entry_per_n(self, monkeypatch):
        """Runs on several grids, each stepping windows of many sizes, leave
        one coefficient pair per n, as long as the longest grid needs."""
        monkeypatch.setattr(ev, "_LAP_COEFF_CACHE", {})
        for n, r_max in ((3, 10.0), (3, 14.0), (5, 8.0), (3, 6.0)):
            evolve_kg_radial(0.0, n, config=EvolutionConfig(
                n=n, dr=1 / 16, t_end=8.0, r_max=r_max, store_history=False))
        assert sorted(ev._LAP_COEFF_CACHE) == [3, 5]
        assert len(ev._LAP_COEFF_CACHE[3][0]) == 14 * 16 + 1 - 2
        assert len(ev._LAP_COEFF_CACHE[5][0]) == 8 * 16 + 1 - 2

    @pytest.mark.parametrize("n", [3, 9])
    def test_prefix_has_the_bits_of_its_own_coefficients(self, monkeypatch, n):
        monkeypatch.setattr(ev, "_LAP_COEFF_CACHE", {})
        u = np.random.default_rng(5).standard_normal((2, 3001))
        radial_laplacian(u, 0.01, n)
        for m in (3, 5, 6, 17, 64, 1000, 2999, 3001):
            got = radial_laplacian(u[..., :m], 0.01, n)
            assert got.tobytes() == full_grid_laplacian(u[..., :m], 0.01, n).tobytes(), m
        assert list(ev._LAP_COEFF_CACHE) == [n]


class TestEnergyMonitor:
    def test_flat_slice_energy_positive_definite(self):
        r = 0.05 * np.arange(100)
        u = default_pulse(r)
        e = flat_slice_energy(u, np.zeros_like(u), 0.05, 3, 1.0)
        assert e > 0.0
        assert flat_slice_energy(np.zeros_like(u), np.zeros_like(u), 0.05, 3, 1.0) == 0.0


def _stencil_sample(row, cols, b, dr):
    """Oracle: b-th radial derivative at the given columns, even extension
    at r=0, one gather per stencil offset."""
    top = row.shape[-1] - 1

    def at(off):
        return row[..., np.minimum(np.abs(cols + off), top)]

    if b == 0:
        return at(0)
    if b == 1:
        return (at(1) - at(-1)) / (2.0 * dr)
    if b == 2:
        return (at(1) - 2.0 * at(0) + at(-1)) / dr ** 2
    if b == 3:
        return (at(2) - 2.0 * at(1) + 2.0 * at(-1) - at(-2)) / (2.0 * dr ** 3)
    if b == 4:
        return (at(2) - 4.0 * at(1) + 6.0 * at(0) - 4.0 * at(-1) + at(-2)) / dr ** 4
    raise ValueError(f"unsupported radial derivative order {b}")


class ReferenceSampler(SliceSampler):
    """Oracle: the per-slice, per-column sampler.  Every slice has its own
    store and searchsorted pair, and every buffered step is sampled again for
    each derivative order with Lagrange weights built in a loop."""

    def __init__(self, targets, n, dr, max_b=2, r_cap=None, leading_shape=()):
        self.n, self.dr, self.max_b = n, dr, max_b
        self._buf = deque(maxlen=4)
        self._first_window = False
        self.entries = []
        for s in targets:
            cap = r_cap(s) if callable(r_cap) else r_cap
            slc = ev.make_slice(s, n, dr, r_cap=cap)
            store = {("u", b): np.zeros(leading_shape + slc.r.shape)
                     for b in range(max_b + 1)}
            store.update({("v", b): np.zeros(leading_shape + slc.r.shape)
                          for b in range(max(max_b, 1))})
            self.entries.append({
                "s": s, "slc": slc, "cols": np.round(slc.r / dr).astype(int),
                "tstar": slc.t, "done": np.zeros(slc.r.shape, dtype=bool),
                "store": store,
            })

    def observe(self, t, u, v):
        self._buf.append((t, u, v))
        if len(self._buf) < 4:
            return
        times = np.array([b[0] for b in self._buf])
        if self._first_window:
            lo, hi = min(times[:3]), max(times[:3])
            self._first_window = False
        else:
            lo, hi = sorted((times[1], times[2]))
        for entry in self.entries:
            tstar = entry["tstar"]
            i0 = np.searchsorted(tstar, lo, side="left")
            i1 = np.searchsorted(tstar, hi, side="left")
            if i1 <= i0:
                continue
            pend = ~entry["done"][i0:i1]
            if not pend.any():
                continue
            idx = np.arange(i0, i1)[pend]
            tq = tstar[idx]
            cols = entry["cols"][idx]
            w = []
            for i in range(4):
                num = np.ones_like(tq)
                for j in range(4):
                    if j != i:
                        num *= (tq - times[j]) / (times[i] - times[j])
                w.append(num)
            store = entry["store"]
            for f, pos in (("u", 1), ("v", 2)):
                for b in range(self.max_b + 1 if f == "u" else max(self.max_b, 1)):
                    store[f, b][..., idx] = sum(
                        wi * _stencil_sample(buf[pos], cols, b, self.dr)
                        for wi, buf in zip(w, self._buf))
            entry["done"][idx] = True


SAMPLE_KEYS = ("u", "ut", "ur", "urr", "utr", "urrr", "utrr", "urrrr", "utrrr")


def _sampler_case(case, sample_derivs):
    """Slice captures of one small run, per slice a list of SliceData (one
    per leading component)."""
    if case == "kg":
        # s = 2.5 crosses t_start = 4, so the backward sweep captures too
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=14.0,
                              store_history=False, sample_derivs=sample_derivs)
        res = evolve_kg_radial(0.5, 3, config=cfg, slice_s=(2.5, 5.0))
        return {s: [d] for s, d in res.slices.items()}
    cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=14.0,
                          eps=1e-3, nonlinearity="quasilinear-toy",
                          blowup_factor=100.0, store_history=False,
                          sample_derivs=sample_derivs)
    if case == "quasilinear":
        return evolve_quasilinear_toy(cfg, slice_s=(4.5, 5.0)).component_slices
    # the cap at r_max puts the last node on the grid edge, where the
    # stencil's +1, +2 columns clamp; every slice clamps at the axis.  The
    # solvers refuse a slice that reaches the edge, so the sampler is driven
    # through the sweep directly
    r = cfg.dr * np.arange(int(cfg.r_max / cfg.dr) + 1)
    base = default_pulse(r)
    u0 = np.stack([base, 0.5 * base, -base])
    sampler = ev.SliceSampler((6.0,), 3, cfg.dr, max_b=sample_derivs, r_cap=14.0,
                              leading_shape=(3,))
    t_hi = sampler.t_range_needed()[1] + 4 * cfg.dt
    n_steps = int(np.ceil((t_hi - cfg.t_start) / cfg.dt))
    ev._run_sweep(u0, np.zeros_like(u0), cfg.t_start, n_steps, cfg.dt,
                  ev._quasilinear_accel(cfg, 0.0), sampler)
    comps = [sampler.slice_data(0.0, component=c) for c in range(3)]
    return {s: [c[s] for c in comps] for s in comps[0]}


class TestSliceSampler:
    @pytest.mark.parametrize("sample_derivs", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["kg", "quasilinear", "grid-edge"])
    def test_matches_reference_bitwise(self, monkeypatch, case, sample_derivs):
        got = _sampler_case(case, sample_derivs)
        monkeypatch.setattr(ev, "SliceSampler", ReferenceSampler)
        want = _sampler_case(case, sample_derivs)
        if case == "grid-edge":
            assert want[6.0][0].r[-1] == 14.0
        assert got.keys() == want.keys()
        for s in want:
            for g, w in zip(got[s], want[s], strict=True):
                for key in SAMPLE_KEYS:
                    a, b = getattr(g, key), getattr(w, key)
                    assert (a is None) == (b is None), (s, key)
                    assert a is None or np.array_equal(a, b), (s, key)

    def test_uncaptured_derivative_raises(self):
        """v = d_t u is captured below max(sample_derivs, 1) radial orders, so
        at sample_derivs=2 d_t d_r^2 u is not available."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_end=12.0, store_history=False)
        data = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(5.0,)).slices[5.0]
        assert data.utrr is None and data.utr is not None
        with pytest.raises(fields.WindowError):
            data.deriv(1, 2)

    def test_utrr_matches_field_sampling(self):
        """At sample_derivs=3, d_t d_r^2 u agrees with the stored history
        interpolated the way the oracle `sample_on_hyperboloid` does it."""
        cfg = EvolutionConfig(n=3, dr=1 / 32, t_start=4.0, t_end=14.0,
                              r_max=18.0, store_every=1, sample_derivs=3)
        res = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(5.0,))
        direct, f = res.slices[5.0], res.field
        posthoc = interp_rows(f, fields.d2dr2(f.v, f.dr), direct.t,
                              np.round(direct.r / f.dr).astype(int))
        assert np.max(np.abs(direct.utrr - posthoc)) < 1e-6 * np.max(np.abs(posthoc))


class TestHistory:
    def test_blowup_trims_history(self):
        """An early blow-up return keeps only the rows written."""
        cfg = EvolutionConfig(n=9, dr=1 / 16, t_start=4.0, t_end=30.0,
                              r_max=32.0, nonlinearity="quasilinear-toy",
                              blowup_factor=1.5, store_every=8)
        res = evolve_quasilinear_toy(cfg, lam=0.0)
        assert res.blowup_time is not None
        # the step that trips the guard returns before its own row is written
        rows = (int(round((res.blowup_time - cfg.t_start) / cfg.dt)) - 1) // 8 + 1
        for f in res.component_fields:
            assert f.u.shape[0] == f.v.shape[0] == rows
            assert f.t1 <= res.blowup_time
