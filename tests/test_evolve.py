"""Tests for the radial evolution solvers and the quasilinear toy model."""

from collections import deque

import numpy as np
import pytest

from kkstab import evolve as ev
from kkstab import fields
from kkstab.evolve import (
    CFLError,
    EvolutionConfig,
    SliceSampler,
    WindowDepthError,
    commuted_sources,
    default_pulse,
    evolve_kg_radial,
    evolve_quasilinear_toy,
    flat_slice_energy,
    radial_laplacian,
)


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
        with pytest.raises(ValueError):
            EvolutionConfig(n=3, eps=0.5)

    def test_unknown_nonlinearity(self):
        with pytest.raises(ValueError):
            EvolutionConfig(n=3, nonlinearity="cubic")

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            evolve_kg_radial(-1.0, 3, config=EvolutionConfig(n=3, t_end=5.0))


class TestLaplacian:
    def test_spectrum_real_nonpositive(self):
        """The conservative stencil is self-adjoint in the r^{n-1} weight."""
        m, dr, n = 80, 0.1, 9
        A = np.zeros((m, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = 1.0
            A[:, j] = radial_laplacian(e, dr, n)
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
            stride = 2 ** (2 - k) * 4  # common radial nodes at dr=1/4... use 1/16 nodes
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
        posthoc = res.field.sample_on_hyperboloid(5.0, r_cap=direct.r.max())
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
        approx = ev.inverse_metric_perturbation(h)
        assert np.max(np.abs(approx - exact)) < 1e-8


ETA2 = np.diag([-1.0, 1.0])
#: component shapes of the oracle draws: one point, a right-hand side of
#: 385 nodes, and a commuted-source (nt, nr) history
ORACLE_SHAPES = [(), (385,), (40, 200)]
ORACLE_RTOL = 1e-14


def _pack(u3):
    out = np.empty(np.shape(u3[0]) + (2, 2))
    out[..., 0, 0] = u3[0]
    out[..., 0, 1] = out[..., 1, 0] = u3[1]
    out[..., 1, 1] = u3[2]
    return out


def inverse_metric_einsum(h):
    """Oracle: H = -h# + (h eta h)# by generic index contraction."""
    hsharp = np.einsum("ab,...bc,cd->...ad", ETA2, h, ETA2)
    hh = np.einsum("ab,...bc,cd,...de,ef->...af", ETA2, h, ETA2, h, ETA2)
    return -hsharp + hh


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
    h = _pack(eps * u3)
    ginv = np.linalg.inv(ETA2 + h)
    dg = np.stack([_pack(eps * v3), _pack(eps * ur3)], axis=-3)
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
        h = _pack(rng.uniform(-0.1, 0.1, (3,) + shape))
        got = ev.inverse_metric_perturbation(h)
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
        h = _pack(rng.uniform(-0.1, 0.1, (3, 50)))
        dg = np.stack([_pack(rng.uniform(-0.1, 0.1, (3, 50))) for _ in range(2)],
                      axis=-3)
        q = q_einsum(np.linalg.inv(ETA2 + h), dg)
        assert np.allclose(q[..., 0, 1], q[..., 1, 0], rtol=1e-13, atol=0.0)


@pytest.fixture(scope="module")
def quasi_run():
    cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=12.0,
                          r_max=16.0, eps=1e-3, store_every=1,
                          nonlinearity="quasilinear-toy", blowup_factor=100.0)
    return evolve_quasilinear_toy(cfg, lam=0.0)


class TestCommutedSources:

    def test_order_cap(self, quasi_run):
        with pytest.raises(WindowDepthError):
            commuted_sources(quasi_run, order=3)

    def test_source_structure(self, quasi_run):
        src = commuted_sources(quasi_run, order=1)
        assert src.order == 1
        assert () in src.f1  # identity word present
        for w, grid in src.f1.items():
            # stencil borders are NaN by design; the interior must be finite
            assert np.all(np.isfinite(grid[:, 2:-2, 2:-2]))
        assert not src.f2.any()  # flat internal model
        for w, c in src.g_constant.items():
            assert np.isfinite(c) and c >= 0.0

    def test_needs_history(self):
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=6.0, r_max=10.0,
                              store_history=False, nonlinearity="quasilinear-toy")
        res = evolve_quasilinear_toy(cfg, lam=0.0)
        with pytest.raises(ValueError, match="history"):
            commuted_sources(res, order=1)


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
        res = evolve_quasilinear_toy(cfg, slice_s=(4.5, 5.0))
    else:
        # the cap at r_max puts the last node on the grid edge, where the
        # stencil's +1, +2 columns clamp; every slice clamps at the axis
        res = evolve_quasilinear_toy(cfg, slice_s=(6.0,), slice_r_cap=14.0)
    return res.component_slices


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
        interpolated the way ModeField.sample_on_hyperboloid does it."""
        cfg = EvolutionConfig(n=3, dr=1 / 32, t_start=4.0, t_end=14.0,
                              r_max=18.0, store_every=1, sample_derivs=3)
        res = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(5.0,))
        direct, f = res.slices[5.0], res.field
        posthoc = f._interp_rows(fields._d2dr2(f.v, f.dr), direct.t,
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
