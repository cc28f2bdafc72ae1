"""Tests for the radial evolution solvers and the quasilinear toy model."""

import dataclasses
import filecmp
import functools
import inspect
import math
import re
from collections import deque

import numpy as np
import pytest
import sympy as sp

from kkstab import evolve as ev
from kkstab import fields
from kkstab.cli import main as cli_main
from kkstab.evolve import (
    CFLError,
    EvolutionConfig,
    SliceSampler,
    default_pulse,
    discrete_energy,
    evolve_kg_radial,
    evolve_quasilinear_toy,
    radial_laplacian,
)
from kkstab.internal import FlatTorus
from oracles import (ETA2, _radial_stencil, d2dr2, ddr, discrete_energy_sums,
                     evolve_full_grid_torus, full_grid_laplacian, interp_rows,
                     inverse_metric_einsum, odd_n_wave, pack_sym, pulse_energy,
                     q_contractions, sample_on_hyperboloid, semi_discrete_solution)


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
        """A cfl above RK4's bound 1.1166 at n = 3 is refused; 0.6 is inside."""
        with pytest.raises(CFLError, match="cfl must be <= 1.1166"):
            EvolutionConfig(n=3, cfl=1.2)
        assert EvolutionConfig(n=3, cfl=0.6).cfl == 0.6

    @pytest.mark.parametrize("cfl", [float("nan"), 0.0, -0.1])
    def test_cfl_positive(self, cfl):
        """A NaN or nonpositive cfl passes both stability guards, so it is
        refused by name."""
        with pytest.raises(ValueError, match=f"cfl={cfl} must be positive"):
            EvolutionConfig(n=3, cfl=cfl)

    def test_dr_gives_finite_node_count(self):
        with pytest.raises(ValueError, match="node count r_max/dr, or with cfl=.* whose "
                                             "step count, is not finite"):
            EvolutionConfig(n=3, dr=1e-320)

    def test_dr_gives_an_indexable_grid(self):
        """A finite node count above the largest array index is refused by
        dr and r_max, before NumPy is asked for the grid."""
        with pytest.raises(ValueError, match=r"dr=1e-300 with r_max=99.0 gives a "
                                             r"grid .* largest array index"):
            EvolutionConfig(n=3, dr=1e-300)

    def test_t_start_floor(self):
        with pytest.raises(ValueError):
            EvolutionConfig(n=3, t_start=1.0)

    def test_n_floor(self):
        """n = 0 is refused by name; n = 1, the half-line, still runs."""
        with pytest.raises(ValueError, match="n=0 must be an integer >= 1"):
            EvolutionConfig(n=0)
        cfg = EvolutionConfig(n=1, dr=1 / 16, t_end=8.0, store_history=False)
        assert evolve_kg_radial(0.0, 1, config=cfg).blowup_time is None

    def test_eps_cap(self):
        with pytest.raises(ValueError, match=r"eps=0.5 must be in \[0, eps_max=0.01\]"):
            EvolutionConfig(n=3, eps=0.5)
        assert EvolutionConfig(n=3, eps=ev.EPS_MAX).eps == 0.01

    @pytest.mark.parametrize("sample_derivs", [0, 5, 2.0])
    def test_sample_derivs_range(self, sample_derivs):
        """The sampler's stencils reach radial order 4, and v = d_t u is
        captured below sample_derivs orders: 0, 5 and a float, which the
        sampler cannot count orders with, are refused by name."""
        with pytest.raises(ValueError, match=f"sample_derivs={sample_derivs} must be an "
                                             f"integer in 1..4"):
            EvolutionConfig(n=3, sample_derivs=sample_derivs)

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

    def test_linear_solver_refuses_eps(self):
        """The linear equation has no eps: a config with one is refused by
        name instead of being run as the plain wave."""
        with pytest.raises(ValueError, match="eps=0.001 is not read by the 'linear' solver"):
            evolve_kg_radial(0.0, 3, config=EvolutionConfig(n=3, t_end=5.0, eps=1e-3))

    def test_quasilinear_solver_refuses_observers(self):
        """The surrogate's monitors have no obs_r* columns: observers are
        refused by name instead of being dropped."""
        cfg = EvolutionConfig(n=3, t_end=5.0, nonlinearity="quasilinear-toy",
                              observers=(1.0,))
        with pytest.raises(ValueError, match=r"observers=\(1.0,\) is not read by the "
                                             r"'quasilinear-toy' solver"):
            evolve_quasilinear_toy(cfg)

    def test_full_grid_oracle_checks_its_step(self):
        """The oracle's pseudospectral theta term adds k_max^2 = (16 pi)^2 =
        2527 to the radial stiffness rho(3) / dr^2 = 1642 at dr = 1/16, which
        the config's guard does not see: cfl = 0.8 passes it (margin 0.72)
        but not the oracle's (1.14); the default 2/3 runs at 0.95."""
        k_max2 = (16 * np.pi) ** 2
        assert ev.rk4_margin(3, 1 / 16, EvolutionConfig(n=3, dr=1 / 16).dt,
                             lam=k_max2) == pytest.approx(0.95, abs=0.005)
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_end=5.0, cfl=0.8)
        zero = lambda R, TH: np.zeros_like(R)
        with pytest.raises(AssertionError, match="too large for the theta term"):
            evolve_full_grid_torus(3, FlatTorus((1.0,)), (zero, zero), cfg)

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
        """cfl sqrt(rho(n)) <= 2 sqrt(2): cfl = 0.4 gives 2.03 at n = 9 and
        3.04 at n = 11, whose largest stable cfl is 0.372.  The default step
        lies inside the bound at every n it serves."""
        assert 0.4 * np.sqrt(ev._laplacian_spectral_radius(9)) == pytest.approx(2.03, abs=0.01)
        assert 0.4 * np.sqrt(ev._laplacian_spectral_radius(11)) == pytest.approx(3.04, abs=0.01)
        for n in range(1, 14):
            cfg = EvolutionConfig(n=n)
            assert cfg.cfl * np.sqrt(ev._laplacian_spectral_radius(n)) < 2 * np.sqrt(2)
        with pytest.raises(CFLError, match="cfl must be <= 0.3722"):
            EvolutionConfig(n=11, cfl=0.4)

    def test_n11_runs_inside_the_bound(self):
        cfg = EvolutionConfig(n=11, dr=1 / 32, cfl=0.35, t_end=12.0)
        res = evolve_kg_radial(0.0, 11, config=cfg)
        assert res.blowup_time is None
        assert np.all(np.isfinite(res.field.u))


class TestConfigDomain:
    """Every EvolutionConfig field, read from `dataclasses.fields`, with each
    of VALUES (wrapped in a tuple for observers) on a short valid base: the
    config, or its short run of the model its nonlinearity names, raises a
    ValueError (a CFLError for a cfl above RK4's bound) that names the
    field, or the run finishes with finite monitors."""

    BASE = dict(n=3, dr=1 / 8, t_end=8.0)
    VALUES = (math.nan, math.inf, -1, 0, 2.5, 1e-320, True, "x", None)

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(EvolutionConfig)])
    def test_refused_by_name_or_runs(self, name, value):
        assert name in ev._DOMAIN
        value = (value,) if name == "observers" else value
        try:
            cfg = EvolutionConfig(**{**self.BASE, name: value})
            res = (evolve_kg_radial(0.0, cfg.n, config=cfg)
                   if cfg.nonlinearity == "linear" else evolve_quasilinear_toy(cfg))
        except ValueError as err:
            assert re.search(rf"\b{name}=", str(err)), err
            return
        assert all(np.isfinite(col).all() for col in res.monitors.values())

    def test_n_differs_from_config(self):
        """The linear entry point takes n beside its config: the two must
        agree."""
        cfg = EvolutionConfig(**self.BASE)
        with pytest.raises(ValueError, match=r"^n=9 differs from config.n=3$"):
            evolve_kg_radial(0.0, 9, config=cfg)


class TestInitShape:
    """init must hold u and v of the entry point's leading shape (() for the
    linear solver, (3,) for the surrogate) on the config's 65-node grid."""

    @pytest.mark.parametrize("model, lead", [("linear", ()), ("quasilinear-toy", (3,))])
    @pytest.mark.parametrize("case", ["short", "long", "leading", "u-v-differ"])
    def test_refused_by_name(self, model, lead, case):
        u_shape = {"short": lead + (5,), "long": lead + (200,), "leading": (2, 65),
                   "u-v-differ": lead + (65,)}[case]
        v_shape = lead + (64,) if case == "u-v-differ" else u_shape
        cfg = EvolutionConfig(n=3, dr=1 / 8, t_end=8.0, nonlinearity=model,
                              store_history=False)
        init = (np.zeros(u_shape), np.zeros(v_shape))
        message = (f"init has u of shape {u_shape} and v of shape {v_shape}, "
                   f"where the solver wants {lead + (65,)}")
        with pytest.raises(ValueError, match=re.escape(message)):
            if model == "linear":
                evolve_kg_radial(0.0, 3, init=init, config=cfg)
            else:
                evolve_quasilinear_toy(cfg, init=init)


class TestDefaultStep:
    """cfl = None resolves to 2/q, the smallest integer q >= 3 whose step
    runs at no more than CFL_FRACTION of RK4's bound."""

    @pytest.mark.parametrize("n, q", zip(range(1, 14),
                                         [3] * 4 + [4] * 3 + [5] * 2 + [7, 8, 10, 12]))
    def test_step_rule(self, n, q):
        cfl = EvolutionConfig(n=n).cfl
        assert cfl == 2.0 / q
        assert ev.rk4_margin(n, 1.0, cfl) <= ev.CFL_FRACTION
        # the smallest such q: one fewer is beyond the fraction, or below 3
        assert q == 3 or ev.rk4_margin(n, 1.0, 2.0 / (q - 1)) > ev.CFL_FRACTION

    def test_n9_keeps_its_step(self):
        """n = 9 runs at the double 0.4, so its outputs keep their bits."""
        assert EvolutionConfig(n=9).cfl == 0.4

    def test_floor(self):
        """n = 14 would need q = 14, finer than the default's floor 2/12."""
        with pytest.raises(CFLError, match="n=14 needs a step finer than the "
                                           "default's floor cfl = 2/12"):
            EvolutionConfig(n=14)
        assert EvolutionConfig(n=14, cfl=0.1).cfl == 0.1
        # past n = 1751 the spectral radius overflows: refused the same way,
        # with no overflow warning
        with pytest.raises(CFLError, match="n=2000 needs a step finer"):
            EvolutionConfig(n=2000)

    @pytest.mark.parametrize("n, dr, t_end", [(3, 1 / 16, 8.0), (5, 1 / 32, 7.0),
                                              (10, 1 / 16, 6.0), (13, 1 / 8, 9.0)])
    def test_run_lands_on_t_end(self, n, dr, t_end):
        """With a dyadic dr and an integer span, span q / (2 dr) steps of
        2 dr / q end at t_end itself."""
        cfg = EvolutionConfig(n=n, dr=dr, t_end=t_end, monitor_every=1,
                              store_history=False)
        res = evolve_kg_radial(0.0, n, config=cfg)
        q = round(2.0 / cfg.cfl)
        assert res.counts["steps"] == round((t_end - cfg.t_start) * q / (2 * dr))
        assert res.monitors["t"][-1] == t_end


class TestStiffLam:
    """lam adds lam to the eigenvalues rho / dr^2 of -Lap_r that RK4 must
    hold: at n = 3, dr = 1/16 and the default step dt = 1/24, the largest
    stable lam is 8 * 24^2 - rho(3) * 256 = 2965.4."""

    CFG = EvolutionConfig(n=3, dr=1 / 16, t_end=8.0, store_history=False)

    def test_largest_stable_lam(self):
        rho = ev._laplacian_spectral_radius(3)
        lam_max = 8.0 / self.CFG.dt ** 2 - rho / self.CFG.dr ** 2
        assert lam_max == pytest.approx(2965.4, abs=0.05)
        assert ev.rk4_margin(3, self.CFG.dr, self.CFG.dt, lam_max) == pytest.approx(1.0)

    def test_kg_refuses_a_stiff_lam(self):
        with pytest.raises(CFLError, match=r"lambda=20000.0 is too stiff for RK4 at "
                                           r"n=3, dr=0.0625, .*lambda must be <= 2965.4"):
            evolve_kg_radial(20000.0, 3, config=self.CFG)
        res = evolve_kg_radial(2965.0, 3, config=self.CFG)
        assert res.blowup_time is None
        assert 0.99 < res.margins["rk4_margin"] <= 1.0

    def test_quasilinear_refuses_a_stiff_lam(self):
        cfg = dataclasses.replace(self.CFG, nonlinearity="quasilinear-toy", eps=1e-3)
        with pytest.raises(CFLError, match="lambda must be <= 2965.4"):
            evolve_quasilinear_toy(cfg, lam=3000.0)


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

    def test_planned_slices_are_make_slice_s(self):
        """The run's slices are `make_slice`'s: s = 4 whole, out to
        (s^2 - 1)/2 = 7.5, and s = 6, whose end 17.5 lies past the grid
        edge, cut at column len(r) - 5, r = 13.75 (r_max = 14).  A given
        slice_r_cap = 17 keeps s = 4 whole and takes s = 6 off the grid."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=4.0, r_max=14.0,
                              store_history=False)
        slices = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(6.0, 4.0)).slices
        assert list(slices) == [4.0, 6.0]
        assert slices[4.0].r.tobytes() == fields.make_slice(4.0, 3, 1 / 16).r.tobytes()
        assert slices[4.0].r[-1] == 7.5
        want = fields.make_slice(6.0, 3, 1 / 16, r_cap=13.75).r
        assert slices[6.0].r.tobytes() == want.tobytes() and want[-1] == 13.75
        with pytest.raises(ValueError, match=r"slice s=6.0 reaches r=17.00, beyond the grid"):
            evolve_kg_radial(0.0, 3, config=cfg, slice_s=(4.0, 6.0), slice_r_cap=17.0)

    def test_slice_inside_the_backward_cone_rejected(self):
        """A default cap ends slice s at r = (s^2 - 1)/2, t = (s^2 + 1)/2,
        which is exact only where the field vanishes: s^2 >= t_start + R
        for data supported in r <= R.  The n = 9 pulse has R = 1.9375 at
        dr = 1/32, so s = 2 would be cut at r = 1.5 inside the data's
        backward light cone; a given slice_r_cap is taken as it is, and
        s = 2.5 (6.25 >= 5.9375) ends where the field has died out."""
        cfg = EvolutionConfig(n=9, dr=1 / 32, t_end=20.0)
        with pytest.raises(ValueError, match=r"slice s=2 ends at r=1.5, t=2.5, inside "
                           r"the backward light cone .*support r <= 1.9375"):
            evolve_kg_radial(0.0, 9, config=cfg, slice_s=(2,))
        assert evolve_kg_radial(0.0, 9, config=cfg, slice_s=(2,),
                                slice_r_cap=1.5).slices[2].r[-1] == 1.5
        u = evolve_kg_radial(0.0, 9, config=cfg, slice_s=(2.5,)).slices[2.5].u
        assert abs(u[-1]) <= 1e-12 * np.max(np.abs(u))

    def test_repeated_slice_captured_once(self):
        """slice_s = (5, 5, 6) captures and gathers what (5, 6) does, and
        gives the same slices."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_end=12.0, store_history=False)
        once, twice = (evolve_kg_radial(0.0, 3, config=cfg, slice_s=ss)
                       for ss in ((5.0, 6.0), (5.0, 5.0, 6.0)))
        assert twice.counts == once.counts
        assert once.counts["captured_nodes"] > 0
        assert list(twice.slices) == [5.0, 6.0]
        for s in once.slices:
            assert twice.slices[s].u.tobytes() == once.slices[s].u.tobytes()

    def test_blowup_guard_fires(self):
        """config.blowup_factor guards the linear solver as it does the
        surrogate: at n = 9 the pulse focuses on the axis, which lifts
        sup|u| past 1.5 max|u0|."""
        cfg = EvolutionConfig(n=9, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=14.0,
                              store_history=False, blowup_factor=1.5)
        res = evolve_kg_radial(0.0, 9, config=cfg)
        assert res.blowup_time == pytest.approx(5.25)

    def test_observer_columns(self):
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=6.0, r_max=8.0,
                              observers=(0.0, 1.0), monitor_every=4,
                              store_history=False)
        res = evolve_kg_radial(0.0, 3, config=cfg)
        assert "obs_r0" in res.monitors and "obs_r1" in res.monitors
        assert len(res.monitors["obs_r0"]) == len(res.monitors["t"])


def _max_rel_errors(n, dr, wave, radii):
    """Per radius, the max over every step of t in [4, 14] of the run's
    error against the exact odd-n wave, over the exact max |u| there."""
    cfg = EvolutionConfig(n=n, dr=dr, t_start=4.0, t_end=14.0, store_every=1)
    f = evolve_kg_radial(0.0, n, init=(lambda r: wave(0.0, r), np.zeros_like),
                         config=cfg).field
    tau = f.dt * np.arange(len(f.u))
    out = {}
    for r in radii:
        exact = wave(tau, np.full_like(tau, r))
        out[r] = np.max(np.abs(f.u[:, int(round(r / dr))] - exact)) / np.max(np.abs(exact))
    return out


#: `oracles.odd_n_wave`, built once per (n, power) with sympy
_odd_n_wave = functools.cache(odd_n_wave)


class TestExactOddNWave:
    """`oracles.odd_n_wave`, the exact lam = 0 wave for odd n, and the
    linear solver's convergence to it at n = 9, 11 and 13."""

    def test_is_the_wave_with_its_data(self):
        """u(0, 0) = 1, support in r <= 2, and u_tt = u_rr + (n - 1)/r u_r
        by centred differences (h = 1e-3, so to about h^2) in both of the
        oracle's regions: r < 2 - tau, and the one-term region past it."""
        wave = _odd_n_wave(9, 12)
        assert wave(0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert np.all(wave(0.0, np.array([2.0, 2.5, 7.0])) == 0.0)
        h = 1e-3
        for tau, r in ((0.5, 0.5), (0.5, 1.3), (1.7, 0.2), (1.7, 1.3), (1.7, 3.0),
                       (3.2, 1.3), (3.2, 3.0), (6.1, 6.0)):
            utt = (wave(tau + h, r) - 2.0 * wave(tau, r) + wave(tau - h, r)) / h ** 2
            urr = (wave(tau, r + h) - 2.0 * wave(tau, r) + wave(tau, r - h)) / h ** 2
            ur8 = 8.0 / r * (wave(tau, r + h) - wave(tau, r - h)) / (2.0 * h)
            scale = abs(utt) + abs(urr) + abs(ur8)
            assert scale > 0 and abs(utt - urr - ur8) <= 1e-5 * scale, (tau, r)

    @pytest.mark.parametrize("n, power, axis_bound", [
        (9, 12, 1.45), (11, 12, 1.1), (13, 20, 1.3)], ids=["n9", "n11", "n13"])
    def test_convergence(self, n, power, axis_bound):
        """dr = 1/16 -> 1/32: order >= 1.8 off the axis at r = 1, 3, 8
        (measured 2.00, 2.03, 2.02 at n = 9; 2.00, 2.03, 2.05 at n = 11;
        2.01, 2.09, 2.00 at n = 13), and on the axis, where RK4's time error
        is half the total or more, at least today's measured 1.48, 1.16 and
        1.37.  At n = 13, P = 12 would make the axis value's Phi^(12) jump."""
        wave = _odd_n_wave(n, power)
        coarse, fine = (_max_rel_errors(n, dr, wave, (0, 1, 3, 8))
                        for dr in (1 / 16, 1 / 32))
        for r, bound in ((0, axis_bound), (1, 1.8), (3, 1.8), (8, 1.8)):
            assert math.log2(coarse[r] / fine[r]) >= bound, (r, coarse[r], fine[r])


class TestSemiDiscrete:
    """`oracles.semi_discrete_solution`, exact in time, separates RK4's
    error from the operator's."""

    def test_solves_the_system(self):
        dr, lam = 1 / 16, 0.5
        r = dr * np.arange(200)
        u0 = default_pulse(r)
        h = 1e-5
        u, v = semi_discrete_solution(9, dr, lam, u0, np.zeros_like(u0),
                                      np.array([0.0, 2.0 - h, 2.0, 2.0 + h]))
        assert np.max(np.abs(u[0] - u0)) <= 1e-10 and np.max(np.abs(v[0])) <= 1e-10
        assert u[:, -1].tolist() == [0.0] * 4
        accel = full_grid_laplacian(u[2], dr, 9) - lam * u[2]
        assert np.max(np.abs((v[3] - v[1]) / (2 * h) - accel)) <= 1e-6 * np.max(np.abs(accel))
        assert np.max(np.abs((u[3] - u[1]) / (2 * h) - v[2])) <= 1e-6 * np.max(np.abs(v[2]))

    @pytest.mark.parametrize("dr", [1 / 16, 1 / 32])
    def test_rk4_time_error_order_off_the_axis(self, dr):
        """The default pulse at n = 9 over 16 time units: RK4's error at
        the last step against the exact semi-discrete solution, max over
        r >= 1, falls at order >= 3.5 as cfl halves from 0.4 to 0.1
        (measured 4.6, 4.1 at dr = 1/16; 3.6, 4.2 at dr = 1/32).  dr = 1/64
        is not bounded: its first halving reads order 1.0 (8.3e-9 -> 4.1e-9)
        at r in [1, 2), where the tail of the axis error still leads (the
        stiff axis modes run near omega dt = 2, outside RK4's asymptotic
        range); past r = 4 it reads 3.6."""
        errors = []
        for cfl in (0.4, 0.2, 0.1):
            n_steps = int(round(16.0 / (cfl * dr)))
            cfg = EvolutionConfig(n=9, dr=dr, cfl=cfl, t_end=20.0, store_every=n_steps)
            f = evolve_kg_radial(0.0, 9, config=cfg).field
            u0 = default_pulse(f.r)
            exact = semi_discrete_solution(9, dr, 0.0, u0, np.zeros_like(u0), 16.0)[0]
            errors.append(np.max(np.abs(f.u[-1] - exact)[f.r >= 1.0]))
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 3.5, (errors, orders)

    @pytest.mark.parametrize("dr", [1 / 16, 1 / 32])
    def test_sampler_error_at_the_crossing_times(self, dr):
        """The s = 5 slice of the default pulse at n = 9: SliceData.u and
        .ut against the exact semi-discrete u and u_t at each node's own
        crossing time t*, max over r >= 1 relative to the exact max there,
        fall at order >= 3.5 as cfl halves from 0.4 to 0.1: the sampler's
        4-point Lagrange interpolation in t, with RK4, and no space error
        (measured u 3.91, 3.91 and u_t 4.21, 3.91 at dr = 1/16; u 4.18,
        3.90 and u_t 4.22, 4.12 at dr = 1/32)."""
        errors = {"u": [], "ut": []}
        for cfl in (0.4, 0.2, 0.1):
            cfg = EvolutionConfig(n=9, dr=dr, cfl=cfl, t_end=16.0, store_history=False)
            data = evolve_kg_radial(0.0, 9, config=cfg, slice_s=(5.0,)).slices[5.0]
            r = dr * np.arange(int(round(cfg.resolved_r_max() / dr)) + 1)
            u0 = default_pulse(r)
            exact = semi_discrete_solution(9, dr, 0.0, u0, np.zeros_like(u0),
                                           data.t - cfg.t_start)
            node = (np.arange(len(data.r)), np.round(data.r / dr).astype(int))
            far = data.r >= 1.0
            for name, want in zip(errors, exact):
                want = want[node][far]
                got = getattr(data, name)[far]
                errors[name].append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        for name, errs in errors.items():
            orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
            assert min(orders) >= 3.5, (name, errs, orders)


class TestQuasilinearToy:
    @staticmethod
    def _run(amplitude, eps):
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_end=10.0, eps=eps, store_history=False,
                              nonlinearity="quasilinear-toy")
        init = (lambda r: amplitude * ev._default_pulse3(r),
                lambda r: np.zeros((3,) + r.shape))
        return evolve_quasilinear_toy(cfg, init=init)

    def test_speed_check_fires(self):
        """At eps = EPS_MAX, 40 times the default pulse lifts the measured
        characteristic speed to 1.80, which takes the n = 3 default step
        past RK4's bound: margin 0.597 * 1.80 > 1."""
        with pytest.raises(CFLError, match=r"perturbed characteristic speed 1.798 "
                                           r"breaks RK4 stability at t=6.083: margin 1.07"):
            self._run(40.0, ev.EPS_MAX)

    def test_speed_check_passes_at_the_default_step(self):
        """An eps = 1e-3 run at the n = 3 default step cfl = 2/3 keeps its
        measured margin just above the unperturbed one (speed 1), below 1.
        The speed exceeds 1 by O(eps sup|u|), a few 1e-3 for this pulse."""
        res = self._run(1.0, 1e-3)
        assert res.config.cfl == 2 / 3 and res.blowup_time is None
        static, peak = res.margins["rk4_margin"], res.margins["rk4_margin_peak"]
        assert static == ev.rk4_margin(3, 1 / 16, res.config.dt)
        assert static < peak < 1.01 * static

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


def _exact(expr):
    """expr with its float constants as the rationals they represent."""
    expr = sp.sympify(expr)
    return expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})


class TestQClosedForm:
    def test_polynomial_is_the_contractions_exactly(self):
        """On symbolic h, d_t h and d_r h, the closed-form P / det^2 minus
        the five contractions of `q_contractions` cancels to exactly 0."""
        h = sp.symbols("h00 h0r hrr")
        dh_t = sp.symbols("a0 b0 c0")
        dh_r = sp.symbols("a1 b1 c1")
        got = ev.q_nonlinearity(h, dh_t, dh_r)
        want = q_contractions(h, dh_t, dh_r)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert sp.cancel(sp.together(_exact(g) - _exact(w))) == 0


class TestQuasilinearAccel:
    """The eps > 0 right-hand side against one assembled from the oracles:
    (unfolded Laplacian + H^rr u_rr + 2 H^0r v_r - lam u - eps Q) / (1 - H^00)
    with H and Q by einsum."""

    EPS = 1e-2

    @pytest.mark.parametrize("n", [3, 9])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_matches_assembled_oracle(self, n, lam):
        cfg = EvolutionConfig(n=n, dr=1 / 16, eps=self.EPS,
                              nonlinearity="quasilinear-toy")
        accel = ev._quasilinear_rhs(cfg, lam)["accel"]
        rng = np.random.default_rng(100 * n + int(10 * lam))
        for w in (5, 64, 385):
            u, v = rng.uniform(-1.0, 1.0, (2, 3, w))
            H, q3 = quasilinear_coefficients_einsum(u, v, ddr(u, cfg.dr), self.EPS)
            eps_q = self.EPS * q3
            want = ((unfolded_laplacian(u, cfg.dr, n)
                     + H[..., 1, 1] * d2dr2(u, cfg.dr)
                     + 2.0 * H[..., 0, 1] * ddr(v, cfg.dr) - lam * u - eps_q)
                    / (1.0 - H[..., 0, 0]))
            got = accel(0.0, u, v)
            assert got.shape == (3, w)
            assert _rel_err(got, want) <= ORACLE_RTOL
            # the gate sees Q: dropping it would miss by far more than the rtol
            assert np.max(np.abs(eps_q)) > 1e3 * ORACLE_RTOL * np.max(np.abs(want))

    def test_zero_data_gives_positive_zero(self):
        """+0.0 data map to +0.0 bytes, the window contract of `_run_sweep`."""
        cfg = EvolutionConfig(n=9, dr=1 / 16, eps=self.EPS,
                              nonlinearity="quasilinear-toy")
        for lam in (0.0, 0.5):
            zeros = np.zeros((3, 40))
            got = ev._quasilinear_rhs(cfg, lam)["accel"](0.0, zeros, zeros.copy())
            assert got.tobytes() == zeros.tobytes()


class TestCentredStencils:
    """`evolve.CENTRED_STENCILS` and its two appliers: the row form of the
    quasilinear right-hand side and the gather form of the slice sampler."""

    @staticmethod
    def _data(rng, shape):
        """Uniform values, with small integers (and -0.0 for 0) in every
        other column, so that some stencils cancel exactly."""
        u = rng.uniform(-1.0, 1.0, shape)
        k = rng.integers(-2, 3, shape).astype(float)
        k[k == 0] = -0.0
        u[..., ::2] = k[..., ::2]
        return u

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("m", [3, 4, 64])
    @pytest.mark.parametrize("dr", [1 / 16, 0.1])
    def test_row_form_has_the_oracle_bytes(self, lead, m, dr):
        u = self._data(np.random.default_rng(m + 7 * len(lead)), lead + (m,))
        zeros = np.zeros(lead + (m,))
        for b, oracle in ((1, ddr), (2, d2dr2)):
            assert ev.radial_derivative(u, b, dr).tobytes() == oracle(u, dr).tobytes()
            # +0.0 rows give +0.0 bytes, the window contract of `_run_sweep`
            assert ev.radial_derivative(zeros, b, dr).tobytes() == zeros.tobytes()

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("m", [3, 4, 64])
    @pytest.mark.parametrize("dr", [1 / 16, 0.1])
    def test_gather_form_has_the_oracle_bytes(self, lead, m, dr):
        g = self._data(np.random.default_rng(100 + m + 7 * len(lead)), lead + (5, m))
        g0, zeros = np.zeros(lead + (5, m)), np.zeros(lead + (m,))
        for b in range(5):
            got = ev.centred_stencil(lambda off: g[..., off + 2, :], b, dr)
            assert got.tobytes() == _radial_stencil(g, b, dr).tobytes()
            got = ev.centred_stencil(lambda off: g0[..., off + 2, :], b, dr)
            assert got.tobytes() == zeros.tobytes()

    @pytest.mark.parametrize("b", range(5))
    def test_moments(self, b):
        """sum w off^k is 0 below k = b, c b! at k = b and 0 at k = b + 1:
        the taps over c dr^b are a centred, second-order d^b/dr^b."""
        taps, c = ev.CENTRED_STENCILS[b]
        for k in range(b + 2):
            moment = sum(w * off ** k for off, w in taps)
            assert moment == (c * math.factorial(b) if k == b else 0.0), k
        # the applier takes the first tap as it is, and the sampler gathers
        # the offsets -2..2
        assert taps[0][1] == 1.0
        assert {off for off, _ in taps} <= set(range(-2, 3))


def unfolded_laplacian(u, dr, n):
    """The flux-form Laplacian with the face differences scaled by 1/dr^2
    after the weights are applied."""
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


def full_grid_sweep(u, v, t0, n_steps, dt, accel, on_row=None, operator=None, **_):
    """Oracle: the RK4 loop that steps every column of the grid, by the
    four stages of accel, or, given the linear operator L, by the Taylor
    polynomial of the step in Horner form, with P = L(u, v) = (a, b) and
    Q = L P = (c, d); on_row sees every row whole."""
    t, nr = t0, u.shape[-1]
    if on_row is not None and on_row(0, t, u, v, nr):
        return 0
    for j in range(1, n_steps + 1):
        if operator is not None:
            a, b = p = operator(np.stack((u, v)))
            c, d = operator(p)
            u, v = (u + dt * (v + dt / 2.0 * (a + dt / 3.0 * (b + dt / 4.0 * c))),
                    v + dt * (a + dt / 2.0 * (b + dt / 3.0 * (c + dt / 4.0 * d))))
        else:
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
        if on_row is not None and on_row(j, t, u, v, nr):
            return j
    return n_steps


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
    out = {"blowup_time": repr(res.blowup_time), "margins": repr(res.margins)}
    out.update((f"monitor {k}", v.tobytes()) for k, v in res.monitors.items())
    fields_ = [res.field] if res.field is not None else res.component_fields or []
    for c, f in enumerate(fields_):
        out[f"history {c}"] = (f.u.shape, f.u.tobytes(), f.v.tobytes())
    slices = {s: [d] for s, d in res.slices.items()}
    slices.update(res.component_slices)
    for s, comps in slices.items():
        for c, d in enumerate(comps):
            for key, a in d.samples.items():
                out[f"slice {s} {c} {key}"] = a.tobytes()
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
                  **ev._quasilinear_rhs(cfg, 0.0),
                  on_row=lambda j, t, u, v, w: seen.append(u.tobytes() + v.tobytes()))
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

    def test_counts(self):
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0,
                              r_max=14.0, store_history=False)
        res = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(2.5,))
        forward = int(np.ceil((cfg.t_end - cfg.t_start) / cfg.dt - 1e-9))
        backward = int(np.ceil((cfg.t_start - res.slices[2.5].t.min()) / cfg.dt)) + 4
        nodes = int(round(14.0 * 16)) + 1
        assert res.counts["steps"] == forward + backward
        assert res.counts["operator_applications"] == 2 * res.counts["steps"]
        assert "rhs_evals" not in res.counts
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
        silently stop the count.  It also spans an argument named
        on_monitor, which the sweep does not take, so the work of on_row
        counts in the sweep's own time."""
        params = inspect.signature(ev._run_sweep).parameters
        for name in ("u", "n_steps", "accel"):
            assert name in params, name


def _linear_accel(n, dr, lam):
    """dv/dt = Lap_r u - lam u, the linear right-hand side of the stage kernel."""
    def accel(t, u, v):
        return radial_laplacian(u, dr, n) - lam * u
    return accel


def _last_state(u0, n_steps, dt, **kernel):
    """(u, v) after n_steps of `_run_sweep` from (u0, 0) on the given kernel."""
    seen = []
    ev._run_sweep(u0, np.zeros_like(u0), 4.0, n_steps, dt, **kernel,
                  on_row=lambda j, t, u, v, w: seen.append(np.stack((u, v))))
    return seen[-1]


class TestTaylorKernel:
    """The linear runs step RK4's map as its degree-4 Taylor polynomial."""

    @pytest.mark.parametrize("n, lam", [(3, 0.0), (9, 2.0)])
    def test_both_kernels_match_an_extended_precision_run(self, n, lam):
        """400 steps at dr 1/16: the float64 Taylor and stage kernels each
        stay within 1e-11 relative of the stage kernel in np.longdouble."""
        assert np.finfo(np.longdouble).eps < np.finfo(float).eps
        dr, dt = 1 / 16, 0.4 / 16
        u0 = default_pulse(dr * np.arange(16 * 16 + 1))
        want = _last_state(u0.astype(np.longdouble), 400, dt,
                           accel=_linear_accel(n, dr, lam))
        assert want.dtype == np.longdouble
        for kernel in ({"accel": None, "operator": ev._linear_operator(n, dr, lam)},
                       {"accel": _linear_accel(n, dr, lam)}):
            got = _last_state(u0, 400, dt, **kernel)
            for g, w in zip(got, want):
                rel = float(np.max(np.abs(g - w)) / np.max(np.abs(w)))
                assert rel <= 1e-11, (kernel, rel)

    @pytest.mark.parametrize("n, lam", [(3, 0.0), (9, 2.0)])
    def test_one_step_matches_the_four_stages(self, n, lam):
        dr, dt = 1 / 16, 0.4 / 16
        r = dr * np.arange(200)
        y = np.stack((default_pulse(r), np.sin(r) * default_pulse(r, width=3.0)))
        taylor, stages = np.empty_like(y), np.empty_like(y)
        ev._taylor_step(ev._linear_operator(n, dr, lam), dt)(0.0, y, taylor)
        ev._stage_step(_linear_accel(n, dr, lam), dt)(0.0, y, stages)
        for a, b in zip(taylor, stages):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("model", ["linear", "quasilinear-toy"])
    def test_two_laplacians_per_step(self, monkeypatch, model):
        """A linear step applies the Laplacian twice, not once per RK4 stage;
        no monitor or sampler applies it."""
        calls = []
        lap = ev.radial_laplacian
        monkeypatch.setattr(ev, "radial_laplacian",
                            lambda *a: calls.append(1) or lap(*a))
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=8.0, r_max=10.0,
                              nonlinearity=model, store_history=False)
        if model == "linear":
            res = evolve_kg_radial(0.5, 3, config=cfg, slice_s=(5.0,))
        else:
            res = evolve_quasilinear_toy(cfg, lam=0.5, slice_s=(5.0,))
        assert res.counts["steps"] > 0
        assert len(calls) == 2 * res.counts["steps"]
        assert res.counts["operator_applications"] == len(calls)


def _record_builds(monkeypatch) -> list:
    """Replace `evolve._radial_operator` by an empty cache of the same size
    over the same builder, and return the list of the arguments of every
    build it makes."""
    builds = []
    build = ev._radial_operator.__wrapped__
    monkeypatch.setattr(ev, "_radial_operator", functools.lru_cache(
        **ev._radial_operator.cache_parameters())(
            lambda *a: builds.append(a) or build(*a)))
    return builds


class TestLaplacianCache:
    def test_one_build_per_power_of_two(self, monkeypatch):
        """Runs on several grids, each stepping windows of many sizes and
        reading E_h on them, build the radial weights once per (n, dr,
        power-of-two size), the powers up to the longest grid's."""
        cfgs = [EvolutionConfig(n=n, dr=1 / 16, t_end=8.0, r_max=r_max,
                                store_history=False)
                for n, r_max in ((3, 10.0), (3, 14.0), (5, 8.0), (3, 6.0))]
        builds = _record_builds(monkeypatch)
        for cfg in cfgs:
            evolve_kg_radial(0.0, cfg.n, config=cfg)
        assert len(set(builds)) == len(builds)
        assert {(n, dr) for n, dr, _ in builds} == {(3, 1 / 16), (5, 1 / 16)}
        for n, r_max in ((3, 14.0), (5, 8.0)):
            sizes = sorted(size for m, _, size in builds if m == n)
            assert all(size & (size - 1) == 0 for size in sizes)
            assert sizes[-1] == ev._pow2(int(r_max * 16) + 1)

    @pytest.mark.parametrize("n", [3, 9])
    def test_prefix_has_the_bits_of_its_own_coefficients(self, monkeypatch, n):
        """A window reads the weights built at the power of two above its
        length; they have the bits of those built for its own length, and
        the Laplacian the bits of the oracle's."""
        build = ev._radial_operator.__wrapped__
        builds = _record_builds(monkeypatch)
        u = np.random.default_rng(5).standard_normal((2, 3001))
        radial_laplacian(u, 0.01, n)
        for m in (3, 5, 6, 17, 64, 1000, 2999, 3001):
            got = radial_laplacian(u[..., :m], 0.01, n)
            assert got.tobytes() == full_grid_laplacian(u[..., :m], 0.01, n).tobytes(), m
            for long, own in zip(ev._radial_operator(n, 0.01, ev._pow2(m)),
                                 build(n, 0.01, m)):
                assert long[:len(own)].tobytes() == own.tobytes(), m
        assert builds == [(n, 0.01, size) for size in (4096, 4, 8, 32, 64, 1024)]

    def test_builds_per_run_are_logarithmic(self, monkeypatch):
        """Both sweeps of a run step windows that grow a few columns at a
        time, and read weights built at no more than ceil(log2(grid))
        powers of two."""
        cfg = EvolutionConfig(n=3, dr=1 / 32, t_end=12.0, r_max=40.0, store_history=False)
        builds = _record_builds(monkeypatch)
        res = evolve_kg_radial(0.5, 3, config=cfg, slice_s=(3.0,))
        assert res.counts["active_node_steps"] < res.counts["node_steps"] // 2
        grid = int(round(cfg.resolved_r_max() / cfg.dr)) + 1
        assert 0 < len(builds) <= math.ceil(math.log2(grid))
        assert all(b[:2] == (3, cfg.dr) for b in builds)

    @pytest.mark.parametrize("dr", [1 / 16, 1 / 64])
    @pytest.mark.parametrize("n", [3, 9])
    def test_folded_has_the_bits_of_the_unfolded_form(self, n, dr):
        """For a power-of-two dr, folding 1/dr^2 into the coefficients scales
        exactly: every bit is kept while the products stay normal."""
        u = np.random.default_rng(n).standard_normal((2, 3, 2001))
        for m in (2, 3, 40, 2001):
            got = radial_laplacian(u[..., :m], dr, n)
            assert got.tobytes() == unfolded_laplacian(u[..., :m], dr, n).tobytes(), m

    @pytest.mark.parametrize("n, lam", [(3, 0.5), (9, 2.0)])
    def test_linear_operator_subtracts_lam_y(self, n, lam):
        dr = 1 / 16
        y = np.random.default_rng(7).standard_normal((2, 500))
        want = radial_laplacian(y, dr, n) - lam * y
        assert ev._linear_operator(n, dr, lam)(y).tobytes() == want.tobytes()


class TestEnergyMonitor:
    """E_h, the energy of the monitors (`evolve.discrete_energy`)."""

    @pytest.mark.parametrize("n, dr", [(3, 1 / 16), (9, 0.05), (13, 1 / 64)])
    def test_matches_the_sums(self, n, dr):
        """The oracle's three exactly rounded sums, to 1e-13 relative (the
        module sums left to right: at most 300 roundings of 1.1e-16), for
        each component of a stack as for a single row."""
        rng = np.random.default_rng(n)
        for lam in (0.0, 1.0):
            for size in (2, 5, 300):
                u, v = rng.standard_normal((2, 3, size))
                got = discrete_energy(u, v, dr, n, lam)
                assert got.shape == (3,)
                for c in range(3):
                    want = discrete_energy_sums(u[c], v[c], dr, n, lam)
                    assert got[c] == pytest.approx(want, rel=1e-13, abs=0.0)
                    assert float(discrete_energy(u[c], v[c], dr, n, lam)) == got[c]

    def test_positive_definite(self):
        """Positive on nonzero data, with or without mass, and exactly 0.0
        for zero data."""
        r = 0.05 * np.arange(100)
        u = default_pulse(r)
        zero = np.zeros_like(u)
        for lam in (0.0, 1.0):
            assert discrete_energy(u, zero, 0.05, 3, lam) > 0.0
            assert discrete_energy(zero, u, 0.05, 3, lam) > 0.0
            assert discrete_energy(zero, zero, 0.05, 3, lam) == 0.0

    def test_trailing_zeros_keep_the_bits(self):
        """A window that ends past the last occupied column has the bits of
        the whole row, as the monitors read it."""
        u, v = np.random.default_rng(1).standard_normal((2, 3, 700))
        u[:, 300:] = v[:, 300:] = 0.0
        whole = discrete_energy(u, v, 1 / 16, 9, 0.5)
        for w in (301, 302, 333, 699):
            assert discrete_energy(u[:, :w], v[:, :w], 1 / 16, 9, 0.5).tobytes() \
                == whole.tobytes()

    @pytest.mark.parametrize("n", [3, 9, 13])
    def test_semi_discrete_identity(self, n):
        """dE_h/dt = 0 along du/dt = v, dv/dt = L u - lam u with L the radial
        Laplacian, for data whose edge column is 0:
            sum w v (L u - lam u) + sum face (du)(dv) + lam sum w u v = 0
        with the module's weights, to 1e-13 relative to the largest term
        (200 terms per sum, each rounded to 1.1e-16).  The same holds for
        discrete_energy itself by polarization: E(x + y) = E(x - y) for
        x = (u, v) and y along the flow."""
        dr, lam = 1 / 16, 0.7
        rng = np.random.default_rng(n)
        u, v = rng.standard_normal((2, 200))
        u[-1] = v[-1] = 0.0
        acc = ev._linear_operator(n, dr, lam)(u)
        _, _, cell, face = ev._radial_operator(n, dr, 256)
        cell, face = cell[:200], face[:199]
        terms = (cell * v * acc, face * np.diff(u) * np.diff(v), lam * cell * u * v)
        scale = max(np.sum(np.abs(t)) for t in terms)
        assert abs(sum(np.sum(t) for t in terms)) <= 1e-13 * scale
        # y = s (v, L u - lam u), scaled to the size of x
        s = 1.0 / np.max(np.abs(acc))
        plus = discrete_energy(u + s * v, v + s * acc, dr, n, lam)
        minus = discrete_energy(u - s * v, v - s * acc, dr, n, lam)
        assert abs(plus - minus) <= 1e-13 * (plus + minus)

    @pytest.mark.parametrize("n, lam, dr, t_end", [(3, 0.0, 1 / 32, 20.0),
                                                   (3, 1.0, 1 / 32, 20.0),
                                                   (9, 0.0, 1 / 16, 40.0)])
    def test_never_increases(self, n, lam, dr, t_end):
        """RK4 inside its stability bound damps every mode of the system
        that E_h's norm makes skew, so E_h never grows over a run: each of
        its steps grows by at most 1e-13 relative (the round-off of a sum
        of some 1000 terms), and the run loses some of it."""
        cfg = EvolutionConfig(n=n, dr=dr, t_start=4.0, t_end=t_end,
                              monitor_every=1, store_history=False)
        e = evolve_kg_radial(lam, n, config=cfg).monitors["energy"]
        assert len(e) == round((t_end - 4.0) / cfg.dt) + 1
        assert np.max(np.diff(e)) <= 1e-13 * e[0]
        assert e[-1] < e[0]

    def test_tracks_the_exact_energy(self):
        """On the defaults of `kkstab evolve` (n = 9, dr = 1/64, t 4..100),
        E_h stays within 1e-3 of the pulse's exact energy on every monitor
        row (2.9e-4 measured; the flat quadrature it replaced read 1.15e-3)."""
        cfg = EvolutionConfig(n=9, store_history=False)
        e = evolve_kg_radial(0.0, 9, config=cfg).monitors["energy"]
        assert len(e) == 961
        assert np.max(np.abs(e / pulse_energy(9) - 1.0)) <= 1e-3

    def test_quasilinear_column(self):
        """The surrogate's energy adds E_h of its components with E_WEIGHTS;
        at eps = 0 its components are the linear run's rows times 1, 1/2
        and -1."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=14.0,
                              store_history=False)
        lin = evolve_kg_radial(0.5, 3, config=cfg).monitors["energy"]
        q = evolve_quasilinear_toy(dataclasses.replace(cfg, nonlinearity="quasilinear-toy"),
                                   lam=0.5).monitors["energy"]
        np.testing.assert_allclose(q, (1.0 + 2.0 * 0.25 + 1.0) * lin, rtol=1e-14)


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

    gathered_columns = 0  # not counted

    def __init__(self, slices, dr, max_b=2, leading_shape=()):
        self.dr, self.max_b = dr, max_b
        self._buf = deque(maxlen=4)
        self._first_window = False
        self.entries = []
        for slc in slices:
            store = {(a, b): np.zeros(leading_shape + slc.r.shape)
                     for a in (0, 1) for b in range(max_b + 1 - a)}
            self.entries.append({
                "s": slc.s, "slc": slc, "cols": np.round(slc.r / dr).astype(int),
                "tstar": slc.t, "done": np.zeros(slc.r.shape, dtype=bool),
                "store": store,
            })

    @property
    def captured_nodes(self):
        return sum(int(np.count_nonzero(e["done"])) for e in self.entries)

    def t_range_needed(self):
        los = [e["tstar"][0] for e in self.entries]
        his = [e["tstar"][-1] for e in self.entries]
        return (min(los), max(his)) if los else (np.inf, -np.inf)

    def new_sweep(self, t0, dt, n_steps):
        self._buf.clear()
        self._first_window = True

    def _flush(self):
        """Every capture is stored in the call that makes it."""

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
            for a in (0, 1):
                for b in range(self.max_b + 1 - a):
                    store[a, b][..., idx] = sum(
                        wi * _stencil_sample(buf[1 + a], cols, b, self.dr)
                        for wi, buf in zip(w, self._buf))
            entry["done"][idx] = True


def _sampler_case(case, sample_derivs):
    """Slice captures of one small run, per slice a list of SliceData: one
    per component of the quasilinear run, one stacked over the components
    of the grid-edge sweep."""
    if case == "kg":
        # s = 2.5 lies below t_start = 4, so the backward sweep captures too;
        # s = 3.9 has nodes in the first window of either sweep
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=10.0, r_max=14.0,
                              store_history=False, sample_derivs=sample_derivs)
        res = evolve_kg_radial(0.5, 3, config=cfg, slice_s=(2.5, 3.9, 5.0))
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
    sampler = ev.SliceSampler([fields.make_slice(6.0, 3, cfg.dr, r_cap=14.0)], cfg.dr,
                              max_b=sample_derivs, leading_shape=(3,))
    t_hi = sampler.t_range_needed()[1] + 4 * cfg.dt
    n_steps = int(np.ceil((t_hi - cfg.t_start) / cfg.dt))
    sampler.new_sweep(cfg.t_start, cfg.dt, n_steps)
    ev._run_sweep(u0, np.zeros_like(u0), cfg.t_start, n_steps, cfg.dt,
                  on_row=lambda j, t, u, v, w: sampler.observe(t, u, v),
                  **ev._quasilinear_rhs(cfg, 0.0))
    return {s: [d] for s, d in sampler.slice_data(0.0).items()}


def _assert_same_samples(got, want):
    assert got.keys() == want.keys()
    for s in want:
        for g, w in zip(got[s], want[s], strict=True):
            assert g.samples.keys() == w.samples.keys(), s
            for key, a in g.samples.items():
                assert a.tobytes() == w.samples[key].tobytes(), (s, key)


def _capture_log(monkeypatch, cls, case):
    """Samples of one `_sampler_case` run with sampler class cls, and the
    (row of the sweep, nodes newly marked done) of every observe call."""
    log = []

    class Recording(cls):
        def new_sweep(self, t0, dt, n_steps):
            super().new_sweep(t0, dt, n_steps)
            self.row = 0

        def observe(self, t, u, v):
            before = self.captured_nodes
            super().observe(t, u, v)
            log.append((self.row, self.captured_nodes - before))
            self.row += 1

    with monkeypatch.context() as m:
        m.setattr(ev, "SliceSampler", Recording)
        return _sampler_case(case, 2), log


class TestSliceSampler:
    @pytest.mark.parametrize("sample_derivs", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["kg", "quasilinear", "grid-edge"])
    def test_matches_reference_bitwise(self, monkeypatch, case, sample_derivs):
        got = _sampler_case(case, sample_derivs)
        monkeypatch.setattr(ev, "SliceSampler", ReferenceSampler)
        want = _sampler_case(case, sample_derivs)
        if case == "grid-edge":
            assert want[6.0][0].r[-1] == 14.0
        _assert_same_samples(got, want)

    @pytest.mark.parametrize("flush_every", [1, 10 ** 6])
    @pytest.mark.parametrize("case", ["kg", "quasilinear", "grid-edge"])
    def test_block_length_keeps_the_bits(self, monkeypatch, case, flush_every):
        """A flush after every step, and one per sweep (longer than any
        sweep here), give the reference's samples bit for bit."""
        monkeypatch.setattr(ev, "_FLUSH_EVERY", flush_every)
        got = _sampler_case(case, 4)
        monkeypatch.setattr(ev, "SliceSampler", ReferenceSampler)
        _assert_same_samples(got, _sampler_case(case, 4))

    def test_captures_straddling_a_flush(self, monkeypatch):
        """With 5-step blocks a flush follows rows 2 + 5 i.  The capture of
        step j reads rows j-3..j, so it straddles a flush when (j - 3) % 5
        is 0, 1 or 2: some of its rows were gathered before that flush."""
        monkeypatch.setattr(ev, "_FLUSH_EVERY", 5)
        got, log = _capture_log(monkeypatch, SliceSampler, "kg")
        phases = {(j - 3) % 5 for j, new in log if new}
        assert phases == {0, 1, 2, 3, 4}
        want, _ = _capture_log(monkeypatch, ReferenceSampler, "kg")
        _assert_same_samples(got, want)

    @pytest.mark.parametrize("case", ["kg", "quasilinear", "grid-edge"])
    def test_done_marks_per_observe_match_reference(self, monkeypatch, case):
        """kkbench/layers.py counts captured nodes as the change of the
        entries' "done" masks across each observe call; the count and the
        share of calls that capture follow the reference call by call."""
        got = _capture_log(monkeypatch, SliceSampler, case)[1]
        want = _capture_log(monkeypatch, ReferenceSampler, case)[1]
        assert got == want
        assert sum(new for _, new in got) > 0

    def test_captured_nodes_keep_their_first_samples(self):
        """The done-mask accumulates across sweeps: a second sweep over the
        same times, with twice the data, leaves every sample as it was."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, r_max=14.0)
        r = cfg.dr * np.arange(int(cfg.r_max / cfg.dr) + 1)
        sampler = SliceSampler([fields.make_slice(5.0, 3, cfg.dr, r_cap=6.0)], cfg.dr)
        t_hi = sampler.t_range_needed()[1] + 4 * cfg.dt
        n_steps = int(np.ceil((t_hi - cfg.t_start) / cfg.dt))
        first = None
        for amplitude in (1.0, 2.0):
            u0 = default_pulse(r, amplitude=amplitude)
            sampler.new_sweep(cfg.t_start, cfg.dt, n_steps)
            ev._run_sweep(u0, np.zeros_like(u0), cfg.t_start, n_steps, cfg.dt, None,
                          lambda j, t, u, v, w: sampler.observe(t, u, v),
                          operator=ev._linear_operator(3, cfg.dr, 0.0))
            u = sampler.slice_data(0.0)[5.0].u
            first = u.copy() if first is None else first
        assert np.any(first != 0.0) and u.tobytes() == first.tobytes()

    def test_rows_off_the_announced_times_raise(self):
        """observe takes row k = 0..n_steps at t0 + k dt, as new_sweep
        announced, and no row before a sweep is announced."""
        sampler = SliceSampler([fields.make_slice(5.0, 3, 1 / 16, r_cap=6.0)], 1 / 16)
        row = np.zeros(200)
        with pytest.raises(ValueError, match="row 0 of the sweep"):
            sampler.observe(0.0, row, row)
        sampler.new_sweep(4.0, 0.025, 1)
        sampler.observe(4.0, row, row)
        with pytest.raises(ValueError, match="row 1 of the sweep"):
            sampler.observe(4.05, row, row)
        sampler.observe(4.0 + 0.025, row, row)
        with pytest.raises(ValueError, match="announced rows 0..1"):
            sampler.observe(4.0 + 2 * 0.025, row, row)

    def test_uncrossed_nodes_raise_window_depth_error(self):
        """11 rows from t = 4 reach none of the s = 5 nodes, which cross at
        t* in [5, 13]: slice_data names the 193 missing nodes and the times
        needed, as plain floats."""
        dr = 1 / 16
        dt = EvolutionConfig(n=9, dr=dr).dt
        sampler = SliceSampler([fields.make_slice(5.0, 9, dr)], dr)
        assert sampler.t_range_needed() == (5.0, 13.0)
        assert all(type(t) is float for t in sampler.t_range_needed())
        row = np.zeros(200)
        sampler.new_sweep(4.0, dt, 10)
        for k in range(11):
            sampler.observe(4.0 + k * dt, row, row)
        with pytest.raises(ev.WindowDepthError,
                           match=r"^slice s=5.0: 193 nodes never crossed the evolved "
                                 r"window \(need t in \(5\.0, 13\.0\)\)$"):
            sampler.slice_data(0.0)

    def test_retained_rows_bounded_by_the_block(self, monkeypatch):
        """Between flushes the sampler holds the gathers of at most
        _FLUSH_EVERY + 3 rows."""
        monkeypatch.setattr(ev, "_FLUSH_EVERY", 8)
        held, flush = [], SliceSampler._flush

        def recording(self):
            held.append(len(self._gathers))
            flush(self)

        monkeypatch.setattr(SliceSampler, "_flush", recording)
        _sampler_case("kg", 2)
        assert max(held) == 8 + 3

    def test_uncaptured_derivative_raises(self):
        """v = d_t u is captured below sample_derivs radial orders, so at
        sample_derivs=2 d_t d_r^2 u is not available."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_end=12.0, store_history=False)
        data = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(5.0,)).slices[5.0]
        assert (1, 2) not in data.samples and (1, 1) in data.samples
        with pytest.raises(fields.WindowError):
            data.deriv(1, 2)

    def test_utrr_matches_field_sampling(self):
        """At sample_derivs=3, d_t d_r^2 u agrees with the stored history
        interpolated the way the oracle `sample_on_hyperboloid` does it."""
        cfg = EvolutionConfig(n=3, dr=1 / 32, t_start=4.0, t_end=14.0,
                              r_max=18.0, store_every=1, sample_derivs=3)
        res = evolve_kg_radial(0.0, 3, config=cfg, slice_s=(5.0,))
        direct, f = res.slices[5.0], res.field
        posthoc = interp_rows(f, d2dr2(f.v, f.dr), direct.t,
                              np.round(direct.r / f.dr).astype(int))
        utrr = direct.samples[1, 2]
        assert np.max(np.abs(utrr - posthoc)) < 1e-6 * np.max(np.abs(posthoc))


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

    @pytest.mark.parametrize("case, rows", [
        pytest.param("normal", None, id="normal"), ("blow-up", 7), ("one-row", 1),
        ("blow-up-one-row", 1)])
    def test_streamed_snapshot_has_the_bytes_of_write_snapshot(self, tmp_path, case,
                                                               rows):
        """evolve_kg_radial(snapshot=) writes the bytes of write_snapshot of
        the field held in memory.  The n = 9 pulse trips blowup_factor 1.5 at
        t = 5.25 (step 50): 7 of the 31 planned rows (nt loses a digit), or
        1 of 4 with store_every 64, spaced as the planned rows are; the
        one-row run has 4 steps, fewer than store_every.  The normal run
        stores steps 0, 8, 16, ... of its run at cfg.dt."""
        cfg = {
            "normal": EvolutionConfig(n=3, dr=1 / 16, t_end=10.0, r_max=12.0),
            "blow-up": EvolutionConfig(n=9, dr=1 / 16, t_end=10.0, r_max=14.0,
                                       blowup_factor=1.5),
            "one-row": EvolutionConfig(n=3, dr=1 / 16, t_end=4.1, r_max=8.0),
            "blow-up-one-row": EvolutionConfig(n=9, dr=1 / 16, t_end=10.0, r_max=14.0,
                                               blowup_factor=1.5, store_every=64),
        }[case]
        if rows is None:
            rows = math.ceil((cfg.t_end - cfg.t_start) / cfg.dt - 1e-9) // 8 + 1
        held = evolve_kg_radial(0.0, cfg.n, config=cfg)
        fields.write_snapshot(tmp_path / "held.bin", held.field)
        path = tmp_path / "final-field.bin"
        streamed = evolve_kg_radial(0.0, cfg.n, snapshot=path,
                                    config=dataclasses.replace(cfg, store_history=False))
        assert held.field.u.shape[0] == rows
        assert path.read_bytes() == (tmp_path / "held.bin").read_bytes()
        assert (streamed.blowup_time is None) == (held.blowup_time is None) == (
            "blow-up" not in case)
        # the result maps the file: the same field, not resident
        assert isinstance(streamed.field.u, np.memmap)
        assert np.array_equal(streamed.field.u, held.field.u)
        assert np.array_equal(streamed.field.v, held.field.v)
        assert streamed.field.dt == held.field.dt
        assert sorted(p.name for p in tmp_path.iterdir()) == ["final-field.bin", "held.bin"]

    @pytest.mark.parametrize("lam, dr", [(np.float64(0.5), 1 / 16),
                                         (0.0, np.float64(1 / 16))],
                             ids=["numpy-lam", "numpy-dr"])
    def test_numpy_scalar_snapshot_round_trips(self, tmp_path, lam, dr):
        """A NumPy scalar lam or dr is written to the snapshot header as a
        plain float, so the file reads back."""
        cfg = EvolutionConfig(n=3, dr=dr, t_end=6.0, store_history=False)
        path = tmp_path / "final-field.bin"
        evolve_kg_radial(lam, 3, None, cfg, snapshot=path)
        meta, grid = path.read_bytes().split(b"\n")[1:3]
        assert meta == f"n=3 lam={float(lam)!r} component=minkowski".encode()
        assert b" dr=0.0625 " in grid
        back = fields.read_snapshot(path)
        assert (back.lam, back.dr) == (float(lam), float(dr))

    def test_raising_run_leaves_no_snapshot(self, tmp_path):
        """A NaN inside the initial support trips the NaN guard at step 50:
        neither final-field.bin nor its temporary file is left."""
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_end=8.0, r_max=10.0)

        def u0(r):
            u = default_pulse(r)
            u[16] = np.nan  # r = 1
            return u

        with pytest.raises(ev.NaNGuardError):
            evolve_kg_radial(0.0, 3, init=(u0, np.zeros_like), config=cfg,
                             snapshot=tmp_path / "final-field.bin")
        assert list(tmp_path.iterdir()) == []
