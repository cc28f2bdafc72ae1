"""Tests for hyperboloidal energies, the estimate suite and decay fits."""

import csv
import functools
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from kkstab import energy as en
from kkstab.energy import (
    InsufficientSpanError,
    SupportClassError,
    boosted_energy,
    decay_fit,
    def_integrand,
    energy_identity_residual,
    estimate_suite,
    hyperboloidal_energy,
)
from kkstab.evolve import EvolutionConfig, evolve_kg_radial, evolve_quasilinear_toy
from kkstab.fields import SliceData, make_slice
from oracles import (ETA2, RADIAL_BRACKETS, EquivalenceResult, constants_stable,
                     envelope, equivalence_check, integrable, inverse_metric_einsum,
                     pack_sym, sharp, sharp_prod, stress_integrand, zero_gamma)
from symbolic import (R, T, monomials_of, scaling_family_slice,
                      slice_data_from_expr, sympy_word_terms)


@pytest.fixture(scope="module")
def linear_slices():
    """gamma = 0 linear run with captured slices, n = 3."""
    cfg = EvolutionConfig(n=3, dr=1 / 32, t_start=4.0, t_end=24.0, r_max=28.0,
                          store_history=False)
    res = evolve_kg_radial(1.0, 3, config=cfg, slice_s=(3.0, 4.0, 5.0, 6.0))
    return res.slices


@pytest.fixture(scope="module")
def massive_slices():
    """{dr: slices} of the lam = 1, n = 3 run at dr = 1/16 and 1/32, with
    slices s = 3..6 at ds = 1/8 and their second derivatives."""
    s_grid = tuple(3.0 + k / 8 for k in range(25))
    out = {}
    for dr in (1 / 16, 1 / 32):
        cfg = EvolutionConfig(n=3, dr=dr, t_end=12.0, store_history=False)
        out[dr] = evolve_kg_radial(1.0, 3, config=cfg, slice_s=s_grid).slices
    return out


@pytest.fixture(scope="module")
def family_slice():
    return scaling_family_slice(6.0, 3, 1 / 32, lam=0.0)


class TestTwoPathDensity:
    def test_def_equals_stress_path(self, family_slice):
        """The definition and the stress-tensor contraction are independent
        code paths for the same density."""
        a = def_integrand(family_slice)
        b = stress_integrand(family_slice)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < 1e-12 * scale

    def test_two_path_with_gamma(self, family_slice):
        shape = family_slice.u.shape
        g = zero_gamma(shape)
        g.H[0] += 1e-3 * np.sin(family_slice.r)
        g.H[2] += 1e-3 * np.cos(family_slice.r)
        a = def_integrand(family_slice, g)
        b = stress_integrand(family_slice, dict(zip(("00", "0r", "rr"), g.H)))
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))


class TestConservation:
    def test_energy_constant_across_slices(self, linear_slices):
        es = {s: hyperboloidal_energy(d) for s, d in linear_slices.items()}
        vals = np.array(sorted(es.values()))
        assert (vals.max() - vals.min()) / vals.max() < 1e-2

    def test_identity_residual_linear(self, linear_slices):
        out = energy_identity_residual(linear_slices, 3.0, 6.0)
        assert out["residual"] < 1e-3

    def test_identity_manufactured_source(self, massive_slices):
        """The lam = 1 wave read as lam = 0 with the source F = 1 u: the
        energy without its mass term changes by the source flux alone,
        E(6) - E(3) = integral of -2 F u_t (s/t) = -3.9, about 17% of E.
        Bound, set from that size: the residual stays <= 1e-2 at dr = 1/16
        and 1/32 and falls with dr, where a flux of the wrong sign leaves a
        residual of 2 x 17%."""
        residuals = []
        for slices in massive_slices.values():
            massless = {s: replace(d, lam=0.0) for s, d in slices.items()}
            out = energy_identity_residual(massless, 3.0, 6.0,
                                           f_at=lambda s, comps: comps[0].u)
            assert out["flux_integral"] < -0.1 * out["E1"]
            residuals.append(out["residual"])
        assert max(residuals) <= 1e-2 and residuals[1] < residuals[0], residuals

    def test_identity_manufactured_gamma(self, massive_slices):
        """The lam = 1 wave read as (eta + gamma)^{ab} d_a d_b u - u = F with
        F = gamma^{ab} d_a d_b u = c00 u_tt + 2 c0r u_tr + crr u_rr, for a
        prescribed smooth gamma of size 0.05 (c0r ~ r, crr ~ r^2, so the
        Cartesian components are smooth on the axis) whose derivatives come
        from sympy.  Bound, set before the run: the identity closes to 10%
        of the flux it balances, residual <= 0.1 |flux| / E, at dr = 1/16
        and 1/32.  A flux of the wrong sign leaves at least 1.9 |flux| / E."""
        phi = sp.exp(-(R ** 2 + (T - 5) ** 2) / 32) / 20
        exprs = {"c00": phi, "c0r": phi * R / 4, "crr": phi * R ** 2 / 16}
        exprs.update({f"dt{c}": sp.diff(exprs["c" + c], T) for c in ("00", "0r", "rr")})
        exprs.update({f"dr{c}": sp.diff(exprs["c" + c], R) for c in ("00", "0r", "rr")})
        funcs = {k: sp.lambdify((T, R), e, "numpy") for k, e in exprs.items()}

        def gamma_at(s, comps):
            t, r = comps[0].t, comps[0].r
            return en.GammaBlock(*(np.stack([funcs[p + c](t, r) for c in ("00", "0r", "rr")])
                                   for p in ("c", "dt", "dr")))

        def f_at(s, comps):
            d, (c00, c0r, crr) = comps[0], gamma_at(s, comps).H
            return c00 * d.deriv(2, 0) + 2.0 * c0r * d.deriv(1, 1) + crr * d.deriv(0, 2)

        for slices in massive_slices.values():
            out = energy_identity_residual(slices, 3.0, 6.0, gamma_at=gamma_at,
                                           f_at=f_at)
            flux = abs(out["flux_integral"]) / max(out["E1"], out["E2"])
            assert out["residual"] <= 0.1 * flux, out

    def test_identity_quasilinear_differenced(self):
        """The surrogate's identity with the scheme's own drift taken out:
        n = 9, eps = 1e-3, t 4..36, r_max 40, slices s = 4..8 at ds = 1/16,
        each run differenced against eps = 0 on the same grid.  Bound, set
        before the run: (dE_eps - dE_0) misses the flux integral by at most
        0.25 |flux| at dr = 1/16 and 1/32, and by less at 1/32, where
        earlier runs missed by 0.033 and 0.020, a discretisation error; the
        opposite relation E(s1) = E(s2) + flux misses by about 2 |flux|."""
        s_grid = tuple(4.0 + k / 16 for k in range(65))
        misses = []
        for dr in (1 / 16, 1 / 32):
            growth, outs = [], []
            for eps in (1e-3, 0.0):
                cfg = EvolutionConfig(n=9, dr=dr, t_start=4.0, t_end=36.0,
                                      r_max=40.0, eps=eps, blowup_factor=1e6,
                                      nonlinearity="quasilinear-toy",
                                      store_history=False, sample_derivs=1)
                slices = evolve_quasilinear_toy(cfg, slice_s=s_grid).component_slices
                out = energy_identity_residual(
                    slices, 4.0, 8.0, n=9,
                    gamma_at=lambda s, comps: en.quasilinear_gamma(comps, eps),
                    f_at=lambda s, comps: en.quasilinear_source(comps, eps))
                growth.append(out["E2"] - out["E1"])
                outs.append(out)
            out, flux = outs[0], outs[0]["flux_integral"]
            assert out["residual"] == pytest.approx(
                abs(out["E2"] - out["E1"] - flux) / max(abs(out["E1"]), abs(out["E2"])),
                rel=1e-9)
            miss = abs(growth[0] - growth[1] - flux)
            assert miss <= 0.25 * abs(flux), (dr, miss, flux)
            misses.append(miss)
        assert misses[1] < misses[0], misses

    def test_identity_needs_cover(self, linear_slices):
        with pytest.raises(ValueError, match="covering"):
            energy_identity_residual(linear_slices, 3.0, 10.0)


class TestPositivity:
    def test_random_fields_nonnegative(self):
        """E[0;u;s] >= 0 for arbitrary smooth field samples on a slice."""
        slc = make_slice(4.0, 5, 1 / 16, r_cap=7.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = rng.standard_normal(4)
            u = c[0] * np.exp(-slc.r ** 2) + c[1] * np.exp(-2 * slc.r ** 2)
            ut = c[2] * np.exp(-slc.r ** 2)
            ur = -2 * slc.r * (c[0] * np.exp(-slc.r ** 2)
                               + 2 * c[1] * np.exp(-2 * slc.r ** 2))
            data = SliceData(slc, 1.3, {(0, 0): u, (1, 0): ut, (0, 1): ur})
            assert hyperboloidal_energy(data) >= 0.0


class TestEquivalence:
    def test_small_gamma_ratio_near_one(self, family_slice):
        g = zero_gamma(family_slice.u.shape)
        g.H[0] += 1e-5
        res = equivalence_check(family_slice, g)
        assert isinstance(res, EquivalenceResult)
        assert res.conclusive
        assert abs(res.ratio - 1.0) < 1e-2
        assert res.within_two_sided


class TestBoostedEnergy:
    def test_k_range(self, family_slice):
        with pytest.raises(ValueError):
            boosted_energy(family_slice, 0)
        with pytest.raises(ValueError):
            boosted_energy(family_slice, 5)

    def test_monotone_in_k(self, family_slice):
        e1 = boosted_energy(family_slice, 1)
        e2 = boosted_energy(family_slice, 2)
        assert 0.0 < e1 <= e2


@functools.lru_cache(maxsize=None)
def _hardy_family_derivs():
    """d_r^b, b = 0..3, of (1 + r^2)^(-p) cos^2(pi r / 2 R), as functions of
    (r, p, R)."""
    p, edge = sp.symbols("p edge", positive=True)
    f = (1 + R ** 2) ** (-p) * sp.cos(sp.pi / 2 * R / edge) ** 2
    return [sp.lambdify((R, p, edge), sp.diff(f, R, b), "numpy") for b in range(4)]


def _hardy_family(n, a, s=16.0, dr=1 / 32):
    """The time-independent family of `test_hardy_constant_approached_from_below`
    on the slice s, cut off at R four cells inside the slice's edge, so its
    last three nodes hold 0 and the suite classes it compact."""
    slc = make_slice(s, n, dr)
    edge = slc.r[-1] - 4 * dr
    inside = slc.r <= edge
    samples = {(1, b): np.zeros_like(slc.r) for b in range(3)}
    for b, fn in enumerate(_hardy_family_derivs()):
        samples[0, b] = np.where(inside, fn(slc.r, (n - 2) * (1 - a) / 4, edge), 0.0)
    return SliceData(slc, 0.0, samples)


class TestEstimateSuite:
    def test_constants_stable_across_s(self):
        slices = {s: scaling_family_slice(s, 9, 1 / 32) for s in (4.0, 8.0, 16.0)}
        rows = estimate_suite(slices)
        assert constants_stable(rows, "hardy", tol=0.2)
        assert constants_stable(rows, "sobolev-sup-s", tol=0.2)

    def test_zero_data_skipped(self):
        slc = make_slice(4.0, 3, 1 / 8, r_cap=7.0)
        z = np.zeros_like(slc.r)
        data = SliceData(slc, 0.0, {(0, 0): z, (1, 0): z, (0, 1): z})
        rows = estimate_suite({4.0: data})
        assert all(row.skipped for row in rows)
        assert not constants_stable(rows, "hardy")

    @pytest.mark.parametrize("expr, support_class", [
        ("(1 + r**2)**(-5/2) / t", "tail"),
        ("exp(-r**2)", "compact"),
    ])
    def test_support_class(self, expr, support_class):
        """At s = 4, n = 9, dr = 1/16: a field that does not vanish at the
        slice's edge (2e-5 of its peak) but falls on the outer quarter faster
        than r^(-(n-1)/2 + 1/2) = r^-3.5 is "tail" (slope -5.61); a Gaussian
        is "compact"."""
        rows = estimate_suite({4.0: slice_data_from_expr(expr, 4.0, 9, 1 / 16)})
        assert len(rows) == 4
        assert all(row.support_class == support_class and not row.skipped
                   for row in rows)

    def test_slow_tail_refused(self):
        """(1 + r^2)^-1 / t falls with outer slope -2.68 on the s = 4 slice,
        slower than the tail bound -3.5: the suite refuses it."""
        data = slice_data_from_expr("(1 + r**2)**(-1) / t", 4.0, 9, 1 / 16)
        with pytest.raises(SupportClassError, match=r"outer slope -2\.68"):
            estimate_suite({4.0: data})

    #: relative quadrature slack of a measured Hardy constant over 2/(n - 2),
    #: set before the runs: on the family below the ratios agree to four
    #: digits at dr = 1/32 and 1/128, so the slice's trapezoid rule moves
    #: them by under 1e-4
    HARDY_SLACK = 1e-3

    def test_energy_pipeline_hardy_rows_below_the_sharp_constant(self, tmp_path):
        """Hardy's inequality in R^n, ||u/r|| <= 2/(n - 2) ||d_r u|| for
        compact support, with d_r u along the slice = Y u (Hardy, Littlewood
        & Polya, Inequalities, ch. IX): every compact "hardy" row of
        `kkstab energy --n 9 --dr 0.03125 --t-end 70 --slice-s 4,8,10`."""
        from kkstab.cli import main
        assert main(["energy", "--n", "9", "--dr", "0.03125", "--t-end", "70",
                     "--slice-s", "4,8,10", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "estimates.csv") as fh:
            rows = [row for row in csv.DictReader(fh)
                    if row["name"] == "hardy" and row["support_class"] == "compact"]
        assert [float(row["s"]) for row in rows] == [4.0, 8.0, 10.0]
        for row in rows:
            assert float(row["c_measured"]) <= (1 + self.HARDY_SLACK) * 2 / 7, row

    @pytest.mark.parametrize("n", [3, 9, 13])
    def test_hardy_constant_approached_from_below(self, n):
        """u = (1 + r^2)^(-(n-2)(1-a)/4) cos^2(pi r / 2 R) on r <= R, R four
        cells inside the s = 16 slice's edge, tends to Hardy's extremal
        r^(-(n-2)/2) as a -> 0.  Measured c / (2/(n-2)) at a = 0.5, 0.1,
        0.02, dr = 1/32: 0.637, 0.742, 0.759 at n = 3; 0.897, 0.977, 0.985
        at n = 9; 0.921, 0.987, 0.993 at n = 13.  Each row is compact, below
        the constant up to HARDY_SLACK, and rises as a falls; at a = 0.02
        it is within 30% (n = 3) or 2% (n = 9, 13) of the constant."""
        ratios = []
        for a in (0.5, 0.1, 0.02):
            (row,) = [row for row in estimate_suite({16.0: _hardy_family(n, a)})
                      if row.name == "hardy"]
            assert row.support_class == "compact"
            ratios.append(row.c_measured / (2 / (n - 2)))
        assert ratios == sorted(ratios) and ratios[-1] <= 1 + self.HARDY_SLACK
        assert ratios[-1] >= (0.7 if n == 3 else 0.98), ratios

    def test_integrable_iff_n_above_8(self):
        """The sup-s weight s^{4 beta}, beta = (n - 2)/4, is integrable
        (beta > 3/2) exactly in the theorem's range n >= 9."""
        assert [n for n in range(2, 14) if integrable(n)] == list(range(9, 14))


class TestWordAlgebra:
    """The exact integer expansion of generator words, against the symbolic
    expansion and the radial bracket relations."""

    WORDS = en._words_upto(4)

    @staticmethod
    def as_poly(terms, scale=1):
        """((a, b), ((i, j, c), ...)) terms as a {(a, b, i, j): c} map."""
        out = Counter()
        for (a, b), monomials in terms:
            for i, j, c in monomials:
                out[a, b, i, j] += scale * c
        return out

    def test_matches_sympy_expansion(self):
        """Every word of length <= 4 over {T, Xr, Z0r} (121 words) has the
        sympy expansion's integer coefficients exactly."""
        assert len(self.WORDS) == 121
        for word in self.WORDS:
            expected = tuple((key, monomials_of(c))
                             for key, c in sympy_word_terms(word))
            assert en._word_terms(word) == expected, word

    def test_brackets_are_the_structure_constants(self):
        """[A, B] Z^w u = sum_G c_G Z^G Z^w u exactly, with the structure
        constants of RADIAL_BRACKETS, for every w of length <= 2."""
        for (a, b), combo in RADIAL_BRACKETS.items():
            for w in en._words_upto(2):
                defect = self.as_poly(en._word_terms((a, b) + w))
                defect.subtract(self.as_poly(en._word_terms((b, a) + w)))
                for g, c in combo.items():
                    assert c == int(c)
                    defect.subtract(self.as_poly(en._word_terms((g,) + w), int(c)))
                assert not any(defect.values()), (a, b, w)

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            en._word_terms(("Y",))

    def test_word_apply_matches_lambdified_coefficients(self, family_slice):
        """word_apply against the sympy coefficients evaluated by lambdify,
        to 1e-14 relative, for every word of length <= 3."""
        t, r = family_slice.t, family_slice.r
        for word in en._words_upto(3):
            ref = np.zeros_like(t)
            for (a, b), c in sympy_word_terms(word):
                fn = sp.lambdify((T, R), c, "numpy")
                ref = ref + np.broadcast_to(fn(t, r), t.shape) * family_slice.deriv(a, b)
            got = en.word_apply(family_slice, word)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), word


class TestSymbolicSlices:
    def test_expr_derivatives_exact(self):
        """Sampled derivatives of t^2 - r^2 forms match the closed form."""
        data = slice_data_from_expr("(t**2 - r**2)**(-1)", 3.0, 3, 1 / 16)
        sigma2 = data.t ** 2 - data.r ** 2
        assert np.max(np.abs(data.u - 1 / sigma2)) < 1e-12
        assert np.max(np.abs(data.ut + 2 * data.t / sigma2 ** 2)) < 1e-10
        assert np.max(np.abs(data.ur - 2 * data.r / sigma2 ** 2)) < 1e-10

    def test_scaling_family_self_similar(self):
        """Energy of the scaling family is s-independent by construction."""
        es = [hyperboloidal_energy(scaling_family_slice(s, 9, 1 / 32))
              for s in (4.0, 8.0)]
        assert abs(es[0] - es[1]) / es[0] < 1e-2


class TestDecayFit:
    def test_recovers_synthetic_exponent(self):
        rng = np.random.default_rng(0)
        x = np.linspace(10, 100, 60)
        y = 3.0 * x ** -2.5 * np.exp(0.01 * rng.standard_normal(60))
        fit = decay_fit(x, y)
        assert fit.exponent == pytest.approx(-2.5, abs=0.05)
        assert fit.ci_low <= fit.exponent <= fit.ci_high

    def test_insufficient_span(self):
        x = np.linspace(10, 20, 50)
        with pytest.raises(InsufficientSpanError, match="span"):
            decay_fit(x, x ** -2.0)

    def test_too_few_samples(self):
        x = np.array([1.0, 10.0])
        with pytest.raises(InsufficientSpanError, match="samples"):
            decay_fit(x, x ** -1.0)

    def test_window_and_node_dropping(self):
        x = np.linspace(1, 50, 200)
        y = x ** -1.5
        y[::7] = 0.0  # oscillation nodes are dropped, not fatal
        window = (x >= 2) & (x <= 40)
        fit = decay_fit(x[window], y[window])
        assert fit.exponent == pytest.approx(-1.5, abs=1e-6)

    def test_envelope_extraction(self):
        t = np.linspace(0, 50, 5000)
        u = np.abs(np.cos(2 * np.pi * t)) * (1 + t) ** -2.0
        et, eu = envelope(t, u)
        fit = decay_fit(1 + et, eu)
        assert fit.exponent == pytest.approx(-2.0, abs=0.05)


def quasilinear_gamma_einsum(comp_slices, eps):
    """Oracle: H = -h# + (h eta h)# and its chain rule
    dH = -dh# + (dh eta h)# + (h eta dh)#, by generic contraction."""
    c0, c1, c2 = comp_slices
    h = pack_sym(eps * c0.u, eps * c1.u, eps * c2.u)
    dh_t = pack_sym(eps * c0.ut, eps * c1.ut, eps * c2.ut)
    dh_r = pack_sym(eps * c0.ur, eps * c1.ur, eps * c2.ur)

    def dH_of(dhm):
        return -sharp(dhm) + sharp_prod(dhm, h) + sharp_prod(h, dhm)

    return inverse_metric_einsum(h), dH_of(dh_t), dH_of(dh_r)


def _random_components(rng, shape, scale=1.0):
    return [SimpleNamespace(**{k: scale * rng.uniform(-1, 1, shape)
                               for k in ("u", "ut", "ur")}) for _ in range(3)]


class TestQuasilinearGammaOracle:
    @pytest.mark.parametrize("shape", [(), (385,), (40, 200)])
    def test_matches_einsum(self, shape):
        """Component-wise H, d_t H, d_r H against the einsum oracle to 1e-14
        relative, with |eps u| up to 0.1."""
        comps = _random_components(np.random.default_rng(21), shape)
        g = en.quasilinear_gamma(comps, 0.1)
        for got, block in zip((g.H, g.dH_t, g.dH_r), quasilinear_gamma_einsum(comps, 0.1)):
            assert got.shape == (3,) + shape
            want = np.stack([block[..., 0, 0], block[..., 0, 1], block[..., 1, 1]])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(block))

    def test_gamma_is_the_inverse_metric_expansion(self):
        """H and d_t H against the exact (eta + h)^{-1} - eta and its
        derivative -g^{-1} dh g^{-1}.  At |h|, |dh| <= 1e-3 the second-order
        expansion misses them by O(|h|^3), O(|h|^2 |dh|) ~ 1e-9; a wrong
        quadratic term, such as (h h)# for (h eta h)#, misses by ~1e-6."""
        comps = _random_components(np.random.default_rng(22), (50,), 1e-3)
        g = en.quasilinear_gamma(comps, 1.0)
        h = pack_sym(*(c.u for c in comps))
        dh = pack_sym(*(c.ut for c in comps))
        ginv = np.linalg.inv(ETA2 + h)
        exact = ginv - ETA2
        exact_dt = -ginv @ dh @ ginv
        for got, want in ((g.H, exact), (g.dH_t, exact_dt)):
            for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
                assert np.max(np.abs(got[k] - want[:, i, j])) < 1e-8


class TestQuasilinearGammaBridge:
    def test_gamma_and_source_shapes(self):
        from kkstab.evolve import evolve_quasilinear_toy
        cfg = EvolutionConfig(n=3, dr=1 / 16, t_start=4.0, t_end=12.0,
                              r_max=16.0, eps=1e-3, store_history=False,
                              nonlinearity="quasilinear-toy", blowup_factor=100.0,
                              sample_derivs=2)
        res = evolve_quasilinear_toy(cfg, lam=0.0, slice_s=(4.0,))
        comps = res.component_slices[4.0]
        assert len(comps) == 3
        g = en.quasilinear_gamma(comps, cfg.eps)
        assert g.H.shape == g.dH_t.shape == g.dH_r.shape == (3,) + comps[0].u.shape
        assert np.max(np.abs(g.H[0])) < 10 * cfg.eps
        src = en.quasilinear_source(comps, cfg.eps)
        assert src.shape == (3,) + comps[0].u.shape
        assert np.all(np.isfinite(src))

    @pytest.mark.parametrize("shape", [(), (385,)])
    def test_source_has_the_bits_of_the_evolution_q(self, shape):
        """F = eps Q from `q_nonlinearity` on the slice samples, with the
        bytes of eps times the Q3 that `quasilinear_coefficients` hands the
        evolution."""
        from kkstab.evolve import quasilinear_coefficients
        comps = _random_components(np.random.default_rng(23), shape)
        u3, v3, ur3 = (np.stack([getattr(c, k) for c in comps])
                       for k in ("u", "ut", "ur"))
        _, q3 = quasilinear_coefficients(u3, v3, ur3, 1e-3)
        src = en.quasilinear_source(comps, 1e-3)
        assert src.shape == (3,) + shape
        assert src.tobytes() == (1e-3 * q3).tobytes()
