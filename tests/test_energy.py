"""Tests for hyperboloidal energies, the estimate suite and decay fits."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from kkstab import energy as en
from kkstab.energy import (
    EquivalenceResult,
    GammaBlock,
    InsufficientSpanError,
    SobolevParams,
    boosted_energy,
    decay_fit,
    def_integrand,
    energy_identity_residual,
    envelope,
    equivalence_check,
    estimate_suite,
    hyperboloidal_energy,
)
from kkstab.evolve import EvolutionConfig, evolve_kg_radial
from kkstab.geometry import RADIAL_BRACKETS, make_slice
from kkstab.fields import SliceData
from oracles import (ETA2, constants_stable, inverse_metric_einsum, pack_sym, sharp,
                     sharp_prod, stress_integrand)
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
        g = GammaBlock.zero(shape)
        g.c00 += 1e-3 * np.sin(family_slice.r)
        g.crr += 1e-3 * np.cos(family_slice.r)
        a = def_integrand(family_slice, g.as_dict())
        b = stress_integrand(family_slice, g.as_dict())
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))


class TestConservation:
    def test_energy_constant_across_slices(self, linear_slices):
        es = {s: hyperboloidal_energy(d) for s, d in linear_slices.items()}
        vals = np.array(sorted(es.values()))
        assert (vals.max() - vals.min()) / vals.max() < 1e-2

    def test_identity_residual_linear(self, linear_slices):
        out = energy_identity_residual(linear_slices, 3.0, 6.0)
        assert out["residual"] < 1e-3

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
            data = SliceData(slc=slc, lam=1.3, u=u, ut=ut, ur=ur)
            assert hyperboloidal_energy(data) >= 0.0


class TestEquivalence:
    def test_small_gamma_ratio_near_one(self, family_slice):
        g = GammaBlock.zero(family_slice.u.shape)
        g.c00 += 1e-5
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


class TestEstimateSuite:
    def test_constants_stable_across_s(self):
        params = SobolevParams.from_dims(9, 2)
        slices = {s: scaling_family_slice(s, 9, 1 / 32) for s in (4.0, 8.0, 16.0)}
        rows = estimate_suite(slices, params)
        assert constants_stable(rows, "hardy", tol=0.2)
        assert constants_stable(rows, "sobolev-sup-s", tol=0.2)

    def test_zero_data_skipped(self):
        params = SobolevParams.from_dims(3, 1)
        slc = make_slice(4.0, 3, 1 / 8, r_cap=7.0)
        z = np.zeros_like(slc.r)
        rows = estimate_suite({4.0: SliceData(slc=slc, lam=0.0, u=z, ut=z, ur=z)},
                              params)
        assert all(row.skipped for row in rows)
        assert not constants_stable(rows, "hardy")

    def test_order_cap(self):
        params = SobolevParams.from_dims(3, 1)
        with pytest.raises(ValueError, match="order"):
            estimate_suite({}, params, order=3)


class TestSobolevParams:
    def test_derived_exponents(self):
        p = SobolevParams.from_dims(9, 2)
        assert p.beta == pytest.approx(7.0 / 4.0)
        assert p.d_tilde % 2 == 0
        assert p.n_big % 2 == 0
        assert p.integrable  # beta > 3/2 iff n > 8
        assert not SobolevParams.from_dims(5, 2).integrable


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
        constants of geometry.RADIAL_BRACKETS, for every w of length <= 2."""
        for (a, b), combo in RADIAL_BRACKETS.items():
            for w in en._words_upto(2):
                defect = self.as_poly(en._word_terms((a, b) + w))
                defect.subtract(self.as_poly(en._word_terms((b, a) + w)))
                for g, c in combo.items():
                    assert c == int(c)
                    defect.subtract(self.as_poly(en._word_terms((g,) + w), int(c)))
                assert not any(defect.values()), (a, b, w)

    def test_rotation_and_unknown_generator(self, family_slice):
        assert en._word_terms(("rotation",)) == ()
        assert en._word_terms(("Z0r", "rotation")) == ()
        assert en.word_energy(family_slice, ("rotation",)) == 0.0
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
        fit = decay_fit(x, y, window=(2, 40))
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
        H, Ht, Hr = quasilinear_gamma_einsum(comps, 0.1)
        pairs = [(g.c00, H[..., 0, 0]), (g.c0r, H[..., 0, 1]), (g.crr, H[..., 1, 1]),
                 (g.dt00, Ht[..., 0, 0]), (g.dt0r, Ht[..., 0, 1]),
                 (g.dtrr, Ht[..., 1, 1]), (g.dr0r, Hr[..., 0, 1]),
                 (g.drrr, Hr[..., 1, 1])]
        for got, want in pairs:
            assert np.shape(got) == shape
        for block, got_keys in ((H, pairs[:3]), (Ht, pairs[3:6]), (Hr, pairs[6:])):
            scale = np.max(np.abs(block))
            for got, want in got_keys:
                assert np.max(np.abs(got - want)) <= 1e-14 * scale

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
        for got, i, j in ((g.c00, 0, 0), (g.c0r, 0, 1), (g.crr, 1, 1)):
            assert np.max(np.abs(got - exact[:, i, j])) < 1e-8
        for got, i, j in ((g.dt00, 0, 0), (g.dt0r, 0, 1), (g.dtrr, 1, 1)):
            assert np.max(np.abs(got - exact_dt[:, i, j])) < 1e-8


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
        assert g.c00.shape == comps[0].u.shape
        assert np.max(np.abs(g.c00)) < 10 * cfg.eps
        src = en.quasilinear_source(comps, cfg.eps)
        assert src.shape == (3,) + comps[0].u.shape
        assert np.all(np.isfinite(src))
