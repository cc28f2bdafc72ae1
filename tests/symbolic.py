"""Sympy helpers for the tests: closed-form slice families and the symbolic
expansion of generator words, the oracle of `energy._word_terms`.

sympy is a test-only dependency; the package itself never imports it.
"""

import numpy as np
import sympy as sp

from kkstab.fields import SliceData, make_slice

T, R = sp.symbols("t r", positive=True)


def sympy_word_terms(word: tuple) -> tuple:
    """Expand Z^word into ((a, b), sympy coeff) pairs with coeff = c(t, r)."""
    terms = {(0, 0): sp.Integer(1)}
    for kind in reversed(word):
        new: dict = {}

        def add(key, c):
            new[key] = sp.simplify(new.get(key, 0) + c)

        for (a, b), c in terms.items():
            if kind == "T":
                add((a, b), sp.diff(c, T))
                add((a + 1, b), c)
            elif kind == "Xr":
                add((a, b), sp.diff(c, R))
                add((a, b + 1), c)
            elif kind == "Z0r":
                add((a, b), T * sp.diff(c, R) + R * sp.diff(c, T))
                add((a, b + 1), T * c)
                add((a + 1, b), R * c)
            else:
                raise ValueError(f"unknown generator {kind!r}")
        terms = {k: c for k, c in new.items() if c != 0}
    return tuple(sorted(terms.items()))


def monomials_of(coeff) -> tuple:
    """A sympy polynomial in (t, r) as sorted integer (i, j, c) monomials."""
    poly = sp.Poly(sp.expand(coeff), T, R)
    return tuple(sorted((i, j, int(c)) for (i, j), c in poly.terms()))


def slice_data_from_expr(expr_str: str, s: float, n: int, dr: float,
                         lam: float = 0.0, r_cap: float | None = None) -> SliceData:
    """Build SliceData from a closed-form u(t, r) given as a sympy expression.

    All stored derivatives are exact (symbolic differentiation), so these
    families isolate quadrature behavior from evolution error.
    """
    expr = sp.sympify(expr_str, locals={"t": T, "r": R})
    slc = make_slice(s, n, dr, r_cap=r_cap)
    tt, rr = slc.t, slc.r

    def ev(e):
        fn = sp.lambdify((T, R), e, "numpy")
        return np.broadcast_to(np.nan_to_num(fn(tt, rr)), tt.shape).astype(float).copy()

    # the orders a sampler at sample_derivs = 4 captures
    samples = {(a, b): ev(sp.diff(expr, T, a, R, b))
               for a in range(2) for b in range(5 - a)}
    return SliceData(slc, lam, samples)


def scaling_family_slice(s: float, n: int, dr: float, q: float | None = None,
                         lam: float = 0.0) -> SliceData:
    """Self-similar profile u = sigma^{-q} exp(-(r/sigma)^2), sigma = sqrt(t^2-r^2).

    Both sides of every suite inequality scale as the same power of s, so
    measured constants are exactly s-independent up to quadrature error.
    Default q = 2 beta = (n-2)/2.
    """
    if q is None:
        q = (n - 2) / 2.0
    # width sigma/sqrt(6): keeps the tail below the slice truncation radius
    # (s^2 - 1)/2 even at s = 4
    expr = f"(t**2 - r**2)**({-q}/2) * exp(-6*r**2/(t**2 - r**2))"
    return slice_data_from_expr(expr, s, n, dr, lam=lam)
