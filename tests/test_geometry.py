import numpy as np
import pytest

from kkstab import geometry as geo
from oracles import to_hyperboloidal


def test_hyperboloidal_roundtrip():
    y = np.array([1.0, 2.0])
    t = np.sqrt(3.0 ** 2 + y @ y)  # the point (s = 3, y) of the slice
    s, y2 = to_hyperboloidal(t, y)
    assert abs(s - 3.0) < 1e-12
    assert np.allclose(y2, [1.0, 2.0])


def test_to_hyperboloidal_requires_interior():
    with pytest.raises(geo.DomainError):
        to_hyperboloidal(1.0, np.array([2.0]))


def test_t_max_on_slice():
    # t on the truncated slice r <= (s^2-1)/2 peaks at (s^2+1)/2
    s = 4.0
    slc = geo.make_slice(s, 3, 1.0 / 64)
    assert slc.t.max() <= (s * s + 1) / 2.0 + 1e-9


def test_sphere_area_values():
    assert abs(geo.sphere_area(2) - 2 * np.pi) < 1e-12
    assert abs(geo.sphere_area(3) - 4 * np.pi) < 1e-12


def test_slice_embedding_and_weights():
    slc = geo.make_slice(4.0, 3, 1.0 / 32)
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
    slc = geo.make_slice(6.0, 3, 1.0 / 32, r_cap=5.0)
    assert slc.r[-1] <= 5.0 + 1e-12
    full = geo.make_slice(6.0, 3, 1.0 / 32)
    assert abs(full.r[-1] - (36 - 1) / 2.0) < 1.0 / 16


def test_small_s_rejected():
    with pytest.raises(ValueError):
        geo.make_slice(1.0, 3, 1.0 / 32)
