"""Tests for the numpy-only normal special functions in ``beliefshift._normal``.

Each function is pinned against 50-digit mpmath on a dense grid. The bar is
scipy.special's own error on the same points: ours may be at most twice
that, or 4.4e-16 (two units in the last place), whichever is larger.
Relative errors are measured against max(|exact|, smallest normal double),
so results that are subnormal count in units of the smallest normal.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from beliefshift import _normal
from beliefshift.updating import _reweight

CTX = mpmath.mp.clone()
CTX.dps = 50
TINY = np.finfo(float).tiny
ULP_BAR = 4.4e-16


def _rel_error(got, exact):
    return np.abs(got - exact) / np.maximum(np.abs(exact), TINY)


def _exact_ndtr(z):
    z = CTX.mpf(z)
    return CTX.ncdf(z) if z <= 0 else 1 - CTX.ncdf(-z)


def _exact_log_ndtr(z):
    z = CTX.mpf(z)
    return CTX.log(CTX.ncdf(z)) if z <= 0 else CTX.log1p(-CTX.ncdf(-z))


def _exact_ndtri(p, start):
    p, x = CTX.mpf(p), CTX.mpf(start)
    for _ in range(4):  # Newton from a double-precision start
        x -= (CTX.ncdf(x) - p) / CTX.npdf(x)
    return x


def _exact_ndtri_exp(y, start):
    y, x = CTX.mpf(y), CTX.mpf(start)
    for _ in range(4):
        x -= (CTX.log(CTX.ncdf(x)) - y) * CTX.ncdf(x) / CTX.npdf(x)
    return x


def _exact_erfcx(x):
    x = CTX.mpf(x)
    return CTX.exp(x * x) * CTX.erfc(x)


def _exact(fn, xs, *starts):
    return np.array([float(fn(*args)) for args in zip(xs, *starts)])


def _assert_within_bar(ours, scipys, exact):
    ours_err = _rel_error(ours, exact)
    scipy_err = _rel_error(scipys, exact)
    bar = max(2.0 * scipy_err.max(), ULP_BAR)
    worst = int(np.argmax(ours_err))
    assert ours_err[worst] <= bar, (
        f"relative error {ours_err[worst]:.3g} at point {worst} exceeds {bar:.3g} "
        f"(scipy.special: {scipy_err.max():.3g})")


NDTR_Z = np.linspace(-38.0, 38.0, 3041)
LOG_NDTR_Z = np.concatenate([-np.geomspace(1e-3, 1e4, 1500), np.linspace(-5.0, 38.0, 861)])
NDTRI_P = np.concatenate([np.geomspace(1e-307, 0.5, 1500), np.linspace(0.49, 0.51, 1001),
                          1.0 - np.geomspace(1e-15, 0.5, 800)])
NDTRI_EXP_Y = -np.geomspace(1e-12, 1e5, 2000)
ERFCX_X = np.concatenate([np.linspace(-26.0, 26.0, 2081), np.geomspace(26.0, 1e10, 500)])


class TestAgainstMpmath:
    def test_ndtr(self):
        exact = _exact(_exact_ndtr, NDTR_Z)
        _assert_within_bar(_normal.ndtr(NDTR_Z), special.ndtr(NDTR_Z), exact)
        # Where Phi is a normal double, the same bar holds on its own.
        normal = exact >= TINY
        _assert_within_bar(_normal.ndtr(NDTR_Z[normal]), special.ndtr(NDTR_Z[normal]),
                           exact[normal])

    def test_log_ndtr(self):
        exact = _exact(_exact_log_ndtr, LOG_NDTR_Z)
        _assert_within_bar(_normal.log_ndtr(LOG_NDTR_Z), special.log_ndtr(LOG_NDTR_Z), exact)

    def test_ndtri(self):
        exact = _exact(_exact_ndtri, NDTRI_P, special.ndtri(NDTRI_P))
        _assert_within_bar(_normal.ndtri(NDTRI_P), special.ndtri(NDTRI_P), exact)

    def test_ndtri_near_the_median_keeps_relative_digits(self):
        p = NDTRI_P[(NDTRI_P >= 0.49) & (NDTRI_P <= 0.51)]
        exact = _exact(_exact_ndtri, p, special.ndtri(p))
        _assert_within_bar(_normal.ndtri(p), special.ndtri(p), exact)

    def test_ndtri_exp(self):
        exact = _exact(_exact_ndtri_exp, NDTRI_EXP_Y, special.ndtri_exp(NDTRI_EXP_Y))
        _assert_within_bar(_normal.ndtri_exp(NDTRI_EXP_Y), special.ndtri_exp(NDTRI_EXP_Y), exact)

    def test_erfcx(self):
        exact = _exact(_exact_erfcx, ERFCX_X)
        _assert_within_bar(_normal.erfcx(ERFCX_X), special.erfcx(ERFCX_X), exact)


ENDS = [
    ("ndtr", [-np.inf, np.inf, np.nan, -0.0, 0.0, -1e308, 1e308]),
    ("log_ndtr", [-np.inf, np.inf, np.nan, 0.0, -1e308, 1e308]),
    ("ndtri", [0.0, 1.0, 0.5, -0.1, 1.1, np.nan, 5e-324, 1.0 - 2.0**-53]),
    ("ndtri_exp", [-np.inf, 0.0, -0.0, 0.5, np.nan, -1e300, -1e308]),
    ("erfcx", [-np.inf, np.inf, np.nan, -27.0, 0.0, 1e300, -1e308, 1e308]),
]


@pytest.mark.parametrize("name,points", ENDS, ids=[name for name, _ in ENDS])
def test_ends_return_what_scipy_returns(name, points):
    points = np.array(points)
    ours = getattr(_normal, name)(points)
    theirs = getattr(special, name)(points)
    np.testing.assert_allclose(ours, theirs, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", ["ndtr", "log_ndtr", "ndtri", "ndtri_exp", "erfcx"])
def test_scalars_give_floats_and_the_array_path_bits(name):
    fn = getattr(_normal, name)
    points = {"ndtri": np.linspace(0.001, 0.999, 97),
              "ndtri_exp": -np.geomspace(1e-6, 1e4, 97)}.get(name, np.linspace(-30.0, 30.0, 97))
    batch = fn(points)
    singles = [fn(float(v)) for v in points]
    assert all(isinstance(v, float) for v in singles)
    np.testing.assert_array_equal(batch, singles)
    np.testing.assert_array_equal(fn(points.reshape(-1, 1)).ravel(), batch)


def test_lower_side_helpers_match_the_public_functions():
    a = np.linspace(0.0, 40.0, 801)
    np.testing.assert_array_equal(_normal.lower_tail(a, np.exp(-0.5 * a * a)), _normal.ndtr(-a))
    # An ulp above 1/2, where a mixture's two sides can both round up.
    p = np.append(np.geomspace(1e-300, 0.5, 401), 0.5 + 2.0**-53)
    np.testing.assert_array_equal(_normal.ndtri_lower(p), _normal.ndtri(p))


@pytest.mark.parametrize("values", [
    [0.0, -1.0, 2.5, -700.0],
    [1e3, 1e3, -np.inf, 999.0],
    [-745.0, -746.0, -800.0],
    np.linspace(-50.0, 50.0, 1001),
], ids=["mixed", "tied_maximum", "deep", "dense"])
def test_logsumexp_matches_scipy(values):
    # The log-sum of the one normaliser, updating._reweight.
    got = _reweight(np.array(values))[1][0]
    assert got == pytest.approx(special.logsumexp(values), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("values,expected", [
    ([-np.inf, -np.inf], -np.inf), ([0.0, np.inf], np.inf), ([0.0, np.nan], np.nan),
], ids=["all_minus_inf", "plus_inf", "nan"])
def test_logsumexp_infinite_and_nan_terms(values, expected):
    got = _reweight(np.array(values))[1][0]
    assert got == expected or (math.isnan(expected) and math.isnan(got))
