import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import amplab
from amplab.gaussian import bvn_upper, norm_cdf, norm_pdf, ramp_pair


def test_norm_cdf_matches_erfc_over_both_tails():
    # below -37.5 Phi is subnormal, where no float carries 1e-14 relative
    # precision; there the bound is 1e-14 of the smallest normal float
    x = np.linspace(-38.0, 38.0, 20_001)
    want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    got = norm_cdf(x)
    assert np.all(np.abs(got - want) <= 1e-14 * want + 1e-14 * np.finfo(float).tiny)
    np.testing.assert_array_equal(norm_cdf([-np.inf, np.inf, -40.0]), [0.0, 1.0, 0.0])
    assert np.isnan(norm_cdf(np.nan))
    np.testing.assert_allclose(norm_pdf(x[::100]), norm.pdf(x[::100]), rtol=1e-14, atol=0)


@pytest.mark.parametrize("low, high, bound", [(-37.5, -20.0, 2e-13), (-20.0, -5.0, 9e-14),
                                             (-5.0, 38.0, 5e-15)])
def test_norm_cdf_matches_a_40_digit_reference(low, high, bound):
    # the error is that of rounding the argument x / sqrt(2) to a double,
    # which moves Phi by up to about x^2 2^-52 relative: 8.9e-14 at |x| = 20
    x = np.linspace(low, high, 2_001)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.ncdf(v)) for v in x])
    assert np.all(np.abs(norm_cdf(x) - want) <= bound * want)


def _pdf(u):
    return math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)


def _cdf(u):
    return 0.5 * math.erfc(-u / math.sqrt(2))


def _bvn_quad(h, k, rho):
    """P(U > h, V > k) as the 1-D integral of phi(u) P(V > k | U = u)."""
    if abs(rho) == 1:
        return _cdf(-max(h, k)) if rho > 0 else max(0.0, _cdf(-k) - _cdf(h))
    s = math.sqrt((1 - rho) * (1 + rho))
    f = lambda u: _pdf(u) * _cdf((rho * u - k) / s)
    # split where the conditional tail turns, so quad sees its steep part
    cut = [k / rho] if rho != 0 and h < k / rho else []
    edges = [h, *cut, np.inf]
    return sum(quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


_POINTS = [(0.0, 0.0), (0.5, -0.3), (-2.0, 1.0), (3.0, 3.0), (-3.0, -3.0), (1.0, 1.0),
           (-1.0, 1.0), (2.5, -2.5), (-6.0, -4.0), (0.2, 0.2000001), (4.5, 1.0)]


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.75, 0.925, 0.99, 0.9999, 1.0])
@pytest.mark.parametrize("sign", [1, -1])
def test_bvn_upper_matches_quadrature(rho, sign):
    # the 20-point rule in arcsin(rho) at small (0, 0.3) and middle (0.75)
    # |rho|, the branch from |rho| = 0.925 on, and |rho| = 1 exactly
    h, k = np.array(_POINTS).T
    want = [_bvn_quad(a, b, sign * rho) for a, b in zip(h, k)]
    np.testing.assert_allclose(bvn_upper(h, k, sign * rho), want, rtol=0, atol=1e-13)


def _ramp_quad(h, k, rho):
    """E[(U - h)+ (V - k)+] as the 1-D integral of (u - h)+ E[(V - k)+ | U = u]."""
    if abs(rho) == 1:
        f = lambda u: max(u - h, 0.0) * max(rho * u - k, 0.0) * _pdf(u)
        return quad(f, h, 40, points=[k, -k], epsabs=1e-15, limit=200)[0]
    s = math.sqrt((1 - rho) * (1 + rho))

    def f(u):
        z = (rho * u - k) / s
        return (u - h) * ((rho * u - k) * _cdf(z) + s * _pdf(z)) * _pdf(u)

    return quad(f, h, np.inf, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("rho", [0.0, 0.3, -0.75, 0.925, -0.99, 0.9999, 1.0, -1.0])
def test_ramp_pair_matches_quadrature(rho):
    h, k = np.array(_POINTS).T
    want = np.array([_ramp_quad(a, b, rho) for a, b in zip(h, k)])
    np.testing.assert_allclose(ramp_pair(h, k, rho), want, rtol=1e-13, atol=1e-15)
    # a correlation that rounding put just past 1 counts as 1
    if abs(rho) == 1:
        np.testing.assert_array_equal(ramp_pair(h, k, rho * (1 + 2**-52)), ramp_pair(h, k, rho))


def test_importing_amplab_loads_neither_scipy_nor_numpy_polynomial():
    # each costs import time or memory on every run of the package
    src = os.path.dirname(os.path.dirname(amplab.__file__))
    code = ("import sys, amplab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
