"""Standard normal functions in numpy and the standard library: the
density, the distribution function Phi, the bivariate distribution function
Phi_2, and the ramp moments that the exact state evolution of soft-threshold
residuals is written in.

Phi is erfc(-x / sqrt(2)) / 2 over the standard library's ``math.erfc``.
That erfc is taken directly, not as 1 - erf, so it keeps its relative
precision deep into the upper tail, and its own error is far below that of
rounding the argument x / sqrt(2) to a double, which sets Phi's error
(about 2e-13 relative at x = -37.5, 3e-15 on [-5, 38]) as it would for any
erfc. Phi_2 is Genz's 20-point Gauss-Legendre rule in arcsin(rho)
(Statistics and Computing 14:251, 2004), with his branch for
|rho| >= 0.925; it is accurate to double precision. Genz also gives 6- and
12-point rules for smaller |rho|; the one rule matches them to within
rounding there. The node and weight table is a constant, so importing this
module does no linear algebra.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)
_TWOPI = 2.0 * np.pi

# Genz's 20-point Gauss-Legendre rule on [-1, 1]: the nodes below zero and
# their weights (the rule is symmetric), then all 20 nodes as a column and
# their weights as a row
_GL_NODES = (-0.9931285991850949, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
             -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
             -0.22778585114164507, -0.07652652113349734)
_GL_WEIGHTS = (0.017614007139152118, 0.04060142980038694, 0.06267204833410907,
               0.08327674157670475, 0.10193011981724044, 0.11819453196151841,
               0.13168863844917664, 0.14209610931838204, 0.14917298647260374,
               0.15275338713072584)
_GL_X = np.concatenate([_GL_NODES, np.negative(_GL_NODES)])[:, None]
_GL_W = np.concatenate([_GL_WEIGHTS, _GL_WEIGHTS])[None, :]


def norm_cdf(x) -> np.ndarray:
    """Phi(x), the standard normal distribution function, elementwise, as
    erfc(-x / sqrt(2)) / 2; to full relative precision in both tails (Phi(-x)
    for a tail 1 - Phi(x))."""
    x = np.asarray(x, dtype=np.float64)
    # a map over a list of floats calls erfc faster than np.frompyfunc
    args = (-x / _SQRT2).ravel().tolist()
    return np.fromiter(map(math.erfc, args), np.float64, count=x.size).reshape(x.shape) / 2


def norm_pdf(x) -> np.ndarray:
    """phi(x), the standard normal density, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-0.5 * x * x) / _SQRT2PI


def bvn_upper(h, k, rho: float) -> np.ndarray:
    """P(U > h, V > k) for standard normals U, V of correlation rho, with
    h and k broadcast against each other (Genz's BVND). Equals
    Phi_2(-h, -k; rho); |rho| = 1 is taken exactly."""
    h, k = np.broadcast_arrays(np.asarray(h, dtype=np.float64),
                               np.asarray(k, dtype=np.float64))
    rho = float(rho)
    hk = (h * k).ravel()
    if abs(rho) < 0.925:
        hs = ((h * h + k * k) / 2).ravel()
        asr = np.arcsin(rho)
        sn = np.sin(asr * (_GL_X + 1) / 2)
        bvn = _GL_W @ np.exp((sn * hk - hs) / (1 - sn * sn)) * asr / (2 * _TWOPI)
        tail_h, tail_k = norm_cdf(-np.stack([h, k]))
        return bvn.reshape(h.shape) + tail_h * tail_k
    if rho < 0:
        k, hk = -k, -hk
    bvn = np.zeros(hk.shape)
    if abs(rho) < 1:
        a_sq = (1 - rho) * (1 + rho)
        a = np.sqrt(a_sq)
        b_sq = ((h - k) ** 2).ravel()
        c = (4 - hk) / 8
        d = (12 - hk) / 16
        bvn = a * np.exp(-(b_sq / a_sq + hk) / 2) * (
            1 - c * (b_sq - a_sq) * (1 - d * b_sq / 5) / 3 + c * d * a_sq * a_sq / 5)
        b = np.sqrt(b_sq)
        far = hk <= -160  # exp(-hk/2) below overflows there, where the term is 0
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.exp(-hk / 2) * _SQRT2PI * norm_cdf(-b / a) * b * (
                1 - c * b_sq * (1 - d * b_sq / 5) / 3)
        bvn = bvn - np.where(far, 0.0, gap)
        half = a / 2
        xs = (half * (_GL_X + 1)) ** 2
        rs = np.sqrt(1 - xs)
        terms = (np.exp(-b_sq / (2 * xs) - hk / (1 + rs)) / rs
                 - np.exp(-(b_sq / xs + hk) / 2) * (1 + c * xs * (1 + d * xs)))
        bvn = -(bvn + half * (_GL_W @ terms)[0]) / _TWOPI
    bvn = bvn.reshape(h.shape)
    if rho > 0:
        return bvn + norm_cdf(-np.maximum(h, k))
    tail_h, tail_k = norm_cdf(-np.stack([h, k]))
    return -bvn + np.maximum(0.0, tail_h - tail_k)


def ramp_pair(h, k, rho: float) -> np.ndarray:
    """E[(U - h)+ (V - k)+] for standard normals U, V of correlation rho,
    with h and k broadcast against each other (Rosenbaum 1961):

        (rho + hk) L - k phi(h) Phi((rho h - k)/s) - h phi(k) Phi((rho k - h)/s)
            + s phi(h) phi((k - rho h)/s),

    L = P(U > h, V > k) and s = sqrt(1 - rho^2). At |rho| = 1 the two Phi
    factors are their limits, steps worth 1/2 at a tie, and the last term
    vanishes. rho is clipped to [-1, 1] first, so a correlation that
    rounding put just past 1 counts as 1."""
    h, k = np.asarray(h, dtype=np.float64), np.asarray(k, dtype=np.float64)
    rho = min(1.0, max(-1.0, float(rho)))
    s = np.sqrt((1 - rho) * (1 + rho))
    pdf_h = norm_pdf(h)
    if s > 0:
        cdf_a, cdf_b = norm_cdf(np.stack(np.broadcast_arrays(rho * h - k, rho * k - h)) / s)
        corner = s * pdf_h * norm_pdf((k - rho * h) / s)
    else:
        cdf_a, cdf_b = (np.sign(rho * h - k) + 1) / 2, (np.sign(rho * k - h) + 1) / 2
        corner = 0.0
    return ((rho + h * k) * bvn_upper(h, k, rho) - k * pdf_h * cdf_a
            - h * norm_pdf(k) * cdf_b + corner)
