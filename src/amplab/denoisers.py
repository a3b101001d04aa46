"""Denoiser families: separable soft thresholding, local kernel smoothers,
spectral singular-value maps, and the shift maps of the sensing recursion.

Each denoiser maps the latest iterate z in R^n to an n-vector and exposes its
divergence, one scalar: analytically when a formula exists and otherwise
through a Monte-Carlo probe (1/eps) xi^T (f(z + eps xi) - f(z)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .exceptions import DimensionError, ParameterError
from .rng import RngStream
from .vecmat import mat, vec


def _vector(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionError(f"denoiser input must be an n-vector, got shape {z.shape}")
    return z


@dataclass
class Denoiser:
    """A non-linearity f: R^n -> R^n applied to the latest iterate, plus its
    divergence.

    ``fn(x)`` maps the iterate x in R^n to an n-vector, and the optional
    ``divergence_fn(x)`` returns the raw divergence sum at x (a scalar, not
    normalized by n). ``apply``, ``divergence`` and ``divergence_mc`` take
    one n-vector and raise DimensionError on anything else.

    ``onsager`` alone chooses between the formula (``divergence``) and the
    Monte-Carlo probe (``divergence_mc``); ``run_sensing_amp`` takes its
    Onsager terms from it, the matrix SE solvers from ``divergence`` alone.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    divergence_fn: Optional[Callable[[np.ndarray], float]] = None
    name: str = ""

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self.fn(_vector(z))

    @property
    def has_analytic_divergence(self) -> bool:
        return self.divergence_fn is not None

    def divergence(self, z: np.ndarray) -> float:
        """Analytic divergence sum at z; requires a formula."""
        if self.divergence_fn is None:
            raise ParameterError(f"denoiser {self.name or '<anon>'} has no analytic divergence")
        return float(self.divergence_fn(_vector(z)))

    def divergence_mc(self, z, reps=100, rng=None) -> float:
        """Monte-Carlo divergence sum at z, probed with rng.derive(1)."""
        return mc_divergence(self.fn, _vector(z), reps=reps,
                             rng=(rng or RngStream(0)).derive(1))[0]

    def onsager(self, z, reps=None, rng=None) -> Tuple[float, str]:
        """(divergence sum at z, its source): ``divergence`` and "analytic"
        when reps is None and a formula exists, otherwise ``divergence_mc``
        with reps probes (100 when None) on rng and "monte_carlo"."""
        if reps is None and self.has_analytic_divergence:
            return self.divergence(z), "analytic"
        return self.divergence_mc(z, reps=100 if reps is None else reps, rng=rng), "monte_carlo"


# ---------------------------------------------------------------------------
# Monte-Carlo divergence probe


def mc_divergence(f, x, reps=100, rng=None) -> Tuple[float, float]:
    """(mean, standard error) of the probe estimates
    (1/eps) xi^T (f(x + eps xi) - f(x)), xi ~ N(0, I), over reps probes,
    with step eps = 1e-4 max(1, |x| / sqrt(n)). The standard error is inf
    for a single probe.
    """
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    eps = 1e-4 * max(1.0, float(np.linalg.norm(x)) / np.sqrt(x.size))
    gen = (rng or RngStream(0)).generator()
    fx = f(x)
    samples = np.empty(reps)
    for r in range(reps):
        xi = gen.standard_normal(x.shape)
        samples[r] = xi @ (f(x + eps * xi) - fx) / eps
    stderr = float(np.std(samples, ddof=1) / np.sqrt(reps)) if reps > 1 else np.inf
    return float(np.mean(samples)), stderr


# ---------------------------------------------------------------------------
# Separable soft thresholding


def soft_threshold_apply(x: np.ndarray, lmbda: float) -> np.ndarray:
    """Coordinatewise sign(x) * (|x| - lmbda)_+, with sign(0) = 0."""
    if lmbda < 0:
        raise ParameterError("threshold must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - lmbda, 0.0)


def soft_threshold_divergence(x: np.ndarray, lmbda: float) -> float:
    """Weak-derivative sum: the number of coordinates with |x_i| > lmbda."""
    return float(np.count_nonzero(np.abs(np.asarray(x)) > lmbda))


def soft_threshold_denoiser(lmbda: float) -> Denoiser:
    return Denoiser(
        fn=lambda x: soft_threshold_apply(x, lmbda),
        divergence_fn=lambda x: soft_threshold_divergence(x, lmbda),
        name=f"soft_threshold(lmbda={lmbda})",
    )


# ---------------------------------------------------------------------------
# Local averaging kernel smoother


@dataclass(frozen=True)
class LocalKernelSpec:
    """Sliding-window mean over |j-k|, |j'-k'| <= h, truncated at the borders."""

    M: int
    N: int
    h: int

    def __post_init__(self):
        if self.h < 0:
            raise ParameterError("bandwidth h must be nonnegative")
        if self.M < 1 or self.N < 1:
            raise DimensionError("image dims must be positive")

    def window_counts(self) -> np.ndarray:
        rc = self._axis_counts(self.M)
        cc = self._axis_counts(self.N)
        return np.outer(rc, cc)

    def _axis_counts(self, size: int) -> np.ndarray:
        idx = np.arange(size)
        return np.minimum(size - 1, idx + self.h) - np.maximum(0, idx - self.h) + 1


def _box_sum(img: np.ndarray, h: int) -> np.ndarray:
    """Sum of img over the truncated (2h+1)^2 window around each pixel."""
    c = np.zeros((img.shape[0] + 1, img.shape[1] + 1))
    c[1:, 1:] = img.cumsum(0).cumsum(1)
    m, n = img.shape
    r0 = np.maximum(0, np.arange(m) - h)
    r1 = np.minimum(m, np.arange(m) + h + 1)
    c0 = np.maximum(0, np.arange(n) - h)
    c1 = np.minimum(n, np.arange(n) + h + 1)
    return (
        c[np.ix_(r1, c1)] - c[np.ix_(r0, c1)] - c[np.ix_(r1, c0)] + c[np.ix_(r0, c0)]
    )


def local_average_apply(z: np.ndarray, spec: LocalKernelSpec) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (spec.M, spec.N):
        raise DimensionError(f"expected {spec.M}x{spec.N} image, got {z.shape}")
    if spec.h == 0:
        return z.copy()
    return _box_sum(z, spec.h) / spec.window_counts()


def local_average_divergence(spec: LocalKernelSpec) -> float:
    """Sum over pixels of 1/|window|; input-independent and exact."""
    rc = spec._axis_counts(spec.M)
    cc = spec._axis_counts(spec.N)
    return float(np.sum(1.0 / rc) * np.sum(1.0 / cc))


def local_average_denoiser(spec: LocalKernelSpec) -> Denoiser:
    const = local_average_divergence(spec)
    return Denoiser(
        fn=lambda x: vec(local_average_apply(mat(x, spec.M, spec.N), spec)),
        divergence_fn=lambda x: const,
        name=f"local_average(h={spec.h})",
    )


# ---------------------------------------------------------------------------
# Spectral maps (singular value thresholding)


@dataclass(frozen=True, eq=False)
class SpectralSpec:
    """Soft-threshold the singular values at level threshold * sqrt(N).

    Specs compare and hash by identity, as ``Coloring`` does: the generated
    ``==`` and ``hash`` fail on an ndarray ``shift``."""

    M: int
    N: int
    threshold: float
    shift: Optional[np.ndarray] = None  # M x N, added to mat(z) before thresholding

    def __post_init__(self):
        if self.threshold < 0:
            raise ParameterError("threshold must be nonnegative")
        if self.shift is not None and np.shape(self.shift) != (self.M, self.N):
            raise DimensionError(
                f"shift must be {self.M}x{self.N}, got shape {np.shape(self.shift)}")


def svt_apply(x: np.ndarray, spec: SpectralSpec) -> np.ndarray:
    """O g(D) U^T where x = O D U^T and g(d) = (d - threshold * sqrt(N))_+."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.M, spec.N):
        raise DimensionError(f"expected {spec.M}x{spec.N} matrix, got {x.shape}")
    o, d, ut = np.linalg.svd(x, full_matrices=False)
    d = np.maximum(d - spec.threshold * np.sqrt(spec.N), 0.0)
    return (o * d) @ ut


def _svt_input(x: np.ndarray, spec: SpectralSpec) -> np.ndarray:
    """The matrix the SVT denoiser thresholds: mat(x) + spec.shift."""
    out = mat(x, spec.M, spec.N)
    return out if spec.shift is None else out + spec.shift


def svt_divergence(x: np.ndarray, spec: SpectralSpec) -> float:
    """Exact divergence of x -> vec(svt(mat(x) + shift)) (Candes, Sing-Long &
    Trzasko 2013, arXiv:1210.4139). With s_1 >= ... >= s_k the singular
    values of mat(x) + shift and g(s) = (s - lam)_+, lam = threshold sqrt(N):

        sum_i g'(s_i) + |M - N| sum_i g(s_i)/s_i
            + 2 sum_(i<j) (s_i g_i - s_j g_j) / (s_i^2 - s_j^2),

    where g'(0) and g(s)/s at s = 0 are the right derivative g'(0+) (1 at
    lam = 0, else 0). The pair term is 1 - lam/(s_i + s_j) when s_j > lam,
    which is also its limit (g + s g')/(2s) at a tie, s_i g_i/(s_i^2 - s_j^2)
    when only s_i > lam, and 0 otherwise, so near-ties lose no precision.
    """
    s = np.linalg.svd(_svt_input(x, spec), compute_uv=False)
    lam = spec.threshold * np.sqrt(spec.N)
    g = np.maximum(s - lam, 0.0)
    active = (s > lam) | (lam == 0.0)
    ratio = np.divide(g, s, out=active.astype(np.float64), where=s > 0)
    i, j = np.triu_indices(s.size, 1)
    a, b = s[i], s[j]
    pair = np.where(active[j], 1.0 - np.divide(lam, a + b, out=np.zeros(a.size),
                                                 where=a + b > 0), 0.0)
    one = active[i] & ~active[j]  # then s_i > lam >= s_j, so s_i > s_j
    pair[one] = (a * g[i])[one] / ((a - b) * (a + b))[one]
    return float(np.count_nonzero(active) + abs(spec.M - spec.N) * ratio.sum()
                 + 2.0 * pair.sum())


def svt_denoiser(spec: SpectralSpec) -> Denoiser:
    """Soft thresholding of the singular values of mat(x) + spec.shift, with
    the exact divergence ``svt_divergence``. ``apply`` and ``divergence``
    each take one SVD of the same matrix; the divergence needs only the
    singular values."""
    return Denoiser(
        fn=lambda x: vec(svt_apply(_svt_input(x, spec), spec)),
        divergence_fn=lambda x: svt_divergence(x, spec),
        name=f"svt(threshold={spec.threshold})",
    )


# ---------------------------------------------------------------------------
# Simple building blocks


def identity_denoiser() -> Denoiser:
    return Denoiser(fn=lambda x: x.copy(), divergence_fn=lambda x: x.size, name="identity")


def zero_denoiser(n: int) -> Denoiser:
    return Denoiser(fn=lambda x: np.zeros(n), divergence_fn=lambda x: 0.0, name="zero")


def residual_shift_denoiser(e: np.ndarray) -> Denoiser:
    """f(z) = z + e, the measurement-noise shift of the sensing recursion."""
    e = np.asarray(e, dtype=np.float64)
    m = e.size
    return Denoiser(fn=lambda x: x + e, divergence_fn=lambda x: m, name="residual_shift")


def signal_residual_denoiser(theta_star: np.ndarray, eta: Denoiser) -> Denoiser:
    """g(y) = theta_star - eta(y + theta_star); divergence is -div eta."""
    theta_star = np.asarray(theta_star, dtype=np.float64)
    div_fn = None
    if eta.has_analytic_divergence:
        div_fn = lambda x: -eta.divergence(x + theta_star)
    return Denoiser(fn=lambda x: theta_star - eta.apply(x + theta_star),
                    divergence_fn=div_fn, name=f"signal_residual({eta.name})")
