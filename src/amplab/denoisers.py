"""Denoiser families: separable soft-thresholding, local kernel smoothers,
spectral singular-value maps, anisotropic conjugations.

Each denoiser maps a stack of iterates z_(1:t) in R^(n x t) to an n-vector and
exposes its divergence, analytically when a formula exists and otherwise
through a Monte-Carlo probe (1/eps) xi^T (f(z + eps xi) - f(z)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .exceptions import DimensionError, ParameterError
from .rng import RngStream
from .vecmat import mat, vec


def _as_stack(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        return z[:, None]
    if z.ndim != 2:
        raise DimensionError("denoiser input must be a vector or an n x t stack")
    return z


@dataclass
class Denoiser:
    """A non-linearity f: R^(n x t) -> R^n plus divergence metadata.

    With ``reads_last_only`` set (the default) only the latest column enters:
    ``fn(x)`` and ``divergence_fn(x)`` take that column x in R^n, and
    ``divergence_fn`` returns the raw divergence sum (a scalar, not
    normalized by n). ``apply`` and ``divergence`` hand them ``z[:, -1]``,
    and the divergences w.r.t. earlier columns are zero, so Onsager entries
    for them are pinned to zero. A stack denoiser (``reads_last_only``
    False) gets the whole n x t stack, and its ``divergence_fn`` returns one
    raw sum per column.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    divergence_fn: Optional[Callable[[np.ndarray], Union[float, np.ndarray]]] = None
    reads_last_only: bool = True
    name: str = ""

    def apply(self, z: np.ndarray) -> np.ndarray:
        z = _as_stack(z)
        return self.fn(z[:, -1] if self.reads_last_only else z)

    @property
    def has_analytic_divergence(self) -> bool:
        return self.divergence_fn is not None

    def divergence(self, z: np.ndarray) -> np.ndarray:
        """Analytic per-column divergence sums at z; requires a formula."""
        if self.divergence_fn is None:
            raise ParameterError(f"denoiser {self.name or '<anon>'} has no analytic divergence")
        z = _as_stack(z)
        if not self.reads_last_only:
            return np.asarray(self.divergence_fn(z), dtype=np.float64)
        out = np.zeros(z.shape[1])
        out[-1] = self.divergence_fn(z[:, -1])
        return out

    def divergence_mc(self, z, eps=None, reps=100, rng=None) -> np.ndarray:
        """Monte-Carlo per-column divergence sums at z; column j is probed
        with rng.derive(j + 1), and columns a last-column denoiser never
        reads are left at zero."""
        z = _as_stack(z)
        rng = rng or RngStream(0)
        out = np.zeros(z.shape[1])
        if self.reads_last_only:
            out[-1] = mc_divergence(self.fn, z[:, -1], eps, reps, rng.derive(1))[0]
            return out
        for col in range(z.shape[1]):
            f = lambda x, c=col: self.fn(_with_column(z, c, x))
            out[col] = mc_divergence(f, z[:, col], eps, reps, rng.derive(col + 1))[0]
        return out


def _with_column(z, col, x):
    out = z.copy()
    out[:, col] = x
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo divergence probe


def mc_divergence(f, x, eps=None, reps=100, rng=None) -> Tuple[float, float]:
    """(mean, standard error) of the probe estimates
    (1/eps) xi^T (f(x + eps xi) - f(x)), xi ~ N(0, I), over reps probes.

    eps defaults to 1e-4 max(1, |x| / sqrt(n)). The standard error is inf
    for a single probe.
    """
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if eps is None:
        eps = 1e-4 * max(1.0, float(np.linalg.norm(x)) / np.sqrt(x.size))
    if eps <= 0:
        raise ParameterError("probe step eps must be positive")
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
        lipschitz_bound=1.0,
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
    # Row sums of the averaging operator are 1; the max column sum is the
    # largest total weight any input pixel receives, so sqrt(linf * l1)
    # bounds the spectral norm.
    if spec.h == 0:
        lip = 1.0
    else:
        col_sums = _box_sum(1.0 / spec.window_counts(), spec.h)
        lip = float(np.sqrt(col_sums.max()))
    const = local_average_divergence(spec)
    return Denoiser(
        fn=lambda x: vec(local_average_apply(mat(x, spec.M, spec.N), spec)),
        lipschitz_bound=max(lip, 1.0),
        divergence_fn=lambda x: const,
        name=f"local_average(h={spec.h})",
    )


# ---------------------------------------------------------------------------
# Spectral maps (singular value thresholding)


@dataclass(frozen=True)
class SpectralSpec:
    """Soft-threshold the singular values at level threshold * sqrt(N)."""

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
        lipschitz_bound=1.0,
        divergence_fn=lambda x: svt_divergence(x, spec),
        name=f"svt(threshold={spec.threshold})",
    )


# ---------------------------------------------------------------------------
# Anisotropic conjugations f = K' g(K^T z)


@dataclass
class AnisoSpec:
    """K' g(K^T .) with a separable (rowwise) inner map g."""

    K: np.ndarray
    Kprime: np.ndarray
    inner: Callable[[np.ndarray], np.ndarray]  # (n x t) -> (n,)
    inner_lipschitz: float = 1.0

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=np.float64)
        self.Kprime = np.asarray(self.Kprime, dtype=np.float64)
        if self.K.ndim != 2 or self.K.shape[0] != self.K.shape[1]:
            raise DimensionError("K must be square")
        if self.Kprime.shape != self.K.shape:
            raise DimensionError("K' must match K in shape")


def aniso_apply(z: np.ndarray, spec: AnisoSpec) -> np.ndarray:
    z = _as_stack(z)
    if z.shape[0] != spec.K.shape[0]:
        raise DimensionError("input rows must match K")
    return spec.Kprime @ spec.inner(spec.K.T @ z)


def aniso_denoiser(spec: AnisoSpec) -> Denoiser:
    """K' g(K^T x) of the latest column x; the inner map sees K^T x as an
    n x 1 stack."""
    lip = (
        np.linalg.norm(spec.Kprime, 2) * spec.inner_lipschitz * np.linalg.norm(spec.K, 2)
    )
    return Denoiser(
        fn=lambda x: aniso_apply(x, spec),
        lipschitz_bound=float(lip),
        divergence_fn=None,
        name="aniso",
    )


# ---------------------------------------------------------------------------
# Simple building blocks


def identity_denoiser() -> Denoiser:
    return Denoiser(fn=lambda x: x.copy(), lipschitz_bound=1.0,
                    divergence_fn=lambda x: x.size, name="identity")


def scaled_identity_denoiser(c: float) -> Denoiser:
    return Denoiser(fn=lambda x: c * x, lipschitz_bound=abs(c),
                    divergence_fn=lambda x: c * x.size, name=f"scale({c})")


def zero_denoiser(n: int) -> Denoiser:
    return Denoiser(fn=lambda x: np.zeros(n), lipschitz_bound=0.0,
                    divergence_fn=lambda x: 0.0, name="zero")


def identity_plus_soft_threshold_denoiser(lmbda: float) -> Denoiser:
    return Denoiser(
        fn=lambda x: x + soft_threshold_apply(x, lmbda),
        lipschitz_bound=2.0,
        divergence_fn=lambda x: x.size + soft_threshold_divergence(x, lmbda),
        name=f"identity_plus_soft_threshold(lmbda={lmbda})",
    )


def residual_shift_denoiser(e: np.ndarray) -> Denoiser:
    """f(z) = z_t + e, the measurement-noise shift of the sensing recursion."""
    e = np.asarray(e, dtype=np.float64)
    m = e.size
    lip = max(1.0, float(np.linalg.norm(e)) / np.sqrt(m))
    return Denoiser(fn=lambda x: x + e, lipschitz_bound=lip,
                    divergence_fn=lambda x: m, name="residual_shift")


def signal_residual_denoiser(theta_star: np.ndarray, eta: Denoiser) -> Denoiser:
    """g(y) = theta_star - eta(y + theta_star); divergence is -div eta."""
    theta_star = np.asarray(theta_star, dtype=np.float64)
    n = theta_star.size
    div_fn = None
    if eta.has_analytic_divergence:
        div_fn = lambda x: -eta.divergence(x + theta_star)[-1]
    at_zero = theta_star - eta.apply(theta_star)
    lip = max(eta.lipschitz_bound, float(np.linalg.norm(at_zero)) / np.sqrt(n))
    return Denoiser(fn=lambda x: theta_star - eta.apply(x + theta_star),
                    lipschitz_bound=lip, divergence_fn=div_fn,
                    name=f"signal_residual({eta.name})")


# ---------------------------------------------------------------------------
# Monotone Lipschitz quantile interpolant


@dataclass
class MonotoneInterpolant:
    """Piecewise-linear g through (knots, values), constant outside the range."""

    knots: np.ndarray
    values: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.knots, self.values)


def lipschitz_monotone_approx(s, d, iota: float) -> MonotoneInterpolant:
    """Slope-capped monotone fit of nondecreasing targets d over the grid s.

    s has one more entry than d; g is anchored at zero on the first knot and
    g(s_j) = min(d_j, g(s_(j-1)) + (s_j - s_(j-1)) / iota) on the rest, so g
    is monotone, (1/iota)-Lipschitz and never exceeds its target at a knot.
    """
    s = np.asarray(s, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if iota <= 0:
        raise ParameterError("iota must be positive")
    if s.ndim != 1 or d.ndim != 1 or s.size != d.size + 1:
        raise DimensionError("need len(s) == len(d) + 1")
    if np.any(np.diff(s) <= 0):
        raise ParameterError("knot grid s must be strictly increasing")
    if np.any(np.diff(d) < 0) or np.any(d < 0):
        raise ParameterError("targets d must be nonnegative and nondecreasing")
    g = np.zeros(s.size)
    for j in range(1, s.size):
        g[j] = min(d[j - 1], g[j - 1] + (s[j] - s[j - 1]) / iota)
    return MonotoneInterpolant(knots=s, values=g)


def marchenko_pastur_sqrt_quantiles(count: int, aspect: float, grid: int = 20001):
    """j/count quantiles (j=1..count) of the singular-value law sqrt(lambda),
    lambda Marchenko-Pastur with the given aspect ratio in (0, 1].

    Returns (base, quantiles) where base is the left support edge.
    """
    if not 0 < aspect <= 1:
        raise ParameterError("aspect ratio must lie in (0, 1]")
    lo, hi = 1.0 - np.sqrt(aspect), 1.0 + np.sqrt(aspect)
    ss = np.linspace(lo, hi, grid)
    a, b = lo * lo, hi * hi
    with np.errstate(invalid="ignore", divide="ignore"):
        dens = np.sqrt(np.maximum((b - ss**2) * (ss**2 - a), 0.0)) / (
            np.pi * aspect * np.maximum(ss, 1e-300)
        )
    if lo == 0.0:
        dens[0] = 2.0 / np.pi  # limit of sqrt(4 - s^2)/pi at s = 0
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * np.diff(ss) / 2.0)])
    cdf /= cdf[-1]
    probs = np.arange(1, count + 1) / count
    return lo, np.interp(probs, cdf, ss)
