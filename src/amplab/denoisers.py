"""Denoiser families: separable soft thresholding, local kernel smoothers,
spectral singular-value maps, and the shift maps of the sensing recursion.

Each denoiser maps the latest iterate z in R^n to an n-vector, and may
declare a formula for its divergence, one scalar. The Monte-Carlo probe
(1/eps) xi^T (f(z + eps xi) - f(z)) runs only when a caller asks for it
(``Denoiser.divergence_mc``); a caller that needs the formula refuses a
denoiser without one (``state_evolution.require_divergence``).

A denoiser's map also takes a stack of iterates, one per row, so the
Monte-Carlo loops here and in ``state_evolution`` call it once per block of
samples. A block's float64 working set is at most _BLOCK_BYTES (1 MiB), or
one sample's where a single one takes more; a denoiser call is counted as
_CALL_ROWS rows per sample (its input, its output and two temporaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional, Tuple

import numpy as np

from .exceptions import DimensionError, NumericError, ParameterError, require_count
from .rng import RngStream
from .vecmat import mat, vec

# bound on the float64 bytes that a block of Monte-Carlo samples holds at once
_BLOCK_BYTES = 1 << 20
# rows per sample allowed for one denoiser call: input, output, two temporaries
_CALL_ROWS = 4


def _block_rows(row_bytes: int) -> int:
    """Samples per block when each holds row_bytes of float64; at least 1."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _vector(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionError(f"denoiser input must be an n-vector, got shape {z.shape}")
    return z


@dataclass(frozen=True, eq=False)
class Denoiser:
    """A non-linearity f: R^n -> R^n applied to the latest iterate, plus its
    divergence.

    ``fn(x)`` maps the iterate x in R^n to an n-vector. It must also map a
    stack of iterates, shape (..., n), to the stack (..., n) of their
    images, each row exactly as ``fn`` maps that row alone: the Monte-Carlo
    probe and the SE samplers call it once per block of samples. The
    optional ``divergence_fn(x)`` returns the raw divergence sum at one
    n-vector x (a scalar, not normalized by n). ``apply``, ``divergence``
    and ``divergence_mc`` take exactly one n-vector and raise DimensionError
    on anything else.

    Three optional fields declare a closed form of ``fn``; each holds
    exactly when set, and the fields are read-only, so a declaration cannot
    drift from its map:

    - ``offset`` c: ``fn(z) = z + c``;
    - ``threshold`` lmbda: ``fn`` is soft thresholding at lmbda;
    - ``residual`` (c, lmbda): ``fn(z) = c - soft_threshold(z + c, lmbda)``,
      the soft-threshold signal residual.

    The SE solvers take a side whose every denoiser declares an offset, or
    whose every denoiser declares a residual, in closed form instead of
    sampling it. ``threshold`` alone is no such family: it is what
    ``signal_residual_denoiser`` reads to declare a residual. Instances
    compare and hash by identity, as ``SpectralSpec`` does: the generated
    ``==`` and ``hash`` fail on an ndarray field.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    divergence_fn: Optional[Callable[[np.ndarray], float]] = None
    name: str = ""
    offset: Optional[np.ndarray] = None
    threshold: Optional[float] = None
    residual: Optional[Tuple[np.ndarray, float]] = None

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self.fn(_vector(z))

    def divergence(self, z: np.ndarray) -> float:
        """Analytic divergence sum at z; requires a formula."""
        if self.divergence_fn is None:
            raise ParameterError(f"denoiser {self.name or '<anon>'} has no analytic divergence")
        return float(self.divergence_fn(_vector(z)))

    def divergence_mc(self, z, reps=100, rng=None) -> float:
        """Monte-Carlo divergence sum at z, probed with rng.derive(1)."""
        return mc_divergence(self.fn, _vector(z), reps=reps,
                             rng=(rng or RngStream(0)).derive(1))[0]


# ---------------------------------------------------------------------------
# Monte-Carlo divergence probe


def mc_divergence(f, x, reps=100, rng=None) -> Tuple[float, float]:
    """(mean, standard error) of the probe estimates
    (1/eps) xi^T (f(x + eps xi) - f(x)), xi ~ N(0, I), over reps probes at
    the n-vector x, with step eps = 1e-4 max(1, |x| / sqrt(n)). The standard
    error is inf for a single probe.

    f maps a stack of rows as a ``Denoiser.fn`` does. The probes are drawn
    from rng's generator in blocks, standard_normal((rows, n)), which is the
    stream that one draw per probe would take, and each block is one f call;
    a probe holds its xi, its difference and the f call's rows.
    """
    reps = require_count(reps, "reps", ParameterError)
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DimensionError(f"the probe point x must be non-empty, got shape {x.shape}")
    eps = 1e-4 * max(1.0, float(np.linalg.norm(x)) / np.sqrt(x.size))
    gen = (rng or RngStream(0)).generator()
    fx = f(x)
    samples = np.empty(reps)
    step = _block_rows(8 * x.size * (2 + _CALL_ROWS))
    for start in range(0, reps, step):
        xi = gen.standard_normal((min(step, reps - start), x.size))
        samples[start:start + len(xi)] = np.vecdot(xi, f(x + eps * xi) - fx) / eps
    stderr = float(np.std(samples, ddof=1) / np.sqrt(reps)) if reps > 1 else np.inf
    return float(np.mean(samples)), stderr


# ---------------------------------------------------------------------------
# Separable soft thresholding


def _check_threshold(lmbda: float) -> None:
    """ParameterError naming threshold unless it is >= 0; NaN is not."""
    if not lmbda >= 0:
        raise ParameterError(f"threshold must be nonnegative, got {lmbda!r}")


def soft_threshold_apply(x: np.ndarray, lmbda: float) -> np.ndarray:
    """Coordinatewise sign(x) * (|x| - lmbda)_+, computed as
    x - clip(x, -lmbda, lmbda)."""
    _check_threshold(lmbda)
    x = np.asarray(x, dtype=np.float64)
    return x - np.clip(x, -lmbda, lmbda)


def soft_threshold_divergence(x: np.ndarray, lmbda: float) -> float:
    """Weak-derivative sum: the number of coordinates with |x_i| > lmbda."""
    _check_threshold(lmbda)
    return float(np.count_nonzero(np.abs(np.asarray(x)) > lmbda))


def soft_threshold_denoiser(lmbda: float) -> Denoiser:
    """Soft thresholding at lmbda, checked here, with its counting divergence;
    lmbda is recorded as its ``threshold``."""
    _check_threshold(lmbda)
    return Denoiser(
        fn=lambda x: soft_threshold_apply(x, lmbda),
        divergence_fn=lambda x: soft_threshold_divergence(x, lmbda),
        name=f"soft_threshold(lmbda={lmbda})",
        threshold=float(lmbda),
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
        for name in ("M", "N"):
            require_count(getattr(self, name), name, DimensionError)
        if not isinstance(self.h, Integral) or isinstance(self.h, bool) or self.h < 0:
            raise ParameterError(f"bandwidth h must be an integer >= 0, got {self.h!r}")

    def window_counts(self) -> np.ndarray:
        rc = self._axis_counts(self.M)
        cc = self._axis_counts(self.N)
        return np.outer(rc, cc)

    def _axis_counts(self, size: int) -> np.ndarray:
        idx = np.arange(size)
        return np.minimum(size - 1, idx + self.h) - np.maximum(0, idx - self.h) + 1


def _box_sum(img: np.ndarray, h: int) -> np.ndarray:
    """Sum of each (..., m, n) image over the truncated (2h+1)^2 window
    around each pixel."""
    *lead, m, n = img.shape
    c = np.zeros((*lead, m + 1, n + 1))
    c[..., 1:, 1:] = img.cumsum(-2).cumsum(-1)
    r0 = np.maximum(0, np.arange(m) - h)[:, None]
    r1 = np.minimum(m, np.arange(m) + h + 1)[:, None]
    c0 = np.maximum(0, np.arange(n) - h)
    c1 = np.minimum(n, np.arange(n) + h + 1)
    return c[..., r1, c1] - c[..., r0, c1] - c[..., r1, c0] + c[..., r0, c0]


def local_average_apply(z: np.ndarray, spec: LocalKernelSpec) -> np.ndarray:
    """The smoothed (..., M, N) image stack z."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-2:] != (spec.M, spec.N):
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
        for name in ("M", "N"):
            require_count(getattr(self, name), name, DimensionError)
        _check_threshold(self.threshold)
        if self.shift is not None and np.shape(self.shift) != (self.M, self.N):
            raise DimensionError(
                f"shift must be {self.M}x{self.N}, got shape {np.shape(self.shift)}")


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    """x; NumericError naming what when an entry of x is inf or NaN, which
    LAPACK's SVD cannot take."""
    if not np.isfinite(x).all():
        raise NumericError(f"{what} has {np.count_nonzero(~np.isfinite(x))} non-finite "
                           f"entries")
    return x


def svt_apply(x: np.ndarray, spec: SpectralSpec) -> np.ndarray:
    """O g(D) U^T where x = O D U^T and g(d) = (d - threshold * sqrt(N))_+,
    for each matrix of the (..., M, N) stack x; one batched SVD.
    NumericError when x holds a non-finite entry."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-2:] != (spec.M, spec.N):
        raise DimensionError(f"expected {spec.M}x{spec.N} matrix, got {x.shape}")
    o, d, ut = np.linalg.svd(_finite(x, "SVT input x"), full_matrices=False)
    d = np.maximum(d - spec.threshold * np.sqrt(spec.N), 0.0)
    return (o * d[..., None, :]) @ ut


def _svt_input(x: np.ndarray, spec: SpectralSpec) -> np.ndarray:
    """The (..., M, N) stack the SVT denoiser thresholds: mat(x) + spec.shift."""
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
    NumericError when mat(x) + shift holds a non-finite entry.
    """
    s = np.linalg.svd(_finite(_svt_input(x, spec), "SVT input mat(x) + shift"),
                      compute_uv=False)
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


def zero_denoiser() -> Denoiser:
    return Denoiser(fn=np.zeros_like, divergence_fn=lambda x: 0.0, name="zero")


def residual_shift_denoiser(e: np.ndarray) -> Denoiser:
    """f(z) = z + e, the measurement-noise shift of the sensing recursion,
    declared as its ``offset`` e."""
    e = np.asarray(e, dtype=np.float64)
    m = e.size
    return Denoiser(fn=lambda x: x + e, divergence_fn=lambda x: m, name="residual_shift",
                    offset=e)


def signal_residual_denoiser(theta_star: np.ndarray, eta: Denoiser) -> Denoiser:
    """g(y) = theta_star - eta(y + theta_star); divergence is -div eta.
    Declared as the ``residual`` (theta_star, lmbda) when eta declares its
    soft ``threshold`` lmbda. DimensionError unless theta_star is a
    non-empty vector."""
    theta_star = np.asarray(theta_star, dtype=np.float64)
    if theta_star.ndim != 1 or theta_star.size == 0:
        raise DimensionError(f"theta_star must be a non-empty vector, got shape "
                             f"{theta_star.shape}")
    div_fn = None
    if eta.divergence_fn is not None:
        div_fn = lambda x: -eta.divergence(x + theta_star)
    residual = None if eta.threshold is None else (theta_star, eta.threshold)
    return Denoiser(fn=lambda x: theta_star - eta.fn(x + theta_star),
                    divergence_fn=div_fn, name=f"signal_residual({eta.name})",
                    residual=residual)
