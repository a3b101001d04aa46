"""Denoiser families: separable soft thresholding, local kernel smoothers,
spectral singular-value maps, and the shift maps of the sensing recursion.

Each denoiser maps the latest iterate z in R^n to an n-vector, and may
declare a formula for its divergence, one scalar. The Monte-Carlo probe
(1/eps) xi^T (f(z + eps xi) - f(z)) runs only when a caller asks for it
(``Denoiser.divergence_mc``); a caller that needs the formula refuses a
denoiser without one (``exceptions.require_divergence``).

A denoiser's map and its divergence formula also take a stack of iterates,
one per row, so the Monte-Carlo loops here and in ``state_evolution`` call
each once per block of samples. A block's float64 working set is at most
_BLOCK_BYTES (1 MiB), or one sample's where a single one takes more; a
denoiser call is counted as _CALL_ROWS rows per sample (its input, its
output and two temporaries). The probe keeps its blocks because one probe
call over all reps, though bitwise the same, raised the ``spectral``
benchmark workload's peak RSS from 44.7 to 48.1 MB (+7.5%, on 2 vCPUs).

Soft thresholding has one entry point, ``soft_threshold_denoiser``; the
exact SE reads its arithmetic (``_soft_threshold``) directly. Every
threshold, of that denoiser and of ``SpectralSpec``, is checked once, when
the denoiser or spec is built, by ``exceptions.require_number`` as a number
in [0, inf]; an infinite threshold maps every input to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .exceptions import (DimensionError, NumericError, ParameterError, _owned, is_integer,
                         require_count, require_number, require_vector)
from .rng import RngStream
from .vecmat import mat, vec

# bound on the float64 bytes that a block of Monte-Carlo samples holds at once
_BLOCK_BYTES = 1 << 20
# rows per sample allowed for one denoiser call: input, output, two temporaries
_CALL_ROWS = 4


def _block_rows(row_bytes: int) -> int:
    """Samples per block when each holds row_bytes of float64; at least 1."""
    return max(1, _BLOCK_BYTES // row_bytes)


@dataclass(frozen=True, eq=False)
class Denoiser:
    """A non-linearity f: R^n -> R^n applied to the latest iterate, plus its
    divergence.

    Both maps take row stacks. ``fn(x)`` maps the iterate x in R^n to an
    n-vector, and a stack of iterates, shape (..., n), to the stack
    (..., n) of their images. The optional ``divergence_fn(x)`` maps the
    stack to the (...) array of raw divergence sums (not normalized by n),
    a scalar at one n-vector. Each row is mapped exactly as that row alone:
    the Monte-Carlo probe and the SE samplers call each map once per block
    of samples. ``apply``, ``divergence`` and ``divergence_mc`` still take
    one non-empty n-vector z; a stack of iterates, a scalar or an empty
    array is refused by ``require_vector``, naming z. They pass ``fn`` and
    ``divergence_fn`` the read-only copy of z that ``require_vector`` makes,
    so a custom ``fn`` that writes to its input raises ValueError instead of
    changing the caller's array (a runner's trace column).

    Three optional fields declare a closed form of ``fn``; each holds
    exactly when set. The fields are read-only, and the library builders
    keep read-only copies of the declared vectors (``require_vector``), so a
    declaration cannot drift from its map, not even by a later write to the
    caller's array:

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
    divergence_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    offset: Optional[np.ndarray] = None
    threshold: Optional[float] = None
    residual: Optional[Tuple[np.ndarray, float]] = None

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self.fn(require_vector(z, "z"))

    def divergence(self, z: np.ndarray) -> float:
        """Analytic divergence sum at z; requires a formula."""
        if self.divergence_fn is None:
            raise ParameterError(f"denoiser {self.name or '<anon>'} has no analytic divergence")
        return float(self.divergence_fn(require_vector(z, "z")))

    def divergence_mc(self, z, reps=100, rng=None) -> float:
        """Monte-Carlo divergence sum at z, probed with rng.derive(1)."""
        return mc_divergence(self.fn, require_vector(z, "z"), reps=reps,
                             rng=(rng or RngStream(0)).derive(1))[0]


# ---------------------------------------------------------------------------
# Monte-Carlo divergence probe


def mc_divergence(f, x, reps=100, rng=None) -> Tuple[float, float]:
    """(mean, standard error) of the probe estimates
    (1/eps) xi^T (f(x + eps xi) - f(x)), xi ~ N(0, I), over reps probes at
    the non-empty n-vector x (``require_vector``), with step
    eps = 1e-4 max(1, |x| / sqrt(n)). The standard error is inf for a single
    probe.

    f maps a stack of rows as a ``Denoiser.fn`` does. The probes are drawn
    from rng's generator in blocks, standard_normal((rows, n)), which is the
    stream that one draw per probe would take, and each block is one f call;
    a probe holds its xi, its difference and the f call's rows.
    """
    reps = require_count(reps, "reps", ParameterError)
    x = require_vector(x, "x")
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


def _soft_threshold(x: np.ndarray, lmbda: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x - np.clip(x, -lmbda, lmbda)


def soft_threshold_denoiser(lmbda: float) -> Denoiser:
    """Soft thresholding at lmbda, sign(x) * (|x| - lmbda)_+ coordinatewise,
    computed as x - clip(x, -lmbda, lmbda), with its counting divergence,
    the number of coordinates of each row with |x_i| > lmbda. lmbda is
    checked here once and recorded as its ``threshold``."""
    threshold = require_number(lmbda, "threshold", ParameterError, 0, np.inf)
    return Denoiser(
        fn=lambda x: _soft_threshold(x, lmbda),
        divergence_fn=lambda x: np.count_nonzero(np.abs(x) > lmbda, axis=-1),
        name=f"soft_threshold(lmbda={lmbda})",
        threshold=threshold,
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
        if not is_integer(self.h) or self.h < 0:
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
        divergence_fn=lambda x: np.full(np.shape(x)[:-1], const),
        name=f"local_average(h={spec.h})",
    )


# ---------------------------------------------------------------------------
# Spectral maps (singular value thresholding)


@dataclass(frozen=True, eq=False)
class SpectralSpec:
    """Soft-threshold the singular values at level threshold * sqrt(N).

    Specs compare and hash by identity, as ``Coloring`` does: the generated
    ``==`` and ``hash`` fail on an ndarray ``shift``. The spec keeps a
    read-only float64 copy of shift (``exceptions._owned``), so no later
    write to the caller's array changes a denoiser built from it."""

    M: int
    N: int
    threshold: float
    shift: Optional[np.ndarray] = None  # M x N, added to mat(z) before thresholding

    def __post_init__(self):
        for name in ("M", "N"):
            require_count(getattr(self, name), name, DimensionError)
        require_number(self.threshold, "threshold", ParameterError, 0, np.inf)
        if self.shift is None:
            return
        object.__setattr__(self, "shift", _owned(self.shift))
        if self.shift.shape != (self.M, self.N):
            raise DimensionError(f"shift must be {self.M}x{self.N}, got shape {self.shift.shape}")


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


def svt_divergence(x: np.ndarray, spec: SpectralSpec) -> np.ndarray:
    """Exact divergence of x -> vec(svt(mat(x) + shift)) (Candes, Sing-Long &
    Trzasko 2013, arXiv:1210.4139) at each row of the (..., M*N) stack x,
    the (...) array of sums, from one batched SVD of singular values only.
    With s_1 >= ... >= s_k the singular values of a row's mat(x) + shift
    and g(s) = (s - lam)_+, lam = threshold sqrt(N):

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
    i, j = np.triu_indices(s.shape[-1], 1)
    a, b = s[..., i], s[..., j]
    pair = np.where(active[..., j], 1.0 - np.divide(lam, a + b, out=np.zeros(a.shape),
                                                      where=a + b > 0), 0.0)
    one = active[..., i] & ~active[..., j]  # then s_i > lam >= s_j, so s_i > s_j
    pair[one] = (a * g[..., i])[one] / ((a - b) * (a + b))[one]
    return (np.count_nonzero(active, axis=-1) + abs(spec.M - spec.N) * ratio.sum(-1)
            + 2.0 * pair.sum(-1))


def svt_denoiser(spec: SpectralSpec) -> Denoiser:
    """Soft thresholding of the singular values of mat(x) + spec.shift, with
    the exact divergence ``svt_divergence``. ``apply`` and ``divergence``
    each take one SVD of the same matrix; the divergence needs only the
    singular values, and takes a stack's in one batched SVD."""
    return Denoiser(
        fn=lambda x: vec(svt_apply(_svt_input(x, spec), spec)),
        divergence_fn=lambda x: svt_divergence(x, spec),
        name=f"svt(threshold={spec.threshold})",
    )


# ---------------------------------------------------------------------------
# Simple building blocks


def identity_denoiser() -> Denoiser:
    return Denoiser(fn=lambda x: x.copy(), name="identity",
                    divergence_fn=lambda x: np.full(x.shape[:-1], x.shape[-1]))


def zero_denoiser() -> Denoiser:
    return Denoiser(fn=np.zeros_like, name="zero",
                    divergence_fn=lambda x: np.zeros(np.shape(x)[:-1]))


def _fits(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z; DimensionError naming z unless its last axis has v's length, so a
    declared vector is never broadcast against an input of another length."""
    if np.shape(z)[-1:] != v.shape:
        raise DimensionError(f"z must have length {v.size} along its last axis, "
                             f"got shape {np.shape(z)}")
    return z


def residual_shift_denoiser(e: np.ndarray) -> Denoiser:
    """f(z) = z + e, the measurement-noise shift of the sensing recursion,
    declared as its ``offset`` e, a non-empty vector (``require_vector``).
    A z whose last axis is not of e's length is refused (``_fits``)."""
    e = require_vector(e, "e")
    return Denoiser(fn=lambda x: _fits(x, e) + e, name="residual_shift", offset=e,
                    divergence_fn=lambda x: np.full(_fits(x, e).shape[:-1], e.size))


def signal_residual_denoiser(theta_star: np.ndarray, eta: Denoiser) -> Denoiser:
    """g(y) = theta_star - eta(y + theta_star); divergence is -div eta.
    Declared as the ``residual`` (theta_star, lmbda) when eta declares its
    soft ``threshold`` lmbda. DimensionError unless theta_star is a
    non-empty vector, and unless y's last axis is of its length (``_fits``)."""
    theta_star = require_vector(theta_star, "theta_star")
    div_fn = None
    if eta.divergence_fn is not None:
        div_fn = lambda x: -eta.divergence_fn(_fits(x, theta_star) + theta_star)
    residual = None if eta.threshold is None else (theta_star, eta.threshold)
    return Denoiser(fn=lambda x: theta_star - eta.fn(_fits(x, theta_star) + theta_star),
                    divergence_fn=div_fn, name=f"signal_residual({eta.name})",
                    residual=residual)
