"""State-evolution covariances and Onsager coefficients.

The solvers evaluate the defining expectations over Gaussian surrogates drawn
at the problem's own dimension: nested covariances Sigma_1 in Sigma_2 in ...
(and Omega_t for the asymmetric recursion), and one Onsager coefficient per
iteration, b_t (and a_t): the normalized expected divergence of a denoiser
that reads only the latest iterate.

Each side of a solve (``_Side``: the f_t of ``se_symmetric``, or either
side of ``se_asymmetric``) is prepared once per solve: its checks run, its
family is settled and what that family reads at every t is built, before
any side draws; each iteration then asks it for one covariance column.

A side takes its expectations in closed form, drawing no paths and
factoring no covariance, when all of its denoisers declare one family:

- offsets (``Denoiser.offset``, f_r(z) = z + c_r exactly): the new column is
  (rows/denom) Cov[Z_r, Z_t] + c_r^T c_t / denom, led by u1^T c_t / denom
  when u1 is given, and the divergence term is rows/denom. The covariances
  are the exact Gram matrices rows * Cov / denom + C^T C / denom. The
  offsets are stacked once.
- soft-threshold residuals (``Denoiser.residual``,
  f_r(z) = c_r - soft_threshold(z + c_r, lmbda_r) exactly), such as the g
  side of the sensing recursion: each coordinate of (Z_r, Z_t) is bivariate
  normal, so every entry is a sum over coordinates of truncated bivariate
  normal moments in Phi, phi and the bivariate Phi_2 (``gaussian``), taken
  once per group of coordinates that share their values of every c_r. The
  groups are formed once.

An exact side handles a zero variance and a correlation of +-1 exactly and
needs no jitter; its covariances are exact expectations of Gram matrices,
positive semidefinite and nested. A side that mixes the families or other
denoisers, or holds none of them, is sampled as below.

Each Monte-Carlo sample of a sampled side is one surrogate path Z_1, Z_2,
... of the process whose covariance SE tracks (Berthier, Montanari & Nguyen,
arXiv:1708.03950). A side draws every path's normals once, from the
sample's own stream, and iteration t colours the first t rows of the same
normals into a new covariance column, so every covariance column of a
sampled side is a column of the Gram average (1/denom) F^T F over one sample
set, F holding a path's denoiser outputs: positive semidefinite and nested
by construction.

The normals are stored in float64, one (samples, steps, rows) block per
path set that lives for one solve and takes samples * steps * rows * 8
bytes. Iteration t colours the paths a block at a time and maps each row of
the block with one denoiser call. A path of the block holds t + 4 float64
rows: its colouring and one denoiser call's rows
(``denoisers._CALL_ROWS``); a block holds at most 1 MiB of them
(``denoisers._BLOCK_BYTES``), or one path where a single one takes more.
The per-path terms are summed in sample order, so the averages do not
depend on the block size.
"""

from __future__ import annotations

import logging
from functools import cached_property
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .denoisers import _CALL_ROWS, Denoiser, _block_rows, soft_threshold_apply
from .exceptions import (DimensionError, NumericError, ParameterError, ScheduleError,
                         require_count)
from .gaussian import norm_cdf, norm_pdf, ramp_pair
from .rng import RngStream

logger = logging.getLogger(__name__)

PSD_TOL = 1e-8
CHOL_JITTER = 1e-8
# condition number above which a colouring matrix K counts as singular
COND_LIMIT = 1e12
# relative error |O^T O x - x| / |x| above which Coloring.from_eig rejects O
ORTHO_TOL = 1e-10


def _singular(cond: float) -> bool:
    return not np.isfinite(cond) or cond > COND_LIMIT


@dataclass(frozen=True, eq=False)
class Coloring:
    """Colouring matrix K of the sensing model x = W K theta + e, with its
    inverse and exact 2-norm condition number, computed once per K.

    Two constructors build one: ``from_eig(O, kappa)`` takes the spectral
    factors of a symmetric K = O diag(kappa) O^T and reads the inverse and
    condition number off them, with no SVD or LU; ``of(K, n)`` takes any
    n x n K, symmetric or not, and pays for an SVD (the condition number)
    and an LU inverse. ``of`` is also where a K of either form is checked
    against the problem's n.

    A numerically singular K is accepted here and rejected by ``inverse``,
    so the error surfaces in the solver that needs the backprojection.
    """

    matrix: np.ndarray
    inv: Optional[np.ndarray]  # None when cond exceeds COND_LIMIT
    cond: float

    @classmethod
    def of(cls, K, n: int) -> "Coloring":
        """Coloring of the n x n matrix K; a Coloring is returned unchanged.
        DimensionError naming K unless K, of either form, is n x n."""
        matrix = K.matrix if isinstance(K, Coloring) else np.asarray(K, dtype=np.float64)
        if matrix.shape != (n, n):
            raise DimensionError(f"K must be {n} x {n}, got shape {matrix.shape}")
        if isinstance(K, Coloring):
            return K
        cond = float(np.linalg.cond(matrix))
        return cls(matrix=matrix, inv=None if _singular(cond) else np.linalg.inv(matrix),
                   cond=cond)

    @classmethod
    def from_eig(cls, O, kappa) -> "Coloring":
        """Coloring of K = O diag(kappa) O^T for an orthogonal O.

        K^(-1) = O diag(1/kappa) O^T and cond(K) = max|kappa| / min|kappa|.
        Orthogonality is checked with one probe vector x, |O^T O x - x|
        against ORTHO_TOL |x|, which costs two matvecs instead of forming
        O^T O.
        """
        O = np.asarray(O, dtype=np.float64)
        kappa = np.asarray(kappa, dtype=np.float64)
        if O.ndim != 2 or O.shape[0] != O.shape[1] or O.size == 0:
            raise DimensionError("O must be a non-empty square matrix")
        if kappa.shape != (O.shape[0],):
            raise DimensionError(f"kappa must be a vector of length {O.shape[0]}")
        if not np.all(np.isfinite(kappa)):
            raise ParameterError("kappa must be finite")
        x = np.sin(np.arange(1, kappa.size + 1))  # no entry is zero
        # written so that a NaN in O fails the test too
        if not np.linalg.norm(O.T @ (O @ x) - x) <= ORTHO_TOL * np.linalg.norm(x):
            raise ParameterError("O is not orthogonal")
        magnitude = np.abs(kappa)
        low = magnitude.min()
        cond = float(magnitude.max() / low) if low > 0 else np.inf
        inv = None if _singular(cond) else (O / kappa) @ O.T
        return cls(matrix=(O * kappa) @ O.T, inv=inv, cond=cond)

    def inverse(self) -> np.ndarray:
        """K^(-1); NumericError when K is numerically singular."""
        if self.inv is None:
            raise NumericError(f"K is numerically singular (condition number {self.cond:.3e})")
        return self.inv


@dataclass
class OnsagerSchedule:
    """One Onsager coefficient per iteration: b[t] for t >= 2, the
    coefficient of the previous iterate in z_t, and a[t] for t >= 1, the
    coefficient of u_t in y_t of the asymmetric recursion."""

    b: Dict[int, float] = field(default_factory=dict)
    a: Dict[int, float] = field(default_factory=dict)

    def coeff(self, name: str, t: int) -> float:
        """b[t] or a[t], by name; ScheduleError naming a missing entry."""
        try:
            return getattr(self, name)[t]
        except KeyError:
            raise ScheduleError(f"missing Onsager coefficient {name}[{t}]") from None


@dataclass
class SECovarianceSequence:
    """Nested covariance iterates of the Gaussian surrogate sequence: sigma
    (and omega for the asymmetric recursion), plus the names of the
    covariances that needed the Cholesky jitter."""

    sigma: List[np.ndarray]
    omega: Optional[List[np.ndarray]] = None
    jittered: List[str] = field(default_factory=list)  # e.g. "omega_4"

    def validate(self):
        for name, seq in (("sigma", self.sigma), ("omega", self.omega or [])):
            for t, cov in enumerate(seq, start=1):
                if not np.allclose(cov, cov.T, atol=PSD_TOL):
                    raise NumericError(f"{name}_{t} is not symmetric")
                w = np.linalg.eigvalsh(cov)
                if w.min() < -PSD_TOL * max(w.max(), 1.0):
                    raise NumericError(
                        f"{name}_{t} lost positive semidefiniteness "
                        f"(min eig {w.min():.3e})"
                    )
                if t > 1 and not np.array_equal(seq[t - 2], cov[: t - 1, : t - 1]):
                    raise NumericError(f"{name}_{t} does not nest {name}_{t-1}")


def require_length(seq: Sequence, count: int, T: int, what: str = "denoisers") -> None:
    """ParameterError unless T is a count (``require_count``); ScheduleError
    naming the needed count when seq holds fewer than count entries for a run
    of T iterations."""
    require_count(T, "T", ParameterError)
    if len(seq) < count:
        raise ScheduleError(f"need {count} {what} for T={T}, got {len(seq)}")


def require_divergence(seq: Sequence[Denoiser], what: str) -> None:
    """ParameterError naming what[i] for the first denoiser of seq that has no
    divergence formula: the solvers and the runner that take their Onsager
    terms from ``Denoiser.divergence`` check every denoiser they will read
    before any draw or matvec."""
    for i, den in enumerate(seq):
        if den.divergence_fn is None:
            raise ParameterError(f"{what}[{i}] has no divergence formula")


def _nonempty_vector(x, name: str) -> np.ndarray:
    """x as a float64 vector; DimensionError naming it unless it is one and non-empty."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DimensionError(f"{name} must be a non-empty vector, got shape {x.shape}")
    return x


def _chol_factor(cov: np.ndarray, name: str, jittered: List[str]) -> np.ndarray:
    """Lower Cholesky factor of the covariance called name (e.g. "omega_4").
    If cov needs the diagonal jitter, warns once and appends name to
    jittered; NumericError naming it and its smallest eigenvalue if even the
    jittered matrix has no factor."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        logger.warning("%s near-singular; adding diagonal jitter %g", name, CHOL_JITTER)
    jittered.append(name)
    try:
        return np.linalg.cholesky(cov + CHOL_JITTER * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{name} is not positive definite even after jitter "
                           f"(min eig {np.linalg.eigvalsh(cov).min():.3e})") from exc


def _residual_moments(c: np.ndarray, lmbda: float, sd: float,
                      counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """(E g(Y), E g(Y)^2, sum_j counts[j] E g_j'(Y)) for the soft-threshold
    residual g_j(y) = c_j - soft_threshold(y + c_j, lmbda) and Y ~ N(0, sd^2),
    per entry of c. With W = Y + c split at +-lmbda, and h+ = (lmbda - c)/sd,
    h- = (lmbda + c)/sd:

        E g   = lmbda (Q(h+) - Q(h-)) - sd (phi(h+) - phi(h-)) + c P
        E g^2 = (sd^2 + lmbda^2)(Q(h+) + Q(h-)) - sd (lmbda + c) phi(h+)
                - sd (lmbda - c) phi(h-) + c^2 P
        E g'  = -(Q(h+) + Q(h-)),

    Q(h) = Phi(-h) and P = Phi(h+) - Phi(-h-) = P(|W| <= lmbda); no term
    cancels against c. When sd = 0 or lmbda = inf, g(Y) is the constant
    g(0) (c at lmbda = inf), and E g' is the counting divergence at 0."""
    if sd == 0 or np.isinf(lmbda):
        const = c - soft_threshold_apply(c, lmbda)
        return const, const * const, -float(counts @ (np.abs(c) > lmbda))
    h_plus, h_minus = (lmbda - c) / sd, (lmbda + c) / sd
    *tails, below = norm_cdf(np.stack([-h_plus, -h_minus, h_plus]))
    pdfs = norm_pdf(h_plus), norm_pdf(h_minus)
    inside = below - tails[1]
    mean = lmbda * (tails[0] - tails[1]) - sd * (pdfs[0] - pdfs[1]) + c * inside
    second = ((sd * sd + lmbda * lmbda) * (tails[0] + tails[1]) - sd * (lmbda + c) * pdfs[0]
              - sd * (lmbda - c) * pdfs[1] + c * c * inside)
    return mean, second, -float(counts @ (tails[0] + tails[1]))


class _Side:
    """One side of a matrix SE solve, prepared once per solve: the denoisers
    seq, f_1..f_steps, of a side of rows coordinates, whose expectations are
    normalized by denom. what names seq in errors (e.g. "g_seq").

    Construction runs the checks that come before any draw: every f_r must
    have a divergence formula (``require_divergence``), and a declared offset
    or residual vector must be of length rows; each error names what[i]. It
    then settles the side's family and builds, once, what that family reads
    at every t:

    - "offset", every f_r declares an offset c_r: the stacked offsets;
    - "residual", every f_r declares a residual (c_r, lmbda_r): the groups of
      coordinates that share their values of every c_r, and each c_r on its
      groups;
    - "sampled", otherwise: mc_samples surrogate paths, path k holding the
      steps x rows normals of stream.derive(k), drawn in float64 on the first
      column, so a solver checks every side before any of them draws.
    """

    def __init__(self, seq: Sequence[Denoiser], rows: int, denom: int, what: str,
                 stream: RngStream, mc_samples: int):
        require_divergence(seq, what)
        families = set()
        for i, den in enumerate(seq):
            family, vector = (("offset", den.offset) if den.offset is not None else
                              ("residual", den.residual[0]) if den.residual is not None else
                              ("sampled", None))
            if vector is not None and np.shape(vector) != (rows,):
                raise DimensionError(f"{what}[{i}] declares a {family} vector of shape "
                                     f"{np.shape(vector)}; its side has {rows} rows")
            families.add(family)
        self.seq, self.rows, self.denom = seq, rows, denom
        self.stream, self.mc_samples = stream, mc_samples
        self.family = families.pop() if len(families) == 1 else "sampled"
        if self.family == "offset":
            self.offsets = np.stack([den.offset for den in seq])
        elif self.family == "residual":
            _, first, inverse, self.counts = np.unique(
                np.stack([den.residual[0] for den in seq], axis=1), axis=0,
                return_index=True, return_inverse=True, return_counts=True)
            self.inverse = inverse.ravel()  # numpy 2.0.0 shapes it (rows, 1)
            self.c = [den.residual[0][first] for den in seq]

    @cached_property
    def paths(self) -> np.ndarray:
        """(mc_samples, steps, rows) float64 block whose slice k holds the
        steps x rows standard normals of stream.derive(k)."""
        paths = np.empty((self.mc_samples, len(self.seq), self.rows))
        for k in range(self.mc_samples):
            paths[k] = self.stream.derive(k).generator().standard_normal(paths.shape[1:])
        return paths

    def column(self, lead: Optional[np.ndarray], cov: np.ndarray, name: str,
               jittered: List[str]) -> Tuple[np.ndarray, float]:
        """The new covariance column (1/denom) E f_r(Z_r)^T f_t(Z_t) for
        r = 1..t, t = len(cov), led by (1/denom) lead^T E f_t(Z_t) when lead
        is given, and the divergence term (1/denom) E div f_t(Z_t), over Z
        (t x rows) with i.i.d. columns N(0, cov); Z_r is row r of Z.

        An offset or residual side takes them exactly, with no draw and no
        Cholesky factor. For offsets the column is (rows/denom) cov[r-1, t-1]
        + c_r^T c_t / denom, its lead lead^T c_t / denom, and the divergence
        term rows/denom; residuals are taken by ``_residual_column``.

        A sampled side averages over its surrogate paths: path k is Z = L G,
        L the lower Cholesky factor of cov and G the first t rows of
        paths[k]. L's rows nest as cov does, so rows 1..t-1 of Z repeat the
        path that every earlier t coloured from the same normals. Paths are
        coloured a block at a time, and each f_r maps row r of the whole
        block in one call; the divergence is taken per path by
        ``Denoiser.divergence``. Appends name to jittered when cov needs the
        Cholesky jitter."""
        t = cov.shape[0]
        if self.family == "residual":
            return self._residual_column(lead, cov)
        if self.family == "offset":
            offsets = self.offsets[:t]
            col = (self.rows * cov[:, t - 1] + offsets @ offsets[t - 1]) / self.denom
            if lead is not None:
                col = np.concatenate([[lead @ offsets[t - 1] / self.denom], col])
            return col, self.rows / self.denom
        chol = _chol_factor(cov, name, jittered)
        f_t, denom, paths = self.seq[t - 1], self.denom, self.paths
        off = 0 if lead is None else 1
        terms = np.empty((self.mc_samples, t + off))  # per-path terms of col / denom
        divs = np.empty(self.mc_samples)
        step = _block_rows(8 * self.rows * (t + _CALL_ROWS))
        for start in range(0, self.mc_samples, step):
            block = slice(start, start + step)
            z = chol @ paths[block, :t]
            ft_val = f_t.fn(z[:, t - 1])
            if lead is not None:
                terms[block, 0] = np.vecdot(lead, ft_val) / denom
            for r in range(1, t):
                terms[block, off + r - 1] = np.vecdot(self.seq[r - 1].fn(z[:, r - 1]),
                                                      ft_val) / denom
            terms[block, off + t - 1] = np.vecdot(ft_val, ft_val) / denom
            divs[block] = [f_t.divergence(row) / denom for row in z[:, t - 1]]
        # np.cumsum adds the terms one path at a time, in path order
        return (np.cumsum(terms, axis=0)[-1] / self.mc_samples,
                float(np.cumsum(divs)[-1]) / self.mc_samples)

    def _residual_column(self, lead: Optional[np.ndarray],
                         cov: np.ndarray) -> Tuple[np.ndarray, float]:
        """``column`` of a residual side in closed form, at t = len(cov).

        Each expectation is taken once per group of coordinates. The lead,
        the diagonal and the divergence term come from ``_residual_moments``.
        With g_r = c_r - P_r + M_r, where P_r = (Y_r - lmbda_r + c_r)+ and
        M_r = (-Y_r - lmbda_r - c_r)+ are ramps of Y_r ~ N(0, s_r^2), the
        cross entry r < t is

            E g_r g_t = c_r E g_t + c_t E g_r - c_r c_t + E[(M_r - P_r)(M_t - P_t)],

        the last a signed sum of four ramp products (Rosenbaum 1961), each
        s_r s_t ``ramp_pair`` at correlation +-rho, rho = cov[r, t] / (s_r s_t).
        It is E g_r E g_t when either g is constant (zero variance or an
        infinite threshold)."""
        t, counts = cov.shape[0], self.counts
        sds = np.sqrt(np.maximum(np.diag(cov), 0.0))
        c = self.c[:t]
        lmbdas = [den.residual[1] for den in self.seq[:t]]
        means = [_residual_moments(c[r], lmbdas[r], sds[r], counts)[0] for r in range(t - 1)]
        mean, second, div = _residual_moments(c[-1], lmbdas[-1], sds[-1], counts)
        constant = [sd == 0 or np.isinf(lmbda) for sd, lmbda in zip(sds, lmbdas)]
        col = np.empty(t)
        for r in range(t - 1):
            cross = means[r] * mean
            if not (constant[r] or constant[-1]):
                rho = cov[r, t - 1] / (sds[r] * sds[-1])
                h_r = np.stack([lmbdas[r] - c[r], lmbdas[r] + c[r]]) / sds[r]
                h_t = np.stack([lmbdas[-1] - c[-1], lmbdas[-1] + c[-1]]) / sds[-1]
                ramps = (ramp_pair(h_r, h_t, rho).sum(axis=0)
                         - ramp_pair(h_r, h_t[::-1], -rho).sum(axis=0))
                cross = (c[r] * mean + c[-1] * means[r] - c[r] * c[-1]
                         + sds[r] * sds[-1] * ramps)
            col[r] = counts @ cross / self.denom
        col[-1] = counts @ second / self.denom
        if lead is not None:
            col = np.concatenate([[lead @ mean[self.inverse] / self.denom], col])
        return col, div / self.denom


def _border(prev: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The symmetric matrix nesting prev, with col as last row and column."""
    k = col.size
    nxt = np.zeros((k, k))
    nxt[: k - 1, : k - 1] = prev
    nxt[k - 1, :] = col
    nxt[:, k - 1] = col
    return nxt


def se_symmetric(
    f_seq: Sequence[Denoiser],
    u1: np.ndarray,
    T: int,
    mc_samples: int = 200,
    rng: Optional[RngStream] = None,
) -> Tuple[SECovarianceSequence, OnsagerSchedule]:
    """Covariances Sigma_1..Sigma_T and coefficients b_2..b_T for the
    symmetric recursion driven by f_1, ..., f_(T-1) from initialization u1.

    Sigma_(t+1)[r+1, s+1] is (1/n) E f_r(Z_r)^T f_s(Z_s) over Z_(1:t) with
    i.i.d. coordinates N(0, Sigma_t), and b_(t+1) is (1/n) E div f_t(Z_t) by
    the divergence formula, which every f_t must have.

    When every f_t declares an offset, or every f_t a soft-threshold
    residual, both are exact (see ``_Side.column``) and no path is drawn.
    Otherwise they are averages over mc_samples surrogate paths: path k's
    (T-1) x n normals are drawn once from rng.derive(k) and stored in float64
    (mc_samples * (T-1) * n * 8 bytes for the solve), and every t colours
    their first t rows, so Sigma_(t+1) is the Gram average of
    [u1, f_1(Z_1), ..., f_t(Z_t)] over one sample set and nests Sigma_t
    exactly. Covariances that needed the Cholesky jitter are named in the
    sequence's ``jittered``.
    """
    mc_samples = require_count(mc_samples, "mc_samples", ParameterError)
    require_length(f_seq, T - 1, T)
    u1 = _nonempty_vector(u1, "u1")
    n = u1.size
    side = _Side(f_seq[:T - 1], n, n, "f_seq", rng or RngStream(0), mc_samples)
    sigma = [np.array([[u1 @ u1 / n]])]
    b: Dict[int, float] = {}
    jittered: List[str] = []
    for t in range(1, T):
        col, b[t + 1] = side.column(u1, sigma[t - 1], f"sigma_{t}", jittered)
        sigma.append(_border(sigma[t - 1], col))
    cov = SECovarianceSequence(sigma=sigma, jittered=jittered)
    cov.validate()
    return cov, OnsagerSchedule(b=b)


def se_asymmetric(
    f_seq: Sequence[Denoiser],
    g_seq: Sequence[Denoiser],
    u1: np.ndarray,
    T: int,
    m: int,
    mc_samples: int = 200,
    rng: Optional[RngStream] = None,
) -> Tuple[SECovarianceSequence, OnsagerSchedule]:
    """Covariances (Omega_t, Sigma_t) and coefficients (b, a) for the
    asymmetric recursion z/v on the m side and y/u on the n side.

    Omega_1 = |u1|^2 / m; Sigma_t[r, s] = (1/m) E f_r^T f_s over Z with rows
    N(0, Omega_t); Omega_(t+1)[r+1, s+1] = (1/m) E g_r^T g_s over Y with rows
    N(0, Sigma_t); a_t = (1/m) E div f_t(Z_t) and b_(t+1) = (1/m) E div g_t(Y_t).
    Every denoiser read must have a divergence formula.

    A side whose denoisers all declare an offset, such as the f side of the
    sensing recursion (``residual_shift_denoiser``), or all a soft-threshold
    residual, such as its g side (``signal_residual_denoiser`` of a soft
    threshold), is exact (see ``_Side.column``): it draws no paths and factors
    no covariance. Both sides are checked before either draws. A sampled
    side draws one set of surrogate paths once and colours it at every t:
    path k of Z takes its T x m normals from rng.derive(0).derive(k) and
    path k of Y its min(T, len(g_seq)) x n normals from
    rng.derive(1).derive(k), both stored in float64, so each side's
    covariances are Gram averages over one sample set. The
    covariances whose Cholesky factor needed the jitter are named in
    ``jittered``; an exact side adds no name.
    """
    mc_samples = require_count(mc_samples, "mc_samples", ParameterError)
    require_length(f_seq, T, T, "f-denoisers")
    require_length(g_seq, T - 1, T, "g-denoisers")
    m = require_count(m, "m", DimensionError)
    rng = rng or RngStream(0)
    u1 = _nonempty_vector(u1, "u1")
    n = u1.size
    f_side = _Side(f_seq[:T], m, m, "f_seq", rng.derive(0), mc_samples)
    g_side = _Side(g_seq[:T], n, m, "g_seq", rng.derive(1), mc_samples)
    omega = [np.array([[u1 @ u1 / m]])]
    sigma: List[np.ndarray] = []
    a: Dict[int, float] = {}
    b: Dict[int, float] = {}
    jittered: List[str] = []
    for t in range(1, T + 1):
        # f side: new column of Sigma_t from Z ~ N(0, Omega_t x I_m)
        col, a[t] = f_side.column(None, omega[t - 1], f"omega_{t}", jittered)
        sigma.append(_border(sigma[t - 2] if t > 1 else np.zeros((0, 0)), col))
        # g side: new column of Omega_(t+1) from Y ~ N(0, Sigma_t x I_n)
        if t <= len(g_seq):
            col, b[t + 1] = g_side.column(u1, sigma[t - 1], f"sigma_{t}", jittered)
            omega.append(_border(omega[t - 1], col))
    cov = SECovarianceSequence(sigma=sigma, omega=omega, jittered=jittered)
    cov.validate()
    return cov, OnsagerSchedule(b=b, a=a)


@dataclass
class ScalarSE:
    """Scalar variance recursion of the sensing model and its MSE prediction."""

    sigma_sq: List[float]
    omega_sq: List[float]
    predicted_mse: List[float]


def se_scalar_sensing(
    theta_star: np.ndarray,
    e: np.ndarray,
    eta_seq: Sequence[Denoiser],
    T: int,
    mc_draws: int = 50,
    rng: Optional[RngStream] = None,
    K: Optional[Union[np.ndarray, Coloring]] = None,
) -> ScalarSE:
    """Variance recursion for the sensing recursion with denoisers eta_t.

    omega_1^2 = |u1|^2/m with u1 = K theta_star (K = identity when absent);
    sigma_t^2 = omega_t^2 + |e|^2/m exactly (the shift map adds an independent
    offset); omega_(t+1)^2 and the predicted MSE are Monte-Carlo averages over
    Y ~ N(0, sigma_t^2 I_n) of (1/m)|K(theta - eta_t(arg))|^2 and
    (1/n)|theta - eta_t(arg)|^2, where arg = K^(-1) Y + theta.

    K may be an n x n ndarray or Coloring. The backprojection K^(-1) Y is the
    normal-equations form (K^T K)^(-1) K^T Y, since K is square and
    invertible; a numerically singular K raises NumericError. Each
    iteration draws its mc_draws samples as one block and maps it with one
    eta_t call.
    """
    mc_draws = require_count(mc_draws, "mc_draws", ParameterError)
    require_length(eta_seq, T, T)
    rng = rng or RngStream(0)
    theta_star = _nonempty_vector(theta_star, "theta_star")
    e = _nonempty_vector(e, "e")
    n, m = theta_star.size, e.size
    if K is not None:
        coloring = Coloring.of(K, n)
        K, K_inv = coloring.matrix, coloring.inverse()
        u1 = K @ theta_star
    else:
        u1 = theta_star
    noise_sq = e @ e / m
    omega = [float(u1 @ u1 / m)]
    sigma: List[float] = []
    pred: List[float] = []
    gen = rng.generator()
    for t in range(1, T + 1):
        sig_t = omega[-1] + noise_sq
        sigma.append(sig_t)
        acc_omega = 0.0
        acc_mse = 0.0
        ys = np.sqrt(max(sig_t, 0.0)) * gen.standard_normal((mc_draws, n))
        backs = ys @ K_inv.T if K is not None else ys
        for diff in theta_star - eta_seq[t - 1].fn(backs + theta_star):
            acc_mse += diff @ diff / n
            gu = K @ diff if K is not None else diff
            acc_omega += gu @ gu / m
        omega.append(acc_omega / mc_draws)
        pred.append(acc_mse / mc_draws)
    return ScalarSE(sigma_sq=sigma, omega_sq=omega, predicted_mse=pred)
