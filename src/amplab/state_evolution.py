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
the block with one denoiser call, and takes the block's divergences with one
``divergence_fn`` call. A path of the block holds t + 4 float64
rows: its colouring and one denoiser call's rows
(``denoisers._CALL_ROWS``); a block holds at most 1 MiB of them
(``denoisers._BLOCK_BYTES``), or one path where a single one takes more.
The per-path terms are summed in sample order, so the averages do not
depend on the block size.

The colouring matrix K of the sensing model x = W K theta + e is a
``Coloring``: K = O diag(kappa) O^T kept as its eigenbasis O, a signed,
permuted DCT (``SignedDCT``) applied by FFTs with O(n) storage, and its
eigenvalues kappa. ``Coloring(O, kappa)`` is the one constructor: it checks
both and reads the condition number off kappa. K is applied
(``Coloring.apply``) and inverted (``Coloring.solve``) through O's row-wise
maps, and refused at its first ``solve`` when numerically singular.

The sensing model without its matrix W is a ``SensingProblem``: theta,
e, the denoisers and K, checked once when built, K against n; without K it
holds the identity colouring, which returns every vector it is given
unchanged. ``se_scalar_sensing`` and ``amp.run_sensing_amp``, which takes W
beside it, both read the problem and reach K only through its Coloring.
"""

from __future__ import annotations

import logging
from functools import cached_property
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .denoisers import _CALL_ROWS, Denoiser, _block_rows, _soft_threshold
from .exceptions import (DimensionError, NumericError, ParameterError, ScheduleError,
                         require_count, require_divergence, require_length, require_vector)
from .gaussian import norm_cdf, norm_pdf, ramp_pair
from .rng import RngStream

logger = logging.getLogger(__name__)

PSD_TOL = 1e-8
CHOL_JITTER = 1e-8
# condition number above which a colouring matrix K counts as singular
COND_LIMIT = 1e12


class SignedDCT:
    """The orthogonal n x n matrix O = S P C^T, kept as its O(n) signs and
    permutation: C is the orthonormal DCT-II (C x is the DCT of x, whose
    entry (k, j) is sqrt(2/n) cos(pi k (2j + 1) / (2n)), sqrt(1/n) at k = 0),
    P the permutation (P z)_i = z_perm[i], and S = diag(signs), signs +-1.
    Every entry of O is at most sqrt(2/n) in magnitude, so O is
    delocalised as a Haar eigenbasis is, yet ``matvec`` (O c) and
    ``rmatvec`` (O^T x) cost one real FFT of length n and one gather per row
    (Makhoul's DCT, IEEE Trans. ASSP 28, 1980), on an n-vector or row by row
    on an (..., n) stack, and O is never formed. ParameterError unless signs
    is a non-empty vector of +-1 and perm an integer array holding a
    permutation of 0..n-1, so every SignedDCT is orthogonal by construction;
    it keeps read-only copies of both, so no later write to the caller's
    arrays, or to its own, can make it otherwise."""

    def __init__(self, signs, perm):
        signs, perm = np.array(signs, dtype=np.float64), np.array(perm)
        n = signs.size
        if signs.shape != (n,) or n == 0 or not np.all(np.abs(signs) == 1):
            raise ParameterError("signs must be a non-empty vector of +-1")
        # a bool array would index as a mask, a float one not at all
        if (perm.shape != (n,) or perm.dtype.kind not in "iu"
                or not np.array_equal(np.sort(perm), np.arange(n))):
            raise ParameterError(f"perm must be an integer permutation of 0..{n - 1}")
        signs.flags.writeable = perm.flags.writeable = False
        self.n, self.signs, self.perm = n, signs, perm
        # Makhoul's reordering: the even-indexed entries, then the odd ones reversed
        order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)[::-1]])
        self._gather_in = np.argsort(perm)[order]  # S x, unpermuted and reordered
        self._signs_in = signs[self._gather_in]
        self._gather_out = np.argsort(order)[perm]  # C^T c, undone and permuted
        self._twiddle = np.exp(-0.5j * np.pi * np.arange(n // 2 + 1) / n)
        self._scale = np.full(n, np.sqrt(2.0 / n))
        self._scale[0] = np.sqrt(1.0 / n)

    @classmethod
    def draw(cls, n: int, rng: RngStream) -> "SignedDCT":
        """The n signs, uniform on +-1, then the permutation, uniform,
        from rng's generator; DimensionError unless n is a count."""
        n = require_count(n, "n", DimensionError)
        gen = rng.generator()
        signs = 2.0 * gen.integers(0, 2, size=n) - 1.0
        return cls(signs, gen.permutation(n))

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """O^T x = C (P^T S x): the DCT-II of the reordered P^T S x is read
        off the real FFT V, entry k as Re(w_k V_k) and entry n - k as
        -Im(w_k V_k), with w_k = exp(-i pi k / (2n))."""
        n, half = self.n, self.n // 2
        spectrum = np.fft.rfft(x[..., self._gather_in] * self._signs_in, axis=-1)
        spectrum *= self._twiddle
        out = np.empty(spectrum.shape[:-1] + (n,))
        out[..., :half + 1] = spectrum.real
        out[..., half + 1:] = -spectrum.imag[..., (n - 1) // 2:0:-1]
        return out * self._scale

    def matvec(self, c: np.ndarray) -> np.ndarray:
        """O c = S P (C^T c): ``rmatvec``'s DCT run backwards, its spectrum
        V_k = (y_k - i y_(n-k)) / w_k rebuilt from y = c / scale (y_n = 0)
        and inverted by one inverse real FFT."""
        n, half = self.n, self.n // 2
        y = c / self._scale
        spectrum = np.empty(y.shape[:-1] + (half + 1,), dtype=np.complex128)
        spectrum.real = y[..., :half + 1]
        spectrum.imag[..., 0] = 0.0
        spectrum.imag[..., 1:] = -y[..., n - 1:n - half - 1:-1]
        spectrum /= self._twiddle
        return np.fft.irfft(spectrum, n, axis=-1)[..., self._gather_out] * self.signs


@dataclass(frozen=True, eq=False)
class Coloring:
    """Colouring matrix K = O diag(kappa) O^T of the sensing model
    x = W K theta + e, with O a ``SignedDCT``, kept as that basis, kappa and
    the 2-norm condition number ``cond`` = max|kappa| / min|kappa|, which is
    read off kappa and never passed in. ``apply`` takes K x = O (kappa * O^T x)
    and ``solve`` K^(-1) y = O (O^T y / kappa), each on an n-vector or row by
    row on an (..., n) stack, by two FFTs of length n; K and K^(-1) are never
    formed, and nothing is factored.

    ``Coloring(basis, kappa)`` is the one constructor, and it checks its
    input: ParameterError unless basis is a ``SignedDCT`` and kappa finite,
    DimensionError unless kappa is a vector (``require_vector``) of basis's
    length. ``Coloring()`` is the identity colouring: no basis, condition
    number 1, and ``apply`` and ``solve`` return their argument itself, so
    an uncoloured run does the arithmetic it would do with no K at all.
    ``SensingProblem`` is where K is checked against n, and where anything
    but a Coloring or None is refused.

    A numerically singular K is accepted here and refused by ``solve``, so
    the error surfaces in the solver that needs the backprojection.
    """

    # basis and kappa are None for the identity colouring
    basis: Optional[SignedDCT] = None
    kappa: Optional[np.ndarray] = None
    cond: float = field(init=False, default=1.0)

    def __post_init__(self):
        if self.basis is None and self.kappa is None:
            return
        if not isinstance(self.basis, SignedDCT):
            raise ParameterError(f"basis must be a SignedDCT, got {type(self.basis).__name__}")
        object.__setattr__(self, "kappa", require_vector(self.kappa, "kappa"))
        if self.kappa.size != self.basis.n:
            raise DimensionError(f"kappa must be a vector of length {self.basis.n}")
        if not np.all(np.isfinite(self.kappa)):
            raise ParameterError("kappa must be finite")
        low, high = np.min(np.abs(self.kappa)), np.max(np.abs(self.kappa))
        object.__setattr__(self, "cond", float(high / low) if low > 0 else np.inf)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """K x, row by row for an (..., n) stack; x itself for the identity."""
        if self.kappa is None:
            return x
        return self.basis.matvec(self.basis.rmatvec(x) * self.kappa)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """K^(-1) y, row by row for an (..., n) stack; y itself for the
        identity. NumericError when K is numerically singular."""
        if self.kappa is None:
            return y
        if not self.cond <= COND_LIMIT:  # a NaN too
            raise NumericError(f"K is numerically singular (condition number {self.cond:.3e})")
        return self.basis.matvec(self.basis.rmatvec(y) / self.kappa)


@dataclass(frozen=True, eq=False)
class SensingProblem:
    """The sensing model x = W K theta_star + e without its matrix W: the
    signal theta_star, the noise e, the per-iteration denoisers eta_seq and
    the colouring K, checked once when built. One problem runs on any number
    of m x n matrices (``amp.run_sensing_amp`` takes W and forms x) and
    gives the SE prediction for all of them (``se_scalar_sensing``), since
    neither the model nor its SE depends on W.

    theta_star and e must be non-empty vectors (``require_vector``), of
    lengths n and m. K is a ``Coloring`` of size n, built as
    ``Coloring(basis, kappa)``; None stands for the identity colouring,
    ``Coloring()``, which hands every vector back unchanged. Anything else,
    an ndarray too, or a Coloring of another size raises DimensionError
    naming K. The problem is frozen, with eta_seq as a tuple, so no field
    can change after the checks; ``dataclasses.replace`` builds a checked
    variant.
    """

    theta_star: np.ndarray
    e: np.ndarray
    eta_seq: Sequence[Denoiser]
    K: Optional[Coloring] = None

    def __post_init__(self):
        for name in ("theta_star", "e"):
            object.__setattr__(self, name, require_vector(getattr(self, name), name))
        object.__setattr__(self, "eta_seq", tuple(self.eta_seq))
        K, n = self.K, self.theta_star.size
        if K is None:
            object.__setattr__(self, "K", Coloring())
        elif not isinstance(K, Coloring):
            raise DimensionError(f"K must be a Coloring or None, got {type(K).__name__}")
        elif K.kappa is not None and K.kappa.size != n:
            raise DimensionError(f"K must be {n} x {n}, got a colouring of size {K.kappa.size}")


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
        const = c - _soft_threshold(c, lmbda)
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
      coordinates that share their values of every c_r, each c_r on its
      groups, and a memo of each E f_r(Y_r) taken so far, keyed by r and the
      sd of Y_r;
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
        self.seq, self.rows, self.denom, self.what = seq, rows, denom, what
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
            self.means: Dict[Tuple[int, float], np.ndarray] = {}

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
        block in one call; the divergences are one ``divergence_fn`` call per
        block, which must give one value per path, else ParameterError naming
        what[t-1]. Appends name to jittered when cov needs the Cholesky
        jitter."""
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
        # per-path terms of col / denom, then of the divergence term
        terms = np.empty((self.mc_samples, t + off + 1))
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
            div = np.asarray(f_t.divergence_fn(z[:, t - 1]))
            if div.shape != (len(z),):
                raise ParameterError(f"{self.what}[{t - 1}] divergence_fn gave shape "
                                     f"{div.shape} for {len(z)} paths, not one value per path")
            terms[block, -1] = div / denom
        # np.cumsum adds the terms one path at a time, in path order
        sums = np.cumsum(terms, axis=0)[-1] / self.mc_samples
        return sums[:-1], float(sums[-1])

    def _residual_column(self, lead: Optional[np.ndarray],
                         cov: np.ndarray) -> Tuple[np.ndarray, float]:
        """``column`` of a residual side in closed form, at t = len(cov).

        Each expectation is taken once per group of coordinates. The lead,
        the diagonal and the divergence term come from ``_residual_moments``,
        which stores E g_t in the memo ``means``; each earlier E g_r is read
        from there, so a solve calls ``_residual_moments`` once per t.

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
        keys = [(r, float(sd)) for r, sd in enumerate(sds)]
        mean, second, div = _residual_moments(c[-1], lmbdas[-1], sds[-1], counts)
        self.means[keys[-1]] = mean
        for r, key in enumerate(keys[:-1]):
            if key not in self.means:  # a column taken out of order
                self.means[key] = _residual_moments(c[r], lmbdas[r], sds[r], counts)[0]
        means = [self.means[key] for key in keys]
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
    require_length(f_seq, T, fewer=1)
    u1 = require_vector(u1, "u1")
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
    """Covariances Omega_1..Omega_(T+1), Sigma_1..Sigma_T and coefficients
    a_1..a_T, b_2..b_(T+1) for the asymmetric recursion z/v on the m side
    and y/u on the n side, driven by f_1..f_T and g_1..g_T.

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
    path k of Y its T x n normals from rng.derive(1).derive(k), both stored
    in float64, so each side's covariances are Gram averages over one sample
    set. The covariances whose Cholesky factor needed the jitter are named in
    ``jittered``; an exact side adds no name.
    """
    mc_samples = require_count(mc_samples, "mc_samples", ParameterError)
    require_length(f_seq, T, "f-denoisers")
    require_length(g_seq, T, "g-denoisers")
    m = require_count(m, "m", DimensionError)
    rng = rng or RngStream(0)
    u1 = require_vector(u1, "u1")
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


def se_scalar_sensing(problem: SensingProblem, T: int, mc_draws: int = 50,
                      rng: Optional[RngStream] = None) -> ScalarSE:
    """Variance recursion for the sensing recursion of problem, with its
    denoisers eta_t and colouring K.

    omega_1^2 = |u1|^2/m with u1 = K theta_star; sigma_t^2 = omega_t^2 +
    |e|^2/m exactly (the shift map adds an independent offset);
    omega_(t+1)^2 and the predicted MSE are Monte-Carlo averages over
    Y ~ N(0, sigma_t^2 I_n) of (1/m)|K(theta - eta_t(arg))|^2 and
    (1/n)|theta - eta_t(arg)|^2, where arg = K^(-1) Y + theta.

    K is applied and inverted through the problem's Coloring. The
    backprojection K^(-1) Y equals the normal-equations form
    (K^T K)^(-1) K^T Y, since K is square and invertible; a numerically
    singular K raises NumericError at the first backprojection. Each
    iteration draws its mc_draws samples as one block, maps it with one
    eta_t call, colours the residuals with one K product and takes each
    squared norm with one ``np.vecdot``; the per-draw terms are summed in
    draw order.
    """
    mc_draws = require_count(mc_draws, "mc_draws", ParameterError)
    require_length(problem.eta_seq, T)
    rng = rng or RngStream(0)
    theta_star, e, K = problem.theta_star, problem.e, problem.K
    n, m = theta_star.size, e.size
    u1 = K.apply(theta_star)
    noise_sq = e @ e / m
    omega = [float(u1 @ u1 / m)]
    sigma: List[float] = []
    pred: List[float] = []
    gen = rng.generator()
    for t in range(1, T + 1):
        sig_t = omega[-1] + noise_sq
        sigma.append(sig_t)
        ys = np.sqrt(max(sig_t, 0.0)) * gen.standard_normal((mc_draws, n))
        diffs = theta_star - problem.eta_seq[t - 1].fn(K.solve(ys) + theta_star)
        colored = K.apply(diffs)
        # np.cumsum adds the terms one draw at a time, in draw order
        omega.append(np.cumsum(np.vecdot(colored, colored) / m)[-1] / mc_draws)
        pred.append(np.cumsum(np.vecdot(diffs, diffs) / n)[-1] / mc_draws)
    return ScalarSE(sigma_sq=sigma, omega_sq=omega, predicted_mse=pred)
