"""State-evolution covariances and Onsager coefficients.

The solvers evaluate the defining expectations by Monte Carlo over Gaussian
surrogates drawn at the problem's own dimension: nested covariances
Sigma_1 in Sigma_2 in ... (and Omega_t for the asymmetric recursion), and
one Onsager coefficient per iteration, b_t (and a_t): the normalized expected
divergence of a denoiser that reads only the latest iterate.

Each Monte-Carlo sample is one surrogate path Z_1, Z_2, ... of the process
whose covariance SE tracks (Berthier, Montanari & Nguyen, arXiv:1708.03950).
A solver draws every path's normals once, up front, from the sample's own
stream, and iteration t colours the first t rows of the same normals into a
new covariance column, so every Sigma_t and Omega_t is the Gram average
(1/denom) F^T F over one sample set, F holding a path's denoiser outputs:
positive semidefinite and nested by construction.

The normals are drawn in float64 and stored rounded to float32, one
(samples, steps, rows) block per path set that lives for one solve and
takes samples * steps * rows * 4 bytes. Rounding keeps the RNG consumption
of a float64 draw, so a path moves only by float32 rounding, and halves the
memory of a float64 block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .denoisers import Denoiser
from .exceptions import DimensionError, NumericError, ParameterError, ScheduleError
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
    condition number off them, with no SVD or LU; ``of(K)`` takes any square
    K, symmetric or not, and pays for an SVD (the condition number) and an
    LU inverse.

    A numerically singular K is accepted here and rejected by ``inverse``,
    so the error surfaces in the solver that needs the backprojection.
    """

    matrix: np.ndarray
    inv: Optional[np.ndarray]  # None when cond exceeds COND_LIMIT
    cond: float

    @classmethod
    def of(cls, K) -> "Coloring":
        """Coloring of K; a Coloring is returned unchanged."""
        if isinstance(K, Coloring):
            return K
        K = np.asarray(K, dtype=np.float64)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise DimensionError("K must be a square matrix")
        cond = float(np.linalg.cond(K))
        return cls(matrix=K, inv=None if _singular(cond) else np.linalg.inv(K), cond=cond)

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
    """ParameterError when T < 1; ScheduleError naming the needed count when
    seq holds fewer than count entries for a run of T iterations."""
    if T < 1:
        raise ParameterError("T must be >= 1")
    if len(seq) < count:
        raise ScheduleError(f"need {count} {what} for T={T}, got {len(seq)}")


def _require_divergence(seq: Sequence[Denoiser], count: int, what: str) -> None:
    """ParameterError naming what[i], the first of seq[:count] with no divergence formula."""
    for i, den in enumerate(seq[:count]):
        if not den.has_analytic_divergence:
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


def _draw_paths(stream: RngStream, mc_samples: int, steps: int, rows: int) -> np.ndarray:
    """(mc_samples, steps, rows) float32 block whose slice k holds the
    steps x rows standard normals of stream.derive(k), drawn in float64 and
    rounded to float32."""
    paths = np.empty((mc_samples, steps, rows), dtype=np.float32)
    for k in range(mc_samples):
        paths[k] = stream.derive(k).generator().standard_normal((steps, rows))
    return paths


def _se_column(f_seq: Sequence[Denoiser], t: int, u1: Optional[np.ndarray], cov: np.ndarray,
               name: str, jittered: List[str], denom: int,
               paths: np.ndarray) -> Tuple[np.ndarray, float]:
    """Monte-Carlo averages, over the surrogate paths Z (t x rows) with
    i.i.d. columns N(0, cov), of the new covariance column
    (1/denom) f_r(Z_r)^T f_t(Z_t) for r = 1..t, led by (1/denom) u1^T f_t(Z_t)
    when u1 is given, and of the divergence (1/denom) div f_t(Z_t) from
    ``Denoiser.divergence``; Z_r is row r of Z.

    Path k is Z = L G: L is the lower Cholesky factor of cov and G the first
    t rows of paths[k] (see ``_draw_paths``), cast to float64. L's rows nest
    as cov does, so rows 1..t-1 of Z repeat the path that every earlier t
    coloured from the same normals. Appends name to jittered when cov needs
    the Cholesky jitter."""
    chol = _chol_factor(cov, name, jittered)
    f_t = f_seq[t - 1]
    off = 0 if u1 is None else 1
    col = np.zeros(t + off)
    div = 0.0
    mc_samples = paths.shape[0]
    for k in range(mc_samples):
        z = chol @ paths[k, :t].astype(np.float64)
        ft_val = f_t.apply(z[t - 1])
        if u1 is not None:
            col[0] += u1 @ ft_val / denom
        for r in range(1, t):
            col[off + r - 1] += f_seq[r - 1].apply(z[r - 1]) @ ft_val / denom
        col[off + t - 1] += ft_val @ ft_val / denom
        div += f_t.divergence(z[t - 1]) / denom
    return col / mc_samples, div / mc_samples


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

    Sigma_(t+1)[r+1, s+1] averages (1/n) f_r(Z_r)^T f_s(Z_s) over mc_samples
    surrogate paths Z_(1:t) with i.i.d. coordinates N(0, Sigma_t). Path k's
    (T-1) x n normals are drawn once from rng.derive(k) and stored in
    float32 (mc_samples * (T-1) * n * 4 bytes for the solve), and every t
    colours their first t rows, so Sigma_(t+1) is the Gram average of
    [u1, f_1(Z_1), ..., f_t(Z_t)] over one sample set and nests Sigma_t
    exactly. b_(t+1) averages (1/n) div f_t(Z_t) by the divergence formula,
    which every f_t must have. Covariances that needed the Cholesky jitter
    are named in the sequence's ``jittered``.
    """
    if mc_samples < 1:
        raise ParameterError("mc_samples must be >= 1")
    require_length(f_seq, T - 1, T)
    _require_divergence(f_seq, T - 1, "f_seq")
    rng = rng or RngStream(0)
    u1 = _nonempty_vector(u1, "u1")
    n = u1.size
    sigma = [np.array([[u1 @ u1 / n]])]
    b: Dict[int, float] = {}
    jittered: List[str] = []
    paths = _draw_paths(rng, mc_samples, T - 1, n)
    for t in range(1, T):
        col, b[t + 1] = _se_column(f_seq, t, u1, sigma[t - 1], f"sigma_{t}", jittered, n,
                                   paths)
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
    Each side draws one set of surrogate paths once and colours it at every
    t: path k of Z takes its T x m normals from rng.derive(0).derive(k) and
    path k of Y its min(T, len(g_seq)) x n normals from
    rng.derive(1).derive(k), both stored in float32 (4 bytes a normal), so
    Sigma_t and Omega_t are Gram averages over one sample set each; every
    denoiser read must have a divergence formula. Covariances that needed
    the Cholesky jitter are named in ``jittered``.
    """
    if mc_samples < 1:
        raise ParameterError("mc_samples must be >= 1")
    require_length(f_seq, T, T, "f-denoisers")
    require_length(g_seq, T - 1, T, "g-denoisers")
    g_steps = min(T, len(g_seq))
    _require_divergence(f_seq, T, "f_seq")
    _require_divergence(g_seq, g_steps, "g_seq")
    if m < 1:
        raise DimensionError(f"m must be >= 1, got {m}")
    rng = rng or RngStream(0)
    u1 = _nonempty_vector(u1, "u1")
    n = u1.size
    omega = [np.array([[u1 @ u1 / m]])]
    sigma: List[np.ndarray] = []
    a: Dict[int, float] = {}
    b: Dict[int, float] = {}
    jittered: List[str] = []
    f_paths = _draw_paths(rng.derive(0), mc_samples, T, m)
    g_paths = _draw_paths(rng.derive(1), mc_samples, g_steps, n)
    for t in range(1, T + 1):
        # f side: new column of Sigma_t from Z ~ N(0, Omega_t x I_m)
        col, a[t] = _se_column(f_seq, t, None, omega[t - 1], f"omega_{t}", jittered, m,
                               f_paths)
        sigma.append(_border(sigma[t - 2] if t > 1 else np.zeros((0, 0)), col))
        # g side: new column of Omega_(t+1) from Y ~ N(0, Sigma_t x I_n)
        if t <= g_steps:
            col, b[t + 1] = _se_column(g_seq, t, u1, sigma[t - 1], f"sigma_{t}", jittered, m,
                                       g_paths)
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
    iteration draws its mc_draws samples as one block.
    """
    if mc_draws < 1:
        raise ParameterError("mc_draws must be >= 1")
    require_length(eta_seq, T, T)
    rng = rng or RngStream(0)
    theta_star = _nonempty_vector(theta_star, "theta_star")
    e = np.asarray(e, dtype=np.float64)
    n, m = theta_star.size, e.size
    if m < 1:
        raise DimensionError(f"theta_star and e must be non-empty, got lengths {n} and {m}")
    if K is not None:
        coloring = Coloring.of(K)
        if coloring.matrix.shape != (n, n):
            raise DimensionError(f"K must be {n} x {n}, got {coloring.matrix.shape}")
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
        eta_t = eta_seq[t - 1]
        ys = np.sqrt(max(sig_t, 0.0)) * gen.standard_normal((mc_draws, n))
        backs = ys @ K_inv.T if K is not None else ys
        for back in backs:
            diff = theta_star - eta_t.apply(back + theta_star)
            acc_mse += diff @ diff / n
            gu = K @ diff if K is not None else diff
            acc_omega += gu @ gu / m
        omega.append(acc_omega / mc_draws)
        pred.append(acc_mse / mc_draws)
    return ScalarSE(sigma_sq=sigma, omega_sq=omega, predicted_mse=pred)
