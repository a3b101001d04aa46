"""State-evolution covariances and Onsager coefficients.

The solvers evaluate the defining expectations by Monte Carlo over Gaussian
surrogates drawn at the problem's own dimension: nested covariances
Sigma_1 in Sigma_2 in ... (and Omega_t for the asymmetric recursion), with
coefficients b_ts (and a_ts) given by normalized expected divergences.
"""

from __future__ import annotations

import csv
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
    """Coefficient maps: b[(t, s)] for s < t, and a[(t, s)] for s <= t in the
    asymmetric recursion. Entries pinned to zero for columns a denoiser
    declares it never reads."""

    b: Dict[Tuple[int, int], float] = field(default_factory=dict)
    a: Dict[Tuple[int, int], float] = field(default_factory=dict)
    provenance: str = "analytic"

    def b_coeff(self, t: int, s: int) -> float:
        try:
            return self.b[(t, s)]
        except KeyError:
            raise ScheduleError(f"missing Onsager coefficient b[{t},{s}]")

    def a_coeff(self, t: int, s: int) -> float:
        try:
            return self.a[(t, s)]
        except KeyError:
            raise ScheduleError(f"missing Onsager coefficient a[{t},{s}]")


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
                        f"(min eig {w.min():.3e}); consider diagonal jitter"
                    )
                if t > 1 and not np.array_equal(seq[t - 2], cov[: t - 1, : t - 1]):
                    raise NumericError(f"{name}_{t} does not nest {name}_{t-1}")


def require_length(seq: Sequence, count: int, T: int, what: str = "denoisers") -> None:
    """ScheduleError naming the needed count when seq holds fewer than count
    entries for a run of T iterations."""
    if len(seq) < count:
        raise ScheduleError(f"need {count} {what} for T={T}, got {len(seq)}")


def _chol_factor(cov: np.ndarray) -> Tuple[np.ndarray, bool]:
    """(lower Cholesky factor of cov, whether the jitter fallback was needed);
    the fallback is warned once per factor."""
    try:
        return np.linalg.cholesky(cov), False
    except np.linalg.LinAlgError:
        logger.warning("covariance near-singular; adding diagonal jitter %g", CHOL_JITTER)
        try:
            return np.linalg.cholesky(cov + CHOL_JITTER * np.eye(cov.shape[0])), True
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                "covariance not positive definite even after jitter; "
                "increase jitter or perturb the denoisers"
            ) from exc


def _chol_draw(chol: np.ndarray, rows: int, gen: np.random.Generator) -> np.ndarray:
    """rows x t draw with i.i.d. rows N(0, chol chol^T)."""
    return gen.standard_normal((rows, chol.shape[0])) @ chol.T


def _se_column(f_seq: Sequence[Denoiser], t: int, u1: Optional[np.ndarray], cov: np.ndarray,
               name: str, jittered: List[str], rows: int, denom: int, mc_samples: int,
               stream: RngStream) -> Tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo averages, over stacks Z (rows x t) with i.i.d. rows
    N(0, cov), of the new covariance column (1/denom) f_r(Z)^T f_t(Z) for
    r = 1..t, led by (1/denom) u1^T f_t(Z) when u1 is given, and of the
    divergences (1/denom) div f_t(Z) from ``Denoiser.onsager``. The samples
    come from stream's generator, and sample k probes with stream.derive(k)
    when f_t has no divergence formula. Appends name to jittered when cov
    needs the Cholesky jitter."""
    chol, jitter = _chol_factor(cov)
    if jitter:
        jittered.append(name)
    gen = stream.generator()
    f_t = f_seq[t - 1]
    off = 0 if u1 is None else 1
    col = np.zeros(t + off)
    divs = np.zeros(t)
    for rep in range(mc_samples):
        z = _chol_draw(chol, rows, gen)
        ft_val = f_t.apply(z)
        if u1 is not None:
            col[0] += u1 @ ft_val / denom
        for r in range(1, t):
            col[off + r - 1] += f_seq[r - 1].apply(z[:, :r]) @ ft_val / denom
        col[off + t - 1] += ft_val @ ft_val / denom
        divs += f_t.onsager(z, rng=stream.derive(rep))[0] / denom
    return col / mc_samples, divs / mc_samples


def _provenance(denoisers: Sequence[Denoiser]) -> str:
    """Schedule provenance: analytic unless some denoiser needs the probe."""
    if all(d.has_analytic_divergence for d in denoisers):
        return "analytic"
    return "monte_carlo"


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
    """Covariances Sigma_1..Sigma_T and coefficients b_ts for the symmetric
    recursion driven by f_1, ..., f_(T-1) from initialization u1.

    Sigma_(t+1)[r+1, s+1] averages (1/n) f_r^T f_s over mc_samples surrogate
    draws Z_(1:t) with i.i.d. rows N(0, Sigma_t); earlier blocks are reused so
    the sequence nests exactly. b_(t+1, s) averages (1/n) div_s f_t, using the
    analytic divergence when the denoiser declares one. Covariances that
    needed the Cholesky jitter are named in the sequence's ``jittered``.
    """
    if mc_samples < 1:
        raise ParameterError("mc_samples must be >= 1")
    require_length(f_seq, T - 1, T)
    rng = rng or RngStream(0)
    u1 = np.asarray(u1, dtype=np.float64)
    n = u1.size
    sigma = [np.array([[u1 @ u1 / n]])]
    b: Dict[Tuple[int, int], float] = {}
    jittered: List[str] = []
    for t in range(1, T):
        col, divs = _se_column(f_seq, t, u1, sigma[t - 1], f"sigma_{t}", jittered, n, n,
                               mc_samples, rng.derive(t))
        sigma.append(_border(sigma[t - 1], col))
        for s in range(1, t + 1):
            b[(t + 1, s)] = float(divs[s - 1])
    cov = SECovarianceSequence(sigma=sigma, jittered=jittered)
    cov.validate()
    sched = OnsagerSchedule(b=b, provenance=_provenance(f_seq[: T - 1]))
    return cov, sched


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
    N(0, Sigma_t); a_ts = (1/m) E div_s f_t and b_(t+1)s = (1/m) E div_s g_t.
    Covariances that needed the Cholesky jitter are named in ``jittered``.
    """
    if mc_samples < 1:
        raise ParameterError("mc_samples must be >= 1")
    require_length(f_seq, T, T, "f-denoisers")
    require_length(g_seq, T - 1, T, "g-denoisers")
    rng = rng or RngStream(0)
    u1 = np.asarray(u1, dtype=np.float64)
    n = u1.size
    omega = [np.array([[u1 @ u1 / m]])]
    sigma: List[np.ndarray] = []
    a: Dict[Tuple[int, int], float] = {}
    b: Dict[Tuple[int, int], float] = {}
    jittered: List[str] = []
    for t in range(1, T + 1):
        # f side: new column of Sigma_t from Z ~ N(0, Omega_t x I_m)
        col, divs = _se_column(f_seq, t, None, omega[t - 1], f"omega_{t}", jittered, m, m,
                               mc_samples, rng.derive(2 * t))
        sigma.append(_border(sigma[t - 2] if t > 1 else np.zeros((0, 0)), col))
        for s in range(1, t + 1):
            a[(t, s)] = float(divs[s - 1])
        # g side: new column of Omega_(t+1) from Y ~ N(0, Sigma_t x I_n)
        if t - 1 < len(g_seq):
            col, divs = _se_column(g_seq, t, u1, sigma[t - 1], f"sigma_{t}", jittered, n, m,
                                   mc_samples, rng.derive(2 * t + 1))
            omega.append(_border(omega[t - 1], col))
            for s in range(1, t + 1):
                b[(t + 1, s)] = float(divs[s - 1])
    cov = SECovarianceSequence(sigma=sigma, omega=omega, jittered=jittered)
    cov.validate()
    sched = OnsagerSchedule(b=b, a=a, provenance=_provenance([*f_seq[:T], *g_seq[:T]]))
    return cov, sched


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

    K may be an ndarray or a Coloring. The backprojection K^(-1) Y is the
    normal-equations form (K^T K)^(-1) K^T Y, since K is square and
    invertible; a numerically singular K raises NumericError. Each
    iteration draws its mc_draws samples as one block, in the order the
    per-draw loop consumed them.
    """
    if mc_draws < 1:
        raise ParameterError("mc_draws must be >= 1")
    require_length(eta_seq, T, T)
    rng = rng or RngStream(0)
    theta_star = np.asarray(theta_star, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n, m = theta_star.size, e.size
    if K is not None:
        coloring = Coloring.of(K)
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


def test_function_gap(
    z_stack,
    phi1,
    phi2,
    se: SECovarianceSequence,
    mc_draws: int = 200,
    rng: Optional[RngStream] = None,
) -> float:
    """|(1/n) phi1(z)^T phi2(z) - MC E (1/n) phi1(Z)^T phi2(Z)| with the
    surrogate Z drawn from the final covariance of se, which must be
    t x t for the n x t stack z."""
    if mc_draws < 1:
        raise ParameterError("mc_draws must be >= 1")
    z = np.asarray(getattr(z_stack, "z", z_stack), dtype=np.float64)
    n = z.shape[0]
    if z.ndim != 2 or z.shape[1] != se.sigma[-1].shape[0]:
        raise DimensionError(f"z has shape {z.shape}, but the final covariance is "
                             f"{se.sigma[-1].shape[0]}x{se.sigma[-1].shape[0]}")
    emp = phi1(z) @ phi2(z) / n
    chol, _ = _chol_factor(se.sigma[-1])
    gen = (rng or RngStream(0)).generator()
    acc = 0.0
    for _ in range(mc_draws):
        zz = _chol_draw(chol, n, gen)
        acc += phi1(zz) @ phi2(zz) / n
    return float(abs(emp - acc / mc_draws))


def estimate_onsager_from_data(
    stack,
    denoisers: Sequence[Denoiser],
    denominator: int,
    reps: int = 100,
    rng: Optional[RngStream] = None,
) -> OnsagerSchedule:
    """Monte-Carlo probe divergences at the realized iterates.

    stack holds the iterates the denoisers were applied to (columns 1..T);
    the schedule entry b[(t+1, s)] is the probe estimate of div_s f_t divided
    by the given denominator (n for symmetric runs, m for sensing runs).
    """
    z = np.asarray(getattr(stack, "z", stack), dtype=np.float64)
    rng = rng or RngStream(0)
    b: Dict[Tuple[int, int], float] = {}
    for t in range(1, min(len(denoisers), z.shape[1]) + 1):
        den = denoisers[t - 1]
        divs = den.onsager(z[:, :t], reps=reps, rng=rng.derive(t))[0]
        for s in range(1, t + 1):
            b[(t + 1, s)] = float(divs[s - 1] / denominator)
    return OnsagerSchedule(b=b, provenance="estimated_from_data")


def export_se_csv(path, se: SECovarianceSequence, sched: OnsagerSchedule,
                  scalar: Optional[ScalarSE] = None) -> None:
    """Columns: t, sigma_tt, omega_tt, b_(t,t-1), a_(t,t), predicted_mse."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "sigma_tt", "omega_tt", "b_t_tminus1", "a_tt", "predicted_mse"])
        for t in range(1, len(se.sigma) + 1):
            omega_tt = ""
            if se.omega is not None and t <= len(se.omega):
                omega_tt = f"{se.omega[t - 1][t - 1, t - 1]:.17g}"
            b_val = sched.b.get((t, t - 1))
            a_val = sched.a.get((t, t))
            mse = ""
            if scalar is not None and t <= len(scalar.predicted_mse):
                mse = f"{scalar.predicted_mse[t - 1]:.17g}"
            writer.writerow([
                t,
                f"{se.sigma[t - 1][t - 1, t - 1]:.17g}",
                omega_tt,
                "" if b_val is None else f"{b_val:.17g}",
                "" if a_val is None else f"{a_val:.17g}",
                mse,
            ])
