"""AMP recursions: symmetric (optionally Gaussian-perturbed, delta > 0),
asymmetric, the sensing form and its anisotropic variant, and the symmetric
embedding of the asymmetric recursion.

All runners are sequential and deterministic given their inputs; corrections
sum over earlier iterates in ascending order so serial runs are bitwise
reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from .denoisers import Denoiser, residual_shift_denoiser, signal_residual_denoiser
from .exceptions import DimensionError, ParameterError
from .rng import RngStream
from .state_evolution import Coloring, OnsagerSchedule, require_length


# ---------------------------------------------------------------------------
# Problems


@dataclass
class SymmetricAmpProblem:
    W: np.ndarray
    u1: np.ndarray
    f_seq: Sequence[Denoiser]  # f_1, ..., f_(T-1)
    onsager: OnsagerSchedule

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.u1 = np.asarray(self.u1, dtype=np.float64)
        n = self.u1.size
        if self.W.shape != (n, n):
            raise DimensionError("W must be n x n for the symmetric recursion")


@dataclass
class RectAmpProblem:
    W: np.ndarray  # m x n
    u1: np.ndarray  # length n
    f_seq: Sequence[Denoiser]  # m-side, f_1..f_T
    g_seq: Sequence[Denoiser]  # n-side, g_1..g_(T-1) (g_T optional)
    onsager: Optional[OnsagerSchedule] = None  # None: derive from realized iterates

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.u1 = np.asarray(self.u1, dtype=np.float64)
        if self.W.ndim != 2 or self.W.shape[1] != self.u1.size:
            raise DimensionError("W columns must match len(u1)")


@dataclass
class SensingProblem:
    """Observations x = W theta_star + e with per-iteration denoisers; x is
    derived from the other fields, not passed.

    With K set the sensing is coloured, x = W K theta_star + e. K may be an
    ndarray, turned into a Coloring by ``Coloring.of`` (an SVD and an LU
    inverse), or a Coloring already built, e.g. by ``Coloring.from_eig`` from
    K's eigen-factors. Problems that share one Coloring share its inverse and
    condition number, computed once.
    """

    W: np.ndarray
    theta_star: np.ndarray
    e: np.ndarray
    eta_seq: Sequence[Denoiser]
    K: Optional[Union[np.ndarray, Coloring]] = None
    x: np.ndarray = field(init=False)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.theta_star = np.asarray(self.theta_star, dtype=np.float64)
        self.e = np.asarray(self.e, dtype=np.float64)
        if self.W.shape != (self.e.size, self.theta_star.size):
            raise DimensionError("W must be m x n with m = len(e), n = len(theta_star)")
        signal = self.theta_star
        if self.K is not None:
            self.K = Coloring.of(self.K)
            if self.K.matrix.shape != (self.theta_star.size,) * 2:
                raise DimensionError("K must be n x n")
            signal = self.K.matrix @ signal
        self.x = self.W @ signal + self.e


# ---------------------------------------------------------------------------
# Traces


@dataclass
class SymmetricAmpTrace:
    z: np.ndarray  # n x T
    u: np.ndarray  # n x T
    applied_b: dict
    wall_ms: float = 0.0


@dataclass
class RectAmpTrace:
    z: np.ndarray  # m x T
    v: np.ndarray  # m x T
    y: np.ndarray  # n x T
    u: np.ndarray  # n x (T or T+1, when g_T is present)
    applied_b: dict
    applied_a: dict
    wall_ms: float = 0.0


@dataclass
class SensingAmpTrace:
    theta: np.ndarray  # n x (T+1), theta_1 = 0 in the first column
    r: np.ndarray  # m x T
    b_applied: np.ndarray  # length T; b_1 = 0
    b_source: List[str]
    mse: np.ndarray  # length T, (1/n)|theta_(t+1) - theta_star|^2
    condition_number: float = 1.0
    wall_ms: float = 0.0


# ---------------------------------------------------------------------------
# Symmetric recursion


def run_symmetric_amp(problem: SymmetricAmpProblem, T: int, delta: float = 0.0,
                      rng: Optional[RngStream] = None) -> SymmetricAmpTrace:
    """z_t = W u_t - sum_(s<t) b_ts u_s, u_(t+1) = f_t(z_(1:t)); z_1 = W u_1.

    With delta > 0 every u_t gets fresh N(0, 1) noise: u_1 = u1 + delta xi_1
    and u_(t+1) = f_t(z_(1:t)) + delta xi_(t+1), drawn from rng in that
    order. delta = 0 consumes no draws and needs no rng.
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    if delta < 0:
        raise ParameterError("delta must be >= 0")
    if delta > 0 and rng is None:
        raise ParameterError("a perturbed run (delta > 0) needs an rng")
    require_length(problem.f_seq, T - 1, T)
    tic = time.perf_counter()
    n = problem.u1.size
    gen = rng.generator() if delta > 0 else None

    def perturb(x):
        return x if gen is None else x + delta * gen.standard_normal(n)

    z = np.zeros((n, T))
    u = np.zeros((n, T))
    applied = {}
    u[:, 0] = perturb(problem.u1)
    z[:, 0] = problem.W @ u[:, 0]
    for t in range(2, T + 1):
        u[:, t - 1] = perturb(problem.f_seq[t - 2].apply(z[:, : t - 1]))
        z[:, t - 1] = problem.W @ u[:, t - 1] - _memory_term(
            problem.onsager.b_coeff, t, u, t - 1, applied)
    return SymmetricAmpTrace(z=z, u=u, applied_b=applied,
                             wall_ms=(time.perf_counter() - tic) * 1e3)


# ---------------------------------------------------------------------------
# Asymmetric recursion


def run_asymmetric_amp(problem: RectAmpProblem, T: int) -> RectAmpTrace:
    """z_t = W u_t - sum b_ts v_s; v_t = f_t(z_(1:t));
    y_t = W^T v_t - sum_(s<=t) a_ts u_s; u_(t+1) = g_t(y_(1:t)).

    With problem.onsager None, the coefficients are derived from the realized
    iterates: a_ts = (1/m) div_s f_t(z_(1:t)) and b_(t+1)s = (1/m) div_s
    g_t(y_(1:t)), from ``Denoiser.onsager`` (the formula where declared).
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    require_length(problem.f_seq, T, T, "f-denoisers")
    require_length(problem.g_seq, T - 1, T, "g-denoisers")
    tic = time.perf_counter()
    m, n = problem.W.shape
    data_driven = problem.onsager is None
    # the data-driven mode fills this schedule as the iterates come in
    sched = OnsagerSchedule() if data_driven else problem.onsager
    z = np.zeros((m, T))
    v = np.zeros((m, T))
    y = np.zeros((n, T))
    has_final_g = len(problem.g_seq) >= T
    u = np.zeros((n, T + 1 if has_final_g else T))
    applied_b = {}
    applied_a = {}
    u[:, 0] = problem.u1
    for t in range(1, T + 1):
        z[:, t - 1] = problem.W @ u[:, t - 1] - _memory_term(sched.b_coeff, t, v, t - 1,
                                                             applied_b)
        f_t = problem.f_seq[t - 1]
        v[:, t - 1] = f_t.apply(z[:, :t])
        if data_driven:
            divs = f_t.onsager(z[:, :t])[0]
            sched.a.update({(t, s): float(d / m) for s, d in enumerate(divs, 1)})
        y[:, t - 1] = problem.W.T @ v[:, t - 1] - _memory_term(sched.a_coeff, t, u, t,
                                                               applied_a)
        if t < T or has_final_g:
            g_t = problem.g_seq[t - 1]
            u[:, t] = g_t.apply(y[:, :t])
            if data_driven:
                divs = g_t.onsager(y[:, :t])[0]
                sched.b.update({(t + 1, s): float(d / m) for s, d in enumerate(divs, 1)})
    return RectAmpTrace(z=z, v=v, y=y, u=u, applied_b=applied_b, applied_a=applied_a,
                        wall_ms=(time.perf_counter() - tic) * 1e3)


def _memory_term(coeff, t: int, cols: np.ndarray, count: int, applied: dict) -> np.ndarray:
    """sum_(s=1..count) coeff(t, s) cols[:, s-1], summed in ascending s so
    serial runs are bitwise reproducible; zero coefficients are skipped, and
    every coefficient is recorded as applied[(t, s)]."""
    out = np.zeros(cols.shape[0])
    for s in range(1, count + 1):
        c = applied[(t, s)] = coeff(t, s)
        if c != 0.0:
            out += c * cols[:, s - 1]
    return out


# ---------------------------------------------------------------------------
# Sensing recursion


def run_sensing_amp(problem: SensingProblem, T: int, mc_reps: Optional[int] = None,
                    rng: Optional[RngStream] = None) -> SensingAmpTrace:
    """r_t = x - W theta_t + b_t r_(t-1); theta_(t+1) = eta_t(theta_t + W^T r_t),
    initialized at theta_1 = 0, r_0 = 0.

    b_t = (1/m) div eta_(t-1), evaluated at the realized input that produced
    theta_t; b_1 = 0 since r_0 = 0. With a colored problem (K set) the
    residual is r_t = x - W (K theta_t) + b_t r_(t-1) and the backprojection
    is K^(-1) (W^T r_t). That equals the normal-equations form
    (K^T K)^(-1) (W K)^T r_t because K is square and invertible, and it is
    conditioned by cond(K) rather than cond(K)^2. A K whose condition number
    exceeds 1e12 raises NumericError; trace.condition_number is cond(K).

    ``Denoiser.onsager`` gives the divergence. mc_reps None takes the formula
    where the denoiser declares one; an int mc_reps, or a denoiser without a
    formula, takes the Gaussian probe with mc_reps probes (100 when None) on
    rng.derive(t). The source used per iteration is recorded in
    trace.b_source.
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    if mc_reps is not None and mc_reps < 1:
        raise ParameterError("mc_reps must be >= 1")
    require_length(problem.eta_seq, T, T)
    tic = time.perf_counter()
    rng = rng or RngStream(0)
    m, n = problem.W.shape
    if problem.K is not None:
        K, K_inv, cond = problem.K.matrix, problem.K.inverse(), problem.K.cond
    else:
        K, K_inv, cond = None, None, 1.0
    theta = np.zeros((n, T + 1))
    r = np.zeros((m, T))
    b_applied = np.zeros(T)
    b_source: List[str] = []
    mse = np.zeros(T)
    r_prev = np.zeros(m)
    prev_arg = None
    for t in range(1, T + 1):
        if t == 1:
            b_t, source = 0.0, "none"
        else:
            divs, source = problem.eta_seq[t - 2].onsager(prev_arg, mc_reps, rng.derive(t))
            b_t = float(divs[-1]) / m
        b_source.append(source)
        b_applied[t - 1] = b_t
        signal = theta[:, t - 1] if K is None else K @ theta[:, t - 1]
        r_t = problem.x - problem.W @ signal + b_t * r_prev
        back = problem.W.T @ r_t
        if K_inv is not None:
            back = K_inv @ back
        arg = theta[:, t - 1] + back
        theta[:, t] = problem.eta_seq[t - 1].apply(arg)
        r[:, t - 1] = r_t
        diff = theta[:, t] - problem.theta_star
        mse[t - 1] = diff @ diff / n
        r_prev = r_t
        prev_arg = arg
    return SensingAmpTrace(theta=theta, r=r, b_applied=b_applied, b_source=b_source,
                           mse=mse, condition_number=cond,
                           wall_ms=(time.perf_counter() - tic) * 1e3)


def change_of_variables_check(problem: SensingProblem, T: int) -> float:
    """Max relative deviation over t between the sensing recursion run
    directly and run through the mapped asymmetric recursion
    (u_t = theta_star - theta_t, z_t = r_t - e, f(z) = z + e,
    g_t(y) = theta_star - eta_t(y + theta_star), a_tt = 1)."""
    if problem.K is not None:
        raise ParameterError("the change-of-variables check uses the uncolored model")
    direct = run_sensing_amp(problem, T)
    f_seq = [residual_shift_denoiser(problem.e) for _ in range(T)]
    g_seq = [signal_residual_denoiser(problem.theta_star, eta) for eta in problem.eta_seq[:T]]
    mapped = run_asymmetric_amp(
        RectAmpProblem(W=problem.W, u1=problem.theta_star.copy(),
                       f_seq=f_seq, g_seq=g_seq, onsager=None),
        T,
    )
    worst = 0.0
    for t in range(1, T + 1):
        theta_direct = direct.theta[:, t]
        theta_mapped = problem.theta_star - mapped.u[:, t]
        scale = max(float(np.linalg.norm(theta_direct)), 1e-30)
        worst = max(worst, float(np.linalg.norm(theta_direct - theta_mapped)) / scale)
    return worst


# ---------------------------------------------------------------------------
# Symmetric embedding of the asymmetric recursion


@dataclass
class EmbedMaps:
    """Index bookkeeping for reading asymmetric iterates out of the embedded
    symmetric trace."""

    m: int
    n: int
    scale: float  # sqrt((m+n)/m)

    def extract_z(self, trace: SymmetricAmpTrace) -> np.ndarray:
        T = trace.z.shape[1] // 2
        return trace.z[: self.m, 0 : 2 * T : 2]

    def extract_y(self, trace: SymmetricAmpTrace) -> np.ndarray:
        T = trace.z.shape[1] // 2
        return trace.z[self.m :, 1 : 2 * T : 2]

    def extract_u(self, trace: SymmetricAmpTrace) -> np.ndarray:
        T = trace.z.shape[1] // 2
        return trace.u[self.m :, 0 : 2 * T : 2] / self.scale

    def extract_v(self, trace: SymmetricAmpTrace) -> np.ndarray:
        T = trace.z.shape[1] // 2
        return trace.u[: self.m, 1 : 2 * T : 2] / self.scale


def _embedded_denoiser(inner: Denoiser, m: int, n: int, odd: bool, scale: float) -> Denoiser:
    """Block-embedded denoiser reading every other column of the stacked trace:
    sym iteration 2t-1 (odd) fills the m-block from the odd columns, sym
    iteration 2t the n-block from the even ones."""
    rows, first = (slice(None, m), 0) if odd else (slice(m, None), 1)

    def fn(stack):
        out = np.zeros(m + n)
        out[rows] = scale * inner.apply(stack[rows, first::2])
        return out

    def div_fn(stack):
        out = np.zeros(stack.shape[1])
        out[first::2] = scale * inner.divergence(stack[rows, first::2])
        return out

    return Denoiser(fn=fn, lipschitz_bound=scale * inner.lipschitz_bound,
                    divergence_fn=div_fn if inner.has_analytic_divergence else None,
                    reads_last_only=False,
                    name=f"embedded({inner.name})")


def embed_symmetric(problem: RectAmpProblem, rng: RngStream, T: int):
    """Build the (m+n)-dimensional symmetric problem whose iterates contain
    the asymmetric ones: W_sym = sqrt(m/(m+n)) [[A, W], [W^T, B]] with fresh
    Gaussian blocks A, B of entry variance 1/m, block-alternating denoisers
    scaled by sqrt((m+n)/m), and the coefficient maps
    b_sym[2t-1, 2s] = sqrt(m/(m+n)) b[t, s], b_sym[2t, 2s-1] = sqrt(m/(m+n)) a[t, s].

    Returns (SymmetricAmpProblem, EmbedMaps); run it for 2T iterations.
    """
    if problem.onsager is None:
        raise ParameterError("embedding needs an explicit asymmetric schedule")
    require_length(problem.f_seq, T, T, "f-denoisers")
    require_length(problem.g_seq, T - 1, T, "g-denoisers")
    m, n = problem.W.shape
    gen_a = rng.derive(1).generator()
    gen_b = rng.derive(2).generator()
    a_block = gen_a.standard_normal((m, m)) / np.sqrt(m)
    b_block = gen_b.standard_normal((n, n)) / np.sqrt(m)
    top = np.hstack([a_block, problem.W])
    bottom = np.hstack([problem.W.T, b_block])
    w_sym = np.sqrt(m / (m + n)) * np.vstack([top, bottom])
    scale = np.sqrt((m + n) / m)
    u1_sym = np.zeros(m + n)
    u1_sym[m:] = scale * problem.u1
    f_sym: List[Denoiser] = []
    for t_sym in range(1, 2 * T):
        # sym index 2t-1 wraps f_t; sym index 2t wraps g_t
        if t_sym % 2 == 1:
            f_sym.append(_embedded_denoiser(problem.f_seq[(t_sym + 1) // 2 - 1], m, n, True, scale))
        else:
            f_sym.append(_embedded_denoiser(problem.g_seq[t_sym // 2 - 1], m, n, False, scale))
    shrink = np.sqrt(m / (m + n))
    b_sym = {}
    for t_sym in range(2, 2 * T + 1):
        for s_sym in range(1, t_sym):
            b_sym[(t_sym, s_sym)] = 0.0
    for (t, s), val in problem.onsager.b.items():
        if 2 * t - 1 <= 2 * T:
            b_sym[(2 * t - 1, 2 * s)] = shrink * val
    for (t, s), val in problem.onsager.a.items():
        if 2 * t <= 2 * T:
            b_sym[(2 * t, 2 * s - 1)] = shrink * val
    sym = SymmetricAmpProblem(
        W=w_sym, u1=u1_sym, f_seq=f_sym,
        onsager=OnsagerSchedule(b=b_sym, provenance=problem.onsager.provenance),
    )
    return sym, EmbedMaps(m=m, n=n, scale=scale)
