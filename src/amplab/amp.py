"""AMP recursions: symmetric, asymmetric with an explicit Onsager schedule,
and the sensing form, plain or coloured (x = W K theta + e).

Denoisers read only the latest iterate, so each iteration subtracts one
Onsager term, a coefficient times the previous iterate (Berthier, Montanari
& Nguyen, arXiv:1708.03950), and records that coefficient on its trace. All
runners are sequential and deterministic given their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from .denoisers import Denoiser
from .exceptions import DimensionError, ParameterError, require_count
from .rng import RngStream
from .state_evolution import (Coloring, OnsagerSchedule, _nonempty_vector, require_divergence,
                              require_length)


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
        self.u1 = _nonempty_vector(self.u1, "u1")
        n = self.u1.size
        if self.W.shape != (n, n):
            raise DimensionError("W must be n x n for the symmetric recursion")


@dataclass
class RectAmpProblem:
    W: np.ndarray  # m x n
    u1: np.ndarray  # length n
    f_seq: Sequence[Denoiser]  # m-side, f_1..f_T
    g_seq: Sequence[Denoiser]  # n-side, g_1..g_(T-1) (g_T optional)
    onsager: OnsagerSchedule

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.u1 = _nonempty_vector(self.u1, "u1")
        if self.W.ndim != 2 or self.W.shape[1] != self.u1.size:
            raise DimensionError("W columns must match len(u1)")


@dataclass
class SensingProblem:
    """Observations x = W theta_star + e with per-iteration denoisers; x is
    derived from the other fields, not passed.

    With K set the sensing is coloured, x = W K theta_star + e. K may be an
    ndarray, turned into a Coloring by ``Coloring.of`` (an SVD and an LU
    inverse), or a Coloring already built, e.g. by ``Coloring.from_eig`` from
    K's eigen-factors; ``Coloring.of`` checks either form against n. Problems
    that share one Coloring share its inverse and condition number, computed
    once.
    """

    W: np.ndarray
    theta_star: np.ndarray
    e: np.ndarray
    eta_seq: Sequence[Denoiser]
    K: Optional[Union[np.ndarray, Coloring]] = None
    x: np.ndarray = field(init=False)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.theta_star = _nonempty_vector(self.theta_star, "theta_star")
        self.e = _nonempty_vector(self.e, "e")
        if self.W.shape != (self.e.size, self.theta_star.size):
            raise DimensionError("W must be m x n with m = len(e), n = len(theta_star)")
        signal = self.theta_star
        if self.K is not None:
            self.K = Coloring.of(self.K, self.theta_star.size)
            signal = self.K.matrix @ signal
        self.x = self.W @ signal + self.e


# ---------------------------------------------------------------------------
# Traces


@dataclass
class SymmetricAmpTrace:
    z: np.ndarray  # n x T
    u: np.ndarray  # n x T
    b_applied: np.ndarray  # length T; b_1 = 0


@dataclass
class RectAmpTrace:
    z: np.ndarray  # m x T
    v: np.ndarray  # m x T
    y: np.ndarray  # n x T
    u: np.ndarray  # n x (T or T+1, when g_T is present)
    b_applied: np.ndarray  # length T; b_1 = 0
    a_applied: np.ndarray  # length T


@dataclass
class SensingAmpTrace:
    theta: np.ndarray  # n x (T+1), theta_1 = 0 in the first column
    r: np.ndarray  # m x T
    b_applied: np.ndarray  # length T; b_1 = 0
    b_source: List[str]
    mse: np.ndarray  # length T, (1/n)|theta_(t+1) - theta_star|^2


# ---------------------------------------------------------------------------
# Symmetric recursion


def run_symmetric_amp(problem: SymmetricAmpProblem, T: int) -> SymmetricAmpTrace:
    """z_t = W u_t - b_t u_(t-1), u_(t+1) = f_t(z_t); z_1 = W u_1."""
    require_length(problem.f_seq, T - 1, T)
    n = problem.u1.size
    z = np.zeros((n, T))
    u = np.zeros((n, T))
    b = np.zeros(T)
    u[:, 0] = problem.u1
    z[:, 0] = problem.W @ u[:, 0]
    for t in range(2, T + 1):
        u[:, t - 1] = problem.f_seq[t - 2].apply(z[:, t - 2])
        b[t - 1] = problem.onsager.coeff("b", t)
        z[:, t - 1] = problem.W @ u[:, t - 1] - b[t - 1] * u[:, t - 2]
    return SymmetricAmpTrace(z=z, u=u, b_applied=b)


# ---------------------------------------------------------------------------
# Asymmetric recursion


def run_asymmetric_amp(problem: RectAmpProblem, T: int) -> RectAmpTrace:
    """z_t = W u_t - b_t v_(t-1); v_t = f_t(z_t);
    y_t = W^T v_t - a_t u_t; u_(t+1) = g_t(y_t); z_1 = W u_1.

    The coefficients come from problem.onsager, e.g. the schedule
    ``se_asymmetric`` returns.
    """
    require_length(problem.f_seq, T, T, "f-denoisers")
    require_length(problem.g_seq, T - 1, T, "g-denoisers")
    m, n = problem.W.shape
    sched = problem.onsager
    z = np.zeros((m, T))
    v = np.zeros((m, T))
    y = np.zeros((n, T))
    has_final_g = len(problem.g_seq) >= T
    u = np.zeros((n, T + 1 if has_final_g else T))
    b = np.zeros(T)
    a = np.zeros(T)
    u[:, 0] = problem.u1
    z[:, 0] = problem.W @ u[:, 0]
    for t in range(1, T + 1):
        if t > 1:
            b[t - 1] = sched.coeff("b", t)
            z[:, t - 1] = problem.W @ u[:, t - 1] - b[t - 1] * v[:, t - 2]
        v[:, t - 1] = problem.f_seq[t - 1].apply(z[:, t - 1])
        a[t - 1] = sched.coeff("a", t)
        y[:, t - 1] = problem.W.T @ v[:, t - 1] - a[t - 1] * u[:, t - 1]
        if t < T or has_final_g:
            u[:, t] = problem.g_seq[t - 1].apply(y[:, t - 1])
    return RectAmpTrace(z=z, v=v, y=y, u=u, b_applied=b, a_applied=a)


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
    exceeds 1e12 raises NumericError.

    With mc_reps None the divergence is the formula,
    ``Denoiser.divergence``, and ``require_divergence`` refuses an
    eta_1..eta_(T-1) without one, naming eta_seq[i], before any matvec. An
    int mc_reps takes ``Denoiser.divergence_mc`` with mc_reps probes on
    rng.derive(t) instead. The source used per iteration ("none" at t = 1,
    then "analytic" or "monte_carlo") is recorded in trace.b_source.
    """
    require_length(problem.eta_seq, T, T)
    if mc_reps is None:
        require_divergence(problem.eta_seq[:T - 1], "eta_seq")
    else:
        mc_reps = require_count(mc_reps, "mc_reps", ParameterError)
    rng = rng or RngStream(0)
    m, n = problem.W.shape
    K = None if problem.K is None else problem.K.matrix
    K_inv = None if problem.K is None else problem.K.inverse()
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
        elif mc_reps is None:
            b_t, source = problem.eta_seq[t - 2].divergence(prev_arg) / m, "analytic"
        else:
            probe = problem.eta_seq[t - 2].divergence_mc(prev_arg, reps=mc_reps, rng=rng.derive(t))
            b_t, source = probe / m, "monte_carlo"
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
                           mse=mse)
