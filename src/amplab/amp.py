"""AMP recursions: symmetric, asymmetric with an explicit Onsager schedule,
and the sensing form, plain or coloured (x = W K theta + e). The sensing
runner takes the model without W, a ``state_evolution.SensingProblem``
checked when it was built, and the matrix W it runs on, so one problem runs
on many matrices. It applies and inverts K only through the problem's
``state_evolution.Coloring``, K = O diag(kappa) O^T on a signed, permuted
Hartley basis O, or the identity colouring when no K is given; an ndarray K is
refused when the problem is built.

Denoisers read only the latest iterate, so each iteration subtracts one
Onsager term, a coefficient times the previous iterate (Berthier, Montanari
& Nguyen, arXiv:1708.03950), and records that coefficient on its trace. All
runners are sequential and deterministic given their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .denoisers import Denoiser
from .exceptions import (DimensionError, ParameterError, require_count, require_divergence,
                         require_length, require_vector)
from .rng import RngStream
from .state_evolution import OnsagerSchedule, SensingProblem


# ---------------------------------------------------------------------------
# Problems


@dataclass(frozen=True, eq=False)
class SymmetricAmpProblem:
    """The symmetric recursion's inputs, checked once when built: W must be
    n x n for the non-empty vector u1 (``require_vector``). The problem is
    frozen, with f_seq as a tuple, so no field can change after the checks;
    ``dataclasses.replace`` builds a checked variant. W is kept as given
    (``np.asarray``, no copy), so a run reads the caller's W."""

    W: np.ndarray
    u1: np.ndarray
    f_seq: Sequence[Denoiser]  # f_1, ..., f_(T-1)
    onsager: OnsagerSchedule

    def __post_init__(self):
        object.__setattr__(self, "W", np.asarray(self.W, dtype=np.float64))
        object.__setattr__(self, "u1", require_vector(self.u1, "u1"))
        object.__setattr__(self, "f_seq", tuple(self.f_seq))
        n = self.u1.size
        if self.W.shape != (n, n):
            raise DimensionError("W must be n x n for the symmetric recursion")


@dataclass(frozen=True, eq=False)
class RectAmpProblem:
    """The asymmetric recursion's inputs, checked once when built: W must be
    a matrix with one column per entry of the non-empty vector u1. Frozen
    as ``SymmetricAmpProblem`` is, with f_seq and g_seq as tuples; a run
    reads the caller's W."""

    W: np.ndarray  # m x n
    u1: np.ndarray  # length n
    f_seq: Sequence[Denoiser]  # m-side, f_1..f_T
    g_seq: Sequence[Denoiser]  # n-side, g_1..g_T
    onsager: OnsagerSchedule

    def __post_init__(self):
        object.__setattr__(self, "W", np.asarray(self.W, dtype=np.float64))
        object.__setattr__(self, "u1", require_vector(self.u1, "u1"))
        for name in ("f_seq", "g_seq"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.W.ndim != 2 or self.W.shape[1] != self.u1.size:
            raise DimensionError("W columns must match len(u1)")


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
    u: np.ndarray  # n x (T+1)
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
    require_length(problem.f_seq, T, fewer=1)
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
    require_length(problem.f_seq, T, "f-denoisers")
    require_length(problem.g_seq, T, "g-denoisers")
    m, n = problem.W.shape
    sched = problem.onsager
    z = np.zeros((m, T))
    v = np.zeros((m, T))
    y = np.zeros((n, T))
    u = np.zeros((n, T + 1))
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
        u[:, t] = problem.g_seq[t - 1].apply(y[:, t - 1])
    return RectAmpTrace(z=z, v=v, y=y, u=u, b_applied=b, a_applied=a)


# ---------------------------------------------------------------------------
# Sensing recursion


def run_sensing_amp(problem: SensingProblem, W: np.ndarray, T: int,
                    mc_reps: Optional[int] = None,
                    rng: Optional[RngStream] = None) -> SensingAmpTrace:
    """r_t = x - W theta_t + b_t r_(t-1); theta_(t+1) = eta_t(theta_t + W^T r_t),
    initialized at theta_1 = 0, r_0 = 0, on the observations
    x = W K theta_star + e of problem's model on the m x n matrix W.

    b_t = (1/m) div eta_(t-1), evaluated at the realized input that produced
    theta_t; b_1 = 0 since r_0 = 0. The residual is
    r_t = x - W (K theta_t) + b_t r_(t-1) and the backprojection is
    K^(-1) (W^T r_t), both taken by the problem's Coloring (``apply`` and
    ``solve``), so an uncoloured problem's identity colouring leaves them
    r_t = x - W theta_t + b_t r_(t-1) and W^T r_t. The backprojection equals
    the normal-equations form (K^T K)^(-1) (W K)^T r_t because K is square
    and invertible, and it is conditioned by cond(K) rather than cond(K)^2.
    A K whose condition number exceeds 1e12 raises NumericError at the first
    backprojection. The run reads problem and W and writes to neither.

    With mc_reps None the divergence is the formula,
    ``Denoiser.divergence``, and ``require_divergence`` refuses an
    eta_1..eta_(T-1) without one, naming eta_seq[i], before any matvec. An
    int mc_reps takes ``Denoiser.divergence_mc`` with mc_reps probes on
    rng.derive(t) instead, through the denoiser's ``jvp`` where it declares
    one (SVT does: one SVD per probe call) and by finite differences
    otherwise. The source used per iteration ("none" at t = 1,
    then "analytic" or "monte_carlo") is recorded in trace.b_source.
    DimensionError, after those checks and before any matvec, unless W is
    m x n with m = len(e) and n = len(theta_star).
    """
    require_length(problem.eta_seq, T)
    if mc_reps is None:
        require_divergence(problem.eta_seq[:T - 1], "eta_seq")
    else:
        mc_reps = require_count(mc_reps, "mc_reps", ParameterError)
    W = np.asarray(W, dtype=np.float64)
    m, n = problem.e.size, problem.theta_star.size
    if W.shape != (m, n):
        raise DimensionError("W must be m x n with m = len(e), n = len(theta_star)")
    rng = rng or RngStream(0)
    K = problem.K
    x = W @ K.apply(problem.theta_star) + problem.e
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
        r_t = x - W @ K.apply(theta[:, t - 1]) + b_t * r_prev
        arg = theta[:, t - 1] + K.solve(W.T @ r_t)
        theta[:, t] = problem.eta_seq[t - 1].apply(arg)
        r[:, t - 1] = r_t
        diff = theta[:, t] - problem.theta_star
        mse[t - 1] = diff @ diff / n
        r_prev = r_t
        prev_arg = arg
    return SensingAmpTrace(theta=theta, r=r, b_applied=b_applied, b_source=b_source,
                           mse=mse)
