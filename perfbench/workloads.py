"""The four benchmark workloads: inputs derived from a seed, one run through
the public ``amplab`` API, and the checks that the run's outputs are right.

A workload is three steps. ``build(seed)`` turns the workload seed into a
plain config (the set-up the benchmark times as ``setup_s``), ``run(config)``
is the timed call, and ``check(config, output)`` returns one verdict per
output check, each with the measured value and the bound it was held to.
Sizes are fixed here and nowhere else; README.md says why each is chosen.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import amplab
from amplab.denoisers import residual_shift_denoiser, signal_residual_denoiser
from amplab.ensembles import EnsembleSpec, SignalSpec, sample_noise
from amplab.exceptions import NumericError

# Realised-vs-SE gap bound per ensemble: max over t of |mean MSE - SE| / SE.
# The largest gaps measured were 0.19 on spectral (3 cells per ensemble, 43
# seeds) and 0.46 on aniso (1 cell per ensemble, 30 seeds): a sparse signal
# with about 50 non-zeros makes one cell's MSE noisy. The bounds hold realised
# MSE within a factor of 1.4 and 2 of SE.
SENSING_GAP_BOUND = {"spectral": 0.4, "aniso": 1.0}
# The last SE_TAIL values of the SE curve may rise from one iteration to the
# next by at most SE_TAIL_RISE, relatively. A converged curve wobbles with its
# Monte-Carlo noise (at most 0.17 measured, on aniso's 5 draws); a divergent
# one roughly doubles every iteration.
SE_TAIL = 3
SE_TAIL_RISE = 0.5
# Bound on max_t |(1/dim)|z_t|^2 - SE_tt| / SE_11 for the matrix-valued
# solvers. Scaling by the first variance keeps the check meaningful once the
# symmetric iterate collapses to zero. Over 46 seeds the largest value was
# 0.06 (symmetric) and 0.27 (asymmetric, where one AMP draw can drift from SE
# over the last iterations).
MATRIX_GAP_BOUND = 0.5


@dataclass
class Check:
    """One output check; ``value`` and ``bound`` are None for a pass/fail
    verdict that has no measured figure or no bound of the benchmark's."""

    name: str
    passed: bool
    value: Optional[float] = None
    bound: Optional[float] = None


def _seeds(seed: int, count: int) -> List[int]:
    rnd = random.Random(seed)
    return [rnd.randrange(1, 2**31) for _ in range(count)]


def config_hash(config) -> str:
    if isinstance(config, amplab.ExperimentConfig):
        config = asdict(config)
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# spectral and aniso: the harness sensing experiments


def _sensing_config(experiment: str, seed: int, cells: int, **dims) -> amplab.ExperimentConfig:
    signal_seed, *cell_seeds = _seeds(seed, 1 + cells)
    return amplab.ExperimentConfig(
        experiment=experiment,
        seeds=cell_seeds,
        ensembles=["gaussian", "rademacher", "uniform"],
        iterations=8,
        threshold=0.5,
        signal_seed=signal_seed,
        **dims,
    )


def build_spectral(seed: int) -> amplab.ExperimentConfig:
    return _sensing_config("fig2_spectral", seed, 3, M=30, N=30, n=900, m=450,
                           onsager_source="mc", mc_reps=100)


def build_aniso(seed: int) -> amplab.ExperimentConfig:
    # One cell seed per ensemble and 5 SE draws instead of 3 seeds and 50:
    # at full size a run takes about 16 s, so a sample budget fits one run and
    # its time swings by 25% between runs. n, which sets the cost of each
    # solve, stays at 1000.
    return _sensing_config("fig3_aniso", seed, 1, n=1000, m=500, se_draws=5)


def run_sensing(cfg: amplab.ExperimentConfig):
    return amplab.run_experiment(cfg)


def check_sensing(kind: str):
    def check(cfg: amplab.ExperimentConfig, output) -> List[Check]:
        records, summary = output
        mses = np.array([r.mse for r in records])
        se = np.asarray(summary["se_predicted"])
        checks = [Check("mse_finite", bool(np.all(np.isfinite(mses))),
                        float(np.count_nonzero(~np.isfinite(mses))), 0.0)]
        tail = se[-SE_TAIL:]
        rise = float(np.max(tail[1:] / tail[:-1]) - 1.0)
        checks.append(Check("se_tail_not_rising", bool(np.isfinite(rise) and rise <= SE_TAIL_RISE),
                            rise, SE_TAIL_RISE))
        bound = SENSING_GAP_BOUND[kind]
        for ens, info in sorted(summary["ensembles"].items()):
            gap = float(np.max(np.abs(np.asarray(info["mean_mse"]) - se) / se))
            checks.append(Check(f"se_gap.{ens}", bool(gap <= bound), gap, bound))
        return checks

    return check


# ---------------------------------------------------------------------------
# se_matrix: the matrix-valued SE solvers, each followed by its AMP recursion


def build_se_matrix(seed: int) -> dict:
    sym, asym_signal, asym_matrix, w_seed = _seeds(seed, 4)
    return {
        "symmetric": {"n": 2000, "T": 10, "samples": 200, "threshold": 0.5,
                      "u1_seed": sym, "se_seed": sym + 1, "w_seed": w_seed},
        "asymmetric": {"m": 1000, "n": 2000, "T": 10, "samples": 200, "threshold": 0.5,
                       "density": 0.2, "noise_std": 0.2, "signal_seed": asym_signal,
                       "se_seed": asym_signal + 1, "w_seed": asym_matrix},
    }


def run_se_matrix(cfg: dict) -> dict:
    c = cfg["symmetric"]
    n, T = c["n"], c["T"]
    u1 = amplab.RngStream(c["u1_seed"]).generator().standard_normal(n)
    f_seq = [amplab.soft_threshold_denoiser(c["threshold"])] * (T - 1)
    sym_cov, sym_sched = amplab.se_symmetric(f_seq, u1, T, mc_samples=c["samples"],
                                             rng=amplab.RngStream(c["se_seed"]))
    w = amplab.sample_wigner(EnsembleSpec("goe", n, n), amplab.RngStream(c["w_seed"]))
    sym_trace = amplab.run_symmetric_amp(
        amplab.SymmetricAmpProblem(W=w, u1=u1, f_seq=f_seq, onsager=sym_sched), T)

    c = cfg["asymmetric"]
    m, n, T = c["m"], c["n"], c["T"]
    theta = amplab.sample_signal(SignalSpec(kind="sparse", dims=n, density=c["density"]),
                                 amplab.RngStream(c["signal_seed"], 1)).vector
    e = sample_noise(m, c["noise_std"], amplab.RngStream(c["signal_seed"], 2))
    eta = amplab.soft_threshold_denoiser(c["threshold"])
    f_seq = [residual_shift_denoiser(e)] * T
    g_seq = [signal_residual_denoiser(theta, eta)] * T
    asym_cov, asym_sched = amplab.se_asymmetric(f_seq, g_seq, theta, T, m,
                                                mc_samples=c["samples"],
                                                rng=amplab.RngStream(c["se_seed"]))
    w = amplab.sample_ginibre(EnsembleSpec("ginibre_iid", m, n), amplab.RngStream(c["w_seed"]))
    asym_trace = amplab.run_asymmetric_amp(
        amplab.RectAmpProblem(W=w, u1=theta, f_seq=f_seq, g_seq=g_seq, onsager=asym_sched), T)
    return {"sym": (sym_cov, sym_trace), "asym": (asym_cov, asym_trace)}


def _diag_gap(iterates: np.ndarray, cov: np.ndarray) -> float:
    realised = np.sum(iterates**2, axis=0) / iterates.shape[0]
    se = np.diag(cov)[: realised.size]
    return float(np.max(np.abs(realised - se)) / se[0])


def _validates(cov) -> bool:
    try:
        cov.validate()
    except NumericError:
        return False
    return True


def check_se_matrix(cfg: dict, output: dict) -> List[Check]:
    sym_cov, sym_trace = output["sym"]
    asym_cov, asym_trace = output["asym"]
    checks = [
        Check("symmetric.validate", _validates(sym_cov)),
        Check("asymmetric.validate", _validates(asym_cov)),
    ]
    gaps = {
        "symmetric.z_gap": _diag_gap(sym_trace.z, sym_cov.sigma[-1]),
        "asymmetric.z_gap": _diag_gap(asym_trace.z, asym_cov.omega[-1]),
        "asymmetric.y_gap": _diag_gap(asym_trace.y, asym_cov.sigma[-1]),
    }
    for name, gap in gaps.items():
        checks.append(Check(name, bool(gap <= MATRIX_GAP_BOUND), gap, MATRIX_GAP_BOUND))
    return checks


# ---------------------------------------------------------------------------
# tensor: the tensor-network check batteries at their default sizes


def build_tensor(seed: int) -> amplab.ExperimentConfig:
    # The batteries draw their own instance sizes from battery_seed, and one
    # heavy Wick instance (order 6, n = 5) costs more than the rest of the
    # battery: over battery seeds the run takes 1.3 s to 3.6 s. A seed-derived
    # battery would let the seed, not the code, set the time, so the workload
    # keeps the library's default battery seed and ignores the workload seed.
    return amplab.ExperimentConfig(experiment="tensor_checks", seeds=[])


def run_tensor(cfg: amplab.ExperimentConfig) -> dict:
    return amplab.tensor_checks(cfg)


def check_tensor(cfg, output: dict) -> List[Check]:
    checks = [Check("all_pass", bool(output["all_pass"]))]
    for battery in output["batteries"]:
        # the battery's worst statistic where it reports one; its pass rule is
        # the harness's own
        value = battery.get("worst_relative", battery.get("worst_z"))
        checks.append(Check(f"battery.{battery['name']}", bool(battery["passed"]), value))
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], object]
    run: Callable[[object], object]
    check: Callable[[object, object], List[Check]]


WORKLOADS: Dict[str, Workload] = {
    "spectral": Workload("spectral", build_spectral, run_sensing, check_sensing("spectral")),
    "aniso": Workload("aniso", build_aniso, run_sensing, check_sensing("aniso")),
    "se_matrix": Workload("se_matrix", build_se_matrix, run_se_matrix, check_se_matrix),
    "tensor": Workload("tensor", build_tensor, run_tensor, check_tensor),
}
