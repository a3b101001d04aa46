"""Config-driven experiment harness.

Wires ensembles, denoisers, the AMP runners and state evolution into the
universality experiments (local / spectral / anisotropic sensing pipelines
compared across matrix ensembles) and the tensor-network check batteries,
emitting machine-readable CSV/JSON results.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor_net as tn
from .amp import SensingProblem, run_sensing_amp
from .denoisers import (
    LocalKernelSpec,
    SpectralSpec,
    local_average_denoiser,
    soft_threshold_denoiser,
    svt_denoiser,
)
from .ensembles import (
    ENTRY_DISTS,
    EnsembleSpec,
    SignalSpec,
    sample_ginibre,
    sample_noise,
    sample_signal,
)
from .exceptions import ConfigError, ParameterError, is_integer, require_count, require_number
from .rng import RngStream
from .state_evolution import Coloring, SignedHartley, se_scalar_sensing
from .vecmat import mat

# sensing experiment -> pipeline kind
_KIND_OF = {"fig1_local": "local", "fig2_spectral": "spectral", "fig3_aniso": "aniso"}
EXPERIMENTS = (*_KIND_OF, "tensor_checks")

# stream_id namespaces; seeds select replicates within each purpose
_STREAM_SIGNAL = 1
_STREAM_NOISE = 2
_STREAM_SE = 3
_STREAM_KAPPA = 4
_STREAM_ONSAGER = 5
_STREAM_MATRIX = 100  # + ensemble index


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, checked when built (``validate_config``).
    The config is frozen, so no field can be reassigned past the checks;
    ``dataclasses.replace`` builds a checked variant. seeds and ensembles
    may be given as lists and are stored as tuples."""

    experiment: str = ""
    seeds: Sequence[int] = ()
    M: int = 0
    N: int = 0
    m: int = 0
    n: int = 0
    iterations: int = 4
    ensembles: Sequence[str] = ("gaussian", "rademacher")
    bandwidth: int = 1
    threshold: float = 0.5
    signal_rank: int = 4
    signal_density: float = 0.05
    signal_seed: int = 1
    kappa_low: float = 0.5
    kappa_high: float = 2.0
    noise_std: float = 0.05
    se_draws: int = 50
    onsager_source: str = "analytic"  # analytic | mc
    mc_reps: int = 100
    out: Optional[str] = None
    fmt: str = "csv"
    battery_seed: int = 7  # tensor_checks: the seed every battery's substream derives from

    def __post_init__(self):
        validate_config(self)


# field -> the [low, high] that require_number holds it to, None leaving a
# side open but finite; a float field not listed is any finite number
_BOUNDS = {"threshold": (0, None), "signal_density": (0, 1), "noise_std": (0, None),
           "bandwidth": (0, None)}


def _config_error(name: str):
    """The error an ``exceptions`` input rule raises for the config key name:
    a ConfigError whose field is name."""
    return lambda message: ConfigError(name, message.removeprefix(f"{name} "))


def validate_config(cfg: ExperimentConfig) -> None:
    """ConfigError naming the first bad field. Counts (the sensing fields
    iterations, n and m, a matrix kind's M and N, and se_draws and mc_reps)
    are checked by ``require_count``; float fields, bandwidth and a spectral
    signal_rank by ``require_number``. Each accepted int or float field, and
    each seed, is stored back as a plain Python int or float, so a numpy
    scalar in the config cannot reach the JSON summary; seeds and ensembles,
    each a list or a tuple, are stored as tuples."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {cfg.experiment!r}")
    kind = _KIND_OF.get(cfg.experiment)
    counts = {"se_draws", "mc_reps", *(("iterations", "n", "m") if kind else ()),
              *(("M", "N") if kind in ("local", "spectral") else ())}
    # fields() gives the annotations as strings
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in counts:
            require_count(value, f.name, _config_error(f.name))
        elif f.type == "int" and not is_integer(value):
            raise ConfigError(f.name, f"must be an integer, got {value!r}")
        elif f.type == "float" or f.name in _BOUNDS:
            require_number(value, f.name, _config_error(f.name), *_BOUNDS.get(f.name, ()))
        elif f.type == "Optional[str]" and not isinstance(value, (str, type(None))):
            raise ConfigError(f.name, f"must be a string, got {value!r}")
        if f.type in ("int", "float"):  # stored plain: json writes no np.int64 or np.float32
            object.__setattr__(cfg, f.name, int(value) if f.type == "int" else float(value))
    if not isinstance(cfg.seeds, (list, tuple)) or not all(map(is_integer, cfg.seeds)):
        raise ConfigError("seeds", f"must be a list or tuple of integers, got {cfg.seeds!r}")
    object.__setattr__(cfg, "seeds", tuple(int(seed) for seed in cfg.seeds))
    if not isinstance(cfg.ensembles, (list, tuple)):
        raise ConfigError("ensembles", f"must be a list or tuple, got {cfg.ensembles!r}")
    object.__setattr__(cfg, "ensembles", tuple(cfg.ensembles))
    # a repeated entry would run its cells twice and count them as replicates
    for name in ("seeds", "ensembles"):
        values = getattr(cfg, name)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{name}[{i}]", f"repeats {value!r}")
    if kind is not None:
        if not cfg.seeds:
            raise ConfigError("seeds", "must list at least one seed")
        if not cfg.ensembles:
            raise ConfigError("ensembles", "must list at least one entry distribution")
        for i, ens in enumerate(cfg.ensembles):
            if ens not in ENTRY_DISTS:
                raise ConfigError(f"ensembles[{i}]", f"unknown entry distribution {ens!r}")
    if kind in ("local", "spectral") and cfg.n != cfg.M * cfg.N:
        raise ConfigError("n", f"need n == M*N ({cfg.M * cfg.N}), got {cfg.n}")
    if kind == "spectral":
        require_number(cfg.signal_rank, "signal_rank", _config_error("signal_rank"), 0,
                       min(cfg.M, cfg.N))
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError("fmt", f"must be csv or json, got {cfg.fmt!r}")
    if cfg.onsager_source not in ("analytic", "mc"):
        raise ConfigError("onsager_source", "must be 'analytic' or 'mc'")
    if not (0 < cfg.kappa_low <= cfg.kappa_high):
        raise ConfigError("kappa_low", "need 0 < kappa_low <= kappa_high")


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("<root>", f"must be a JSON object, got {data!r:.40}")
    known = set(ExperimentConfig.__dataclass_fields__)
    for key in data:
        if key not in known:
            raise ConfigError(key, "unknown configuration field")
    return ExperimentConfig(**data)


def load_config(path) -> ExperimentConfig:
    """The config in the JSON file at path; ConfigError("<file>") when the
    file cannot be read or is not valid UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", str(exc)) from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError("<file>", f"not valid JSON: {exc}")
    return config_from_dict(data)


@dataclass
class ResultRecord:
    experiment: str
    ensemble: str
    seed: int
    t: int
    mse: float
    se_predicted: float
    gap: float


# ---------------------------------------------------------------------------
# Pipelines


def _build_pipeline(cfg: ExperimentConfig) -> SensingProblem:
    """The sensing model of cfg without its matrix, one per config: the
    signal and noise draws, the denoisers and, for fig3_aniso, the colouring
    K. Its SE summary and every (ensemble, seed) cell read this one problem;
    a cell draws only its W. ConfigError for a config with no sensing
    pipeline, before any draw."""
    kind = _KIND_OF.get(cfg.experiment)
    if kind is None:
        raise ConfigError("experiment", f"no sensing pipeline for {cfg.experiment!r}")
    signal_rng = RngStream(cfg.signal_seed, _STREAM_SIGNAL)
    e = sample_noise(cfg.m, cfg.noise_std, RngStream(cfg.signal_seed, _STREAM_NOISE))
    T = cfg.iterations
    if kind == "local":
        spec = SignalSpec(kind="smooth_image", dims=cfg.n, M=cfg.M, N=cfg.N)
        theta = sample_signal(spec, signal_rng).vector
        den = local_average_denoiser(LocalKernelSpec(cfg.M, cfg.N, cfg.bandwidth))
        return SensingProblem(theta, e, [den] * T)
    if kind == "spectral":
        spec = SignalSpec(kind="low_rank", dims=cfg.n, M=cfg.M, N=cfg.N,
                          rank=cfg.signal_rank)
        theta = sample_signal(spec, signal_rng).vector
        den = svt_denoiser(SpectralSpec(cfg.M, cfg.N, cfg.threshold))
        return SensingProblem(theta, e, [den] * T)
    spec = SignalSpec(kind="sparse", dims=cfg.n, density=cfg.signal_density)
    theta = sample_signal(spec, signal_rng).vector
    kappa_rng = RngStream(cfg.signal_seed, _STREAM_KAPPA)
    kappa = kappa_rng.derive(1).generator().uniform(cfg.kappa_low, cfg.kappa_high, size=cfg.n)
    # K = O diag(kappa) O^T with O a signed, permuted Hartley basis, which is as
    # delocalised as a Haar eigenbasis (the universality results need a fixed,
    # well-conditioned K, not Haar eigenvectors) but is drawn in O(n) and
    # applied by FFTs, where a Haar O costs an n x n QR; cond(K) is read off
    # kappa
    K = Coloring(SignedHartley.draw(cfg.n, kappa_rng), kappa)
    den = soft_threshold_denoiser(cfg.threshold)
    return SensingProblem(theta, e, [den] * T, K)


def _run_cell(cfg: ExperimentConfig, problem: SensingProblem, ensemble: str, seed: int):
    # streams keyed by the ensemble name, so a cell's draws do not depend on
    # where its ensemble stands in the list
    eidx = ENTRY_DISTS.index(ensemble)
    w = sample_ginibre(
        EnsembleSpec("ginibre_iid", cfg.m, cfg.n, ensemble),
        RngStream(seed, _STREAM_MATRIX + eidx),
    )
    return run_sensing_amp(
        problem,
        w,
        cfg.iterations,
        mc_reps=cfg.mc_reps if cfg.onsager_source == "mc" else None,
        rng=RngStream(seed, _STREAM_ONSAGER + 10 * eidx),
    )


def _sv_count_above(theta_vec: np.ndarray, cfg: ExperimentConfig) -> int:
    sv = np.linalg.svd(mat(theta_vec, cfg.M, cfg.N), compute_uv=False)
    return int(np.count_nonzero(sv > cfg.threshold * np.sqrt(cfg.N)))


def se_summary(cfg: ExperimentConfig) -> dict:
    """The state-evolution prediction of a sensing experiment, with no AMP
    run: the summary block ``run_experiment`` starts from. A tensor_checks
    config raises ConfigError."""
    return _se_summary(cfg, _build_pipeline(cfg))


def _se_summary(cfg: ExperimentConfig, problem: SensingProblem) -> dict:
    scalar = se_scalar_sensing(problem, cfg.iterations, mc_draws=cfg.se_draws,
                               rng=RngStream(cfg.signal_seed, _STREAM_SE))
    summary: dict = {
        "config": asdict(cfg),
        "se_predicted": list(scalar.predicted_mse),
        "sigma_sq": list(scalar.sigma_sq),
        "omega_sq": list(scalar.omega_sq),
    }
    if problem.K.kappa is not None:  # fig3's K, not the identity
        summary["condition_number"] = problem.K.cond
    return summary


def run_experiment(cfg: ExperimentConfig) -> Tuple[List[ResultRecord], dict]:
    """Run the configured experiment; returns (records, summary).

    Sensing experiments share one signal/noise draw per config (so the
    state-evolution prediction is a single per-iteration curve), vary the
    matrix across (ensemble, seed) cells, and record per-iteration MSE
    against the prediction.
    """
    if cfg.experiment == "tensor_checks":
        return [], tensor_checks(cfg)
    problem = _build_pipeline(cfg)
    summary = _se_summary(cfg, problem)
    records: List[ResultRecord] = []
    sv_counts: Dict[str, List[int]] = {}
    curves: Dict[str, List[List[float]]] = {}
    for ens, seed in itertools.product(cfg.ensembles, cfg.seeds):
        trace = _run_cell(cfg, problem, ens, seed)
        curves.setdefault(ens, []).append([float(v) for v in trace.mse])
        for t in range(1, cfg.iterations + 1):
            mse = float(trace.mse[t - 1])
            pred = float(summary["se_predicted"][t - 1])
            records.append(ResultRecord(
                experiment=cfg.experiment, ensemble=ens, seed=seed, t=t,
                mse=mse, se_predicted=pred, gap=abs(mse - pred),
            ))
        if cfg.experiment == "fig2_spectral":
            sv_counts.setdefault(ens, []).append(
                _sv_count_above(trace.theta[:, -1], cfg))
    records.sort(key=lambda r: (r.ensemble, r.seed, r.t))
    for ens, rows in curves.items():
        arr = np.asarray(rows)
        summary.setdefault("ensembles", {})[ens] = {
            "mean_mse": arr.mean(axis=0).tolist(),
            "sd_mse": arr.std(axis=0, ddof=1).tolist() if arr.shape[0] > 1 else [0.0] * arr.shape[1],
        }
    if sv_counts:
        summary["sv_count_above_threshold"] = {
            ens: float(np.mean(v)) for ens, v in sv_counts.items()
        }
    return records, summary


def universality_compare(cfg: ExperimentConfig) -> dict:
    """Mean-over-seeds MSE per (ensemble, t) plus pairwise and SE gaps."""
    if cfg.experiment == "tensor_checks":
        raise ConfigError("experiment", "tensor_checks has no ensembles to compare")
    if len(cfg.ensembles) < 2:  # the config refuses a repeated ensemble
        raise ConfigError("ensembles", "universality comparison needs >= 2 ensembles")
    records, summary = run_experiment(cfg)
    means = {ens: np.asarray(info["mean_mse"])
             for ens, info in summary["ensembles"].items()}
    pred = np.asarray(summary["se_predicted"])
    names = list(means)
    pair_gaps = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            rel = np.abs(means[a] - means[b]) / np.maximum((means[a] + means[b]) / 2, 1e-300)
            pair_gaps[f"{a}|{b}"] = rel.tolist()
    se_gaps = {
        ens: (np.abs(curve - pred) / np.maximum(pred, 1e-300)).tolist()
        for ens, curve in means.items()
    }
    return {
        "mean_mse": {k: v.tolist() for k, v in means.items()},
        "se_predicted": pred.tolist(),
        "pairwise_relative_gap": pair_gaps,
        "se_relative_gap": se_gaps,
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# Tensor-network batteries

TENSOR_TREES = 50  # oracle_equivalence: random trees
TENSOR_CYCLES = 20  # oracle_equivalence: networks with cycles
TENSOR_N = 5  # largest dimension n of a drawn tensor
WICK_INSTANCES = 20
BCP_QUERIES = 100
GRAPH_INSTANCES = 1000
GRAPH_VERTICES = 8  # graph_lemma: vertices a cycle's walk draws from
GRAPH_CYCLES = 4  # graph_lemma: most cycles in one instance


def random_cyclic_network(num_vertices: int, n: int, gen, extra: int = 0):
    """A random tree on num_vertices vertices plus extra random edges (none,
    and no draws, for extra=0), labeled with dense Gaussian tensors."""
    edges = [(int(gen.integers(0, v)), v) for v in range(1, num_vertices)]
    for _ in range(extra):
        a, b = gen.choice(num_vertices, size=2, replace=False)
        edges.append((int(min(a, b)), int(max(a, b))))
    graph = tn.OrderedMultigraph(num_vertices, edges)
    labeling = {
        v: tn.DenseTensor.from_array(gen.standard_normal((n,) * graph.degree(v)))
        for v in range(num_vertices)
    }
    return graph, labeling


def _battery_oracle_equivalence(rng: RngStream) -> dict:
    gen = rng.generator()
    worst = 0.0
    # trees on 2..6 vertices, then cyclic networks on 3..5 with 1..2 extra edges
    for count, vertices, extra in ((TENSOR_TREES, (2, 7), None),
                                   (TENSOR_CYCLES, (3, 6), (1, 3))):
        for _ in range(count):
            nv = int(gen.integers(*vertices))
            n = int(gen.integers(2, TENSOR_N + 1))
            k = int(gen.integers(*extra)) if extra else 0
            graph, labeling = random_cyclic_network(nv, n, gen, k)
            a = tn.eval_value_bruteforce(graph, labeling)
            b = tn.eval_value_contraction(graph, labeling)
            worst = max(worst, abs(a - b) / max(abs(a), 1.0))
    return {"name": "oracle_equivalence", "checked": TENSOR_TREES + TENSOR_CYCLES,
            "worst_relative": worst, "passed": worst <= 1e-10}


def random_wick_instance(gen):
    d = int(gen.choice([2, 4, 4, 6]))
    n = int(gen.integers(2, TENSOR_N + 1))
    tensor = tn.DenseTensor.from_array(gen.standard_normal((n,) * d))
    # stream pattern with even multiplicities
    streams = []
    remaining = d
    label = 0
    while remaining > 0:
        block = 2 * int(gen.integers(1, remaining // 2 + 1))
        streams.extend([label] * block)
        remaining -= block
        label += 1
    sigma = list(gen.permutation(streams))
    return tensor, sigma


def _moment_oracle(tensor: tn.DenseTensor, sigma: Sequence[int], law: str) -> float:
    """Definitional E T[xi_(sigma(1)), ..., xi_(sigma(d))]: the sum over all
    n^d index tuples i of T[i] times, for each (stream, index) pair, the
    law's raw moment of the number of slots that pair fills."""
    d, n = tensor.order, tensor.n
    moments = np.zeros(d + 1)  # E xi^k, read off the law itself rather than its cumulants
    for k in range(0, d + 1, 2):
        moments[k] = {"gaussian": math.prod(range(1, k, 2)), "rademacher": 1.0,
                      "uniform": 3.0 ** (k // 2) / (k + 1)}[law]
    idx = np.indices((n,) * d).reshape(d, -1)
    weight = np.ones(idx.shape[1])
    for s, i in itertools.product(set(sigma), range(n)):
        weight *= moments[np.count_nonzero(idx[np.equal(sigma, s)] == i, axis=0)]
    # einsum, not a BLAS dot: up to 5^6 terms would wake a BLAS worker thread
    return float(np.einsum("i,i->", tensor.to_dense().reshape(-1), weight))


def _battery_moments(rng: RngStream) -> dict:
    gen = rng.generator()
    failures = 0
    worst = 0.0
    correction = dict.fromkeys(ENTRY_DISTS, 0.0)
    for _ in range(WICK_INSTANCES):
        tensor, sigma = random_wick_instance(gen)
        odd_sigma = [max(sigma) + 1, *sigma[1:]]  # must vanish identically
        exact = {law: tn.wick_expectation(tensor, sigma, law) for law in ENTRY_DISTS}
        for law, value in exact.items():
            oracle = _moment_oracle(tensor, sigma, law)
            worst = max(worst, abs(value - oracle) / max(abs(oracle), 1.0))
            shift = abs(value - exact["gaussian"]) / max(abs(exact["gaussian"]), 1.0)
            correction[law] = max(correction[law], shift)
            failures += tn.wick_expectation(tensor, odd_sigma, law) != 0.0
    return {"name": "moments", "checked": WICK_INSTANCES, "worst_relative": worst,
            "non_gaussian_correction": correction, "passed": failures == 0 and worst <= 1e-10}


def random_diagonal_bcp_query(gen):
    m = int(gen.integers(1, 4))
    orders = [int(gen.choice([2, 4])) for _ in range(m)]
    total = sum(orders)
    for _ in range(200):
        ell = int(gen.integers(1, total // 2 + 1))
        pi = list(gen.integers(0, ell, size=total))
        if set(pi) != set(range(ell)):
            continue
        query = tn.BcpQuery(orders=orders, ell=ell, pi=pi)
        rep = tn.validate_bcp_query(query)
        if rep["even_multiplicity"] and rep["connected"]:
            return query
    # fall back to the fully-collapsed pattern, always valid
    return tn.BcpQuery(orders=orders, ell=1, pi=[0] * total)


def _battery_bcp_diagonal(rng: RngStream) -> dict:
    gen = rng.generator()
    failures = 0
    n = 16
    for _ in range(BCP_QUERIES):
        bound = float(gen.uniform(0.5, 2.0))
        query = random_diagonal_bcp_query(gen)
        tensors = [
            tn.DenseTensor.diagonal(gen.uniform(-bound, bound, size=n), k)
            for k in query.orders
        ]
        ratio = tn.bcp_ratio(query, tensors)
        if ratio > bound ** query.m:
            failures += 1
    return {"name": "bcp_diagonal_bound", "checked": BCP_QUERIES, "passed": failures == 0}


def _battery_graph_lemma(rng: RngStream) -> dict:
    """One batch: instance 0 is the base case [[0, 0]], where the bound is
    an equality, and GRAPH_INSTANCES random instances follow. Three draws
    make them: each instance's number of cycles (1..GRAPH_CYCLES), each
    cycle's walk length (1..3), and the walks' vertices
    (0..GRAPH_VERTICES - 1). A cycle is its walk taken twice, which keeps
    every vertex's color degrees even."""
    gen = rng.generator()
    counts = gen.integers(1, GRAPH_CYCLES + 1, size=GRAPH_INSTANCES)
    lengths = gen.integers(1, 4, size=counts.sum()).tolist()
    walks = gen.integers(0, GRAPH_VERTICES, size=sum(lengths)).tolist()
    ends = itertools.accumulate(lengths)
    cycles = [[0, 0]] + [walks[end - length:end] * 2 for end, length in zip(ends, lengths)]
    instance = [0] + np.repeat(np.arange(1, GRAPH_INSTANCES + 1), counts).tolist()
    report = tn.alt_cycle_component_bound_check(cycles, instance)
    equality = bool(report["lhs"][0] == report["rhs"][0])
    return {"name": "graph_lemma", "checked": GRAPH_INSTANCES,
            "passed": equality and all(report["holds"]), "base_case_equality": equality}


# battery name -> (substream of battery_seed, battery)
_BATTERIES = {
    "oracle_equivalence": (1, _battery_oracle_equivalence),
    "moments": (2, _battery_moments),
    "bcp_diagonal_bound": (3, _battery_bcp_diagonal),
    "graph_lemma": (4, _battery_graph_lemma),
}


def tensor_checks(cfg: ExperimentConfig, names: Sequence[str] = tuple(_BATTERIES)) -> dict:
    """The named batteries (default: all four) in the given order, at the
    module's fixed sizes. Each draws from its own substream of battery_seed,
    so a selection reports what the full run reports for it; none samples.
    The report records battery_seed beside the batteries and all_pass."""
    if not names or any(name not in _BATTERIES for name in names):
        raise ParameterError(f"names must be one or more of {list(_BATTERIES)}, "
                             f"got {list(names)}")
    rng = RngStream(cfg.battery_seed)
    batteries = []
    for name in names:
        stream, battery = _BATTERIES[name]
        batteries.append(battery(rng.derive(stream)))
    return {"batteries": batteries, "all_pass": all(b["passed"] for b in batteries),
            "battery_seed": cfg.battery_seed}


# ---------------------------------------------------------------------------
# Output writers


# One row per (ensemble, seed, t). Wall-clock time is not a column, so two
# runs of one config write identical files.
CSV_HEADER = ["experiment", "ensemble", "seed", "t", "mse", "se_predicted", "gap"]


def write_records_csv(path, records: Sequence[ResultRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([
                r.experiment, r.ensemble, r.seed, r.t,
                f"{r.mse:.17g}", f"{r.se_predicted:.17g}", f"{r.gap:.17g}",
            ])


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
