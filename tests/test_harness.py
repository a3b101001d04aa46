import os
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

import amplab
from amplab import harness
from amplab import tensor_net as tn
from amplab.ensembles import ENTRY_CUMULANTS
from amplab.exceptions import ConfigError, ParameterError
from amplab.harness import (
    ExperimentConfig,
    config_from_dict,
    run_experiment,
    se_summary,
    tensor_checks,
    universality_compare,
)
from amplab.state_evolution import Coloring, SignedDCT


@pytest.mark.parametrize("field, value", [
    ("se_draws", 0),
    ("mc_reps", 0),
    ("bandwidth", -1),
    ("threshold", -0.1),
    # M, N, n and m were once refused as dims.M, dims.n and dims.m, keys
    # the config does not have
    ("M", 0),
    ("N", -4),
    ("n", 0),
    ("n", 15),  # not M * N = 16
    ("m", 0),
    ("onsager_source", ""),
    ("ensembles", []),
    # each value below would otherwise pass validation and then fail deep
    # inside a run, with a bare error or a SpecError naming no field, or run
    # to the end on a NaN
    ("se_draws", 1.5),
    ("iterations", 2.5),
    ("bandwidth", 1.5),
    ("iterations", True),
    ("seeds", ["a"]),
    ("seeds", 3),
    ("ensembles", "gaussian"),
    ("threshold", float("nan")),
    ("kappa_high", float("inf")),
    ("noise_std", float("nan")),
    ("threshold", "0.5"),
    ("signal_rank", 9),  # above min(M, N) = 4
    ("signal_density", 1.5),
    ("out", 5),
])
def test_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ConfigError) as info:
        config_from_dict({"experiment": "fig2_spectral", "seeds": [1], "M": 4, "N": 4,
                          "n": 16, "m": 8, field: value})
    assert info.value.field == field


def _forbidden(*args, **kwargs):
    raise AssertionError("called before the input was refused")


@pytest.mark.parametrize("dims", [{}, {"n": 5, "m": 5}], ids=["no-dims", "dims"])
def test_se_summary_refuses_a_tensor_config_before_it_draws(monkeypatch, dims):
    # the noise was drawn first: a DimensionError naming m, or a draw and then
    # the refusal
    monkeypatch.setattr(harness, "sample_noise", _forbidden)
    with pytest.raises(ConfigError, match=r"^experiment: ") as info:
        se_summary(ExperimentConfig("tensor_checks", [], **dims))
    assert info.value.field == "experiment"


def test_se_only_is_not_an_experiment():
    with pytest.raises(ConfigError) as info:
        config_from_dict({"experiment": "se_only", "seeds": [1], "n": 20, "m": 10})
    assert info.value.field == "experiment"


@pytest.mark.parametrize("ensembles", [["gaussian"], ["gaussian", "gaussian"]])
def test_universality_compare_needs_two_distinct_ensembles(ensembles):
    # a repeated name would compare an ensemble with itself: no pairwise gap;
    # the config refuses it, naming the repeat, before universality_compare
    with pytest.raises(ConfigError) as info:
        universality_compare(config_from_dict({
            "experiment": "fig1_local", "seeds": [1], "M": 4, "N": 4, "n": 16, "m": 12,
            "iterations": 1, "ensembles": ensembles}))
    assert info.value.field == ("ensembles" if len(ensembles) == 1 else "ensembles[1]")


@pytest.mark.parametrize("field, value, named", [
    ("seeds", [3, 3], "seeds[1]"),
    ("seeds", [1, 2, 1, 2], "seeds[2]"),
    ("ensembles", ["gaussian", "gaussian"], "ensembles[1]"),
    ("ensembles", ["gaussian", "rademacher", "gaussian"], "ensembles[2]"),
    ("seeds", [3, np.int64(3)], "seeds[1]"),  # equal across integer types
])
def test_config_refuses_a_repeated_seed_or_ensemble(field, value, named):
    # a repeat once ran its cells again: fig1 with seeds [3, 3] wrote every
    # record twice and read sd_mse 0.0 off the two identical copies
    with pytest.raises(ConfigError) as info:
        config_from_dict({"experiment": "fig1_local", "seeds": [1], "M": 4, "N": 4,
                          "n": 16, "m": 12, "iterations": 1, field: value})
    assert info.value.field == named
    with pytest.raises(ConfigError) as info:  # a tensor config lists seeds too
        config_from_dict({"experiment": "tensor_checks", "seeds": [], field: value})
    assert info.value.field == named


@pytest.mark.parametrize("experiment, dims", [
    ("fig2_spectral", {"M": 10, "N": 10, "n": 100, "m": 50}),
    ("fig3_aniso", {"n": 100, "m": 50}),
])
def test_default_threshold_gives_a_convergent_se_curve(experiment, dims):
    # A divergent SE curve roughly doubles every iteration (as at threshold
    # 0.05); a converged one only wobbles.
    cfg = config_from_dict({"experiment": experiment, "seeds": [1], "iterations": 6,
                            "ensembles": ["gaussian"], **dims})
    _, summary = run_experiment(cfg)
    tail = np.asarray(summary["se_predicted"])[-3:]
    assert np.all(np.isfinite(tail))
    assert np.max(tail[1:] / tail[:-1] - 1.0) <= 0.5


def test_aniso_factors_K_once_per_config(monkeypatch):
    calls = {"cond": 0, "solve": 0, "inv": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    cfg = config_from_dict({"experiment": "fig3_aniso", "seeds": [1, 2], "n": 60, "m": 30,
                            "iterations": 3, "se_draws": 4, "threshold": 0.5,
                            "ensembles": ["gaussian", "rademacher"]})
    records, summary = run_experiment(cfg)
    assert len(records) == 2 * 2 * 3
    assert all(np.isfinite(r.mse) for r in records)
    assert len(summary["se_predicted"]) == 3
    assert calls == {"cond": 0, "solve": 0, "inv": 0}


def test_spectral_default_takes_the_svt_formula_one_svd_per_call(monkeypatch):
    calls = {"apply": 0, "divergence": 0, "divergence_mc": 0}
    svd_matrices = []  # matrices per np.linalg.svd call: a stack SVDs each of its own
    traces = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    np_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        svd_matrices.append(int(np.prod(np.shape(a)[:-2])))
        return np_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    for name in ("apply", "divergence", "divergence_mc"):
        monkeypatch.setattr(amplab.Denoiser, name, counting(name, getattr(amplab.Denoiser, name)))
    run_sensing_amp = amplab.harness.run_sensing_amp

    def recording(*args, **kwargs):
        traces.append(run_sensing_amp(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(amplab.harness, "run_sensing_amp", recording)
    cfg = config_from_dict({"experiment": "fig2_spectral", "seeds": [1, 2], "M": 6, "N": 6,
                            "n": 36, "m": 24, "iterations": 4, "se_draws": 3,
                            "ensembles": ["gaussian", "rademacher"]})
    records, summary = run_experiment(cfg)
    assert summary["config"]["onsager_source"] == "analytic"
    assert len(traces) == 4
    assert all(tr.b_source == ["none"] + ["analytic"] * 3 for tr in traces)
    assert all(np.isfinite(r.mse) for r in records)
    assert calls["divergence"] == 4 * 3 and calls["divergence_mc"] == 0
    # one matrix per apply and per divergence, one per cell for the summary's
    # singular-value count, and the SE's 3 draws per iteration in one stack
    assert sum(svd_matrices) == calls["apply"] + calls["divergence"] + len(traces) + 4 * 3
    assert len(svd_matrices) == calls["apply"] + calls["divergence"] + len(traces) + 4


@dataclass(frozen=True, eq=False)
class _DenseColoring(Coloring):
    """A colouring that applies and inverts the dense K it holds by numpy."""

    K: np.ndarray = None

    def apply(self, x):
        return x @ self.K.T

    def solve(self, y):
        return y @ np.linalg.inv(self.K).T


def test_aniso_eigen_colouring_matches_the_dense_colouring(monkeypatch):
    """fig3's K, applied through its signed, permuted DCT basis, colours as
    the dense K = O diag(kappa) O^T of the same basis, applied, inverted and
    conditioned by numpy."""
    cfg = config_from_dict({"experiment": "fig3_aniso", "seeds": [1, 2], "n": 60, "m": 30,
                            "iterations": 3, "se_draws": 4, "threshold": 0.5,
                            "ensembles": ["gaussian", "rademacher"]})
    records, summary = run_experiment(cfg)
    bases = []

    def dense(cls, O, kappa):
        bases.append(O)
        matrix = O.matvec(np.eye(kappa.size)).T  # column j is O e_j
        K = (matrix * kappa) @ matrix.T
        return _DenseColoring(basis=O, kappa=kappa, cond=float(np.linalg.cond(K)), K=K)

    monkeypatch.setattr(Coloring, "from_eig", classmethod(dense))
    dense_records, dense_summary = run_experiment(cfg)
    assert len(bases) == 1 and isinstance(bases[0], SignedDCT)
    assert [(r.ensemble, r.seed, r.t) for r in records] == \
        [(r.ensemble, r.seed, r.t) for r in dense_records]
    assert np.allclose([r.mse for r in records], [r.mse for r in dense_records],
                       rtol=1e-12, atol=0)
    for key in ("se_predicted", "sigma_sq", "omega_sq", "condition_number"):
        assert np.allclose(summary[key], dense_summary[key], rtol=1e-12, atol=0), key
    assert 1 < summary["condition_number"] <= cfg.kappa_high / cfg.kappa_low


def test_import_loads_no_test_extra():
    """``import amplab`` and ``amplab.cli`` load no module of the test
    extras (scipy, mpmath, pytest): numpy is the one runtime dependency that
    pyproject.toml declares. Importing scipy.linalg also took about 0.33 s on
    a 2-CPU machine with scipy 1.17, more than the whole median set-up time
    of a benchmark run there (about 0.27 s), so a single scipy import in the
    package would regress every run's set-up."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(amplab.__file__)))
    code = ("import sys, amplab, amplab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath', 'pytest', '_pytest')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_default_tensor_checks_pass_without_sampling(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the default battery sampled a moment")

    monkeypatch.setattr(tn, "wick_expectation_mc", forbidden)
    report = tensor_checks(ExperimentConfig(experiment="tensor_checks", seeds=[]))
    assert report["all_pass"]
    moments = report["batteries"][1]
    assert moments["name"] == "moments" and moments["worst_relative"] <= 1e-10
    assert set(moments["non_gaussian_correction"]) == {"gaussian", "rademacher", "uniform"}


def test_moments_battery_catches_a_wrong_cumulant_sign(monkeypatch):
    cfg = ExperimentConfig(experiment="tensor_checks", seeds=[])
    assert tensor_checks(cfg, ["moments"])["all_pass"]
    monkeypatch.setitem(ENTRY_CUMULANTS["rademacher"], 4, 2.0)
    assert not tensor_checks(cfg, ["moments"])["all_pass"]


def test_battery_selection_matches_the_full_run():
    cfg = ExperimentConfig(experiment="tensor_checks", seeds=[])
    full = tensor_checks(cfg)
    names = [b["name"] for b in full["batteries"]]
    assert names == ["oracle_equivalence", "moments", "bcp_diagonal_bound", "graph_lemma"]
    for battery in full["batteries"]:
        alone = tensor_checks(cfg, [battery["name"]])
        assert alone == {"batteries": [battery], "all_pass": battery["passed"],
                         "battery_seed": cfg.battery_seed}


@pytest.mark.parametrize("names", [["bcp_diagonal_bound", "no_such_battery"], []],
                         ids=["unknown", "empty"])
def test_a_battery_selection_is_one_or_more_known_names(monkeypatch, names):
    # an empty selection once ran nothing and reported all_pass = True
    for core in ("eval_value_bruteforce", "wick_expectation", "bcp_ratio",
                 "alt_cycle_component_bound_check"):
        monkeypatch.setattr(tn, core, _forbidden)
    message = (f"names must be one or more of ['oracle_equivalence', 'moments', "
               f"'bcp_diagonal_bound', 'graph_lemma'], got {names}")
    with pytest.raises(ParameterError, match=rf"^{re.escape(message)}$"):
        tensor_checks(ExperimentConfig(experiment="tensor_checks", seeds=[]), names)


def test_tensor_checks_pass_at_battery_seeds_1_to_20():
    # `seeds` reaches no battery, so battery_seed is what draws new instances
    for seed in range(1, 21):
        report = tensor_checks(ExperimentConfig(experiment="tensor_checks", seeds=[],
                                                battery_seed=seed))
        assert report["all_pass"], (seed, report)
