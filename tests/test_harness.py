import os
import subprocess
import sys

import numpy as np
import pytest

import amplab
from amplab import tensor_net as tn
from amplab.ensembles import ENTRY_CUMULANTS
from amplab.exceptions import ConfigError, ParameterError
from amplab.harness import (
    ExperimentConfig,
    config_from_dict,
    run_experiment,
    tensor_checks,
    universality_compare,
)
from amplab.state_evolution import Coloring


@pytest.mark.parametrize("field, value", [
    ("se_draws", 0),
    ("mc_reps", 0),
    ("bandwidth", -1),
    ("threshold", -0.1),
    ("graph_instances", -1),
    ("wick_instances", -1),
    ("tensor_n", 1),
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


def test_se_only_is_not_an_experiment():
    with pytest.raises(ConfigError) as info:
        config_from_dict({"experiment": "se_only", "seeds": [1], "n": 20, "m": 10})
    assert info.value.field == "experiment"


@pytest.mark.parametrize("ensembles", [["gaussian"], ["gaussian", "gaussian"]])
def test_universality_compare_needs_two_distinct_ensembles(ensembles):
    # a repeated name would compare an ensemble with itself: no pairwise gap
    cfg = config_from_dict({"experiment": "fig1_local", "seeds": [1], "M": 4, "N": 4,
                            "n": 16, "m": 12, "iterations": 1, "ensembles": ensembles})
    with pytest.raises(ConfigError) as info:
        universality_compare(cfg)
    assert info.value.field == "ensembles"


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


def test_aniso_eigen_colouring_matches_the_dense_colouring(monkeypatch):
    cfg = config_from_dict({"experiment": "fig3_aniso", "seeds": [1, 2], "n": 60, "m": 30,
                            "iterations": 3, "se_draws": 4, "threshold": 0.5,
                            "ensembles": ["gaussian", "rademacher"]})
    records, summary = run_experiment(cfg)
    monkeypatch.setattr(Coloring, "from_eig",
                        classmethod(lambda cls, O, kappa: cls.of((O * kappa) @ O.T, kappa.size)))
    dense_records, dense_summary = run_experiment(cfg)
    assert [(r.ensemble, r.seed, r.t) for r in records] == \
        [(r.ensemble, r.seed, r.t) for r in dense_records]
    assert np.allclose([r.mse for r in records], [r.mse for r in dense_records],
                       rtol=1e-12, atol=0)
    for key in ("se_predicted", "sigma_sq", "omega_sq", "condition_number"):
        assert np.allclose(summary[key], dense_summary[key], rtol=1e-12, atol=0), key
    assert 1 < summary["condition_number"] <= cfg.kappa_high / cfg.kappa_low


def test_import_loads_no_scipy():
    """``import amplab`` must load no scipy module. Importing scipy.linalg
    took about 0.33 s on a 2-CPU machine with scipy 1.17, more than the
    whole median set-up time of a benchmark run there (about 0.27 s), so a
    single scipy import in the package would regress every run's set-up."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(amplab.__file__)))
    code = ("import sys, amplab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
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
    with pytest.raises(ParameterError):
        tensor_checks(cfg, ["bcp_diagonal_bound", "no_such_battery"])
