"""Tests of the benchmark's tracer and its metric list.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import json
import logging
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import amplab  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _bindings():
    """Every (owner, attribute) the tracer may replace, with its value now."""
    out = {}
    holders = [m for k, m in sys.modules.items() if k == "amplab" or k.startswith("amplab.")]
    for module_name, attr in tracing.FUNCTIONS:
        home = importlib.import_module(module_name)
        original = vars(home)[attr]
        out[(module_name, attr)] = original
        for mod in holders:
            for key, value in vars(mod).items():
                if value is original:
                    out[(mod.__name__, key)] = value
    for module_name, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        out[(cls.__qualname__, attr)] = vars(cls)[attr]
    return out


def _tiny_run():
    """A spectral experiment and a symmetric SE solve small enough for a unit
    test; the SE covariance collapses, so the Cholesky jitter path runs."""
    cfg = amplab.ExperimentConfig(experiment="fig2_spectral", seeds=[1, 2],
                                  ensembles=["gaussian"], M=4, N=4, n=16, m=12,
                                  iterations=3, threshold=0.5, mc_reps=3, se_draws=2)
    amplab.run_experiment(cfg)
    amplab.se_symmetric([amplab.soft_threshold_denoiser(0.5)] * 5, np.ones(40), 6,
                        mc_samples=4, rng=amplab.RngStream(3))


def test_restore_puts_back_every_original():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.tracing():
        patched = _bindings()
        _tiny_run()
    assert _bindings() == before
    # inside the block every binding was a wrapper, including the alias harness
    # imported from amp and the methods patched on Denoiser
    assert all(patched[key] is not before[key] for key in before)
    assert amplab.harness.run_sensing_amp is before[("amplab.amp", "run_sensing_amp")]


def test_restore_after_failing_run():
    before = _bindings()
    with pytest.raises(amplab.exceptions.ParameterError):
        with tracing.Tracer().tracing():
            amplab.soft_threshold_denoiser(-1.0).apply(np.ones(3))
    assert _bindings() == before


def test_self_times_add_up_to_traced_wall():
    tracer = tracing.Tracer()
    with tracing.counting_logs() as logs, tracer.tracing():
        _tiny_run()
    metrics = tracer.metrics(logs.counts)
    self_times = [s.self_s for s in tracer.stats.values()]
    assert all(t >= 0.0 for t in self_times)
    assert metrics["trace.unattributed_s"] >= 0.0
    assert sum(self_times) + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9, abs=1e-12)
    shares = [metrics[f"{name}.self_frac"] for name in tracing.SPAN_NAMES]
    assert sum(shares) + metrics["trace.unattributed_s"] / metrics["trace.wall_s"] == \
        pytest.approx(1.0, rel=1e-9)
    # calls reached through the harness's own imports are counted
    assert metrics["amp.run_sensing_amp.calls"] == 2
    assert metrics["harness.run_experiment.calls"] == 1
    assert metrics["numpy.linalg.svd.calls"] > 0
    assert metrics["denoisers.analytic_div_frac"] == pytest.approx(
        metrics["denoisers.divergence.calls"]
        / (metrics["denoisers.divergence.calls"] + metrics["denoisers.divergence_mc.calls"]))
    # every jitter retry follows one failed Cholesky and logs one warning
    assert metrics["numpy.linalg.cholesky.failed"] > 0
    assert metrics["state_evolution.log_records"] == metrics["numpy.linalg.cholesky.failed"]


def test_counting_logs_silences_and_restores(capsys):
    logger = logging.getLogger("amplab")
    handlers, propagate = list(logger.handlers), logger.propagate
    with tracing.counting_logs() as logs:
        logging.getLogger("amplab.state_evolution").warning("jitter")
    assert logs.counts == {"amplab.state_evolution": 1}
    assert capsys.readouterr().err == ""
    assert logger.handlers == handlers and logger.propagate == propagate


def test_benchmark_json_lists_what_the_command_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
