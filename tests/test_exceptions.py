"""The three input rules at every entry point that takes their kind of input:
``exceptions.require_count`` for a count or a size, ``require_number`` for a
real-valued parameter, ``require_vector`` for a vector."""

import re

import numpy as np
import pytest

from amplab.amp import (RectAmpProblem, SensingProblem, SymmetricAmpProblem, run_sensing_amp,
                        run_symmetric_amp)
from amplab.denoisers import (
    LocalKernelSpec,
    SpectralSpec,
    identity_denoiser,
    mc_divergence,
    residual_shift_denoiser,
    signal_residual_denoiser,
    soft_threshold_denoiser,
)
from amplab.ensembles import EnsembleSpec, SignalSpec, sample_haar_orthogonal, sample_noise
from amplab.exceptions import (ConfigError, DimensionError, ParameterError, SpecError,
                               require_count, require_length, require_number, require_vector)
from amplab.harness import config_from_dict
from amplab.rng import RngStream
from amplab.state_evolution import (OnsagerSchedule, se_asymmetric, se_scalar_sensing,
                                    se_symmetric)
from amplab.tensor_net import BcpQuery, DenseTensor, OrderedMultigraph, wick_expectation_mc

_SOFT = soft_threshold_denoiser(0.5)
_ID = identity_denoiser()


def _sensing(mc_reps):
    prob = SensingProblem(theta_star=np.ones(2), e=np.zeros(3), eta_seq=[_SOFT] * 2)
    return run_sensing_amp(prob, np.ones((3, 2)), 2, mc_reps=mc_reps)


def _symmetric_problem():
    return SymmetricAmpProblem(W=np.eye(4), u1=np.ones(4), f_seq=[_SOFT] * 2,
                               onsager=OnsagerSchedule(b={2: 0.0, 3: 0.0}))


def _wick(**counts):
    return wick_expectation_mc(DenseTensor.from_array(np.ones((2, 2))), [0, 0],
                               rng=RngStream(0), **{"samples": 4, **counts})


# Each case failed on code that tested counts by hand: a bare TypeError or
# ValueError, a value accepted, or an error that named no field.
@pytest.mark.parametrize("call, name, error", [
    (lambda: _sensing(2.5), "mc_reps", ParameterError),
    (lambda: mc_divergence(np.tanh, np.ones(3), reps=2.5), "reps", ParameterError),
    (lambda: LocalKernelSpec(2.5, 3, 1), "M", DimensionError),
    (lambda: LocalKernelSpec(3, 0, 1), "N", DimensionError),
    (lambda: EnsembleSpec("ginibre_iid", 2.5, 3), "rows", DimensionError),
    (lambda: EnsembleSpec("ginibre_iid", 3, True), "cols", DimensionError),
    (lambda: sample_haar_orthogonal(2.5, RngStream(0)), "dim", DimensionError),
    (lambda: require_length([_SOFT] * 3, 2.5), "T", ParameterError),
    # T - 1 was taken before the T check: a bare TypeError
    pytest.param(lambda: se_symmetric([_SOFT] * 2, np.ones(4), "3"), "T", ParameterError,
                 id="se_symmetric-T-str"),
    pytest.param(lambda: se_symmetric([_SOFT] * 2, np.ones(4), None), "T", ParameterError,
                 id="se_symmetric-T-None"),
    pytest.param(lambda: run_symmetric_amp(_symmetric_problem(), "3"), "T", ParameterError,
                 id="run_symmetric_amp-T-str"),
    pytest.param(lambda: run_symmetric_amp(_symmetric_problem(), None), "T", ParameterError,
                 id="run_symmetric_amp-T-None"),
    (lambda: se_symmetric([_SOFT], np.ones(4), 2, mc_samples=2.5), "mc_samples",
     ParameterError),
    (lambda: se_asymmetric([_ID] * 2, [_ID], np.ones(4), 2, 3, mc_samples=2.5), "mc_samples",
     ParameterError),
    (lambda: se_asymmetric([_ID] * 2, [_ID] * 2, np.ones(4), 2, 2.5, mc_samples=2), "m",
     DimensionError),
    (lambda: se_scalar_sensing(SensingProblem(np.ones(4), np.ones(3), [_SOFT] * 2), 2,
                               mc_draws=2.5), "mc_draws", ParameterError),
    (lambda: DenseTensor.alternating(True, 2, 3), "order", DimensionError),
    (lambda: DenseTensor.alternating(2, True, 3), "M", DimensionError),
    (lambda: DenseTensor.alternating(2, 2, np.float64(3)), "N", DimensionError),
    (lambda: DenseTensor.diagonal(np.ones(3), 0), "order", DimensionError),
    (lambda: _wick(samples=2.5), "samples", ParameterError),
    (lambda: _wick(chunk=2.5), "chunk", ParameterError),
    (lambda: SpectralSpec(0, 5, 0.5), "M", DimensionError),
    (lambda: SpectralSpec(5, 2.5, 0.5), "N", DimensionError),
    (lambda: SignalSpec("sparse", dims=-3), "dims", DimensionError),
    (lambda: SignalSpec("sparse", dims=0), "dims", DimensionError),
    (lambda: sample_noise(-1, 1.0, RngStream(0)), "m", DimensionError),
    (lambda: SignalSpec("low_rank", dims=36, M=2.5, N=14.4), "M", DimensionError),
    (lambda: SignalSpec("smooth_image", dims=4, M=4, N=True), "N", DimensionError),
    (lambda: BcpQuery(orders=[2.5, 1.5], ell=2, pi=[0, 1, 0, 1]), "orders[0]", DimensionError),
    (lambda: BcpQuery(orders=[1, 1], ell=True, pi=[0, 0]), "ell", DimensionError),
    (lambda: OrderedMultigraph(2.5, [(0, 1)]), "num_vertices", DimensionError),
])
def test_every_count_and_size_is_refused_by_the_one_rule_naming_its_field(call, name, error):
    with pytest.raises(error, match=rf"^{re.escape(name)} must be an integer >= 1, got "):
        call()


def test_require_count_takes_integers_of_either_kind_and_returns_an_int():
    for value in (3, np.int64(3)):
        got = require_count(value, "k", ParameterError)
        assert got == 3 and type(got) is int
    for value in (0, -1, True, 2.0, "3", None):
        with pytest.raises(ParameterError, match="k must be an integer >= 1"):
            require_count(value, "k", ParameterError)


# A value of the wrong kind: a string, None and a bool are no real number,
# and NaN lies in no range.
_NO_NUMBERS = ["0.5", None, True, float("nan")]
# entry point -> (call on the value, name, error, range, values out of range)
_NUMBER_PARAMETERS = {
    "soft_threshold_denoiser": (soft_threshold_denoiser, "threshold", ParameterError,
                                "[0, inf]", [-0.5, -np.inf]),
    "SpectralSpec": (lambda v: SpectralSpec(3, 3, v), "threshold", ParameterError,
                     "[0, inf]", [-0.5]),
    "sample_noise": (lambda v: sample_noise(3, v, RngStream(0)), "std", ParameterError,
                     "[0, inf)", [-1.0, np.inf]),
    "SignalSpec": (lambda v: SignalSpec("sparse", dims=3, density=v), "density", SpecError,
                   "[0, 1]", [-0.1, 1.5]),
}


def _number_cases():
    for entry, (call, name, error, span, out_of_range) in _NUMBER_PARAMETERS.items():
        for value in _NO_NUMBERS + out_of_range:
            yield pytest.param(call, error, f"{name} must be a number in {span}, got {value!r}",
                               value, id=f"{entry}-{value!r}")


# Each case failed on code that tested these numbers by hand: "0.5" and None
# died with a bare TypeError, True passed as 1.0, and the wording differed
# from one parameter to the next.
@pytest.mark.parametrize("call, error, message, value", _number_cases())
def test_every_real_parameter_is_refused_by_the_one_rule_naming_it(call, error, message,
                                                                   value):
    with pytest.raises(error, match=rf"^{re.escape(message)}$"):
        call(value)


_CONFIG = {"experiment": "fig2_spectral", "seeds": [1], "M": 4, "N": 4, "n": 16, "m": 8}
# config field -> (the rule's words for it, a value out of range)
_CONFIG_FIELDS = {
    **{name: ("an integer >= 1", 0) for name in
       ("iterations", "n", "m", "M", "N", "se_draws", "mc_reps")},
    "threshold": ("a number in [0, inf)", -0.1),
    "signal_density": ("a number in [0, 1]", 1.5),
    "kappa_low": ("a number in (-inf, inf)", np.inf),
    "kappa_high": ("a number in (-inf, inf)", -np.inf),
    "noise_std": ("a number in [0, inf)", -1.0),
}


@pytest.mark.parametrize("value", _NO_NUMBERS + ["out-of-range"])
@pytest.mark.parametrize("field", _CONFIG_FIELDS)
def test_every_config_count_and_number_is_refused_by_the_library_rule(field, value):
    words, out_of_range = _CONFIG_FIELDS[field]
    value = out_of_range if value == "out-of-range" else value
    with pytest.raises(ConfigError) as info:
        config_from_dict({**_CONFIG, field: value})
    assert info.value.field == field
    assert str(info.value) == f"{field}: must be {words}, got {value!r}"


def test_require_number_returns_a_float_and_keeps_an_infinite_bound():
    for value in (0.5, np.float64(0.5), np.float32(0.5), 1, np.int64(1)):
        got = require_number(value, "x", ParameterError, 0, 1)
        assert got == float(value) and type(got) is float
    assert require_number(np.inf, "x", ParameterError, 0, np.inf) == np.inf
    assert require_number(-1e308, "x", ParameterError) == -1e308
    for value, low, high in ((np.inf, 0, None), (-np.inf, None, None), (np.bool_(True), 0, 1)):
        with pytest.raises(ParameterError, match="^x must be a number in "):
            require_number(value, "x", ParameterError, low, high)


_BAD_VECTORS = {"matrix": np.ones((3, 2)), "scalar": np.float64(0.5), "empty": np.zeros(0)}
_NO_SCHEDULE = OnsagerSchedule()


# On code that checked vectors by hand, the denoiser methods took an empty z
# and named no field, mc_divergence died on a matrix x in numpy, and a scalar
# e gave residual_shift_denoiser(e).divergence(z) = 1 for any length of z.
@pytest.mark.parametrize("bad", _BAD_VECTORS.values(), ids=_BAD_VECTORS.keys())
@pytest.mark.parametrize("call, name", [
    (lambda x: _SOFT.apply(x), "z"),
    (lambda x: _SOFT.divergence(x), "z"),
    (lambda x: _SOFT.divergence_mc(x, reps=2), "z"),
    (lambda x: mc_divergence(np.tanh, x, reps=2), "x"),
    (lambda x: residual_shift_denoiser(x), "e"),
    (lambda x: signal_residual_denoiser(x, _SOFT), "theta_star"),
    (lambda x: se_symmetric([_SOFT], x, 2, mc_samples=2), "u1"),
    (lambda x: se_asymmetric([_ID] * 2, [_ID] * 2, x, 2, 3, mc_samples=2), "u1"),
    (lambda x: se_scalar_sensing(SensingProblem(x, np.ones(3), [_SOFT]), 1, mc_draws=2),
     "theta_star"),
    (lambda x: se_scalar_sensing(SensingProblem(np.ones(4), x, [_SOFT]), 1, mc_draws=2), "e"),
    (lambda x: SymmetricAmpProblem(W=np.eye(4), u1=x, f_seq=[], onsager=_NO_SCHEDULE), "u1"),
    (lambda x: RectAmpProblem(W=np.ones((3, 4)), u1=x, f_seq=[], g_seq=[],
                              onsager=_NO_SCHEDULE), "u1"),
    (lambda x: SensingProblem(theta_star=x, e=np.ones(3), eta_seq=[]), "theta_star"),
    (lambda x: SensingProblem(theta_star=np.ones(4), e=x, eta_seq=[]), "e"),
], ids=["apply", "divergence", "divergence_mc", "mc_divergence", "residual_shift",
        "signal_residual", "se_symmetric", "se_asymmetric", "se_scalar_theta", "se_scalar_e",
        "symmetric_amp", "rect_amp", "sensing_theta", "sensing_e"])
def test_every_vector_is_refused_by_the_one_rule_naming_its_field(call, name, bad):
    message = f"{name} must be a non-empty vector, got shape {np.shape(bad)}"
    with pytest.raises(DimensionError, match=rf"^{re.escape(message)}$"):
        call(bad)


# On code that broadcast a declared vector, a length-1 e or theta_star took an
# input of any length (residual_shift_denoiser([0.5]).divergence(z) = 1 for a
# 5-vector z) and a longer mismatch died with a bare numpy ValueError.
@pytest.mark.parametrize("call, length, shape", [
    (lambda: residual_shift_denoiser(np.array([0.5])).apply(np.zeros(5)), 1, (5,)),
    (lambda: residual_shift_denoiser(np.array([0.5])).divergence(np.zeros(5)), 1, (5,)),
    (lambda: residual_shift_denoiser(np.ones(3)).apply(np.zeros(5)), 3, (5,)),
    (lambda: residual_shift_denoiser(np.ones(3)).fn(np.zeros((2, 5))), 3, (2, 5)),
    (lambda: signal_residual_denoiser(np.array([1.0]), _SOFT).apply(np.zeros(4)), 1, (4,)),
    (lambda: signal_residual_denoiser(np.array([1.0]), _SOFT).divergence(np.zeros(4)), 1,
     (4,)),
    (lambda: signal_residual_denoiser(np.ones(3), _SOFT).fn(np.zeros((2, 5))), 3, (2, 5)),
], ids=["shift-short", "shift-divergence", "shift-long", "shift-stack", "residual-short",
        "residual-divergence", "residual-stack"])
def test_a_declared_vector_refuses_an_input_of_another_length(call, length, shape):
    message = f"z must have length {length} along its last axis, got shape {shape}"
    with pytest.raises(DimensionError, match=rf"^{re.escape(message)}$"):
        call()


def test_require_vector_returns_a_float64_vector():
    got = require_vector([1, 2, 3], "v")
    assert got.dtype == np.float64 and np.array_equal(got, [1.0, 2.0, 3.0])
    x = np.arange(3.0)
    got = require_vector(x, "v")
    assert got is not x and not got.flags.writeable
    x[0] = 7.0
    assert np.array_equal(got, [0.0, 1.0, 2.0])
