"""The one count rule, ``exceptions.require_count``, at every entry point
that takes a count or a size."""

import numpy as np
import pytest

from amplab.amp import SensingProblem, run_sensing_amp
from amplab.denoisers import (
    LocalKernelSpec,
    SpectralSpec,
    identity_denoiser,
    mc_divergence,
    soft_threshold_denoiser,
)
from amplab.ensembles import EnsembleSpec, SignalSpec, sample_haar_orthogonal, sample_noise
from amplab.exceptions import DimensionError, ParameterError, require_count
from amplab.rng import RngStream
from amplab.state_evolution import require_length, se_asymmetric, se_scalar_sensing, se_symmetric
from amplab.tensor_net import DenseTensor, wick_expectation_mc

_SOFT = soft_threshold_denoiser(0.5)
_ID = identity_denoiser()


def _sensing(mc_reps):
    prob = SensingProblem(W=np.ones((3, 2)), theta_star=np.ones(2), e=np.zeros(3),
                          eta_seq=[_SOFT] * 2)
    return run_sensing_amp(prob, 2, mc_reps=mc_reps)


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
    (lambda: require_length([_SOFT] * 3, 1, 2.5), "T", ParameterError),
    (lambda: se_symmetric([_SOFT], np.ones(4), 2, mc_samples=2.5), "mc_samples",
     ParameterError),
    (lambda: se_asymmetric([_ID] * 2, [_ID], np.ones(4), 2, 3, mc_samples=2.5), "mc_samples",
     ParameterError),
    (lambda: se_asymmetric([_ID] * 2, [_ID], np.ones(4), 2, 2.5, mc_samples=2), "m",
     DimensionError),
    (lambda: se_scalar_sensing(np.ones(4), np.ones(3), [_SOFT] * 2, 2, mc_draws=2.5),
     "mc_draws", ParameterError),
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
])
def test_every_count_and_size_is_refused_by_the_one_rule_naming_its_field(call, name, error):
    with pytest.raises(error, match=rf"^{name} must be an integer >= 1, got "):
        call()


def test_require_count_takes_integers_of_either_kind_and_returns_an_int():
    for value in (3, np.int64(3)):
        got = require_count(value, "k", ParameterError)
        assert got == 3 and type(got) is int
    for value in (0, -1, True, 2.0, "3", None):
        with pytest.raises(ParameterError, match="k must be an integer >= 1"):
            require_count(value, "k", ParameterError)
