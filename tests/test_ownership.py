"""Every checked value owns what it checked: a constructor that keeps an array
keeps a read-only float64 copy (``exceptions.require_vector``, or the same
step for a matrix or tensor), and a checked value's fields cannot be
reassigned past its checks."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from amplab.amp import RectAmpProblem, SensingProblem, SymmetricAmpProblem
from amplab.denoisers import (SpectralSpec, residual_shift_denoiser, signal_residual_denoiser,
                              soft_threshold_denoiser)
from amplab.harness import ExperimentConfig
from amplab.rng import RngStream
from amplab.state_evolution import Coloring, OnsagerSchedule, SignedDCT
from amplab.tensor_net import BcpQuery, DenseTensor, OrderedMultigraph

_SOFT = soft_threshold_denoiser(0.5)
_NO_SCHEDULE = OnsagerSchedule()


# The two denoiser builders and DenseTensor once kept the caller's array, so a
# later write changed a declared offset or residual, or a frozen tensor.
@pytest.mark.parametrize("base, build, stored", [
    (np.arange(1.0, 5.0), lambda a: SensingProblem(a, np.zeros(3), [_SOFT]),
     lambda p: p.theta_star),
    (np.arange(1.0, 4.0), lambda a: SensingProblem(np.zeros(4), a, [_SOFT]), lambda p: p.e),
    (np.arange(1.0, 5.0), lambda a: SymmetricAmpProblem(W=np.eye(4), u1=a, f_seq=[],
                                                         onsager=_NO_SCHEDULE),
     lambda p: p.u1),
    (np.arange(1.0, 5.0), lambda a: RectAmpProblem(W=np.ones((3, 4)), u1=a, f_seq=[],
                                                    g_seq=[], onsager=_NO_SCHEDULE),
     lambda p: p.u1),
    (np.arange(1.0, 4.0), residual_shift_denoiser, lambda d: d.offset),
    (np.arange(1.0, 4.0), lambda a: signal_residual_denoiser(a, _SOFT),
     lambda d: d.residual[0]),
    (np.arange(1.0, 5.0), lambda a: Coloring(SignedDCT.draw(4, RngStream(3)), a),
     lambda c: c.kappa),
    (np.arange(1.0, 7.0).reshape(2, 3), lambda a: SpectralSpec(2, 3, 0.5, shift=a),
     lambda spec: spec.shift),
    (np.arange(1.0, 5.0).reshape(2, 2), DenseTensor.from_array, lambda t: t.values),
], ids=["sensing_theta", "sensing_e", "symmetric_u1", "rect_u1", "residual_shift_offset",
        "signal_residual_residual", "coloring_kappa", "spectral_shift", "dense_values"])
def test_every_kept_array_is_a_read_only_copy(base, build, stored):
    caller = base.copy()
    built = build(caller)
    caller[...] = 5.0
    assert np.array_equal(stored(built), base)
    assert not stored(built).flags.writeable


def test_a_denoiser_maps_with_the_vectors_it_was_built_with():
    # the offset, apply and divergence of a shift once all read a later
    # e[0] = 5, while an SE side built earlier kept its own stacked copy
    e, theta = np.array([1.0, -1.0, 0.5]), np.array([2.0, 0.0, -3.0])
    shift, residual = residual_shift_denoiser(e), signal_residual_denoiser(theta, _SOFT)
    e[0] = theta[0] = 5.0
    z = np.zeros(3)
    assert np.array_equal(shift.apply(z), [1.0, -1.0, 0.5])
    assert np.array_equal(residual.apply(z), [0.5, 0.0, -0.5])


@pytest.mark.parametrize("build, field, value", [
    (lambda: ExperimentConfig("tensor_checks"), "n", -1),
    (lambda: OrderedMultigraph(2, [(0, 1)]), "edges", [(0, 0)]),
    (lambda: BcpQuery([1, 1], 1, [0, 0]), "pi", [5, 5]),
], ids=["config", "graph", "bcp_query"])
def test_a_checked_value_refuses_a_field_assigned_after_its_checks(build, field, value):
    with pytest.raises(FrozenInstanceError):
        setattr(build(), field, value)
