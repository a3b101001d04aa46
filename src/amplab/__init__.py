"""amplab: a simulation and verification lab for non-separable AMP.

Subpackages: ensembles (seeded matrix/signal generation), denoisers
(non-linearity families with divergences), amp (the symmetric, asymmetric
and sensing recursions), state evolution (Gaussian surrogate covariances and
Onsager schedules), gaussian (the normal distribution functions its closed
forms are written in), tensor_net (tensor-network values, Wick oracle,
composition-ratio checks) and harness (config-driven experiments and check
batteries). Every name exported here is reached by the harness, the CLI or a
benchmark workload.
"""

from .amp import (
    RectAmpProblem,
    SensingProblem,
    SymmetricAmpProblem,
    run_asymmetric_amp,
    run_sensing_amp,
    run_symmetric_amp,
)
from .denoisers import (
    Denoiser,
    LocalKernelSpec,
    SpectralSpec,
    local_average_denoiser,
    soft_threshold_denoiser,
    svt_denoiser,
)
from .ensembles import (
    EnsembleSpec,
    SignalSpec,
    sample_ginibre,
    sample_haar_orthogonal,
    sample_signal,
    sample_wigner,
)
from .harness import (
    ExperimentConfig,
    run_experiment,
    se_summary,
    tensor_checks,
    universality_compare,
)
from .rng import RngStream
from .state_evolution import (
    Coloring,
    OnsagerSchedule,
    SECovarianceSequence,
    se_asymmetric,
    se_scalar_sensing,
    se_symmetric,
)

__version__ = "0.1.0"
