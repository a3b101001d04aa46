"""amplab: a simulation and verification lab for non-separable AMP.

Subpackages: ensembles (seeded matrix/signal generation), denoisers
(non-linearity families with divergences), amp (the recursions), state
evolution (Gaussian surrogate covariances and Onsager schedules), tensor_net
(tensor-network values, Wick oracle, composition-ratio checks) and harness
(config-driven experiments and check batteries).
"""

from .amp import (
    RectAmpProblem,
    SensingProblem,
    SymmetricAmpProblem,
    change_of_variables_check,
    embed_symmetric,
    run_asymmetric_amp,
    run_sensing_amp,
    run_symmetric_amp,
)
from .denoisers import (
    AnisoSpec,
    Denoiser,
    LocalKernelSpec,
    SpectralSpec,
    lipschitz_monotone_approx,
    local_average_denoiser,
    soft_threshold_denoiser,
    svt_denoiser,
)
from .ensembles import (
    EnsembleSpec,
    SignalSpec,
    moment_check,
    sample_ginibre,
    sample_haar_orthogonal,
    sample_signal,
    sample_wigner,
)
from .harness import ExperimentConfig, run_experiment, tensor_checks, universality_compare
from .rng import RngStream
from .state_evolution import (
    Coloring,
    OnsagerSchedule,
    SECovarianceSequence,
    estimate_onsager_from_data,
    se_asymmetric,
    se_scalar_sensing,
    se_symmetric,
    test_function_gap,
)

__version__ = "0.1.0"
