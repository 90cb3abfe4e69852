"""Permutationally invariant multi-qubit state tomography."""

from .design import (
    BlochIndex,
    DesignProblem,
    OptimizationResult,
    RankDeficientSettings,
    determined_setting_count,
    optimize_settings,
    random_settings,
    total_error,
)
from .povm import (
    MeasurementBlockSet,
    Setting,
    load_settings,
    probabilities,
    rotated_blocks,
    save_settings,
)
from .pretest import (
    PretestWitness,
    StatisticalBound,
    fidelity_bound,
    load_witness,
    optimize_witness,
    save_witness,
    statistical_bound,
    witness_expectation,
)
from .reconstruct import (
    FitSpec,
    NonConvergenceError,
    Parametrization,
    ReconstructionResult,
    SolverConfig,
    fixed_point_reconstruct,
    likelihood_residual,
    reconstruct,
)
from .sim import (
    Dataset,
    DatasetRecord,
    collective_y_rotation,
    dicke_mixture_state,
    exact_dataset,
    load_dataset,
    random_pi_state,
    sample_dataset,
    save_dataset,
)
from .spin_blocks import (
    SpinEnsemble,
    SpinOperators,
    SpinSectorLayout,
    compress_full,
    dicke_ensemble,
    expand_full,
    ghz_ensemble,
    hermitian_expm,
    maximally_mixed_ensemble,
    sector_layout,
    spin_operators,
    trace_distance,
)

__version__ = "0.1.0"
