"""Rank-one approximation of randomly punctured spiked tensors, the spectral
analysis of the associated block matrix, and the matching limiting theory."""

from .tensor_core import (
    MaskTensor,
    RngSeed,
    Shape3,
    SignalTriple,
    Tensor3,
    TrialDraw,
    contract_full,
    contract_one,
    draw_trial,
    generate_spiked,
    hadamard,
    puncture,
    sample_mask,
)
from .rank_one import (
    ConvergenceError,
    CriticalPoint,
    DegeneratePointError,
    SolverConfig,
    alignments,
    first_order_residual,
    scan_restarts,
    solve_critical_point,
)
from .phi_spectrum import (
    ESDHistogram,
    PhiMatrix,
    SingularResolventError,
    SpectrumResult,
    StructuralReport,
    build_phi,
    build_phi0_streamed,
    check_structural_eigenpairs,
    eigen_spectrum,
    esd_histogram,
    predict_factor_derivative,
    resolvent_solve,
    spike_decomposition_residual,
)
from .rmt_theory import (
    ModelParams,
    SpikePrediction,
    StieltjesSolution,
    beta_threshold,
    beta_threshold_cubic,
    epsilon_threshold,
    limiting_density,
    real_branch_stieltjes,
    solve_spike,
    solve_stieltjes,
    support_edge,
    threshold_alignment_cubic,
    universality_map,
)

__version__ = "0.1.0"
