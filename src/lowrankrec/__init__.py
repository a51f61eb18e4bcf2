"""Non-convex low-rank recovery: phase retrieval, phase synchronization and
factorized unit-diagonal SDPs, with benchmark harnesses."""

from .errors import (
    FDInconsistent,
    InvalidDimension,
    LowRankRecError,
    MissingGroundTruth,
    NonConvergence,
    NumericFailure,
    RankDeficient,
)
from .numerics import (
    RngStream,
    dominant_eigenvector,
    hermitian_eigen,
    hermitize,
    least_squares,
    sample_gaussian,
)
from .problems import (
    PhaseRetrievalInstance,
    SolveReport,
    SyncInstance,
    dist_mod_phase,
    gen_phase_retrieval,
    gen_sync,
    load_instance,
    rel_error_mod_phase,
    save_instance,
    success,
)
from .phase_retrieval import (
    alternating_projections,
    project_modulus,
    wf_grad,
    wf_loss,
    wf_spectral_init,
    wirtinger_flow,
)
from .landscape import (
    CriticalClass,
    basin_map,
    classify_critical,
    curvature_probe,
    displacement_probe,
    expected_grad,
    expected_hess_form,
    expected_loss,
)
from .phase_sync import (
    LeaveOneOutDiagnostics,
    fixed_point_residual,
    gpm,
    loo_run,
    mle_objective,
    torus_project,
)
from .burer_monteiro import (
    SOSPCertificate,
    UnitDiagSDP,
    dual_certificate,
    phasecut_cost,
    reference_sdp_solve,
    retract,
    riemannian_gd,
    riemannian_grad,
    round_factor,
    sosp_probe,
    sync_cost,
)
from .harness import ExperimentConfig, run_basin, run_fig1, run_fig3, run_fig5, run_sync

__all__ = [n for n in dir() if not n.startswith("_")]
