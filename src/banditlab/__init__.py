"""banditlab: contextual-bandit adaptive experiments with valid post-hoc inference.

Simulate data collection under a zoo of bandit policies in (possibly
misspecified) environments, then infer target parameters with
inverse-probability-weighted Z-estimation and sandwich confidence intervals.
"""

__version__ = "0.1.0"

from .env import (
    EnvironmentSpec,
    OracleResult,
    build_environment,
    oracle_target,
    sample_rounds,
)
from .estimator import (
    AuxiliaryData,
    BanditLog,
    NoDataForArm,
    ScoreTarget,
    SingularDesign,
    TargetPolicy,
    ipwz_solve,
    ipwz_solve_estimated_sigma,
    read_log_csv,
    score_g,
    write_log_csv,
)
from .harness import (
    ExperimentConfig,
    ReplicationSummary,
    cadr_ope,
    convergence_diagnostic,
    qq_points,
    replicate,
    run_trajectory,
)
from .inference import (
    EstimateReport,
    OPEReport,
    confidence_intervals,
    estimate_report,
    norm_ppf,
    ope_value,
    sandwich_variance,
    variance_estimated_sigma,
)
from .policy import (
    PolicyConfig,
    PolicyState,
    Transition,
    action_distribution,
    boltzmann_distribution,
    clip_simplex,
    init_state,
    linucb_distribution,
    mab_distribution,
    ts_optimal_prob,
    update_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
