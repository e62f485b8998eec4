"""Adaptive accelerated primal-dual solvers for sparse problems with
strongly convex functional constraints.

The pieces: block-norm problems and their derived constants (``problem``),
proximal and projection operators (``prox``), the strong-convexity
estimator (``estimator``), the solver family (``solvers``), sparse
personalized-PageRank instances (``pagerank``), and the experiment driver
(``bench``).
"""

from .problem import (
    BlockNormObjective,
    ConstrainedProblem,
    KktResidual,
    ProblemConstants,
    derive_constants,
    dual_radius_bound,
    eval_lagrangian,
    feasible_ball,
    jacobian_operator_norm,
    kkt_residual,
)
from .prox import (
    DualSlab,
    InfeasibleCutError,
    block_soft_threshold,
    project_dual_set,
    prox_f_over_ball,
)
from .estimator import (
    RhoEstimate,
    h1,
    h2,
    rho_hat_recursion,
    rho_hat_update,
)
from .solvers import (
    IterateRecord,
    RunResult,
    SolverConfig,
    SolverState,
    active_set_accuracy,
    apd_baseline,
    apdpro,
    compute_metrics,
    default_step_sizes,
    msapd,
    rapdpro,
    resolve_metric_iterate,
    stepsize_update,
)
from .pagerank import (
    Graph,
    PprInstance,
    build_ppr_problem,
    load_graph,
    make_synthetic_instance,
    spectral_bounds,
)
from .bench import (
    ExperimentConfig,
    InstanceSpec,
    build_instance,
    load_experiment_config,
    reference_solution,
    run_comparison,
    run_experiment,
    write_csv,
)
from .linalg import NumericalError, cg_solve, power_iteration

__version__ = "0.1.0"

__all__ = [
    "BlockNormObjective",
    "ConstrainedProblem",
    "KktResidual",
    "ProblemConstants",
    "derive_constants",
    "dual_radius_bound",
    "eval_lagrangian",
    "feasible_ball",
    "jacobian_operator_norm",
    "kkt_residual",
    "DualSlab",
    "InfeasibleCutError",
    "block_soft_threshold",
    "project_dual_set",
    "prox_f_over_ball",
    "RhoEstimate",
    "h1",
    "h2",
    "rho_hat_recursion",
    "rho_hat_update",
    "IterateRecord",
    "RunResult",
    "SolverConfig",
    "SolverState",
    "apd_baseline",
    "apdpro",
    "default_step_sizes",
    "msapd",
    "rapdpro",
    "resolve_metric_iterate",
    "stepsize_update",
    "Graph",
    "PprInstance",
    "build_ppr_problem",
    "load_graph",
    "make_synthetic_instance",
    "spectral_bounds",
    "ExperimentConfig",
    "InstanceSpec",
    "active_set_accuracy",
    "build_instance",
    "compute_metrics",
    "load_experiment_config",
    "reference_solution",
    "run_comparison",
    "run_experiment",
    "write_csv",
    "NumericalError",
    "cg_solve",
    "power_iteration",
    "__version__",
]
