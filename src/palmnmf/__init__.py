"""Non-negative matrix factorization by proximal alternating linearized
minimization, with optional l1 sparsity on W, smoothness on H, and ridge
scale control, plus synthetic recovery benchmarks and a CLI."""

from .benchmark import (
    RecoveryScore,
    RunScore,
    SyntheticSpec,
    VariantResult,
    default_sigma,
    default_variants,
    gen_smooth_rows,
    gen_sparse_matrix,
    generate,
    make_v,
    run_comparison,
    score_recovery,
    variant_label,
)
from .errors import DomainError, NumericError, ParseError, ShapeError
from .fileio import load_matrix, save_matrix
from .linalg import nonneg_project, soft_threshold_nonneg
from .objective import (
    ObjectiveParams,
    difference_operator,
    evaluate,
    grad_h,
    grad_w,
    lipschitz_h,
    lipschitz_w,
)
from .solver import FactorizationResult, SolverConfig, initialize, palm_step, solve

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FactorizationResult",
    "NumericError",
    "ObjectiveParams",
    "ParseError",
    "RecoveryScore",
    "RunScore",
    "ShapeError",
    "SolverConfig",
    "SyntheticSpec",
    "VariantResult",
    "default_sigma",
    "default_variants",
    "difference_operator",
    "evaluate",
    "gen_smooth_rows",
    "gen_sparse_matrix",
    "generate",
    "grad_h",
    "grad_w",
    "initialize",
    "lipschitz_h",
    "lipschitz_w",
    "load_matrix",
    "make_v",
    "nonneg_project",
    "palm_step",
    "run_comparison",
    "save_matrix",
    "score_recovery",
    "soft_threshold_nonneg",
    "solve",
    "variant_label",
]
