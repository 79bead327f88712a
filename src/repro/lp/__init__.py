"""Linear-programming substrate.

Provides the LP description (:class:`LinearProgram`), the one solver
(HiGHS through SciPy's bundled binding), the Section 1.3 max-min
reduction, a bisection solver based on feasibility subproblems and the
batched solving layer (:mod:`repro.lp.batch`): block-diagonal stacks
solved in one HiGHS call, and the per-LP reference strategy the stacked
path is validated against.
"""

from .backends import (
    DEFAULT_BACKEND,
    count_highs_calls,
    solve_lp,
)
from .batch import (
    BATCH_STRATEGIES,
    BatchSolveStats,
    solve_lp_batch,
    split_stacked_solution,
    stack_block_diagonal,
)
from .maxmin import (
    CompiledMaxMin,
    MaxMinSolveResult,
    maxmin_to_lp,
    solve_max_min,
    solve_max_min_batch,
    solve_max_min_bisection,
)
from .standard import LinearProgram, LPResult, LPStatus
from .verify import (
    DEFAULT_TOL,
    SolutionCertificate,
    verify_engine_payload,
    verify_lp_solution,
    verify_safe_ratio,
    verify_solution,
)

__all__ = [
    "LinearProgram",
    "LPResult",
    "LPStatus",
    "solve_lp",
    "count_highs_calls",
    "DEFAULT_BACKEND",
    "BATCH_STRATEGIES",
    "BatchSolveStats",
    "solve_lp_batch",
    "stack_block_diagonal",
    "split_stacked_solution",
    "CompiledMaxMin",
    "MaxMinSolveResult",
    "maxmin_to_lp",
    "solve_max_min",
    "solve_max_min_batch",
    "solve_max_min_bisection",
    "DEFAULT_TOL",
    "SolutionCertificate",
    "verify_engine_payload",
    "verify_lp_solution",
    "verify_safe_ratio",
    "verify_solution",
]
