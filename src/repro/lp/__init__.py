"""Linear-programming substrate.

Provides the LP description (:class:`LinearProgram`), the one solver
(HiGHS through SciPy's bundled binding) and the Section 1.3 max-min
reduction -- the one max-min solver -- both as a readable
:class:`LinearProgram` (:func:`maxmin_to_lp`, :func:`solve_max_min`) and
as the engine's batched buffer path
(:func:`~repro.lp.maxmin.solve_maxmin_buffer_batch`), whose two
strategies and counters live in :mod:`repro.lp.batch`.
"""

from .backends import (
    DEFAULT_BACKEND,
    count_highs_calls,
    solve_lp,
)
from .batch import (
    BATCH_STRATEGIES,
    BatchSolveStats,
)
from .maxmin import (
    CompiledMaxMin,
    MaxMinSolveResult,
    maxmin_to_lp,
    solve_max_min,
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
    "CompiledMaxMin",
    "MaxMinSolveResult",
    "maxmin_to_lp",
    "solve_max_min",
    "DEFAULT_TOL",
    "SolutionCertificate",
    "verify_engine_payload",
    "verify_lp_solution",
    "verify_safe_ratio",
    "verify_solution",
]
