"""Linear-programming substrate.

Provides the one solver (HiGHS through SciPy's bundled binding, fed a
row-wise model) and the Section 1.3 max-min reduction -- the one max-min
solver -- built straight from :class:`CompiledMaxMin` buffers by the
engine's batched path (:func:`~repro.lp.maxmin.solve_maxmin_buffer_batch`),
whose two strategies and counters live in :mod:`repro.lp.batch`.
:func:`solve_max_min` is that path's one-unit case.
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
    solve_max_min,
)
from .standard import LPResult, LPStatus
from .verify import (
    DEFAULT_TOL,
    SolutionCertificate,
    verify_engine_payload,
    verify_safe_ratio,
    verify_solution,
)

__all__ = [
    "LPResult",
    "LPStatus",
    "solve_lp",
    "count_highs_calls",
    "DEFAULT_BACKEND",
    "BATCH_STRATEGIES",
    "BatchSolveStats",
    "CompiledMaxMin",
    "MaxMinSolveResult",
    "solve_max_min",
    "DEFAULT_TOL",
    "SolutionCertificate",
    "verify_engine_payload",
    "verify_safe_ratio",
    "verify_solution",
]
