"""A small, backend-agnostic linear-program description.

The paper reduces the max-min LP to an ordinary linear program (Section 1.3)
and the local averaging algorithm of Section 5 solves one small LP per agent.
This module defines the :class:`LinearProgram` container those reductions
produce and the :class:`LPResult` returned by the HiGHS solver in
:mod:`repro.lp.backends`.

The convention is *minimisation*:

.. math::

    \\min c^T x \\;\\text{ s.t. }\\; A_{ub} x \\le b_{ub},\\;
    A_{eq} x = b_{eq},\\; l \\le x \\le u.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["LPStatus", "LPResult", "LinearProgram"]


class LPStatus(enum.Enum):
    """Termination status of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(frozen=True)
class LPResult:
    """The outcome of solving a :class:`LinearProgram`.

    Attributes
    ----------
    status:
        Termination status.
    x:
        Optimal variable vector (only meaningful when ``status`` is
        :attr:`LPStatus.OPTIMAL`).
    objective:
        Optimal objective value ``c^T x``.
    backend:
        Name of the backend that produced the result.
    """

    status: LPStatus
    x: Optional[np.ndarray]
    objective: Optional[float]
    backend: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL


@dataclass
class LinearProgram:
    """A linear program in minimisation form (dense or sparse matrices).

    Parameters
    ----------
    c:
        Objective coefficients (length ``n``).
    A_ub, b_ub:
        Inequality constraints ``A_ub x <= b_ub`` (may be ``None``).  The
        matrix may be a dense array *or* any :mod:`scipy.sparse` matrix;
        sparse input is normalised to CSR and kept sparse end-to-end (the
        local LPs of the paper are extremely sparse, and densifying them is
        the O(n²) memory blow-up the batch layer exists to avoid).
    A_eq, b_eq:
        Equality constraints ``A_eq x = b_eq`` (may be ``None``); dense or
        sparse, like ``A_ub``.
    bounds:
        Per-variable ``(lower, upper)`` bounds; ``None`` means unbounded in
        that direction.  Defaults to ``(0, None)`` for every variable.
    """

    c: np.ndarray
    A_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    bounds: Optional[List[Tuple[Optional[float], Optional[float]]]] = None

    @staticmethod
    def _as_matrix(matrix) -> "np.ndarray | sp.csr_matrix":
        """Normalise a constraint matrix: CSR if sparse, float64 array if dense."""
        if sp.issparse(matrix):
            out = matrix.tocsr()
            if out.dtype != np.float64:
                out = out.astype(np.float64)
            return out
        return np.asarray(matrix, dtype=np.float64)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.c.ndim != 1:
            raise ValueError("objective vector c must be one-dimensional")
        n = self.n_variables
        if self.A_ub is not None:
            self.A_ub = self._as_matrix(self.A_ub)
            self.b_ub = np.asarray(self.b_ub, dtype=np.float64)
            if self.A_ub.ndim != 2 or self.A_ub.shape[1] != n:
                raise ValueError("A_ub must have one column per variable")
            if self.b_ub.shape != (self.A_ub.shape[0],):
                raise ValueError("b_ub length must match the rows of A_ub")
        if self.A_eq is not None:
            self.A_eq = self._as_matrix(self.A_eq)
            self.b_eq = np.asarray(self.b_eq, dtype=np.float64)
            if self.A_eq.ndim != 2 or self.A_eq.shape[1] != n:
                raise ValueError("A_eq must have one column per variable")
            if self.b_eq.shape != (self.A_eq.shape[0],):
                raise ValueError("b_eq length must match the rows of A_eq")
        if self.bounds is None:
            self.bounds = [(0.0, None)] * n
        else:
            self.bounds = list(self.bounds)
            if len(self.bounds) != n:
                raise ValueError("bounds must have one entry per variable")

    @property
    def is_sparse(self) -> bool:
        """Whether any constraint matrix is stored sparse."""
        return sp.issparse(self.A_ub) or sp.issparse(self.A_eq)

    @property
    def n_variables(self) -> int:
        return int(self.c.shape[0])

    @property
    def n_inequalities(self) -> int:
        return 0 if self.A_ub is None else int(self.A_ub.shape[0])

    @property
    def n_equalities(self) -> int:
        return 0 if self.A_eq is None else int(self.A_eq.shape[0])

    def objective_value(self, x: Sequence[float]) -> float:
        """Evaluate ``c^T x``."""
        return float(self.c @ np.asarray(x, dtype=np.float64))

    def is_feasible(self, x: Sequence[float], *, tol: float = 1e-7) -> bool:
        """Check whether ``x`` satisfies every constraint up to ``tol``."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape != (self.n_variables,):
            return False
        if self.A_ub is not None and np.any(self.A_ub @ arr > self.b_ub + tol):
            return False
        if self.A_eq is not None and np.any(
            np.abs(self.A_eq @ arr - self.b_eq) > tol
        ):
            return False
        for value, (lo, hi) in zip(arr, self.bounds):
            if lo is not None and value < lo - tol:
                return False
            if hi is not None and value > hi + tol:
                return False
        return True
