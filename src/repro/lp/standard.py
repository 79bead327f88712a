"""The outcome of one LP solve: :class:`LPStatus` and :class:`LPResult`.

The paper reduces the max-min LP to an ordinary linear program (Section 1.3)
and the local averaging algorithm of Section 5 solves one small LP per agent.
Those LPs are built straight into HiGHS's row-wise model
(:class:`~repro.lp.backends.RowwiseLP`, a *minimisation*); this module holds
what :func:`~repro.lp.backends.solve_lp` returns for one, and the status
names the engine's batched path reports per unit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["LPStatus", "LPResult"]


class LPStatus(enum.Enum):
    """Termination status of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(frozen=True)
class LPResult:
    """The outcome of solving one :class:`~repro.lp.backends.RowwiseLP`.

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
