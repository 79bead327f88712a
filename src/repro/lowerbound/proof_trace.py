"""An executable trace of the Section 4.6 counting argument.

The core of the Theorem 1 proof tracks, level by level, the total activity

.. math::

    S(\\ell) = \\sum_{v \\in T_p(\\ell)} x_v

assigned by the algorithm to the selected hypertree ``T_p`` and chains three
facts together:

* **eq. (6)** (from feasibility of ``x`` on ``S``): for every even level
  ``2j``, ``S(2j) + S(2j+1) ≤ (dD)^j`` -- the type I hyperedges between the
  two levels partition them and each is a unit resource;
* **eq. (7)**: ``S(0) + S(1) ≤ 1`` (the root's own resource);
* **eq. (4)/(5)** (from the approximation ratio ``α`` on ``S'``): the type
  III parties force ``S(2R−1) ≥ d^R D^{R-1}/(2α)`` and the type II parties
  force ``S(2j−1) + S(2j) ≥ (dD)^j/α``.

Combining them yields the lower bound on ``α``.  This module computes the
level sums for a concrete solution, verifies the feasibility-driven
inequalities exactly, and reports the largest ``α`` for which the
benefit-driven inequalities are consistent with the observed sums -- i.e.
the approximation ratio that this particular run of the argument certifies.
It is the "executable proof" counterpart of the empirical adversary in
:mod:`repro.lowerbound.adversary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from ..core.problem import Agent
from .construction import LowerBoundInstance, QNode

__all__ = ["ProofTrace", "section46_trace"]


@dataclass(frozen=True)
class ProofTrace:
    """The level sums and inequality checks of the Section 4.6 argument.

    Attributes
    ----------
    p:
        The hypertree the adversary selected.
    level_sums:
        ``S(ℓ)`` for ``ℓ = 0 .. 2R−1``.
    resource_inequalities:
        For each ``j``, the pair ``(S(2j) + S(2j+1), (dD)^j)``; feasibility
        of ``x`` on ``S`` forces the first component to be at most the
        second (eq. 6; ``j = 0`` is eq. 7 scaled to the root resource).
    feasibility_respected:
        Whether every resource inequality indeed holds (up to ``tol``).
    delta_p:
        ``δ(p) ≥ 0`` for the selected hypertree.
    certified_alpha:
        The largest ``α`` consistent with the benefit-driven inequalities
        (eq. 4 and 5) for the observed level sums: the run of the argument
        certifies that the algorithm's ratio on ``S'`` is at least the
        value needed to make those inequalities hold, i.e. any local
        algorithm achieving a *better* ratio than ``certified_alpha`` on
        ``S'`` would contradict the observed sums.  ``inf`` when a sum is
        zero (the algorithm gave a level nothing at all, which is consistent
        with an arbitrarily bad ratio).
    """

    p: QNode
    level_sums: Tuple[float, ...]
    resource_inequalities: Tuple[Tuple[float, float], ...]
    feasibility_respected: bool
    delta_p: float
    certified_alpha: float


def section46_trace(
    construction: LowerBoundInstance,
    x: Mapping[Agent, float],
    *,
    p: Optional[QNode] = None,
    tol: float = 1e-9,
) -> ProofTrace:
    """Trace the Section 4.6 counting argument for a solution ``x`` on ``S``.

    Parameters
    ----------
    construction:
        The lower-bound construction (instance ``S`` plus its anatomy).
    x:
        The activities chosen by a (local) algorithm on ``S``.
    p:
        Optionally force the hypertree to trace; by default the adversary's
        choice (``δ(p) ≥ 0``) is used, as in the proof.
    tol:
        Numerical tolerance for the feasibility-driven inequalities.
    """
    if p is None:
        p = construction.select_p(x)
    d, D, R = construction.d, construction.D, construction.R
    height = 2 * R - 1

    # Level sums S(ℓ).
    sums = [0.0] * (height + 1)
    for agent in construction.tree_nodes[p]:
        sums[construction.levels[agent]] += float(x.get(agent, 0.0))

    # Feasibility-driven inequalities: S(2j) + S(2j+1) <= (dD)^j.
    resource_pairs: List[Tuple[float, float]] = []
    feasible = True
    for j in range(R):
        lhs = sums[2 * j] + sums[2 * j + 1]
        rhs = float((d * D) ** j)
        resource_pairs.append((lhs, rhs))
        if lhs > rhs + tol:
            feasible = False

    # Benefit-driven inequalities parameterised by α:
    #   eq. (4):  S(2R−1) >= d^R D^{R−1} / (2α)
    #   eq. (5):  S(2j−1) + S(2j) >= (dD)^j / α   for j = 1 .. R−1.
    # The largest α consistent with the observed sums is the maximum over
    # the implied per-inequality requirements (a smaller α would demand
    # larger sums than the algorithm produced).
    requirements: List[float] = []
    leaf_demand = (d**R) * (D ** (R - 1)) / 2.0
    requirements.append(
        float("inf") if sums[height] <= tol else leaf_demand / sums[height]
    )
    for j in range(1, R):
        lhs = sums[2 * j - 1] + sums[2 * j]
        demand = float((d * D) ** j)
        requirements.append(float("inf") if lhs <= tol else demand / lhs)
    certified_alpha = max(1.0, *requirements) if requirements else 1.0

    return ProofTrace(
        p=p,
        level_sums=tuple(sums),
        resource_inequalities=tuple(resource_pairs),
        feasibility_respected=feasible,
        delta_p=construction.delta(p, x),
        certified_alpha=float(certified_alpha),
    )
