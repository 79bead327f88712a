"""Empirical adversary: measure local algorithms against the Section 4 bound.

Theorem 1 quantifies over *all* local algorithms; a finite experiment cannot
do that, but it can instantiate the adversarial construction against the
concrete local algorithms implemented in this package and verify that each
of them indeed achieves no better than the certified finite-``R`` bound on
the carved-out instance ``S′``.  That is exactly what the THM1 benchmark
reports.

The flow mirrors the proof:

1. run the algorithm on ``S`` and hand its output to the adversary;
2. the adversary picks ``p`` (``δ(p) ≥ 0``) and builds ``S′``;
3. run the *same* algorithm on ``S′`` -- because the radius-``r`` views of
   the hypertree ``T_p`` agree in ``S`` and ``S′``, a genuinely local
   algorithm is forced to repeat its choices there;
4. compare the objective it achieves on ``S′`` with the optimum of ``S′``
   (which is at least 1 thanks to the witness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from ..core.local_averaging import local_averaging_solution
from ..core.optimal import optimal_objective
from ..core.problem import Agent, MaxMinLP
from ..core.safe import safe_solution
from ..core.solution import approximation_ratio
from .construction import AdversarialSubinstance, LowerBoundInstance

__all__ = [
    "AdversaryReport",
    "LocalAlgorithm",
    "run_adversary",
    "safe_algorithm",
    "local_averaging_algorithm",
    "greedy_uniform_algorithm",
]

#: A local algorithm, for the purposes of the adversary, is any function
#: mapping an instance to an activity vector.
LocalAlgorithm = Callable[[MaxMinLP], Mapping[Agent, float]]


@dataclass(frozen=True)
class AdversaryReport:
    """Outcome of running one local algorithm through the adversary.

    Attributes
    ----------
    algorithm:
        Human-readable name of the algorithm.
    objective_on_S:
        Objective the algorithm achieved on the full construction ``S``.
    objective_on_Sprime:
        Objective the algorithm achieved on the adversarial ``S′``.
    optimum_on_Sprime:
        The true optimum of ``S′`` (at least the witness value 1).
    witness_objective:
        The objective of the explicit witness (should be exactly 1).
    measured_ratio:
        ``optimum_on_Sprime / objective_on_Sprime`` -- the ratio the
        adversary certifies for this algorithm.
    theorem1_bound:
        The asymptotic lower bound of Theorem 1 for the construction's
        parameters.
    finite_R_bound:
        The finite-``R`` bound actually certified by this instance size.
    """

    algorithm: str
    objective_on_S: float
    objective_on_Sprime: float
    optimum_on_Sprime: float
    witness_objective: float
    measured_ratio: float
    theorem1_bound: float
    finite_R_bound: float


def safe_algorithm(problem: MaxMinLP) -> Dict[Agent, float]:
    """The safe algorithm as a :data:`LocalAlgorithm` (horizon 1)."""
    return safe_solution(problem)


def local_averaging_algorithm(R: int) -> LocalAlgorithm:
    """The Theorem 3 averaging algorithm with radius ``R`` as a :data:`LocalAlgorithm`."""

    def run(problem: MaxMinLP) -> Dict[Agent, float]:
        return local_averaging_solution(problem, R).x

    run.__name__ = f"local_averaging_R{R}"
    return run


def greedy_uniform_algorithm(problem: MaxMinLP) -> Dict[Agent, float]:
    """A deliberately naive baseline: every agent takes its safe share.

    Identical to the safe algorithm except that it ignores the actual
    coefficients ``a_iv`` and splits each resource equally by *count*;
    included as a sanity baseline in the adversarial benchmark (it can be
    infeasible when coefficients exceed 1, so it is only used on 0/1
    instances such as the lower-bound construction itself).
    """
    x: Dict[Agent, float] = {}
    for v in problem.agents:
        shares = [
            1.0 / len(problem.resource_support(i)) for i in problem.agent_resources(v)
        ]
        x[v] = min(shares) if shares else 0.0
    return x


def run_adversary(
    algorithm: LocalAlgorithm,
    construction: LowerBoundInstance,
    *,
    name: Optional[str] = None,
    precomputed: Optional[AdversarialSubinstance] = None,
) -> AdversaryReport:
    """Run ``algorithm`` through the Section 4 adversary.

    Parameters
    ----------
    algorithm:
        The local algorithm under test.
    construction:
        A :class:`LowerBoundInstance` built by
        :func:`repro.lowerbound.build_lower_bound_instance`.
    name:
        Optional display name (defaults to the callable's ``__name__``).
    precomputed:
        Re-use an already carved-out ``S′`` (useful when comparing several
        algorithms against the same adversarial choice); by default the
        adversary reacts to this particular algorithm's output as in the
        proof.
    """
    label = name if name is not None else getattr(algorithm, "__name__", "algorithm")
    x_S = dict(algorithm(construction.problem))
    objective_S = construction.problem.objective(construction.problem.to_array(x_S))

    adv = precomputed if precomputed is not None else construction.build_adversarial_subinstance(x_S)
    sub = adv.subproblem

    x_sub = dict(algorithm(sub))
    objective_sub = sub.objective(sub.to_array(x_sub))
    optimum_sub = optimal_objective(sub)

    return AdversaryReport(
        algorithm=label,
        objective_on_S=float(objective_S),
        objective_on_Sprime=float(objective_sub),
        optimum_on_Sprime=float(optimum_sub),
        witness_objective=float(adv.witness_objective),
        measured_ratio=approximation_ratio(optimum_sub, objective_sub),
        theorem1_bound=construction.theorem1_bound(),
        finite_R_bound=construction.finite_R_bound(),
    )
