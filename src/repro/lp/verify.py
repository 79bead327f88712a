"""Independent solution certificates for max-min LP results.

The checks in this module re-derive everything they assert straight from
the instance's CSR buffers — one sparse matrix-vector product per matrix —
with **no solver in the loop**.  A passing certificate therefore means the
*result object itself* is consistent with the instance it claims to solve:

* every activity is finite and non-negative,
* every resource constraint ``(A x)_i ≤ 1`` holds to tolerance,
* the claimed objective equals the recomputed min-utility
  ``min_k (C x)_k`` to tolerance.

That is exactly the property a serving layer needs to re-check cheaply
before publishing a cached result: a bit-flipped-but-parseable cache entry,
a buggy backend or a stale payload all fail the certificate, while solver
noise within tolerance passes.  The certificate does *not* assert
optimality (that would require a dual witness); for the paper's safe
algorithm, :func:`verify_safe_ratio` adds the complementary guarantee that
the achieved value is within the proven factor ``Δ_I^V`` of the optimum.

Checks raise :class:`~repro.exceptions.VerificationError` with a specific
message and return a :class:`SolutionCertificate` carrying the measured
residuals, so callers can log *how close* a passing result was to the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.problem import Agent, MaxMinLP
from ..core.safe import safe_approximation_guarantee
from ..exceptions import VerificationError
from ..io import solution_from_dict
from .maxmin import CompiledMaxMin, MaxMinSolveResult

__all__ = [
    "DEFAULT_TOL",
    "SolutionCertificate",
    "verify_engine_payload",
    "verify_safe_ratio",
    "verify_solution",
]

#: Default certificate tolerance.  HiGHS' primal feasibility tolerance is
#: 1e-7; one order of magnitude of slack keeps legitimate solver output
#: passing while still catching any corruption that changes a printed digit.
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class SolutionCertificate:
    """Outcome of a passing certificate check.

    Attributes
    ----------
    kind:
        ``"maxmin"``: the certificate checked a max-min solution against
        its instance.
    n_constraints:
        Resource rows rechecked.
    max_violation:
        Worst constraint residual found (``max(A x - 1)`` clipped at 0);
        guaranteed ``≤ tol``.
    objective_error:
        ``|claimed − recomputed|`` for the objective (0.0 when both are
        infinite, e.g. the vacuous empty minimum).
    tol:
        The tolerance the check ran with.
    """

    kind: str
    n_constraints: int
    max_violation: float
    objective_error: float
    tol: float


# ----------------------------------------------------------------------
# Normalising the many shapes a "result" arrives in
# ----------------------------------------------------------------------
def _activity_vector(
    x: Any,
    n_agents: int,
    agents: Optional[Sequence[Agent]],
) -> np.ndarray:
    """Coerce a solution's activities into a dense length-``n`` vector.

    Accepts a numpy array / list (positional), a mapping keyed by agent
    identifier (resolved through ``agents``), or the wire list produced by
    :func:`repro.io.solution_to_dict`.
    """
    if isinstance(x, list) and x and isinstance(x[0], dict) and "v" in x[0]:
        x = solution_from_dict(x)
    if isinstance(x, Mapping):
        if agents is None:
            raise VerificationError(
                "cannot verify a mapping-keyed solution without the "
                "instance's agent order"
            )
        if len(x) != len(agents):
            raise VerificationError(
                f"solution names {len(x)} agents, instance has {len(agents)}"
            )
        try:
            return np.asarray(
                [float(x[v]) for v in agents], dtype=np.float64
            )
        except KeyError as exc:
            raise VerificationError(
                f"solution is missing agent {exc.args[0]!r}"
            ) from None
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n_agents,):
        raise VerificationError(
            f"solution vector has shape {arr.shape}, expected ({n_agents},)"
        )
    return arr


def _extract(
    result: Any,
) -> Tuple[Any, float]:
    """Pull ``(x, claimed_objective)`` out of any supported result form."""
    if isinstance(result, MaxMinSolveResult):
        return result.x, float(result.objective)
    if isinstance(result, Mapping):
        # An engine payload: {"objective", "x"[, "backend"]}.
        if "x" not in result or "objective" not in result:
            raise VerificationError(
                "result payload lacks the required 'x'/'objective' fields"
            )
        return result["x"], float(result["objective"])
    if isinstance(result, tuple) and len(result) == 2:
        x, objective = result
        return x, float(objective)
    # Duck-typed outcome objects (e.g. LocalLPOutcome).
    if hasattr(result, "x") and hasattr(result, "objective"):
        return result.x, float(result.objective)
    raise VerificationError(
        f"unsupported result form {type(result).__name__!r}"
    )


def _compiled_of(
    problem: Union[MaxMinLP, CompiledMaxMin],
) -> Tuple[CompiledMaxMin, Optional[Sequence[Agent]]]:
    if isinstance(problem, MaxMinLP):
        return CompiledMaxMin.from_problem(problem), problem.agents
    if isinstance(problem, CompiledMaxMin):
        return problem, tuple(range(problem.n_agents))
    raise VerificationError(
        f"cannot verify against a {type(problem).__name__!r}; expected a "
        "MaxMinLP or CompiledMaxMin instance"
    )


# ----------------------------------------------------------------------
# The certificates
# ----------------------------------------------------------------------
def verify_solution(
    problem: Union[MaxMinLP, CompiledMaxMin],
    result: Any,
    *,
    tol: float = DEFAULT_TOL,
    agents: Optional[Sequence[Agent]] = None,
) -> SolutionCertificate:
    """Certify a max-min solution against its instance, solver-free.

    ``result`` may be a :class:`~repro.lp.maxmin.MaxMinSolveResult`, an
    engine payload dict (``{"objective", "x", ...}`` with ``x`` either a
    mapping or :func:`repro.io.solution_to_dict` wire form), a bare
    ``(x, objective)`` pair, or any object with ``x``/``objective``
    attributes.  ``agents`` overrides the agent order used to resolve
    mapping-keyed solutions (defaults to the instance's own order).

    Raises :class:`~repro.exceptions.VerificationError` when any activity
    is negative/non-finite beyond ``tol``, any resource constraint
    ``(A x)_i ≤ 1`` is violated beyond ``tol``, or the claimed objective
    differs from the recomputed ``min_k (C x)_k`` by more than
    ``tol · max(1, |recomputed|)``.
    """
    compiled, default_agents = _compiled_of(problem)
    x_raw, claimed = _extract(result)
    x = _activity_vector(
        x_raw, compiled.n_agents, agents if agents is not None else default_agents
    )

    if not np.all(np.isfinite(x)):
        raise VerificationError("solution contains non-finite activities")
    lowest = float(x.min()) if x.size else 0.0
    if lowest < -tol:
        raise VerificationError(
            f"solution has negative activity {lowest:.3e} (tol {tol:.1e})"
        )

    usage = compiled.A @ x if compiled.A.shape[0] else np.zeros(0)
    max_violation = float(max(0.0, (usage - 1.0).max())) if usage.size else 0.0
    if max_violation > tol:
        worst = int(np.argmax(usage))
        raise VerificationError(
            f"resource constraint {worst} violated: usage "
            f"{float(usage[worst]):.12g} > 1 (tol {tol:.1e})"
        )

    recomputed = compiled.objective(np.clip(x, 0.0, None))
    if np.isinf(recomputed) or np.isinf(claimed):
        if recomputed != claimed:
            raise VerificationError(
                f"objective mismatch: claimed {claimed!r}, recomputed "
                f"{recomputed!r}"
            )
        objective_error = 0.0
    else:
        objective_error = abs(claimed - recomputed)
        if objective_error > tol * max(1.0, abs(recomputed)):
            raise VerificationError(
                f"objective mismatch: claimed {claimed:.12g}, recomputed "
                f"min-utility {recomputed:.12g} (|Δ| = {objective_error:.3e}, "
                f"tol {tol:.1e})"
            )

    return SolutionCertificate(
        kind="maxmin",
        n_constraints=int(compiled.A.shape[0]),
        max_violation=max_violation,
        objective_error=float(objective_error),
        tol=tol,
    )


def verify_safe_ratio(
    problem: MaxMinLP,
    optimum: float,
    safe_objective: float,
    *,
    tol: float = DEFAULT_TOL,
) -> float:
    """Assert the paper's safe-algorithm bound; returns the achieved ratio.

    Theorem: the safe solution of Section 2 is within a factor
    ``Δ_I^V = max_i |V_i|`` of the optimum.  This check recomputes the
    guarantee from the instance's degree bounds and raises
    :class:`~repro.exceptions.VerificationError` if
    ``optimum > Δ_I^V · safe_objective`` beyond tolerance — i.e. if either
    value has been corrupted past what the theorem allows.
    """
    if safe_objective < -tol or (not np.isinf(optimum) and optimum < -tol):
        raise VerificationError(
            f"negative values in safe-ratio check: optimum {optimum!r}, "
            f"safe {safe_objective!r}"
        )
    guarantee = safe_approximation_guarantee(problem)
    if np.isinf(optimum):
        # Vacuous instances (no beneficiaries): both sides are unbounded.
        if not np.isinf(safe_objective):
            raise VerificationError(
                "optimum is infinite but the safe objective is "
                f"{safe_objective!r}"
            )
        return 1.0
    bound = guarantee * max(0.0, safe_objective)
    if optimum > bound + tol * max(1.0, abs(bound)):
        raise VerificationError(
            f"safe-algorithm bound violated: optimum {optimum:.12g} > "
            f"Δ_I^V·safe = {guarantee}·{safe_objective:.12g} = {bound:.12g} "
            f"(tol {tol:.1e})"
        )
    if safe_objective <= 0.0:
        return 1.0 if optimum <= 0.0 else float("inf")
    return optimum / safe_objective


def verify_engine_payload(
    compiled: CompiledMaxMin,
    agents: Sequence[Agent],
    payload: Dict[str, Any],
    *,
    kind: str,
    tol: float = DEFAULT_TOL,
) -> SolutionCertificate:
    """Certify one engine cache payload against its compiled solve unit.

    This is the :class:`~repro.engine.executor.BatchSolver` entry point:
    ``payload`` is the cacheable JSON dict produced by
    ``BatchSolver._interpret_unit`` (``{"objective", "x", "backend"}`` for
    ``maxmin_exact`` requests, ``{"x", "objective"}`` for local LPs) and
    ``agents`` is the unit's identifier order.  Degenerate payloads the
    engine resolves without a solver (no agents, vacuous local LPs) verify
    through the same matrix arithmetic as everything else.
    """
    if not isinstance(payload, Mapping):
        raise VerificationError(
            f"engine payload for {kind!r} is not a mapping: "
            f"{type(payload).__name__}"
        )
    return verify_solution(compiled, payload, tol=tol, agents=agents)
