"""Unit tests for solver-free solution certificates (repro.lp.verify)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import optimal_solution, safe_solution
from repro.engine import BatchSolver, ResultCache
from repro.exceptions import VerificationError
from repro.generators import cycle_instance, grid_instance
from repro.io import solution_to_dict
from repro.lp import (
    DEFAULT_TOL,
    SolutionCertificate,
    verify_engine_payload,
    verify_safe_ratio,
    verify_solution,
)
from repro.lp.maxmin import CompiledMaxMin


@pytest.fixture(scope="module")
def cycle():
    return cycle_instance(8)


@pytest.fixture(scope="module")
def solved(cycle):
    engine = BatchSolver(cache=ResultCache())
    (result,) = engine.solve_maxmin_batch([cycle])
    return result


class TestVerifySolution:
    def test_accepts_solver_output(self, cycle, solved):
        cert = verify_solution(cycle, solved)
        assert isinstance(cert, SolutionCertificate)
        assert cert.kind == "maxmin"
        assert cert.max_violation <= DEFAULT_TOL
        assert cert.objective_error <= DEFAULT_TOL

    def test_accepts_payload_wire_form(self, cycle, solved):
        payload = {
            "objective": solved.objective,
            "x": solution_to_dict(solved.x),
            "backend": solved.backend,
        }
        verify_solution(cycle, payload)

    def test_accepts_tuple_and_attr_forms(self, cycle, solved):
        verify_solution(cycle, (solved.x, solved.objective))

        class Duck:
            x = solved.x
            objective = solved.objective

        verify_solution(cycle, Duck())

    def test_rejects_perturbed_objective(self, cycle, solved):
        with pytest.raises(VerificationError, match="objective mismatch"):
            verify_solution(cycle, (solved.x, solved.objective + 0.5))

    def test_rejects_perturbed_coordinate(self, cycle, solved):
        x = dict(solved.x)
        victim = next(iter(x))
        x[victim] = x[victim] + 1.0  # breaks Ax <= 1 and/or the objective
        with pytest.raises(VerificationError):
            verify_solution(cycle, (x, solved.objective))

    def test_rejects_negative_activity(self, cycle, solved):
        x = dict(solved.x)
        victim = next(iter(x))
        x[victim] = -0.25
        with pytest.raises(VerificationError, match="negative activity"):
            verify_solution(cycle, (x, solved.objective))

    def test_rejects_nonfinite(self, cycle, solved):
        x = dict(solved.x)
        victim = next(iter(x))
        x[victim] = float("nan")
        with pytest.raises(VerificationError, match="non-finite"):
            verify_solution(cycle, (x, solved.objective))

    def test_rejects_missing_agent(self, cycle, solved):
        x = dict(solved.x)
        x.pop(next(iter(x)))
        with pytest.raises(VerificationError, match="names"):
            verify_solution(cycle, (x, solved.objective))

    def test_rejects_wrong_shape_vector(self, cycle, solved):
        with pytest.raises(VerificationError, match="shape"):
            verify_solution(cycle, (np.zeros(3), 0.0))

    def test_tolerance_absorbs_solver_noise(self, cycle, solved):
        verify_solution(cycle, (solved.x, solved.objective + 1e-9))

    def test_compiled_instance_positional(self, cycle, solved):
        compiled = CompiledMaxMin.from_problem(cycle)
        x = np.asarray([solved.x[v] for v in cycle.agents])
        verify_solution(compiled, (x, solved.objective))

    def test_unsupported_result_form(self, cycle):
        with pytest.raises(VerificationError, match="unsupported result"):
            verify_solution(cycle, object())

    def test_optimal_solution_roundtrip(self):
        problem = grid_instance((4, 4), torus=True)
        result = optimal_solution(problem)
        verify_solution(problem, (result.x, result.objective))


class TestVerifySafeRatio:
    def test_safe_bound_holds(self, cycle, solved):
        safe_objective = cycle.objective(safe_solution(cycle))
        ratio = verify_safe_ratio(cycle, solved.objective, safe_objective)
        assert ratio >= 1.0 - DEFAULT_TOL

    def test_rejects_inflated_optimum(self, cycle, solved):
        safe_objective = cycle.objective(safe_solution(cycle))
        with pytest.raises(VerificationError, match="bound violated"):
            verify_safe_ratio(
                cycle, solved.objective * 100.0, safe_objective
            )

    def test_rejects_negative_inputs(self, cycle):
        with pytest.raises(VerificationError, match="negative"):
            verify_safe_ratio(cycle, -1.0, 1.0)


class TestVerifyEnginePayload:
    def test_accepts_maxmin_payload(self, cycle, solved):
        compiled = CompiledMaxMin.from_problem(cycle)
        payload = {
            "objective": solved.objective,
            "x": solution_to_dict(solved.x),
            "backend": solved.backend,
        }
        cert = verify_engine_payload(
            compiled, cycle.agents, payload, kind="maxmin_exact"
        )
        assert cert.kind == "maxmin"

    def test_rejects_non_mapping(self, cycle):
        compiled = CompiledMaxMin.from_problem(cycle)
        with pytest.raises(VerificationError, match="not a mapping"):
            verify_engine_payload(
                compiled, cycle.agents, None, kind="maxmin_exact"
            )

    def test_rejects_payload_without_fields(self, cycle):
        compiled = CompiledMaxMin.from_problem(cycle)
        with pytest.raises(VerificationError, match="required"):
            verify_engine_payload(
                compiled, cycle.agents, {"nope": 1}, kind="maxmin_exact"
            )
