"""Property-based tests for the Section 1.3 max-min LP reduction."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.lp import CompiledMaxMin, solve_max_min
from repro.lp.backends import HIGHS_INF
from repro.lp.maxmin import _stack_maxmin_buffers

from .strategies import max_min_instances

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestMaxMinReductionProperties:
    @given(problem=max_min_instances())
    @settings(**COMMON_SETTINGS)
    def test_reduction_dimensions(self, problem):
        model, _, _ = _stack_maxmin_buffers(
            [CompiledMaxMin.from_problem(problem).to_buffers()]
        )
        assert model.cost.size == problem.n_agents + 1
        assert model.row_upper.size == problem.n_resources + problem.n_beneficiaries
        assert (model.row_lower == -HIGHS_INF).all()  # every row an inequality

    @given(problem=max_min_instances())
    @settings(**COMMON_SETTINGS)
    def test_optimum_dominates_any_feasible_solution(self, problem):
        # The safe solution is feasible, so its objective cannot beat ω*.
        from repro import safe_solution

        optimum = solve_max_min(problem).objective
        achieved = problem.objective(problem.to_array(safe_solution(problem)))
        assert achieved <= optimum + 1e-6
