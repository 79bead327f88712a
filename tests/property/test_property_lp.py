"""Property-based tests for the Section 1.3 max-min LP reduction."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.lp import maxmin_to_lp, solve_max_min

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
        lp = maxmin_to_lp(problem)
        assert lp.n_variables == problem.n_agents + 1
        assert lp.n_inequalities == problem.n_resources + problem.n_beneficiaries

    @given(problem=max_min_instances())
    @settings(**COMMON_SETTINGS)
    def test_optimum_dominates_any_feasible_solution(self, problem):
        # The safe solution is feasible, so its objective cannot beat ω*.
        from repro import safe_solution

        optimum = solve_max_min(problem).objective
        achieved = problem.objective(problem.to_array(safe_solution(problem)))
        assert achieved <= optimum + 1e-6
