"""Unit tests for the centralised optimum (LP reduction of Section 1.3)."""

from __future__ import annotations

import pytest

from repro import MaxMinLPBuilder, UnboundedError, optimal_objective, optimal_solution
from repro.lp import solve_max_min


class TestKnownOptima:
    def test_tiny_instance(self, tiny_instance):
        result = optimal_solution(tiny_instance)
        assert result.objective == pytest.approx(1.0)
        assert tiny_instance.is_feasible(tiny_instance.to_array(result.x))

    def test_asymmetric_instance(self, asymmetric_instance):
        result = optimal_solution(asymmetric_instance)
        assert result.objective == pytest.approx(0.5)
        assert result.x["v1"] == pytest.approx(0.5, abs=1e-6)
        assert result.x["v2"] == pytest.approx(0.5, abs=1e-6)

    def test_cycle_instance(self, cycle8):
        assert optimal_objective(cycle8) == pytest.approx(1.5)

    def test_torus_symmetric_optimum(self, torus4x4):
        # On the 4x4 torus every resource has support size 5 (closed
        # neighbourhood), so x_v = 1/5 for all v is feasible and gives every
        # beneficiary exactly 1; by symmetry this is optimal.
        assert optimal_objective(torus4x4) == pytest.approx(1.0)

    def test_weighted_instance_optimum(self):
        # maximise min(2 x1, x2) s.t. x1 + x2 <= 1: optimum 2/3 at (1/3, 2/3).
        builder = MaxMinLPBuilder()
        builder.set_consumption("i", "v1", 1.0)
        builder.set_consumption("i", "v2", 1.0)
        builder.set_benefit("k1", "v1", 2.0)
        builder.set_benefit("k2", "v2", 1.0)
        problem = builder.build()
        result = optimal_solution(problem)
        assert result.objective == pytest.approx(2.0 / 3.0)

    def test_optimal_solution_is_feasible(self, grid4x4, random_instance):
        for problem in (grid4x4, random_instance):
            result = optimal_solution(problem)
            assert problem.is_feasible(problem.to_array(result.x), tol=1e-6)
            assert problem.objective(problem.to_array(result.x)) == pytest.approx(
                result.objective, rel=1e-6, abs=1e-9
            )


class TestDegenerateCases:
    def test_no_beneficiaries_is_unbounded(self):
        from repro import MaxMinLP

        problem = MaxMinLP(["v"], {("i", "v"): 1.0}, {}, validate=False)
        with pytest.raises(UnboundedError):
            optimal_solution(problem)

    def test_unconstrained_agent_is_unbounded(self):
        # An agent with a benefit but no resource can grow without bound.
        from repro import MaxMinLP

        problem = MaxMinLP(["v"], {}, {("k", "v"): 1.0}, validate=False)
        with pytest.raises(UnboundedError, match="reduction reported unbounded"):
            solve_max_min(problem)
        with pytest.raises(UnboundedError, match="reduction reported unbounded"):
            optimal_solution(problem)
