"""Unit tests for the max-min LP reduction (Section 1.3)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from repro import MaxMinLPBuilder, UnboundedError
from repro.lp import CompiledMaxMin, solve_max_min
from repro.lp.backends import HIGHS_INF
from repro.lp.maxmin import _stack_maxmin_buffers


def _reduction(problem):
    """The row-wise Section 1.3 model the engine builds for ``problem``."""
    model, _, _ = _stack_maxmin_buffers(
        [CompiledMaxMin.from_problem(problem).to_buffers()]
    )
    return model


class TestReduction:
    def test_shapes(self, cycle8):
        model = _reduction(cycle8)
        n = cycle8.n_agents
        assert model.cost.size == n + 1
        assert model.row_upper.size == cycle8.n_resources + cycle8.n_beneficiaries
        # Every row is an inequality; every variable is non-negative.
        assert np.all(model.row_lower == -HIGHS_INF)
        assert np.all(model.col_lower == 0.0)
        assert np.all(model.col_upper == HIGHS_INF)
        # maximising ω is minimising -ω.
        assert model.cost[-1] == -1.0
        assert np.all(model.cost[:-1] == 0.0)

    def test_reduction_rows(self, tiny_instance):
        model = _reduction(tiny_instance)
        # First block: A x <= 1 (ω coefficient 0); second: ω - C x <= 0.
        dense = sp.csr_matrix(
            (model.value, model.index, model.start), shape=(2, 3)
        ).toarray()
        np.testing.assert_allclose(dense[0], [1.0, 1.0, 0.0])
        np.testing.assert_allclose(dense[1], [-1.0, -1.0, 1.0])
        np.testing.assert_allclose(model.row_upper, [1.0, 0.0])

    def test_reduction_optimum_matches_objective(self, asymmetric_instance):
        result = solve_max_min(asymmetric_instance)
        achieved = asymmetric_instance.objective(
            asymmetric_instance.to_array(result.x)
        )
        assert achieved == pytest.approx(result.objective, abs=1e-8)


class TestSolveMaxMin:
    def test_no_beneficiaries_raises(self):
        from repro import MaxMinLP

        problem = MaxMinLP(["v"], {("i", "v"): 1.0}, {}, validate=False)
        with pytest.raises(UnboundedError):
            solve_max_min(problem)

    def test_empty_instance(self):
        from repro import MaxMinLP

        problem = MaxMinLP([], {}, {("k", "v"): 1.0} if False else {}, validate=False)
        # No agents and no beneficiaries: unbounded by convention.
        with pytest.raises(UnboundedError):
            solve_max_min(problem)

    def test_scaling_invariance(self):
        # Scaling all benefit coefficients by λ scales the optimum by λ.
        base = MaxMinLPBuilder()
        base.set_consumption("i", "a", 1.0)
        base.set_consumption("i", "b", 1.0)
        base.set_benefit("k1", "a", 1.0)
        base.set_benefit("k2", "b", 1.0)
        problem1 = base.build()

        scaled = MaxMinLPBuilder()
        scaled.set_consumption("i", "a", 1.0)
        scaled.set_consumption("i", "b", 1.0)
        scaled.set_benefit("k1", "a", 3.0)
        scaled.set_benefit("k2", "b", 3.0)
        problem2 = scaled.build()

        assert solve_max_min(problem2).objective == pytest.approx(
            3.0 * solve_max_min(problem1).objective
        )

    def test_resource_scaling(self):
        # Doubling all consumption halves the optimum.
        one = MaxMinLPBuilder()
        one.set_consumption("i", "a", 1.0)
        one.set_benefit("k", "a", 1.0)
        two = MaxMinLPBuilder()
        two.set_consumption("i", "a", 2.0)
        two.set_benefit("k", "a", 1.0)
        assert solve_max_min(two.build()).objective == pytest.approx(
            0.5 * solve_max_min(one.build()).objective
        )


def _packing_probe(problem, target: float):
    """``linprog`` on ``min t  s.t.  A x − t·1 ≤ 0,  C x ≥ target,  x, t ≥ 0``.

    A second formulation of the max-min LP: the probe's optimum is
    ``target / ω*``, so it is at most 1 exactly when ``target ≤ ω*``.
    """
    n, n_i = problem.n_agents, problem.n_resources
    A_ub = sp.vstack(
        [
            sp.hstack([problem.A, -np.ones((n_i, 1))]),
            sp.hstack([-problem.C, np.zeros((problem.n_beneficiaries, 1))]),
        ],
        format="csr",
    )
    b_ub = np.concatenate([np.zeros(n_i), np.full(problem.n_beneficiaries, -target)])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    return linprog(c=c, A_ub=A_ub, b_ub=b_ub, bounds=(0.0, None), method="highs")


class TestPackingProbe:
    @pytest.mark.parametrize(
        "fixture",
        ["tiny_instance", "asymmetric_instance", "path6", "cycle8", "random_instance"],
    )
    def test_probe_brackets_the_optimum(self, fixture, request):
        # Every party can get ω*(1 − 1e-6) within the resources, and no x
        # gives every party ω*(1 + 1e-6): the probe's optimum t (the
        # largest resource usage needed) crosses 1 right at ω*.
        problem = request.getfixturevalue(fixture)
        omega = solve_max_min(problem).objective
        below = _packing_probe(problem, omega * (1.0 - 1e-6))
        above = _packing_probe(problem, omega * (1.0 + 1e-6))
        assert below.status == 0 and above.status == 0
        assert below.fun <= 1.0
        assert above.fun > 1.0
