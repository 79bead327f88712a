"""Parity: ``call_highs`` against ``scipy.optimize.linprog(method="highs")``.

``call_highs`` drives scipy's bundled HiGHS binding directly instead of
going through ``linprog``.  It must build the same model with the same
options and apply the same post-solve status check, so on every LP the
status, the solution vector and the objective are *bit*-identical to
``linprog``'s, whatever was solved before.  The max-min cases solve the
engine's own model (``_stack_maxmin_buffers``) against ``linprog`` on the
reduction :func:`lp_reference.reduction` builds independently; the generic
LPs reach ``call_highs`` through :func:`lp_reference.rowwise`.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import repro.faults.plan as plan_module
from repro import SolverError
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.hypergraph.communication import communication_hypergraph
from lp_reference import reduction, rowwise
from repro.engine import BatchSolver, ResultCache
from repro.lp import CompiledMaxMin, count_highs_calls, solve_lp, solve_max_min
from repro.lp import backends
from repro.lp.backends import HIGHS_RETRY, call_highs
from repro.lp.maxmin import _stack_maxmin_buffers, solve_maxmin_buffer_batch
from repro.scenarios.registry import build_instance, list_families
from repro.scenarios.runner import SuiteRunner
from repro.scenarios.spec import ScenarioSpec

#: One small scenario per registered family.
FAMILY_PARAMS = {
    "cycle": {"n": 16},
    "path": {"n": 12},
    "grid": {"shape": (4, 4)},
    "torus": {"shape": (4, 4)},
    "unit_disk": {"n": 16, "radius": 0.3},
    "random_bounded_degree": {"n_agents": 14},
    "random_regular_bipartite": {"n_side": 6},
    "sidon_bipartite": {"degree": 3},
    "isp": {"n_customers": 5, "n_routers": 3},
    "sensor": {"n_sensors": 10, "n_relays": 4, "n_areas": 3},
}


def linprog_reference(lp: dict):
    return linprog(**lp, method="highs")


def assert_same_result(got, expected) -> None:
    """``call_highs``'s ``got`` is bit-identical to ``linprog``'s ``expected``."""
    assert got.status == expected.status
    if expected.x is None:
        assert got.x is None and got.fun is None
    else:
        assert np.array_equal(got.x, expected.x)
        assert got.fun == expected.fun


def assert_matches_linprog(lp: dict) -> None:
    assert_same_result(call_highs(rowwise(**lp)), linprog_reference(lp))


def buffer_model(problem):
    """The engine's model of ``problem``'s reduction: a one-unit stack."""
    model, _, _ = _stack_maxmin_buffers(
        [CompiledMaxMin.from_problem(problem).to_buffers()]
    )
    return model


def assert_buffer_path_matches_linprog(problem) -> None:
    assert_same_result(
        call_highs(buffer_model(problem)), linprog_reference(reduction(problem))
    )


def _problem(family: str, R: int):
    spec = ScenarioSpec(
        family=family, params=FAMILY_PARAMS[family], seed=11, radii=(R,)
    )
    return build_instance(spec)


def _local_subproblems(problem, R: int):
    """The distinct local subproblems of a problem's radius-``R`` views."""
    H = communication_hypergraph(problem)
    subs = (problem.local_subproblem(H.ball(u, R)) for u in problem.agents)
    return list(
        dict.fromkeys(sub for sub in subs if sub.n_beneficiaries and sub.n_agents)
    )


def test_every_registry_family_is_covered():
    assert set(FAMILY_PARAMS) == set(list_families())


@pytest.mark.parametrize("R", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_local_lps_match_linprog(family, R):
    subproblems = _local_subproblems(_problem(family, R), R)
    assert subproblems
    for sub in subproblems:
        assert_buffer_path_matches_linprog(sub)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_full_reduction_matches_linprog(family):
    assert_buffer_path_matches_linprog(_problem(family, 1))


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_direct_and_engine_optima_agree(family):
    # solve_max_min is the engine's one-unit case: one HiGHS call, and the
    # very bits the batch engine caches for the same instance.
    problem = _problem(family, 1)
    with count_highs_calls() as counter:
        direct = solve_max_min(problem)
    assert counter.calls == 1
    (engine,) = BatchSolver(cache=ResultCache()).solve_maxmin_batch([problem])
    assert engine.objective.hex() == direct.objective.hex()
    assert list(engine.x) == list(direct.x) == list(problem.agents)
    assert [value.hex() for value in engine.x.values()] == [
        value.hex() for value in direct.x.values()
    ]


def test_stacked_chunk_matches_linprog():
    # The engine's stacked chunk solves to linprog's answer on the same
    # block-diagonal LP, built here from each unit's independent reduction.
    units = [
        CompiledMaxMin.from_problem(sub)
        for sub in _local_subproblems(_problem("torus", 1), 1)
    ]
    lps = [reduction(unit) for unit in units]
    expected = linprog_reference(
        {
            "c": np.concatenate([lp["c"] for lp in lps]),
            "A_ub": sp.block_diag([lp["A_ub"] for lp in lps], format="csr"),
            "b_ub": np.concatenate([lp["b_ub"] for lp in lps]),
            "bounds": [bound for lp in lps for bound in lp["bounds"]],
        }
    )
    assert expected.status == 0
    out = solve_maxmin_buffer_batch(
        [unit.to_buffers() for unit in units], strategy="stacked"
    )
    assert all(status == "optimal" for status, _ in out)
    assert np.array_equal(np.concatenate([x for _, x in out]), expected.x)


#: Generic LPs as ``linprog`` keyword arguments.
EDGE_LPS = {
    "infeasible": dict(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0]),
    "unbounded": dict(c=[-1.0, 0.0], A_ub=[[0.0, 1.0]], b_ub=[1.0]),
    "no_constraints": dict(c=[1.0, 2.0, 0.5]),
    "eq_only": dict(
        c=[1.0, 2.0, 3.0], A_eq=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], b_eq=[3.0, 0.5]
    ),
    "mixed": dict(
        c=[-1.0, -2.0, 0.5],
        A_ub=sp.csr_matrix([[1.0, 1.0, 0.0], [0.0, 1.0, 2.0]]),
        b_ub=[4.0, 3.0],
        A_eq=sp.csr_matrix([[1.0, 0.0, -1.0]]),
        b_eq=[0.5],
    ),
    "finite_upper_bounds": dict(
        c=[-1.0, -1.0], A_ub=[[1.0, 2.0]], b_ub=[10.0], bounds=[(0, 3.0), (1.0, 2.5)]
    ),
    "free_variables": dict(
        c=[1.0, -1.0],
        A_ub=[[-1.0, 0.0], [0.0, 1.0]],
        b_ub=[5.0, 4.0],
        bounds=[(None, None), (None, 7.0)],
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_LPS))
def test_edge_lp_matches_linprog(name):
    assert_matches_linprog(EDGE_LPS[name])


def test_badly_scaled_lps_match_linprog_statuses():
    """Badly scaled LPs reach HiGHS's rarer statuses; each must map alike."""
    rng = np.random.default_rng(0)
    statuses = set()
    for _ in range(200):
        n, m = rng.integers(2, 6), rng.integers(1, 5)
        A = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 12, size=(m, n))
        b = np.abs(rng.standard_normal(m)) * 10.0 ** rng.integers(-6, 12, size=m)
        c = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 8, size=n)
        lp = dict(c=c, A_ub=A, b_ub=b, bounds=[(0, 1e8)] * n)
        assert_matches_linprog(lp)
        statuses.add(call_highs(rowwise(**lp)).status)
    assert {0, 4} <= statuses


def test_solution_outside_tolerance_is_demoted_to_status_4(monkeypatch):
    """``linprog``'s post-solve check: an out-of-tolerance optimum is status 4."""
    monkeypatch.setattr(backends, "_CHECK_TOL", -1.0)
    lp = rowwise(**EDGE_LPS["mixed"])
    result = call_highs(lp)
    assert result.status == 4
    assert result.x is not None
    with pytest.raises(SolverError, match="status 4"):
        solve_lp(lp)


@pytest.mark.parametrize(
    "lp",
    [
        dict(c=[np.nan, 1.0]),
        dict(c=[1.0], A_ub=[[np.inf]], b_ub=[1.0]),
        dict(c=[1.0], A_eq=[[1.0]], b_eq=[np.inf]),
    ],
)
def test_non_finite_input_raises_like_linprog(lp):
    with pytest.raises(ValueError):
        linprog(**lp)
    with pytest.raises(ValueError):
        call_highs(rowwise(**lp))


# ----------------------------------------------------------------------
# Solve order, failures and execution modes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def family_lps():
    """Every registry family's distinct local LPs (R = 1, 2), as the engine
    builds them, with linprog's answers on the independent reduction."""
    subproblems = [
        sub
        for R in (1, 2)
        for family in sorted(FAMILY_PARAMS)
        for sub in _local_subproblems(_problem(family, R), R)
    ]
    return [
        (buffer_model(sub), linprog_reference(reduction(sub)))
        for sub in subproblems
    ]


@pytest.fixture
def no_fault_plan(monkeypatch):
    """No active fault plan, and none loaded from ``REPRO_FAULT_PLAN``."""
    monkeypatch.setattr(plan_module, "_active_plan", None)
    monkeypatch.setattr(plan_module, "_env_checked", True)


def _solve_all(pairs) -> None:
    for lp, expected in pairs:
        assert_same_result(call_highs(lp), expected)


class TestSolveOrder:
    """No solve may depend on what was solved before it."""

    def test_forward_order(self, family_lps):
        _solve_all(family_lps)

    def test_reversed_order(self, family_lps):
        _solve_all(reversed(family_lps))

    def test_interleaved_with_failing_lps(self, family_lps, monkeypatch):
        for i, pair in enumerate(family_lps):
            if i % 10 == 0:
                assert call_highs(rowwise(**EDGE_LPS["infeasible"])).status == 2
            elif i % 10 == 4:
                assert call_highs(rowwise(**EDGE_LPS["unbounded"])).status == 3
            elif i % 10 == 7:
                with monkeypatch.context() as patch:
                    patch.setattr(backends, "_CHECK_TOL", -1.0)
                    assert call_highs(rowwise(**EDGE_LPS["mixed"])).status == 4
            _solve_all([pair])

    def test_after_an_injected_fault(self, family_lps, no_fault_plan):
        # Every attempt of one call fails at the seam, so the fault escapes.
        plan = FaultPlan(
            [
                FaultSpec(
                    seam="lp.highs.call",
                    probability=1.0,
                    max_injections=HIGHS_RETRY.attempts,
                )
            ],
            seed=1,
        )
        with plan.install():
            with pytest.raises(InjectedFault):
                call_highs(family_lps[0][0])
        assert plan.injected() == HIGHS_RETRY.attempts
        _solve_all(family_lps)


class TestExecutionModes:
    SPEC = ScenarioSpec(
        family="random_bounded_degree",
        params=FAMILY_PARAMS["random_bounded_degree"],
        seed=11,
        radii=(1,),
    )

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_pooled_suite_matches_serial(self, mode):
        serial = SuiteRunner().run_suite([self.SPEC]).results[0].as_dict()
        runner = SuiteRunner(
            engine=BatchSolver(
                mode=mode, max_workers=2, lp_chunk_size=1, cache=ResultCache()
            )
        )
        pooled = runner.run_suite([self.SPEC]).results[0].as_dict()
        stats = runner.engine.stats
        assert stats.executed > 1 and stats.pool_fallbacks == 0
        serial.pop("seconds")
        pooled.pop("seconds")
        assert pooled == serial
