"""Parity: ``call_highs`` against ``scipy.optimize.linprog(method="highs")``.

``call_highs`` drives scipy's bundled HiGHS binding directly instead of
going through ``linprog``.  It must build the same model with the same
options and apply the same post-solve status check, so on every LP the
status, the solution vector and the objective are *bit*-identical to
``linprog``'s, whatever was solved before.  This file is the only place
``linprog`` is still used: as the oracle.
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
from repro.lp import CompiledMaxMin, LinearProgram, maxmin_to_lp, solve_lp
from repro.lp import backends
from repro.lp.backends import HIGHS_RETRY, call_highs
from repro.lp.maxmin import solve_maxmin_buffer_batch
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


def linprog_reference(lp: LinearProgram):
    return linprog(
        c=lp.c,
        A_ub=lp.A_ub,
        b_ub=lp.b_ub,
        A_eq=lp.A_eq,
        b_eq=lp.b_eq,
        bounds=lp.bounds,
        method="highs",
    )


def assert_same_result(got, expected) -> None:
    """``call_highs``'s ``got`` is bit-identical to ``linprog``'s ``expected``."""
    assert got.status == expected.status
    if expected.x is None:
        assert got.x is None and got.fun is None
    else:
        assert np.array_equal(got.x, expected.x)
        assert got.fun == expected.fun


def assert_matches_linprog(lp: LinearProgram) -> None:
    assert_same_result(call_highs(lp), linprog_reference(lp))


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


def _local_lps(problem, R: int):
    """The distinct local LPs of a problem's radius-``R`` views."""
    return [maxmin_to_lp(sub) for sub in _local_subproblems(problem, R)]


def test_every_registry_family_is_covered():
    assert set(FAMILY_PARAMS) == set(list_families())


@pytest.mark.parametrize("R", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_local_lps_match_linprog(family, R):
    lps = _local_lps(_problem(family, R), R)
    assert lps
    for lp in lps:
        assert_matches_linprog(lp)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_full_reduction_matches_linprog(family):
    assert_matches_linprog(maxmin_to_lp(_problem(family, 1)))


def test_stacked_chunk_matches_linprog():
    # The engine's stacked chunk solves to linprog's answer on the same
    # block-diagonal LP, built here from each unit's readable reduction.
    units = [
        CompiledMaxMin.from_problem(sub)
        for sub in _local_subproblems(_problem("torus", 1), 1)
    ]
    lps = [unit.lp() for unit in units]
    stacked = LinearProgram(
        c=np.concatenate([lp.c for lp in lps]),
        A_ub=sp.block_diag([lp.A_ub for lp in lps], format="csr"),
        b_ub=np.concatenate([lp.b_ub for lp in lps]),
        bounds=[bound for lp in lps for bound in lp.bounds],
    )
    expected = linprog_reference(stacked)
    assert expected.status == 0
    out = solve_maxmin_buffer_batch(
        [unit.to_buffers() for unit in units], strategy="stacked"
    )
    assert all(status == "optimal" for status, _ in out)
    assert np.array_equal(np.concatenate([x for _, x in out]), expected.x)


EDGE_LPS = {
    "infeasible": LinearProgram(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0]),
    "unbounded": LinearProgram(c=[-1.0, 0.0], A_ub=[[0.0, 1.0]], b_ub=[1.0]),
    "no_constraints": LinearProgram(c=[1.0, 2.0, 0.5]),
    "eq_only": LinearProgram(
        c=[1.0, 2.0, 3.0], A_eq=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], b_eq=[3.0, 0.5]
    ),
    "mixed": LinearProgram(
        c=[-1.0, -2.0, 0.5],
        A_ub=sp.csr_matrix([[1.0, 1.0, 0.0], [0.0, 1.0, 2.0]]),
        b_ub=[4.0, 3.0],
        A_eq=sp.csr_matrix([[1.0, 0.0, -1.0]]),
        b_eq=[0.5],
    ),
    "dense": LinearProgram(
        c=[-3.0, -1.0, -2.0],
        A_ub=np.array([[1.0, 1.0, 3.0], [2.0, 2.0, 5.0], [4.0, 1.0, 2.0]]),
        b_ub=[30.0, 24.0, 36.0],
    ),
    "finite_upper_bounds": LinearProgram(
        c=[-1.0, -1.0], A_ub=[[1.0, 2.0]], b_ub=[10.0], bounds=[(0, 3.0), (1.0, 2.5)]
    ),
    "free_variables": LinearProgram(
        c=[1.0, -1.0],
        A_ub=[[-1.0, 0.0], [0.0, 1.0]],
        b_ub=[5.0, 4.0],
        bounds=[(None, None), (None, 7.0)],
    ),
    "unsorted_duplicate_csr": LinearProgram(
        c=[-1.0, -1.0],
        A_ub=sp.csr_matrix(
            (np.array([0.5, 1.0, 0.5, 2.0]), np.array([1, 0, 1, 0]), np.array([0, 3, 4])),
            shape=(2, 2),
        ),
        b_ub=[2.0, 3.0],
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
        lp = LinearProgram(c=c, A_ub=A, b_ub=b, bounds=[(0, 1e8)] * n)
        assert_matches_linprog(lp)
        statuses.add(call_highs(lp).status)
    assert {0, 4} <= statuses


def test_dense_and_sparse_storage_are_bit_identical():
    lp = EDGE_LPS["dense"]
    sparse = LinearProgram(
        c=lp.c, A_ub=sp.csr_matrix(lp.A_ub), b_ub=lp.b_ub, bounds=lp.bounds
    )
    dense_result, sparse_result = call_highs(lp), call_highs(sparse)
    assert np.array_equal(dense_result.x, sparse_result.x)
    assert dense_result.fun == sparse_result.fun


def test_solution_outside_tolerance_is_demoted_to_status_4(monkeypatch):
    """``linprog``'s post-solve check: an out-of-tolerance optimum is status 4."""
    monkeypatch.setattr(backends, "_CHECK_TOL", -1.0)
    lp = EDGE_LPS["dense"]
    result = call_highs(lp)
    assert result.status == 4
    assert result.x is not None
    with pytest.raises(SolverError, match="status 4"):
        solve_lp(lp)


@pytest.mark.parametrize(
    "lp",
    [
        LinearProgram(c=[np.nan, 1.0]),
        LinearProgram(c=[1.0], A_ub=[[np.inf]], b_ub=[1.0]),
        LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=[np.inf]),
    ],
)
def test_non_finite_input_raises_like_linprog(lp):
    with pytest.raises(ValueError):
        linprog(c=lp.c, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq, b_eq=lp.b_eq)
    with pytest.raises(ValueError):
        call_highs(lp)


# ----------------------------------------------------------------------
# Solve order, failures and execution modes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def family_lps():
    """Every registry family's distinct local LPs (R = 1, 2) with linprog's answers."""
    lps = [
        lp
        for R in (1, 2)
        for family in sorted(FAMILY_PARAMS)
        for lp in _local_lps(_problem(family, R), R)
    ]
    return [(lp, linprog_reference(lp)) for lp in lps]


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
                assert call_highs(EDGE_LPS["infeasible"]).status == 2
            elif i % 10 == 4:
                assert call_highs(EDGE_LPS["unbounded"]).status == 3
            elif i % 10 == 7:
                with monkeypatch.context() as patch:
                    patch.setattr(backends, "_CHECK_TOL", -1.0)
                    assert call_highs(EDGE_LPS["dense"]).status == 4
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
        runner = SuiteRunner(mode=mode, max_workers=2, lp_chunk_size=1)
        pooled = runner.run_suite([self.SPEC]).results[0].as_dict()
        stats = runner.engine.stats
        assert stats.executed > 1 and stats.pool_fallbacks == 0
        serial.pop("seconds")
        pooled.pop("seconds")
        assert pooled == serial
