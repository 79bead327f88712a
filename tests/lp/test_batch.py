"""Unit tests for the batched LP solving layer (:mod:`repro.lp.batch`)."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro import cycle_instance, grid_instance, random_bounded_degree_instance
from repro.exceptions import SolverError
from repro.lp import (
    CompiledMaxMin,
    LinearProgram,
    LPStatus,
    count_highs_calls,
    maxmin_to_lp,
    solve_lp,
    solve_lp_batch,
    solve_max_min,
    solve_max_min_batch,
    solve_max_min_bisection,
    stack_block_diagonal,
)
from repro.lp.batch import BatchSolveStats
from repro.lp.maxmin import _stack_maxmin_buffers, solve_maxmin_buffer_batch


def _optimal_lp(k: float = 1.0) -> LinearProgram:
    """max x1 s.t. x1 + x2 <= k  ->  objective -k."""
    return LinearProgram(c=[-1.0, 0.0], A_ub=[[1.0, 1.0]], b_ub=[k])


def _infeasible_lp() -> LinearProgram:
    return LinearProgram(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])


def _unbounded_lp() -> LinearProgram:
    return LinearProgram(c=[-1.0], A_ub=[[-1.0]], b_ub=[0.0])


class TestStackBlockDiagonal:
    def test_offsets_and_shapes(self):
        lps = [_optimal_lp(), _infeasible_lp(), _unbounded_lp()]
        stacked, offsets = stack_block_diagonal(lps)
        assert list(offsets) == [0, 2, 3, 4]
        assert stacked.n_variables == 4
        assert stacked.n_inequalities == 4
        dense = stacked.A_ub.toarray()
        # Block structure: off-diagonal zero.
        np.testing.assert_allclose(dense[0, 2:], 0.0)
        np.testing.assert_allclose(dense[1:3, :2], 0.0)
        np.testing.assert_allclose(dense[3, :3], 0.0)

    def test_equality_blocks_stack(self):
        lps = [
            LinearProgram(c=[1.0], A_eq=[[1.0]], b_eq=[2.0], bounds=[(0, None)]),
            LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]),
        ]
        stacked, offsets = stack_block_diagonal(lps)
        assert stacked.n_equalities == 2
        assert stacked.A_ub is None
        results = solve_lp_batch(lps, strategy="stacked")
        assert [r.status for r in results] == [LPStatus.OPTIMAL] * 2
        np.testing.assert_allclose(results[0].x, [2.0])

    def test_constraint_free_block(self):
        lps = [_optimal_lp(), LinearProgram(c=[1.0])]
        results = solve_lp_batch(lps, strategy="stacked")
        assert all(r.is_optimal for r in results)
        np.testing.assert_allclose(results[1].x, [0.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stack_block_diagonal([])


class TestSolveLPBatchStacked:
    def test_empty_batch(self):
        with count_highs_calls() as counter:
            assert solve_lp_batch([], strategy="stacked") == []
        assert counter.calls == 0

    def test_batch_of_one_bit_identical_to_solo(self):
        lp = _optimal_lp(3.0)
        (batched,) = solve_lp_batch([lp], strategy="stacked")
        solo = solve_lp(lp)
        assert batched.status is solo.status
        np.testing.assert_array_equal(batched.x, solo.x)

    def test_one_call_for_all_feasible_batch(self):
        lps = [_optimal_lp(float(k)) for k in range(1, 30)]
        with count_highs_calls() as counter:
            results = solve_lp_batch(lps, strategy="stacked")
        assert counter.calls == 1
        for k, result in enumerate(results, start=1):
            assert result.is_optimal
            assert result.objective == pytest.approx(-float(k))

    def test_mixed_statuses_stay_exact(self):
        lps = [
            _optimal_lp(),
            _infeasible_lp(),
            _unbounded_lp(),
            _optimal_lp(2.0),
        ]
        stats = BatchSolveStats()
        results = solve_lp_batch(lps, strategy="stacked", stats=stats)
        assert [r.status for r in results] == [
            LPStatus.OPTIMAL,
            LPStatus.INFEASIBLE,
            LPStatus.UNBOUNDED,
            LPStatus.OPTIMAL,
        ]
        # A poisoned stack is re-solved per LP for exact statuses.
        assert stats.fallback_solves == len(lps)
        assert results[3].objective == pytest.approx(-2.0)

    def test_chunking_counts_and_matches(self):
        lps = [_optimal_lp(float(k)) for k in range(1, 11)]
        stats = BatchSolveStats()
        with count_highs_calls() as counter:
            chunked = solve_lp_batch(
                lps, strategy="stacked", chunk_size=3, stats=stats
            )
        assert counter.calls == 4  # ceil(10 / 3)
        assert stats.stacked_calls == 4
        one_shot = solve_lp_batch(lps, strategy="stacked")
        for a, b in zip(chunked, one_shot):
            assert a.status is b.status
            assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            solve_lp_batch([_optimal_lp()] * 2, strategy="stacked", chunk_size=0)


class TestStrategies:
    def test_per_lp_equals_solo_loop(self):
        lps = [_optimal_lp(2.0), _infeasible_lp()]
        with count_highs_calls() as counter:
            batched = solve_lp_batch(lps, strategy="per-lp")
        assert counter.calls == 2
        for lp, result in zip(lps, batched):
            solo = solve_lp(lp)
            assert result.status is solo.status
            if solo.x is not None:
                np.testing.assert_array_equal(result.x, solo.x)

    def test_default_strategy_is_stacked(self):
        lps = [_optimal_lp(2.0), _optimal_lp(3.0)]
        with count_highs_calls() as counter:
            default = solve_lp_batch(lps)
        assert counter.calls == 1
        stacked = solve_lp_batch(lps, strategy="stacked")
        for a, b in zip(default, stacked):
            np.testing.assert_array_equal(a.x, b.x)

    def test_unknown_strategy(self):
        # "grouped" and "auto" were strategies of the removed simplex solver.
        for strategy in ("quantum", "grouped", "auto"):
            with pytest.raises(SolverError, match="unknown batch strategy"):
                solve_lp_batch([_optimal_lp()], strategy=strategy)


class TestSparseLinearProgram:
    def test_sparse_input_normalised_to_csr(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            A_ub=sp.coo_matrix(np.array([[1.0, 2.0]])),
            b_ub=[1.0],
        )
        assert lp.is_sparse
        assert sp.issparse(lp.A_ub) and lp.A_ub.format == "csr"
        np.testing.assert_allclose(lp.A_ub.toarray(), [[1.0, 2.0]])
        dense = LinearProgram(c=lp.c, A_ub=lp.A_ub.toarray(), b_ub=lp.b_ub)
        assert not dense.is_sparse

    def test_sparse_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(
                c=[1.0], A_ub=sp.csr_matrix((1, 2), dtype=np.float64), b_ub=[1.0]
            )
        with pytest.raises(ValueError):
            LinearProgram(
                c=[1.0, 1.0],
                A_ub=sp.csr_matrix((1, 2), dtype=np.float64),
                b_ub=[1.0, 2.0],
            )

    def test_feasibility_check_works_sparse(self):
        lp = maxmin_to_lp_fixture()
        assert lp.is_feasible(np.zeros(lp.n_variables))

    def test_sparse_and_dense_backends_agree(self):
        lp_sparse = maxmin_to_lp_fixture()
        lp_dense = LinearProgram(
            c=lp_sparse.c,
            A_ub=lp_sparse.A_ub.toarray(),
            b_ub=lp_sparse.b_ub,
            bounds=lp_sparse.bounds,
        )
        a = solve_lp(lp_sparse)
        b = solve_lp(lp_dense)
        np.testing.assert_array_equal(a.x, b.x)


def maxmin_to_lp_fixture() -> LinearProgram:
    from repro import cycle_instance

    return maxmin_to_lp(cycle_instance(8))


class TestCompiledMaxMin:
    def test_lp_matches_maxmin_to_lp(self):
        from repro import grid_instance

        problem = grid_instance((3, 3))
        compiled = CompiledMaxMin.from_problem(problem)
        a = compiled.lp()
        b = maxmin_to_lp(problem)
        np.testing.assert_array_equal(a.A_ub.toarray(), b.A_ub.toarray())
        np.testing.assert_array_equal(a.b_ub, b.b_ub)
        np.testing.assert_array_equal(a.c, b.c)

    def test_from_triples_matches_canonical_problem(self):
        from repro import grid_instance
        from repro.canon.labeling import CanonicalIndex, view_local_structure
        from repro.hypergraph.communication import communication_hypergraph

        problem = grid_instance((3, 4))
        H = communication_hypergraph(problem)
        index = CanonicalIndex()
        for u in list(problem.agents)[:4]:
            form = index.canonical_form(
                *view_local_structure(problem, H.ball(u, 1))
            )
            compiled = form.compiled()
            reference = maxmin_to_lp(form.problem())
            np.testing.assert_array_equal(
                compiled.lp().A_ub.toarray(), reference.A_ub.toarray()
            )

    @pytest.mark.parametrize(
        "problem",
        [
            cycle_instance(6),
            grid_instance((3, 4)),
            random_bounded_degree_instance(12, seed=3),
        ],
        ids=["cycle", "grid", "random_bounded_degree"],
    )
    def test_single_unit_stack_equals_lp(self, problem):
        compiled = CompiledMaxMin.from_problem(problem)
        expected = compiled.lp()
        stacked, offsets = _stack_maxmin_buffers([compiled.to_buffers()])
        assert offsets.tolist() == [0, compiled.n_agents + 1]
        assert stacked.A_ub.shape == expected.A_ub.shape
        np.testing.assert_array_equal(stacked.A_ub.indptr, expected.A_ub.indptr)
        np.testing.assert_array_equal(stacked.A_ub.indices, expected.A_ub.indices)
        np.testing.assert_array_equal(stacked.A_ub.data, expected.A_ub.data)
        np.testing.assert_array_equal(stacked.b_ub, expected.b_ub)
        np.testing.assert_array_equal(stacked.c, expected.c)
        assert list(stacked.bounds) == list(expected.bounds)

    def test_objective(self):
        from repro import cycle_instance

        problem = cycle_instance(6)
        compiled = CompiledMaxMin.from_problem(problem)
        x = np.full(problem.n_agents, 0.25)
        assert compiled.objective(x) == pytest.approx(problem.objective(x))
        empty = CompiledMaxMin.from_triples(2, 1, 0, [(0, 0, 1.0)], [])
        assert math.isinf(empty.objective(np.zeros(2)))


class TestMaxMinBatch:
    def test_per_lp_batch_equals_per_instance(self):
        from repro import cycle_instance, grid_instance, path_instance

        problems = [cycle_instance(8), grid_instance((3, 3)), path_instance(5)]
        batch = solve_max_min_batch(problems)
        for problem, result in zip(problems, batch):
            solo = solve_max_min(problem)
            assert result.objective == solo.objective
            assert result.x == solo.x

    def test_stacked_batch_same_optima(self):
        from repro import cycle_instance, grid_instance

        problems = [cycle_instance(8), grid_instance((3, 3))]
        with count_highs_calls() as counter:
            stacked = solve_max_min_batch(problems, strategy="stacked")
        assert counter.calls == 1
        for problem, result in zip(problems, stacked):
            solo = solve_max_min(problem)
            assert result.objective == pytest.approx(solo.objective, abs=1e-9)
            assert problem.is_feasible(problem.to_array(result.x))

    def test_buffer_batch_stacked_fallback_statuses(self):
        # An infeasible block cannot arise from a well-formed reduction, so
        # exercise the fallback with a synthetic unbounded block: a unit
        # with no resources (ω grows without bound).
        from repro import cycle_instance

        good = CompiledMaxMin.from_problem(cycle_instance(6))
        bad = CompiledMaxMin.from_triples(1, 0, 1, [], [(0, 0, 1.0)])
        out = solve_maxmin_buffer_batch(
            [good.to_buffers(), bad.to_buffers()],
            strategy="stacked",
        )
        assert out[0][0] == LPStatus.OPTIMAL.value
        assert out[1][0] == LPStatus.UNBOUNDED.value


class TestBatchedBisection:
    def test_multi_probe_matches_classic(self):
        from repro import cycle_instance

        problem = cycle_instance(10)
        classic = solve_max_min_bisection(problem, tol=1e-7)
        for k in (2, 5, 16):
            batched = solve_max_min_bisection(
                problem, tol=1e-7, probes_per_round=k, strategy="stacked"
            )
            assert batched.objective == pytest.approx(
                classic.objective, abs=1e-5
            )
            assert problem.is_feasible(problem.to_array(batched.x))

    def test_probe_rounds_cost_one_call_each(self):
        from repro import cycle_instance

        problem = cycle_instance(8)
        with count_highs_calls() as classic_counter:
            solve_max_min_bisection(problem, tol=1e-6)
        with count_highs_calls() as batched_counter:
            solve_max_min_bisection(
                problem, tol=1e-6, probes_per_round=8, strategy="stacked"
            )
        assert batched_counter.calls < classic_counter.calls

    def test_probes_per_round_validation(self):
        from repro import cycle_instance

        with pytest.raises(ValueError):
            solve_max_min_bisection(cycle_instance(6), probes_per_round=0)


class TestHiGHSCallCounter:
    def test_counters_nest(self):
        lp = _optimal_lp()
        with count_highs_calls() as outer:
            solve_lp(lp)
            with count_highs_calls() as inner:
                solve_lp(lp)
        assert inner.calls == 1
        assert outer.calls == 2
