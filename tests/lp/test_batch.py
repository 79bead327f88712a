"""Unit tests for the batched max-min solve path and its LP substrate.

The batch engine solves its chunks through
:func:`~repro.lp.maxmin.solve_maxmin_buffer_batch` over
:func:`~repro.lp.maxmin._stack_maxmin_buffers`; every batched behaviour
(block-diagonal stacking, exact fallback statuses, call counts, the
:class:`~repro.lp.batch.BatchSolveStats` counters) is checked on that path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from lp_reference import reduction, rowwise
from repro import (
    cycle_instance,
    grid_instance,
    path_instance,
    random_bounded_degree_instance,
)
from repro.exceptions import SolverError
from repro.lp import (
    CompiledMaxMin,
    LPStatus,
    count_highs_calls,
    solve_lp,
    solve_max_min,
)
from repro.lp.backends import RowwiseLP
from repro.lp.batch import BatchSolveStats
from repro.lp.maxmin import (
    _stack_maxmin_buffers,
    _unit_model,
    solve_maxmin_buffer_batch,
)


def assert_same_model(got: RowwiseLP, expected: RowwiseLP) -> None:
    for field in RowwiseLP._fields:
        np.testing.assert_array_equal(
            getattr(got, field), getattr(expected, field), err_msg=field
        )


def _optimal_lp(k: float = 1.0) -> RowwiseLP:
    """max x1 s.t. x1 + x2 <= k  ->  objective -k."""
    return rowwise(c=[-1.0, 0.0], A_ub=[[1.0, 1.0]], b_ub=[k])


def _reference_model(unit) -> RowwiseLP:
    """The unit's reduction as the test suite builds it, lowered as
    ``linprog`` would."""
    return rowwise(**reduction(unit))


def _optimal_unit(k: float = 1.0) -> CompiledMaxMin:
    """max min(k x) s.t. x <= 1  ->  ω = k at x = 1."""
    return CompiledMaxMin.from_triples(1, 1, 1, [(0, 0, 1.0)], [(0, 0, k)])


def _unbounded_unit() -> CompiledMaxMin:
    """An agent with a benefit but no resource: ω grows without bound."""
    return CompiledMaxMin.from_triples(1, 0, 1, [], [(0, 0, 1.0)])


def _constraint_free_unit() -> CompiledMaxMin:
    """No resources and no beneficiaries: a block with no rows at all."""
    return CompiledMaxMin.from_triples(2, 0, 0, [], [])


def _buffers(units):
    return [unit.to_buffers() for unit in units]


class TestStackBlockDiagonal:
    def test_offsets_and_shapes(self):
        units = [
            _optimal_unit(),
            CompiledMaxMin.from_problem(cycle_instance(6)),
            _unbounded_unit(),
        ]
        stacked, columns, rows = _stack_maxmin_buffers(_buffers(units))
        # Each unit owns its agents plus one ω column, and its A then C rows.
        assert columns.tolist() == [0, 2, 9, 11]
        assert rows.tolist() == [0, 2, 14, 15]
        assert stacked.cost.tolist() == [
            -1.0 if c in (1, 8, 10) else 0.0 for c in range(11)
        ]
        # Block structure: a unit's rows only touch the unit's own columns.
        for u in range(len(units)):
            start, stop = stacked.start[rows[u]], stacked.start[rows[u + 1]]
            touched = stacked.index[start:stop]
            assert touched.min() >= columns[u] and touched.max() < columns[u + 1]

    def test_constraint_free_block(self):
        units = [_optimal_unit(), _constraint_free_unit()]
        stacked, columns, rows = _stack_maxmin_buffers(_buffers(units))
        assert columns.tolist() == [0, 2, 5]
        assert rows.tolist() == [0, 2, 2]
        for strategy in ("per-lp", "stacked"):
            out = solve_maxmin_buffer_batch(_buffers(units), strategy=strategy)
            assert [status for status, _ in out] == [
                LPStatus.OPTIMAL.value,
                LPStatus.UNBOUNDED.value,
            ]
            np.testing.assert_allclose(out[0][1], [1.0, 1.0])


class TestSolveLPBatchStacked:
    def test_empty_batch(self):
        stats = BatchSolveStats()
        with count_highs_calls() as counter:
            out = solve_maxmin_buffer_batch([], strategy="stacked", stats=stats)
        assert out == []
        assert counter.calls == 0
        assert stats == BatchSolveStats()

    def test_batch_of_one_bit_identical_to_solo(self):
        for problem in (cycle_instance(8), grid_instance((3, 3))):
            compiled = CompiledMaxMin.from_problem(problem)
            ((status, x),) = solve_maxmin_buffer_batch(
                [compiled.to_buffers()], strategy="stacked"
            )
            solo = solve_lp(_reference_model(compiled))
            assert status == solo.status.value
            np.testing.assert_array_equal(x, solo.x)

    def test_one_call_for_all_feasible_batch(self):
        units = [_optimal_unit(float(k)) for k in range(1, 30)]
        stats = BatchSolveStats()
        with count_highs_calls() as counter:
            out = solve_maxmin_buffer_batch(
                _buffers(units), strategy="stacked", stats=stats
            )
        assert counter.calls == 1
        assert stats.stacked_calls == 1 and stats.fallback_solves == 0
        for k, (status, x) in enumerate(out, start=1):
            assert status == LPStatus.OPTIMAL.value
            assert x[-1] == pytest.approx(float(k))

    def test_mixed_statuses_stay_exact(self):
        units = [
            _optimal_unit(),
            _unbounded_unit(),
            _constraint_free_unit(),
            _optimal_unit(2.0),
        ]
        stats = BatchSolveStats()
        with count_highs_calls() as counter:
            out = solve_maxmin_buffer_batch(
                _buffers(units), strategy="stacked", stats=stats
            )
        assert [status for status, _ in out] == [
            LPStatus.OPTIMAL.value,
            LPStatus.UNBOUNDED.value,
            LPStatus.UNBOUNDED.value,
            LPStatus.OPTIMAL.value,
        ]
        # A poisoned stack is re-solved per LP for exact statuses.
        assert stats == BatchSolveStats(
            batches=1, lps=4, stacked_calls=1, fallback_solves=4
        )
        assert counter.calls == 1 + len(units)
        assert out[3][1][-1] == pytest.approx(2.0)


class TestStrategies:
    def test_per_lp_equals_solo_loop(self):
        units = [_optimal_unit(2.0), _unbounded_unit()]
        stats = BatchSolveStats()
        with count_highs_calls() as counter:
            out = solve_maxmin_buffer_batch(
                _buffers(units), strategy="per-lp", stats=stats
            )
        assert counter.calls == 2
        assert stats == BatchSolveStats(batches=1, lps=2)
        for unit, (status, x) in zip(units, out):
            solo = solve_lp(_reference_model(unit))
            assert status == solo.status.value
            if solo.x is None:
                assert x is None
            else:
                np.testing.assert_array_equal(x, solo.x)

    def test_unknown_strategy(self):
        # "grouped" and "auto" were strategies of the removed simplex solver.
        for strategy in ("quantum", "grouped", "auto"):
            with pytest.raises(SolverError, match="unknown batch strategy"):
                solve_maxmin_buffer_batch(
                    _buffers([_optimal_unit()]), strategy=strategy
                )


class TestCompiledMaxMin:
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
            reference = CompiledMaxMin.from_problem(form.problem())
            alone, _, _ = _stack_maxmin_buffers([compiled.to_buffers()])
            expected, _, _ = _stack_maxmin_buffers([reference.to_buffers()])
            assert_same_model(alone, expected)

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
        # The buffers go straight to HiGHS's rows: the model must be the
        # one linprog would build from the unit's reduction.
        compiled = CompiledMaxMin.from_problem(problem)
        expected = _reference_model(compiled)
        stacked, columns, rows = _stack_maxmin_buffers([compiled.to_buffers()])
        assert columns.tolist() == [0, compiled.n_agents + 1]
        assert rows.tolist() == [0, expected.row_upper.size]
        assert_same_model(stacked, expected)

    def test_unit_blocks_of_a_stack_are_the_units_own_models(self):
        # The per-LP strategy solves each unit's block of one stack; every
        # block must be exactly the model the unit stacks to on its own,
        # units without resources or without beneficiaries included.
        units = [
            CompiledMaxMin.from_problem(cycle_instance(6)),
            CompiledMaxMin.from_triples(1, 0, 1, [], [(0, 0, 1.0)]),
            CompiledMaxMin.from_problem(random_bounded_degree_instance(12, seed=3)),
            CompiledMaxMin.from_triples(2, 1, 0, [(0, 1, 1.0)], []),
            CompiledMaxMin.from_problem(grid_instance((3, 4))),
        ]
        buffers = [unit.to_buffers() for unit in units]
        stacked, columns, rows = _stack_maxmin_buffers(buffers)
        for u, unit_buffers in enumerate(buffers):
            alone, _, _ = _stack_maxmin_buffers([unit_buffers])
            assert_same_model(_unit_model(stacked, columns, rows, u), alone)

    def test_objective(self):
        from repro import cycle_instance

        problem = cycle_instance(6)
        compiled = CompiledMaxMin.from_problem(problem)
        x = np.full(problem.n_agents, 0.25)
        assert compiled.objective(x) == pytest.approx(problem.objective(x))
        empty = CompiledMaxMin.from_triples(2, 1, 0, [(0, 0, 1.0)], [])
        assert math.isinf(empty.objective(np.zeros(2)))

    @pytest.mark.parametrize("family", ["sidon_bipartite", "sensor", "isp", "torus"])
    def test_objective_is_bit_identical_to_the_matrix_product(self, family):
        # objective() sums C x from the buffers without building C; it must
        # give exactly what scipy's C @ x gives, long benefit rows included.
        from repro.scenarios.registry import build_instance
        from repro.scenarios.spec import ScenarioSpec

        params = {
            "sidon_bipartite": {"degree": 5},
            "sensor": {"n_sensors": 10, "n_relays": 4, "n_areas": 3},
            "isp": {"n_customers": 5, "n_routers": 3},
            "torus": {"shape": (4, 4)},
        }[family]
        problem = build_instance(ScenarioSpec(family, params=params, seed=3, radii=(1,)))
        compiled = CompiledMaxMin.from_problem(problem)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.random(compiled.n_agents) * 10.0 ** rng.integers(-3, 3)
            assert compiled.objective(x) == float((compiled.C @ x).min())

    def test_objective_on_long_benefit_rows(self):
        rng = np.random.default_rng(1)
        benefit = [(k, j, float(rng.random())) for k in range(3) for j in range(25)]
        compiled = CompiledMaxMin.from_triples(
            25, 1, 3, [(0, j, 1.0) for j in range(25)], benefit
        )
        for _ in range(50):
            x = rng.random(25) * 10.0 ** rng.integers(-3, 3)
            assert compiled.objective(x) == float((compiled.C @ x).min())


class TestMaxMinBatch:
    PROBLEMS = [cycle_instance(8), grid_instance((3, 3)), path_instance(5)]

    def test_stacked_batch_same_optima(self):
        buffers = [
            CompiledMaxMin.from_problem(problem).to_buffers()
            for problem in self.PROBLEMS
        ]
        with count_highs_calls() as counter:
            stacked = solve_maxmin_buffer_batch(buffers, strategy="stacked")
        assert counter.calls == 1
        for problem, (status, x) in zip(self.PROBLEMS, stacked):
            solo = solve_max_min(problem)
            assert status == LPStatus.OPTIMAL.value
            assert x[-1] == pytest.approx(solo.objective, abs=1e-9)
            assert problem.is_feasible(np.clip(x[:-1], 0.0, None))

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

    @pytest.mark.parametrize("strategy", ["per-lp", "stacked"])
    def test_buffer_batch_builds_no_matrix_object(self, monkeypatch, strategy):
        # The engine's local LPs go from buffers straight to HiGHS's rows:
        # no scipy matrix, fallback path included.
        from repro import cycle_instance

        good = CompiledMaxMin.from_problem(cycle_instance(6)).to_buffers()
        bad = CompiledMaxMin.from_triples(1, 0, 1, [], [(0, 0, 1.0)]).to_buffers()

        def forbidden(*args, **kwargs):
            raise AssertionError("built on the local-LP path")

        monkeypatch.setattr(sp.csr_matrix, "__init__", forbidden)
        out = solve_maxmin_buffer_batch([good, bad], strategy=strategy)
        assert [status for status, _ in out] == [
            LPStatus.OPTIMAL.value,
            LPStatus.UNBOUNDED.value,
        ]


class TestHiGHSCallCounter:
    def test_counters_nest(self):
        lp = _optimal_lp()
        with count_highs_calls() as outer:
            solve_lp(lp)
            with count_highs_calls() as inner:
                solve_lp(lp)
        assert inner.calls == 1
        assert outer.calls == 2
