"""Engine-level tests of the batched LP strategies (:mod:`repro.lp.batch`).

The engine's default ``lp_strategy="per-lp"`` must be bit-identical to the
historical one-call-per-LP behaviour (the rest of the suite asserts that
everywhere); these tests cover the opt-in ``"stacked"`` path: exact
statuses and optimal values, deterministic chunking across execution
modes, and the compiled-buffer process fan-out.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    BatchSolver,
    ResultCache,
    grid_instance,
    local_averaging_solution,
    safe_solution,
    safe_value,
    safe_values_array,
)
from repro.lp import count_highs_calls
from repro.scenarios.registry import build_instance, list_families
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture(scope="module")
def weighted_grid():
    """A small instance whose views are (mostly) pairwise non-isomorphic."""
    return grid_instance((4, 4), weights="random", seed=5)


class TestEngineValidation:
    def test_unknown_strategy_rejected(self):
        # "grouped" and "auto" were strategies of the removed simplex solver.
        for strategy in ("quantum", "grouped", "auto"):
            with pytest.raises(ValueError, match="unknown lp_strategy"):
                BatchSolver(lp_strategy=strategy)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            BatchSolver(lp_chunk_size=0)


class TestStackedEngine:
    def test_one_highs_call_per_chunk(self, weighted_grid):
        engine = BatchSolver(
            cache=ResultCache(), lp_strategy="stacked", lp_chunk_size=1000
        )
        with count_highs_calls() as counter:
            local_averaging_solution(weighted_grid, 1, engine=engine)
        # All distinct local LPs of the batch go through one stacked call.
        assert counter.calls == 1
        assert engine.stats.executed > 1
        # The solver-side counters travel back from the chunk worker.
        assert engine.lp_stats.stacked_calls == 1
        assert engine.lp_stats.lps == engine.stats.executed
        assert engine.lp_stats.fallback_solves == 0

    def test_matches_per_lp_values(self, weighted_grid):
        base_engine = BatchSolver(cache=ResultCache())
        fast_engine = BatchSolver(cache=ResultCache(), lp_strategy="stacked")
        base = local_averaging_solution(weighted_grid, 1, engine=base_engine)
        fast = local_averaging_solution(weighted_grid, 1, engine=fast_engine)
        for u in weighted_grid.agents:
            a, b = base.local_objectives[u], fast.local_objectives[u]
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert b == pytest.approx(a, abs=1e-8)
        assert weighted_grid.is_feasible(weighted_grid.to_array(fast.x))
        opt_a = base_engine.solve_maxmin(weighted_grid)
        opt_b = fast_engine.solve_maxmin(weighted_grid)
        assert opt_b.objective == pytest.approx(opt_a.objective, abs=1e-9)

    def test_modes_agree_under_stacked(self, weighted_grid):
        results = {}
        for mode in ("serial", "thread"):
            engine = BatchSolver(
                mode=mode,
                max_workers=2,
                cache=ResultCache(),
                lp_strategy="stacked",
                lp_chunk_size=4,
            )
            results[mode] = local_averaging_solution(
                weighted_grid, 1, engine=engine
            )
        # Chunk boundaries depend only on submission order, so pooled and
        # serial runs of the same batch are bit-identical.
        assert results["serial"].x == results["thread"].x
        assert (
            results["serial"].local_objectives
            == results["thread"].local_objectives
        )

    def test_process_mode_ships_buffers_and_agrees(self, weighted_grid):
        serial = BatchSolver(
            cache=ResultCache(), lp_strategy="stacked", lp_chunk_size=4
        )
        pooled = BatchSolver(
            mode="process",
            max_workers=2,
            cache=ResultCache(),
            lp_strategy="stacked",
            lp_chunk_size=4,
        )
        a = local_averaging_solution(weighted_grid, 1, engine=serial)
        b = local_averaging_solution(weighted_grid, 1, engine=pooled)
        assert a.x == b.x
        assert a.local_objectives == b.local_objectives

    def test_shared_cache_isolates_strategies(self, weighted_grid, tmp_path):
        """A stacked-warmed cache must never answer a per-lp engine.

        Per-LP results are promised bit-identical to the historical engine
        *including across cache states*; stacked results are vertex-level
        batch-composition-dependent, so the two key spaces are disjoint.
        """
        stacked = BatchSolver(
            cache=ResultCache(directory=tmp_path), lp_strategy="stacked"
        )
        local_averaging_solution(weighted_grid, 1, engine=stacked)
        per_lp = BatchSolver(cache=ResultCache(directory=tmp_path))
        warm = local_averaging_solution(weighted_grid, 1, engine=per_lp)
        # Not a single stacked payload was reused: the per-lp engine
        # solved everything itself...
        assert per_lp.stats.executed == stacked.stats.executed
        # ...and its output is bit-identical to a cache-free per-lp run.
        fresh = local_averaging_solution(
            weighted_grid, 1, engine=BatchSolver(cache=ResultCache())
        )
        assert warm.x == fresh.x
        assert warm.local_objectives == fresh.local_objectives

    def test_warm_cache_reuses_stacked_results(self, weighted_grid):
        cache = ResultCache()
        first = BatchSolver(cache=cache, lp_strategy="stacked")
        cold = local_averaging_solution(weighted_grid, 1, engine=first)
        second = BatchSolver(cache=cache, lp_strategy="stacked")
        warm = local_averaging_solution(weighted_grid, 1, engine=second)
        assert second.stats.executed == 0
        assert warm.x == cold.x


class TestSharedCanonIndex:
    def test_injected_index_changes_nothing(self, weighted_grid):
        from repro.canon.labeling import CanonicalIndex

        shared = CanonicalIndex()
        a = local_averaging_solution(
            weighted_grid,
            1,
            engine=BatchSolver(cache=ResultCache(), canon_index=shared),
        )
        b = local_averaging_solution(
            weighted_grid,
            1,
            engine=BatchSolver(cache=ResultCache(), canon_index=shared),
        )
        c = local_averaging_solution(
            weighted_grid, 1, engine=BatchSolver(cache=ResultCache())
        )
        assert a.x == b.x == c.x


#: Small scenarios per registered family for the safe-equality sweep.
SAFE_FAMILY_PARAMS = {
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


@pytest.mark.parametrize("family", sorted(SAFE_FAMILY_PARAMS))
def test_safe_vectorization_bit_identical_per_family(family):
    """``safe_values_array`` == per-agent ``safe_value`` on every family."""
    assert set(SAFE_FAMILY_PARAMS) == set(list_families())
    spec = ScenarioSpec(
        family=family, params=SAFE_FAMILY_PARAMS[family], seed=7, radii=()
    )
    problem = build_instance(spec)
    values = safe_values_array(problem)
    solution = safe_solution(problem)
    for j, v in enumerate(problem.agents):
        scalar = safe_value(problem, v)
        assert values[j] == scalar  # exact: same floats, same min
        assert solution[v] == scalar


def test_safe_vectorization_handles_empty_columns():
    from repro import MaxMinLPBuilder

    builder = MaxMinLPBuilder()
    builder.set_consumption("i", "a", 2.0)
    builder.set_benefit("k", "a", 1.0)
    builder.set_benefit("k", "b", 1.0)  # agent "b" has no resources
    problem = builder.build(validate=False)
    assert safe_value(problem, "b") == 0.0
    assert safe_solution(problem)["b"] == 0.0
    assert safe_values_array(problem)[problem.agent_position("b")] == 0.0


@pytest.mark.parametrize(
    "columns",
    [
        # trailing empty column: its reduceat segment must not swallow the
        # preceding column's last (and smallest) candidate
        {"u": [("i1", 2.0), ("i2", 4.0), ("i3", 8.0)], "w": []},
        # middle empty column between non-empty ones
        {"a": [("i1", 1.0)], "b": [], "c": [("i2", 1.0), ("i3", 0.5)]},
        # empties first, between and last
        {"z0": [], "z1": [("i1", 3.0)], "z2": [], "z3": [("i2", 1.5)], "z4": []},
    ],
)
def test_safe_vectorization_empty_column_segments(columns):
    """Regression: reduceat segment bounds around constraint-free agents."""
    from repro import MaxMinLPBuilder

    builder = MaxMinLPBuilder()
    for agent, resources in columns.items():
        builder.add_agent(agent)
        for resource, coeff in resources:
            builder.set_consumption(resource, agent, coeff)
        builder.set_benefit("k", agent, 1.0)
    problem = builder.build(validate=False)
    values = safe_values_array(problem)
    for j, agent in enumerate(problem.agents):
        assert values[j] == safe_value(problem, agent)
