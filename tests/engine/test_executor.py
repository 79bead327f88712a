"""Tests for the batch solver: equality across modes, caching, job records."""

from __future__ import annotations

import pytest

from repro import (
    BatchSolver,
    ResultCache,
    RunRegistry,
    cycle_instance,
    local_averaging_solution,
)
from repro.analysis import radius_sweep, safe_ratio_sweep
from repro.core.baselines import single_shot_local_solution, unshrunk_averaging_solution


def serial_engine(**kwargs):
    return BatchSolver(mode="serial", **kwargs)


class TestConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown execution mode"):
            BatchSolver(mode="fleet")

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            BatchSolver(mode="thread", max_workers=0)


class TestParallelSerialEquality:
    """BatchSolver must be a pure performance feature: numbers never change."""

    @pytest.mark.parametrize(
        "problem_fixture", ["grid4x4", "torus4x4", "random_instance"]
    )
    @pytest.mark.parametrize("R", [1, 2])
    def test_local_averaging_bit_identical(self, problem_fixture, R, request):
        problem = request.getfixturevalue(problem_fixture)
        serial = local_averaging_solution(problem, R, engine=serial_engine())
        pooled = local_averaging_solution(
            problem, R, engine=BatchSolver(mode="thread", max_workers=4)
        )
        assert pooled.objective == serial.objective
        assert pooled.x == serial.x
        assert pooled.local_objectives == serial.local_objectives

    def test_process_mode_bit_identical(self, cycle8):
        serial = local_averaging_solution(cycle8, 1, engine=serial_engine())
        pooled = local_averaging_solution(
            cycle8, 1, engine=BatchSolver(mode="process", max_workers=2)
        )
        assert pooled.objective == serial.objective
        assert pooled.x == serial.x

    def test_cached_warm_run_bit_identical(self, grid4x4):
        engine = serial_engine(cache=ResultCache())
        cold = local_averaging_solution(grid4x4, 2, engine=engine)
        warm = local_averaging_solution(grid4x4, 2, engine=engine)
        assert warm.objective == cold.objective
        assert warm.x == cold.x
        assert engine.stats.executed < engine.stats.units

    def test_disk_cache_round_trip_bit_identical(self, tmp_path, random_instance):
        cold_engine = serial_engine(cache=ResultCache(directory=tmp_path))
        cold = local_averaging_solution(random_instance, 1, engine=cold_engine)
        # Fresh engine + fresh cache object: every hit comes from disk JSON.
        warm_engine = serial_engine(cache=ResultCache(directory=tmp_path))
        warm = local_averaging_solution(random_instance, 1, engine=warm_engine)
        assert warm_engine.stats.executed == 0
        assert warm_engine.cache.stats.disk_hits > 0
        assert warm.objective == cold.objective
        assert warm.x == cold.x

    def test_baselines_match_across_engines(self, cycle8):
        pooled = BatchSolver(mode="thread", max_workers=4)
        assert single_shot_local_solution(
            cycle8, 1, engine=serial_engine()
        ) == single_shot_local_solution(cycle8, 1, engine=pooled)
        assert unshrunk_averaging_solution(
            cycle8, 1, engine=serial_engine()
        ) == unshrunk_averaging_solution(cycle8, 1, engine=pooled)


class TestDeduplication:
    def test_identical_views_collapse_to_one_solve(self):
        # R >= diameter: every agent's ball is the whole vertex set, so all
        # canonical local subproblems are the same problem.
        problem = cycle_instance(8)
        engine = serial_engine()
        local_averaging_solution(problem, 6, engine=engine)
        assert engine.stats.units == 8
        assert engine.stats.executed == 1
        assert engine.stats.dedup_saved == 7


class TestSweepCaching:
    def test_warm_radius_sweep_performs_zero_lp_solves(self, grid4x4):
        """Acceptance criterion: a warm-cache radius_sweep re-run is pure
        cache traffic — zero LP solves, zero cache misses."""
        engine = serial_engine(cache=ResultCache())
        cold_rows = radius_sweep(grid4x4, [1, 2], engine=engine)
        executed_cold = engine.stats.executed
        misses_cold = engine.cache.stats.misses
        assert executed_cold > 0

        warm_rows = radius_sweep(grid4x4, [1, 2], engine=engine)
        assert engine.stats.executed == executed_cold, "warm run solved LPs"
        assert engine.cache.stats.misses == misses_cold, "warm run missed cache"
        assert engine.cache.stats.hits >= executed_cold
        assert warm_rows == cold_rows

    def test_warm_radius_sweep_across_processes_via_disk(self, tmp_path, cycle8):
        radius_sweep(
            cycle8, [1], engine=serial_engine(cache=ResultCache(directory=tmp_path))
        )
        fresh = serial_engine(cache=ResultCache(directory=tmp_path))
        radius_sweep(cycle8, [1], engine=fresh)
        assert fresh.stats.executed == 0
        assert fresh.cache.stats.misses == 0

    def test_safe_ratio_sweep_batches_whole_instances(self, tiny_instance, cycle8):
        engine = serial_engine(cache=ResultCache())
        rows = safe_ratio_sweep([tiny_instance, cycle8], engine=engine)
        assert len(rows) == 2
        assert engine.stats.batches == 1
        assert engine.stats.units == 2
        # Second sweep over the same instances: all cached.
        safe_ratio_sweep([tiny_instance, cycle8], engine=engine)
        assert engine.stats.executed == 2

    def test_invalidation_forces_resolve(self, tiny_instance):
        from repro.engine import fingerprint_request

        engine = serial_engine(cache=ResultCache())
        engine.solve_maxmin(tiny_instance)
        key = fingerprint_request(tiny_instance, "maxmin_exact", backend="scipy")
        assert engine.cache.invalidate(key)
        engine.solve_maxmin(tiny_instance)
        assert engine.stats.executed == 2


class TestJobRegistry:
    def test_jobs_record_solves_and_cache_hits(self, tiny_instance):
        registry = RunRegistry()
        engine = serial_engine(cache=ResultCache(), registry=registry)
        engine.solve_maxmin(tiny_instance)
        engine.solve_maxmin(tiny_instance)
        statuses = [job.status for job in registry]
        assert statuses == ["done", "cached"]
        done = registry.jobs[0]
        assert done.kind == "maxmin_exact"
        assert done.duration_s > 0
        assert len(done.fingerprint) == 64

    def test_registry_save_load_round_trip(self, tmp_path, tiny_instance):
        registry = RunRegistry(run_id="run-test")
        engine = serial_engine(registry=registry)
        engine.solve_maxmin(tiny_instance)
        path = registry.save(tmp_path / "registry.json")
        loaded = RunRegistry.load(path)
        assert loaded.run_id == "run-test"
        assert [j.as_dict() for j in loaded] == [j.as_dict() for j in registry]
        assert loaded.summary()["by_status"] == {"done": 1}

    def test_failed_jobs_are_recorded(self):
        from repro import MaxMinLPBuilder, UnboundedError

        builder = MaxMinLPBuilder()
        builder.set_consumption("i", "v1", 1.0)
        no_beneficiaries = builder.build(validate=False)
        registry = RunRegistry()
        engine = serial_engine(registry=registry)
        with pytest.raises(UnboundedError):
            engine.solve_maxmin(no_beneficiaries)
        assert [job.status for job in registry] == ["failed"]
        assert registry.jobs[0].error


class TestGenericMap:
    def test_serial_map_preserves_order(self):
        engine = serial_engine()
        assert engine.map(lambda v: v * v, range(5)) == [0, 1, 4, 9, 16]

    def test_thread_map_preserves_order(self):
        engine = BatchSolver(mode="thread", max_workers=4)
        assert engine.map(lambda v: v * v, range(16)) == [v * v for v in range(16)]

    def test_single_item_short_circuits_pool(self):
        engine = BatchSolver(mode="process", max_workers=4)
        # lambdas cannot be pickled; a 1-item batch must run in-process.
        assert engine.map(lambda v: v + 1, [41]) == [42]
