"""stats_as_dict/merge_stats: the one helper behind every stats dataclass."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.engine.cache import CacheStats
from repro.engine.executor import EngineStats
from repro.lp.batch import BatchSolveStats
from repro.obs.statsutil import merge_stats, stats_as_dict


class TestAsDict:
    def test_engine_stats_shape_is_declaration_order(self):
        stats = EngineStats(batches=1, units=2, executed=3)
        assert list(stats.as_dict()) == [
            "batches",
            "units",
            "executed",
            "dedup_saved",
            "coalesced",
            "pool_fallbacks",
            "pool_respawns",
            "unit_failures",
            "verify_passed",
            "verify_failed",
            "verify_requeued",
        ]
        assert stats.as_dict() == stats_as_dict(stats)

    def test_cache_stats_shape(self):
        assert list(CacheStats().as_dict()) == [
            "hits",
            "disk_hits",
            "misses",
            "puts",
            "evictions",
            "disk_evictions",
            "invalidations",
            "quarantined",
            "write_errors",
        ]

    def test_batch_solve_stats_shape(self):
        assert list(BatchSolveStats().as_dict()) == [
            "batches",
            "lps",
            "stacked_calls",
            "fallback_solves",
        ]

    def test_values_round_trip(self):
        stats = CacheStats(hits=4, misses=2)
        assert stats.as_dict()["hits"] == 4
        assert stats.as_dict()["misses"] == 2


class TestMerge:
    def test_merge_dataclass_source(self):
        into = EngineStats(batches=1, units=5)
        merge_stats(into, EngineStats(batches=2, units=7, executed=3))
        assert into.batches == 3
        assert into.units == 12
        assert into.executed == 3

    def test_merge_mapping_source_ignores_unknown_keys(self):
        into = BatchSolveStats(lps=10)
        result = merge_stats(into, {"lps": 5, "not_a_field": 99})
        assert result is into
        assert into.lps == 15
        assert not hasattr(into, "not_a_field")

    def test_merge_is_the_chunk_fanout_contract(self):
        """Workers ship ``as_dict()`` payloads; the parent merges them."""
        into = EngineStats()
        for _ in range(3):
            worker = EngineStats(batches=1, executed=2)
            merge_stats(into, worker.as_dict())
        assert into.batches == 3
        assert into.executed == 6

    def test_non_dataclass_target_raises(self):
        with pytest.raises(TypeError):
            stats_as_dict(object())


@dataclass
class _Sample:
    a: int = 0
    b: float = 0.0


def test_helper_works_for_any_dataclass():
    sample = _Sample(a=1, b=2.5)
    assert stats_as_dict(sample) == {"a": 1, "b": 2.5}
    merge_stats(sample, _Sample(a=2, b=0.5))
    assert sample == _Sample(a=3, b=3.0)
