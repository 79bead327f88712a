"""Unit tests for the two-tier content-addressed result cache."""

from __future__ import annotations

import json

import pytest

import cache_rows
from repro.engine import ResultCache

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestMemoryTier:
    def test_miss_then_hit_round_trip(self):
        cache = ResultCache()
        assert cache.get(KEY) is None
        assert cache.stats.misses == 1
        cache.put(KEY, {"value": 1.5})
        assert cache.get(KEY) == {"value": 1.5}
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1

    def test_contains_and_len(self):
        cache = ResultCache()
        assert KEY not in cache
        cache.put(KEY, [1, 2])
        assert KEY in cache
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_memory_entries=2)
        cache.put("a" * 64, 1)
        cache.put("b" * 64, 2)
        cache.get("a" * 64)  # refresh "a"; "b" becomes LRU
        cache.put("c" * 64, 3)
        assert "b" * 64 not in cache
        assert cache.get("a" * 64) == 1
        assert cache.get("c" * 64) == 3
        assert cache.stats.evictions == 1

    def test_invalidate(self):
        cache = ResultCache()
        cache.put(KEY, 1)
        assert cache.invalidate(KEY)
        assert cache.get(KEY) is None
        assert not cache.invalidate(KEY)
        assert cache.stats.invalidations == 1

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            ResultCache(max_memory_entries=0)


class TestDiskTier:
    def test_round_trip_through_disk(self, tmp_path):
        writer = ResultCache(directory=tmp_path)
        writer.put(KEY, {"objective": 2.0, "x": [{"v": "v1", "x": 1.0}]})
        # A brand-new cache object (fresh process in spirit) sees the entry.
        reader = ResultCache(directory=tmp_path)
        assert reader.get(KEY) == {"objective": 2.0, "x": [{"v": "v1", "x": 1.0}]}
        assert reader.stats.disk_hits == 1
        # The disk hit was promoted into the memory tier.
        assert len(reader) == 1

    def test_content_addressed_layout(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, 1)
        # One row per entry, keyed by the request fingerprint.
        assert set(cache_rows.rows(tmp_path)) == {KEY}
        assert cache_rows.value(tmp_path, KEY) == 1

    def test_non_finite_floats_round_trip(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, {"objective": float("inf")})
        reader = ResultCache(directory=tmp_path)
        assert reader.get(KEY)["objective"] == float("inf")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, 1)
        cache_rows.write_raw(tmp_path, KEY, value=b"{not json")
        reader = ResultCache(directory=tmp_path)
        assert reader.get(KEY) is None
        assert reader.stats.misses == 1

    def test_invalidate_removes_the_file(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, 1)
        assert cache.invalidate(KEY)
        assert KEY not in cache_rows.rows(tmp_path)
        assert ResultCache(directory=tmp_path).get(KEY) is None

    def test_clear_and_introspection(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, 1)
        cache.put(OTHER, 2)
        assert cache.disk_entries() == 2
        assert cache.disk_bytes() > 0
        cache.clear(disk=True)
        assert cache.disk_entries() == 0
        assert len(cache) == 0

    def test_clear_memory_only_keeps_disk(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, 1)
        cache.clear(disk=False)
        assert len(cache) == 0
        assert cache.disk_entries() == 1
        assert cache.get(KEY) == 1  # re-served from disk

    def test_stats_as_dict_keys(self):
        stats = ResultCache().stats
        assert set(stats.as_dict()) == {
            "hits",
            "disk_hits",
            "misses",
            "puts",
            "evictions",
            "disk_evictions",
            "invalidations",
            "quarantined",
            "write_errors",
        }


class TestDiskEviction:
    """The disk tier is unbounded; ``prune`` shrinks it, oldest rows first."""

    def test_cap_evicts_oldest_entries_first(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        keys = ["a" * 64, "b" * 64, "c" * 64]
        for key in keys:
            cache.put(key, {"payload": key})
        cache_rows.age(tmp_path, keys)
        entry_bytes = cache.disk_bytes() // 3

        cache.put("d" * 64, {"payload": "d" * 64})
        assert cache.stats.disk_evictions == 0  # a put never evicts
        cache.prune(2 * entry_bytes + 2)
        # The two oldest entries fall out; the newest survive.
        remaining = set(cache_rows.rows(tmp_path))
        assert "a" * 64 not in remaining
        assert "d" * 64 in remaining
        assert cache.disk_bytes() <= 2 * entry_bytes + 2
        assert cache.stats.disk_evictions >= 2

    def test_prune_method_reports_and_updates_stats(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        keys = ["a" * 64, "b" * 64, "c" * 64]
        for key in keys:
            cache.put(key, {"payload": key})
        cache_rows.age(tmp_path, keys)
        total = cache.disk_bytes()
        outcome = cache.prune(total // 3)
        assert outcome["removed_entries"] == 2
        assert outcome["removed_bytes"] > 0
        assert outcome["remaining_bytes"] <= total // 3
        assert cache.stats.disk_evictions == 2
        assert cache.disk_entries() == 1

    def test_prune_to_zero_empties_the_tier(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, 1)
        cache.put(OTHER, 2)
        outcome = cache.prune(0)
        assert outcome["removed_entries"] == 2
        assert cache.disk_entries() == 0

    def test_prune_without_disk_tier_is_a_noop(self):
        cache = ResultCache()
        assert cache.prune(0) == {
            "removed_entries": 0,
            "removed_bytes": 0,
            "remaining_bytes": 0,
        }

    def test_evicted_entries_are_cache_misses_not_errors(self, tmp_path):
        cache = ResultCache(directory=tmp_path, max_memory_entries=1)
        cache.put(KEY, {"v": 1})
        cache.put(OTHER, {"v": 2})  # evicts KEY from the memory tier
        cache.prune(60)  # and from the disk tier
        assert cache.get(KEY) is None
        assert cache.get(OTHER) == {"v": 2}


class TestConcurrency:
    """The cache under a worker pool: torn values and counter drift are bugs."""

    def _stress(self, cache, *, n_threads=8, n_ops=200, n_keys=48, alongside=None):
        """Random puts and gets on ``n_threads`` threads; ``alongside``, if
        given, is called in a loop on one more thread until they finish."""
        import random
        import sys
        import threading

        keys = [f"{i:02x}" * 32 for i in range(n_keys)]
        problems = []
        counts = {"gets": 0, "puts": 0}
        count_lock = threading.Lock()

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            gets = puts = 0
            try:
                for _ in range(n_ops):
                    key = rng.choice(keys)
                    if rng.random() < 0.5:
                        cache.put(key, {"payload": key, "pad": "x" * 200})
                        puts += 1
                    else:
                        value = cache.get(key)
                        gets += 1
                        # Values are atomic: present and intact, or absent.
                        if value is not None and value.get("payload") != key:
                            problems.append(f"torn read for {key[:8]}")
            except Exception as exc:  # noqa: BLE001 - surfaced to the test
                problems.append(f"worker {seed} raised {exc!r}")
            with count_lock:
                counts["gets"] += gets
                counts["puts"] += puts

        done = threading.Event()

        def background() -> None:
            try:
                while not done.is_set():
                    alongside()
            except Exception as exc:  # noqa: BLE001 - surfaced to the test
                problems.append(f"background call raised {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(n_threads)
        ]
        extra = [threading.Thread(target=background)] if alongside else []
        # Switch threads far more often than the default 5 ms, so lost
        # updates and torn reads get a chance to show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads + extra:
                thread.start()
            for thread in threads:
                thread.join(120)
            done.set()
            for thread in extra:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + extra)
        assert not problems, problems
        return counts

    def test_threaded_stress_memory_only(self):
        cache = ResultCache(max_memory_entries=32)
        counts = self._stress(cache)
        stats = cache.stats
        # Counters account for every operation exactly once.
        assert stats.hits + stats.misses == counts["gets"]
        assert stats.puts == counts["puts"]
        assert len(cache) <= 32

    def test_threaded_stress_with_capped_disk_tier(self, tmp_path):
        cap = 20_000
        cache = ResultCache(max_memory_entries=16, directory=tmp_path)
        prunes = []
        counts = self._stress(
            cache, alongside=lambda: prunes.append(cache.prune(cap))
        )
        stats = cache.stats
        assert stats.hits + stats.misses == counts["gets"]
        assert stats.puts == counts["puts"]
        assert stats.disk_hits <= stats.hits
        assert len(cache) <= 16
        assert prunes
        # Once the writers stop, one more prune meets the cap, and the
        # eviction counter holds exactly the rows every prune reported.
        prunes.append(cache.prune(cap))
        assert cache.disk_bytes() <= cap
        assert stats.disk_evictions == sum(p["removed_entries"] for p in prunes)
        # Every surviving disk entry is readable and intact.
        for key, row in cache_rows.rows(tmp_path).items():
            assert json.loads(row["value"])["payload"] == key

    def test_threaded_eviction_counters_are_consistent(self, tmp_path):
        """puts == survivors + memory evictions, per tier bookkeeping."""
        cache = ResultCache(max_memory_entries=4, directory=tmp_path)
        self._stress(cache, n_threads=6, n_ops=100, n_keys=12)
        stats = cache.stats
        assert len(cache) <= 4
        # Memory-tier conservation: entries enter the LRU via put or via
        # disk-hit promotion, and each arrival evicts at most one resident.
        assert stats.evictions <= stats.puts + stats.disk_hits
        assert stats.evictions >= 0
        # Nothing was pruned, so nothing may have been disk-evicted.
        assert stats.disk_evictions == 0
        assert cache.disk_entries() == 12
