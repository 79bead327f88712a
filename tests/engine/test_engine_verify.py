"""BatchSolver ``verify=`` policy: certify cached reads and fresh solves."""

from __future__ import annotations

import pytest

import cache_rows
from repro.engine import VERIFY_MODES, BatchSolver, ResultCache
from repro.generators import cycle_instance, path_instance


def problems():
    return [cycle_instance(8), path_instance(9)]


def corrupt_disk_entries(directory, *, bump=0.25):
    """Perturb every disk entry's objective, keeping it checksum-valid.

    The checksum is recomputed over the tampered value, so the checksum
    layer waves it through and only a solution certificate can tell it is
    wrong.
    """

    def change(value):
        value["objective"] = value["objective"] + bump

    return cache_rows.rewrite_values(directory, change)


class TestConstruction:
    def test_modes(self):
        assert VERIFY_MODES == ("off", "cached", "all")
        for mode in VERIFY_MODES:
            assert BatchSolver(verify=mode).verify == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown verify mode"):
            BatchSolver(verify="paranoid")


class TestCachedMode:
    def test_corrupted_disk_entry_requeued_and_resolved(self, tmp_path):
        seed = BatchSolver(cache=ResultCache(directory=tmp_path))
        expected = [r.objective for r in seed.solve_maxmin_batch(problems())]
        assert corrupt_disk_entries(tmp_path) == 2

        engine = BatchSolver(
            cache=ResultCache(directory=tmp_path), verify="cached"
        )
        with pytest.warns(RuntimeWarning, match="failed its solution"):
            results = engine.solve_maxmin_batch(problems())

        assert [r.objective for r in results] == pytest.approx(expected)
        assert engine.stats.verify_failed == 2
        assert engine.stats.verify_requeued == 2
        assert engine.stats.executed == 2, "corrupt hits must be re-solved"
        # The poisoned entries were quarantined, not left to bite again.
        assert engine.cache.stats.quarantined == 2
        assert len(cache_rows.rows(tmp_path, "quarantine")) == 2

    def test_clean_disk_entries_pass(self, tmp_path):
        BatchSolver(cache=ResultCache(directory=tmp_path)).solve_maxmin_batch(
            problems()
        )
        engine = BatchSolver(
            cache=ResultCache(directory=tmp_path), verify="cached"
        )
        engine.solve_maxmin_batch(problems())
        assert engine.stats.verify_passed == 2
        assert engine.stats.verify_failed == 0
        assert engine.stats.executed == 0

    def test_memory_hits_skip_certification(self):
        engine = BatchSolver(cache=ResultCache(), verify="cached")
        engine.solve_maxmin_batch(problems())
        engine.solve_maxmin_batch(problems())  # pure memory hits
        assert engine.stats.verify_passed == 0
        assert engine.stats.verify_failed == 0

    def test_fresh_solves_not_certified(self):
        engine = BatchSolver(cache=ResultCache(), verify="cached")
        engine.solve_maxmin_batch(problems())
        assert engine.stats.verify_passed == 0


class TestAllMode:
    def test_fresh_solves_certified(self):
        engine = BatchSolver(cache=ResultCache(), verify="all")
        engine.solve_maxmin_batch(problems())
        assert engine.stats.verify_passed == 2
        assert engine.stats.verify_failed == 0

    def test_memory_hits_certified_too(self):
        engine = BatchSolver(cache=ResultCache(), verify="all")
        engine.solve_maxmin_batch(problems())
        engine.solve_maxmin_batch(problems())
        assert engine.stats.verify_passed == 4


class TestOffMode:
    def test_corruption_sails_through_unverified(self, tmp_path):
        seed = BatchSolver(cache=ResultCache(directory=tmp_path))
        clean = [r.objective for r in seed.solve_maxmin_batch(problems())]
        corrupt_disk_entries(tmp_path)

        engine = BatchSolver(cache=ResultCache(directory=tmp_path))
        results = engine.solve_maxmin_batch(problems())
        # Documents the threat verify= exists to close: silent corruption
        # is served verbatim when verification is off.
        assert [r.objective for r in results] == pytest.approx(
            [c + 0.25 for c in clean]
        )
        assert engine.stats.verify_failed == 0
        assert engine.stats.executed == 0
