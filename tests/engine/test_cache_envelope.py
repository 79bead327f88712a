"""Checksummed disk entries, quarantine and fsck."""

from __future__ import annotations

import json

import cache_rows
from repro.engine import ResultCache
from repro.engine.fingerprint import fingerprint_data

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestEnvelope:
    def test_disk_entry_carries_checksum(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, {"objective": 1.5})
        row = cache_rows.rows(tmp_path)[KEY]
        assert json.loads(row["value"]) == {"objective": 1.5}
        assert row["sha256"] == fingerprint_data({"objective": 1.5})

    def test_round_trip_promotes_disk_to_memory(self, tmp_path):
        ResultCache(directory=tmp_path).put(KEY, [1, 2.5])
        cache = ResultCache(directory=tmp_path)
        value, tier = cache.get_with_tier(KEY)
        assert value == [1, 2.5]
        assert tier == "disk"
        _, tier = cache.get_with_tier(KEY)
        assert tier == "memory"

    def test_nonfinite_floats_round_trip(self, tmp_path):
        ResultCache(directory=tmp_path).put(KEY, {"objective": float("inf")})
        assert ResultCache(directory=tmp_path).get(KEY) == {
            "objective": float("inf")
        }


class TestChecksumValidation:
    def test_bit_flip_is_detected_and_quarantined(self, tmp_path):
        ResultCache(directory=tmp_path).put(KEY, {"objective": 1.5})
        # Flip one digit inside the value: still perfectly parseable JSON.
        cache_rows.flip(tmp_path, KEY, "1.5", "2.5")

        cache = ResultCache(directory=tmp_path)
        assert cache.get(KEY) is None
        assert cache.stats.quarantined == 1
        assert KEY not in cache_rows.rows(tmp_path)
        assert KEY in cache_rows.rows(tmp_path, "quarantine")
        # The quarantined entry is a miss forever after, not an error.
        assert cache.get(KEY) is None

    def test_wrong_key_envelope_quarantined(self, tmp_path):
        writer = ResultCache(directory=tmp_path)
        writer.put(KEY, 41)
        writer.put(OTHER, 7)
        # KEY's row now holds OTHER's value: misfiled, not torn.
        cache_rows.write_raw(
            tmp_path, KEY, value=cache_rows.rows(tmp_path)[OTHER]["value"]
        )
        cache = ResultCache(directory=tmp_path)
        assert cache.get(KEY) is None
        assert cache.stats.quarantined == 1

    def test_corrupt_sidecars_count_toward_disk_bytes(self, tmp_path):
        ResultCache(directory=tmp_path).put(KEY, {"objective": 1.5})
        clean_bytes = ResultCache(directory=tmp_path).disk_bytes()
        cache_rows.flip(tmp_path, KEY, "1.5", "9.5")
        cache = ResultCache(directory=tmp_path)  # cold memory: forces disk read
        cache.get(KEY)  # quarantines
        assert cache.disk_entries() == 0
        assert cache.disk_bytes() >= clean_bytes  # quarantined row still accounted

    def test_prune_reclaims_corrupt_sidecars(self, tmp_path):
        ResultCache(directory=tmp_path).put(KEY, {"objective": 1.5})
        cache_rows.flip(tmp_path, KEY, "1.5", "9.5")
        cache = ResultCache(directory=tmp_path)
        cache.get(KEY)
        assert cache_rows.rows(tmp_path, "quarantine")
        outcome = cache.prune(0)
        assert outcome["remaining_bytes"] == 0
        assert not cache_rows.rows(tmp_path, "quarantine")


class TestQuarantineKey:
    def test_quarantine_key_evicts_both_tiers(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, 1)
        assert cache.quarantine_key(KEY) is True
        assert cache.get(KEY) is None
        assert KEY in cache_rows.rows(tmp_path, "quarantine")

    def test_quarantine_key_absent_entry(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        assert cache.quarantine_key(KEY) is False

    def test_quarantine_key_memory_only_cache(self):
        cache = ResultCache()
        cache.put(KEY, 1)
        assert cache.quarantine_key(KEY) is False
        assert cache.get(KEY) is None  # still evicted from memory


class TestFsck:
    def seed(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, {"objective": 1.5})
        cache.put(OTHER, {"objective": 2.0})
        cache.put("ef" + "2" * 62, 3)
        return cache

    def test_clean_tier(self, tmp_path):
        cache = self.seed(tmp_path)
        report = cache.fsck()
        assert report["scanned"] == 3
        assert report["ok"] == 3
        assert report["damaged"] == 0

    def test_damage_detected_readonly_then_repaired(self, tmp_path):
        cache = self.seed(tmp_path)
        cache_rows.flip(tmp_path, KEY, "1.5", "7.5")

        report = cache.fsck()
        assert report["damaged"] == 1
        assert report["quarantined"] == 0
        assert KEY in cache_rows.rows(tmp_path), (
            "read-only fsck must not modify the tier"
        )

        report = cache.fsck(repair=True)
        assert report["quarantined"] == 1
        assert KEY not in cache_rows.rows(tmp_path)
        assert cache.fsck()["damaged"] == 0

    def test_certify_hook_flags_semantic_damage(self, tmp_path):
        cache = self.seed(tmp_path)

        def certify(key, value):
            # Declare every entry whose objective is 2.0 semantically wrong.
            return not (isinstance(value, dict) and value.get("objective") == 2.0)

        report = cache.fsck(certify=certify)
        assert report["damaged"] == 1

    def test_certify_hook_exception_counts_as_damage(self, tmp_path):
        cache = self.seed(tmp_path)

        def certify(key, value):
            raise RuntimeError("boom")

        assert cache.fsck(certify=certify)["damaged"] == 3

    def test_repair_counts_quarantine_rows(self, tmp_path):
        cache = self.seed(tmp_path)
        cache_rows.flip(tmp_path, KEY, "1.5", "7.5")
        report = cache.fsck(repair=True)
        assert report["in_quarantine"] == 1
        assert cache.fsck()["in_quarantine"] == 1
