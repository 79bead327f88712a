"""The disk tier's SQLite store: its file, forks and concurrent processes."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cache_rows
from repro.engine import ResultCache
from repro.scenarios.runner import SuiteRunner
from repro.scenarios.spec import ScenarioSpec

REPO = Path(__file__).resolve().parents[2]
KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


def python(script, *argv, **popen):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_FAULT_PLAN", None)
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        **popen,
    )


def finish(proc, timeout=120):
    out, err = proc.communicate(timeout=timeout)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


class TestStoreFile:
    def test_reads_never_create_the_store(self, tmp_path):
        cache = ResultCache(directory=tmp_path / "cache")
        assert cache.get(KEY) is None
        assert cache.disk_entries() == 0
        assert cache.fsck()["scanned"] == 0
        assert not (tmp_path / "cache").exists()
        cache.put(KEY, 1)
        assert cache_rows.db_path(tmp_path / "cache").is_file()

    def test_v1_file_entry_is_a_cold_miss(self, tmp_path):
        shard = tmp_path / KEY[:2]
        shard.mkdir()
        (shard / f"{KEY}.json").write_text(json.dumps({"key": KEY, "value": 41}))
        (tmp_path / "serve").mkdir()  # another tier's directory
        cache = ResultCache(directory=tmp_path)
        assert cache.get(KEY) is None
        assert cache.disk_entries() == 0
        cache.put(OTHER, 2)
        cache.clear()
        assert not shard.exists(), "clear removes the old layout's shards"
        assert (tmp_path / "serve").is_dir()
        assert cache.disk_entries() == 0

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_unreadable_database_is_set_aside(self, tmp_path, damage):
        db = cache_rows.db_path(tmp_path)
        writer = ResultCache(directory=tmp_path)
        for i in range(40):
            writer.put(f"{i:064x}", {"i": i, "pad": "x" * 2000})
        with cache_rows.connect(tmp_path) as conn:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        if damage == "garbage":
            db.write_bytes(b"this is not a database\n" * 100)
        else:
            with open(db, "r+b") as handle:
                handle.truncate(db.stat().st_size // 2)

        cache = ResultCache(directory=tmp_path)
        with pytest.warns(RuntimeWarning, match="not a readable database"):
            found = [cache.get(f"{i:064x}") for i in range(40)]
        # Rows read before the damage was hit passed their checksum; the
        # rest are misses, never an exception.
        assert None in found
        assert all(
            value in (None, {"i": i, "pad": "x" * 2000})
            for i, value in enumerate(found)
        )
        assert Path(f"{db}.corrupt").is_file()
        # The tier carries on with an empty store.
        cache.put(KEY, {"objective": 1.0})
        assert cache.stats.write_errors == 0
        assert ResultCache(directory=tmp_path).get(KEY) == {"objective": 1.0}
        assert cache.fsck()["damaged"] == 0

    def test_fsck_reports_an_unreadable_database(self, tmp_path):
        db = cache_rows.db_path(tmp_path)
        db.write_bytes(b"this is not a database\n" * 100)
        cache = ResultCache(directory=tmp_path)
        report = cache.fsck()
        assert report["damaged"] == 1 and report["quarantined"] == 0
        assert db.read_bytes().startswith(b"this is not"), (
            "read-only fsck must not modify the tier"
        )
        with pytest.warns(RuntimeWarning, match="not a readable database"):
            report = cache.fsck(repair=True)
        assert report["damaged"] == 1 and report["quarantined"] == 1
        assert Path(f"{db}.corrupt").is_file()
        assert cache.fsck()["damaged"] == 0


def _child_uses_cache(cache, parent_conn):
    cache.clear(disk=False)  # the next read goes to the disk tier
    ok = cache.get(KEY) == 1 and cache._conn is not parent_conn
    cache.put(OTHER, 2)
    sys.exit(0 if ok else 1)


class TestForkSafety:
    SPEC = ScenarioSpec(
        family="random_bounded_degree",
        params={"n_agents": 12},
        seed=3,
        radii=(1,),
    )

    def test_forked_child_opens_its_own_connection(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, 1)  # the parent's connection is open before the fork
        parent_conn = cache._conn
        child = multiprocessing.get_context("fork").Process(
            target=_child_uses_cache, args=(cache, parent_conn)
        )
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert cache._conn is parent_conn
        cache.put("ef" * 32, 3)  # the parent's connection still works
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get(OTHER) == 2 and fresh.get("ef" * 32) == 3
        assert fresh.fsck()["damaged"] == 0

    def test_process_pool_over_an_open_store(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(KEY, 1)  # the parent's connection is open before the fork
        runner = SuiteRunner(
            mode="process", max_workers=2, lp_chunk_size=1, cache=cache
        )
        cold = runner.run_suite([self.SPEC]).results[0].as_dict()
        stats = runner.engine.stats
        assert stats.executed > 1 and stats.pool_fallbacks == 0
        report = cache.fsck()
        assert report["damaged"] == 0
        assert report["scanned"] == cache.stats.puts

        script = (
            "import json, sys\n"
            "from repro.engine import ResultCache\n"
            "from repro.scenarios.runner import SuiteRunner\n"
            "from repro.scenarios.spec import ScenarioSpec\n"
            "spec = ScenarioSpec.from_dict(json.loads(sys.argv[2]))\n"
            "runner = SuiteRunner(cache=ResultCache(directory=sys.argv[1]))\n"
            "result = runner.run_suite([spec]).results[0].as_dict()\n"
            "print(json.dumps({'executed': runner.engine.stats.executed,"
            " 'result': result}))\n"
        )
        warm = finish(python(script, tmp_path, self.SPEC.to_json()))
        assert warm["executed"] == 0
        cold.pop("seconds")
        warm["result"].pop("seconds")
        assert warm["result"] == json.loads(json.dumps(cold))


WRITER = """
import json, sys, time
from pathlib import Path
from repro.engine import ResultCache
directory, start, stop, go = sys.argv[1:5]
while not Path(go).exists():
    time.sleep(0.001)
cache = ResultCache(directory=directory)
for i in range(int(start), int(stop)):
    cache.put(f"{i:064x}", {"i": i, "pad": "x" * 200})
print(json.dumps(cache.stats.as_dict()))
"""


class TestConcurrentProcesses:
    def test_two_writers_share_one_directory(self, tmp_path):
        go = tmp_path / "go"
        writers = [
            python(WRITER, tmp_path / "cache", 0, 300, go),
            python(WRITER, tmp_path / "cache", 150, 450, go),
        ]
        time.sleep(0.5)  # both interpreters up and waiting
        go.touch()
        for stats in map(finish, writers):
            assert stats["write_errors"] == 0
            assert stats["puts"] == 300

        reader = ResultCache(directory=tmp_path / "cache")
        for i in range(450):
            assert reader.get(f"{i:064x}") == {"i": i, "pad": "x" * 200}
        report = reader.fsck()
        assert report["scanned"] == 450
        assert report["damaged"] == 0
