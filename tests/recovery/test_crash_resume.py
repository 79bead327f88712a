"""SIGKILL chaos: real ``repro suite run`` subprocesses killed mid-write.

Each test launches the actual CLI in a subprocess with a ``crash-process``
fault plan installed, which SIGKILLs the process at a durability seam --
mid checkpoint append (``suite.checkpoint``) or between a cache row's
INSERT and its COMMIT (``cache.disk.write``).  The process
dies with no cleanup of any kind; the tests then prove the recovery
story end to end:

* ``--resume`` reproduces the uninterrupted run's report **bit-identically**
  (after stripping wall-clock noise with
  :func:`repro.scenarios.canonical_report`);
* a fully-checkpointed resume performs **zero** re-solves;
* the torn journal tail is tolerated, never counted as damage;
* a cache write killed before its COMMIT leaves no entry behind, and
  ``repro cache verify`` finds the store clean.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import cache_rows
from repro.scenarios import CheckpointJournal, canonical_report

REPO = Path(__file__).resolve().parents[2]

SUITE = {
    "spec_version": 1,
    "name": "chaos",
    "grids": [
        {
            "family": "cycle",
            "params": {"n": [8, 10, 12]},
            "radii": [1],
            "backend": "scipy",
        }
    ],
}


def kill_plan(seam, *, every):
    return {
        "name": "chaos-kill",
        "seed": 0,
        "faults": [
            {
                "seam": seam,
                "kind": "crash-process",
                "every": every,
                "max_injections": 1,
            }
        ],
    }


def repro(*argv, timeout=180):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_FAULT_PLAN", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=REPO,
    )


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "suite.json").write_text(json.dumps(SUITE))
    return tmp_path


def run_suite(workdir, *extra, fault_plan=None):
    argv = [
        "suite",
        "run",
        str(workdir / "suite.json"),
        "--cache-dir",
        str(workdir / "cache"),
        "--checkpoint",
        str(workdir / "ck.ndjson"),
        *extra,
    ]
    if fault_plan is not None:
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(fault_plan))
        argv += ["--fault-plan", str(plan_path)]
    return repro(*argv)


def control_report(workdir):
    """The uninterrupted reference run (its own cache, its own journal)."""
    out = workdir / "control"
    proc = repro(
        "suite",
        "run",
        str(workdir / "suite.json"),
        "--cache-dir",
        str(workdir / "control-cache"),
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    return canonical_report(json.loads((out / "results.json").read_text()))


class TestCheckpointSeamKill:
    def test_kill_mid_append_then_resume_bit_identical(self, workdir):
        crashed = run_suite(
            workdir, fault_plan=kill_plan("suite.checkpoint", every=2)
        )
        assert crashed.returncode == -signal.SIGKILL, (
            f"expected a SIGKILL death, got rc={crashed.returncode}\n"
            f"stdout: {crashed.stdout}\nstderr: {crashed.stderr}"
        )

        # The journal holds one intact line plus the torn half-line the
        # crash left behind -- tolerated, never trusted, never "damage".
        load = CheckpointJournal.load(workdir / "ck.ndjson")
        assert load.lines_ok == 1
        assert load.torn_tail is True
        assert load.lines_skipped == 0

        resumed = run_suite(workdir, "--resume", "--out", str(workdir / "out"))
        assert resumed.returncode == 0, resumed.stderr
        assert "1 scenario(s) restored, 2 solved this run" in resumed.stdout

        report = canonical_report(
            json.loads((workdir / "out" / "results.json").read_text())
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(
            control_report(workdir), sort_keys=True
        )

    def test_fully_checkpointed_resume_does_zero_resolves(self, workdir):
        clean = run_suite(workdir)
        assert clean.returncode == 0, clean.stderr
        assert CheckpointJournal.load(workdir / "ck.ndjson").lines_ok == 3

        resumed = run_suite(workdir, "--resume", "--out", str(workdir / "out"))
        assert resumed.returncode == 0, resumed.stderr
        assert "3 scenario(s) restored, 0 solved this run" in resumed.stdout

        raw = json.loads((workdir / "out" / "results.json").read_text())
        # Zero engine activity: every scenario was restored from the
        # journal, so the engine never solved, deduped or even batched.
        assert raw["engine_stats"].get("executed", 0) == 0
        assert raw["engine_stats"].get("units", 0) == 0
        assert raw["cache_stats"].get("puts", 0) == 0

        report = canonical_report(raw)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            control_report(workdir), sort_keys=True
        )


class TestCacheWriteSeamKill:
    def test_kill_between_insert_and_commit(self, workdir):
        crashed = run_suite(
            workdir, fault_plan=kill_plan("cache.disk.write", every=1)
        )
        assert crashed.returncode == -signal.SIGKILL, (
            f"expected a SIGKILL death, got rc={crashed.returncode}\n"
            f"stdout: {crashed.stdout}\nstderr: {crashed.stderr}"
        )

        # The process died on its first cache write, after the INSERT and
        # before the COMMIT: the store exists but holds no entry at all.
        cache_dir = workdir / "cache"
        assert cache_rows.db_path(cache_dir).exists()
        assert cache_rows.rows(cache_dir) == {}

        verified = repro("cache", "verify", "--cache-dir", str(cache_dir))
        assert verified.returncode == 0, verified.stdout + verified.stderr
        assert "all entries verified clean" in verified.stdout

        resumed = run_suite(workdir, "--resume", "--out", str(workdir / "out"))
        assert resumed.returncode == 0, resumed.stderr
        assert cache_rows.rows(cache_dir), "the resumed run fills the cache"

        report = canonical_report(
            json.loads((workdir / "out" / "results.json").read_text())
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(
            control_report(workdir), sort_keys=True
        )
