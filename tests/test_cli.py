"""Unit tests for the command-line interface (`python -m repro`)."""

from __future__ import annotations

import json

import pytest

import cache_rows
import repro
from repro.cli import EXPERIMENTS, main


class TestCLI:
    def test_experiment_registry(self):
        assert set(EXPERIMENTS) == {"growth", "thm3", "safe", "thm1", "sensor", "isp"}

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["does-not-exist"])
        assert excinfo.value.code != 0

    def test_unknown_suite_subcommand_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "does-not-exist"])
        assert excinfo.value.code != 0

    @pytest.mark.parametrize(
        "command",
        [["suite", "run", "paper"], ["serve"], ["trace", "run", "paper"]],
    )
    @pytest.mark.parametrize("strategy", ["auto", "grouped"])
    def test_removed_lp_strategies_rejected(self, command, strategy, capsys):
        # Only "per-lp" and "stacked" remain; argparse exits 2 on the rest.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--lp-strategy", strategy])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_argument_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code != 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_growth_experiment_runs(self, capsys):
        assert main(["growth", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Relative growth" in out
        assert "gamma(3)" in out

    def test_sensor_experiment_runs(self, capsys):
        assert main(["sensor", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "APP-SENSOR" in out
        assert "optimal" in out

    def test_isp_experiment_runs(self, capsys):
        assert main(["isp", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "APP-ISP" in out

    def test_safe_experiment_runs(self, capsys):
        assert main(["safe", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "THM-SAFE" in out
        assert "delta_VI" in out


def test_bench_subcommand_removed(capsys):
    # The benchmark protocols live in benchmarks/test_bench_*.py, which
    # assert on them directly; the CLI no longer has a second gate.
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["batch", "--workers"], id="batch-workers"),
        pytest.param(["suite", "run", "paper", "--workers"], id="suite-workers"),
        pytest.param(["serve", "--workers"], id="serve-workers"),
        pytest.param(["trace", "run", "paper", "--workers"], id="trace-workers"),
        pytest.param(
            ["suite", "run", "paper", "--lp-chunk-size"], id="suite-lp-chunk-size"
        ),
        pytest.param(["serve", "--lp-chunk-size"], id="serve-lp-chunk-size"),
        pytest.param(["serve", "--max-inflight"], id="serve-max-inflight"),
    ],
)
def test_non_positive_counts_rejected(argv, capsys):
    # Parsing alone must exit 2 with a one-line message, before any
    # engine, suite or server is built.
    from repro.cli import _build_parser

    with pytest.raises(SystemExit) as excinfo:
        _build_parser().parse_args([*argv, "0"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert argv[-1] in err
    assert "must be an integer >= 1, got '0'" in err


class TestBatchCommand:
    def test_batch_runs_and_reports_engine_counters(self, capsys, tmp_path):
        assert (
            main(
                [
                    "batch",
                    "--family",
                    "cycle",
                    "--radii",
                    "1",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--out",
                    str(tmp_path / "run"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "BATCH: averaging jobs" in out
        assert "BATCH: engine counters" in out
        assert (tmp_path / "run" / "registry.json").is_file()
        assert (tmp_path / "run" / "results.json").is_file()
        assert (tmp_path / "run" / "instance-00.json").is_file()

    def test_batch_warm_rerun_hits_the_disk_cache(self, capsys, tmp_path):
        args = ["batch", "--family", "cycle", "--radii", "1", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        counters_block = capsys.readouterr().out.split("engine counters")[1]
        rows = [
            line
            for line in counters_block.splitlines()
            if "|" in line and any(ch.isdigit() for ch in line)
        ]
        executed = int(rows[0].split("|")[2])
        assert executed == 0

    def test_batch_rejects_bad_radii(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", "--family", "cycle", "--radii", "0"])

    def test_batch_thread_mode_runs(self, capsys):
        args = ["batch", "--family", "cycle", "--radii", "1", "--mode", "thread",
                "--workers", "2", "--no-cache-dir"]
        assert main(args) == 0
        assert "BATCH" in capsys.readouterr().out

    def test_batch_honours_repro_cache_dir_env(self, capsys, monkeypatch, tmp_path):
        """Without --cache-dir, batch writes where `repro cache` will look."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["batch", "--family", "cycle", "--radii", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert cache_rows.rows(tmp_path)


class TestSuiteCommand:
    def test_list_families_prints_the_registry(self, capsys):
        assert main(["suite", "list-families"]) == 0
        out = capsys.readouterr().out
        for family in ("grid", "torus", "unit_disk", "isp", "sensor",
                       "sidon_bipartite", "random_regular_bipartite"):
            assert family in out

    def test_show_paper_suite(self, capsys):
        assert main(["suite", "show", "paper"]) == 0
        out = capsys.readouterr().out
        assert "suite: paper" in out
        assert "scenario_id" in out
        assert "cycle[n=40]" in out

    def test_run_dry_run_expands_without_solving(self, capsys):
        assert main(["suite", "run", "paper", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "expansion only" in out
        assert "cycle" in out and "sensor" in out

    def test_run_unknown_suite_rejected(self):
        with pytest.raises(SystemExit, match="unknown suite"):
            main(["suite", "run", "no-such-suite", "--dry-run"])

    def test_run_malformed_suite_file_rejected_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="invalid suite file"):
            main(["suite", "run", str(bad), "--dry-run"])
        bad.write_text("{\"description\": \"missing name\"}")
        with pytest.raises(SystemExit, match="invalid suite file"):
            main(["suite", "run", str(bad), "--dry-run"])

    def test_run_suite_with_unknown_family_rejected_cleanly(self, tmp_path):
        bad = tmp_path / "bad-family.json"
        bad.write_text(
            '{"name": "x", "grids": [{"family": "no-such-family"}]}'
        )
        with pytest.raises(SystemExit, match="unknown instance family"):
            main(["suite", "run", str(bad), "--dry-run"])

    def test_run_custom_suite_file_with_artifacts(self, capsys, tmp_path):
        from repro.scenarios import ScenarioGrid, SuiteSpec

        suite = SuiteSpec(
            name="custom",
            grids=(ScenarioGrid("cycle", params={"n": 8}, radii=(1,)),),
        )
        suite_file = tmp_path / "suite.json"
        suite_file.write_text(suite.to_json())
        out_dir = tmp_path / "out"
        assert main([
            "suite", "run", str(suite_file),
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "[1/1]" in out
        assert "SUITE custom" in out
        assert (out_dir / "report.md").is_file()
        assert (out_dir / "registry.json").is_file()
        data = json.loads((out_dir / "results.json").read_text())
        assert data["n_scenarios"] == 1
        assert data["results"][0]["spec"]["family"] == "cycle"

    def test_run_warm_rerun_executes_zero_lps(self, capsys, tmp_path):
        from repro.scenarios import ScenarioGrid, SuiteSpec

        suite_file = tmp_path / "suite.json"
        suite_file.write_text(
            SuiteSpec(
                name="warm",
                grids=(ScenarioGrid("cycle", params={"n": 8}, radii=(1, 2)),),
            ).to_json()
        )
        args = ["suite", "run", str(suite_file), "--cache-dir", str(tmp_path / "c")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        counters = capsys.readouterr().out.split("Engine/cache counters")[1]
        row = [line for line in counters.splitlines()
               if "|" in line and any(ch.isdigit() for ch in line)][0]
        executed = int(row.split("|")[2])
        assert executed == 0


class TestRunRegistryOnlyWhenSaved:
    """A ``RunRegistry`` is built only when ``--out`` saves it."""

    @pytest.fixture
    def built(self, monkeypatch):
        from repro.engine import RunRegistry

        built = []

        class CountingRegistry(RunRegistry):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr("repro.cli.RunRegistry", CountingRegistry)
        return built

    @pytest.fixture
    def suite_file(self, tmp_path):
        from repro.scenarios import ScenarioGrid, SuiteSpec

        path = tmp_path / "suite.json"
        path.write_text(
            SuiteSpec(
                name="tiny",
                grids=(ScenarioGrid("cycle", params={"n": 6}, radii=(1,)),),
            ).to_json()
        )
        return str(path)

    def test_trace_run_builds_none(self, built, suite_file, tmp_path, capsys):
        assert main(
            ["trace", "run", suite_file, "--out", str(tmp_path / "trace.json")]
        ) == 0
        assert built == []

    def test_suite_run_without_out_builds_none(self, built, suite_file, capsys):
        assert main(["suite", "run", suite_file, "--no-cache-dir"]) == 0
        assert built == []

    def test_batch_without_out_builds_none(self, built, capsys):
        assert main(
            ["batch", "--family", "cycle", "--radii", "1", "--no-cache-dir"]
        ) == 0
        assert built == []

    def test_suite_run_with_out_saves_one(self, built, suite_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(
            ["suite", "run", suite_file, "--no-cache-dir", "--out", str(out_dir)]
        ) == 0
        assert len(built) == 1
        saved = json.loads((out_dir / "registry.json").read_text())
        assert saved == built[0].as_dict()
        assert len(built[0]) > 1  # the scenario's job records and the suite's


class TestCanonCommand:
    def test_canon_stats_reports_orbits(self, capsys):
        assert main(["canon", "stats", "--family", "grid", "--radii", "1"]) == 0
        out = capsys.readouterr().out
        assert "CANON: radius-R view orbits" in out
        assert "sharing" in out
        # The 6x6 torus is vertex-transitive: one orbit for all 36 agents.
        torus_row = [line for line in out.splitlines() if "torus 6x6" in line][0]
        cells = [cell.strip() for cell in torus_row.split("|")]
        assert cells[2:4] == ["36", "1"]  # agents=36, orbits=1

    def test_canon_stats_rejects_bad_radii(self):
        with pytest.raises(SystemExit):
            main(["canon", "stats", "--radii", "0"])
        with pytest.raises(SystemExit):
            main(["canon", "stats", "--radii", "nope"])

    def test_canon_requires_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["canon"])
        assert excinfo.value.code != 0


class TestSuiteShareOrbits:
    def _suite_file(self, tmp_path):
        from repro.scenarios import ScenarioGrid, SuiteSpec

        suite_file = tmp_path / "suite.json"
        suite_file.write_text(
            SuiteSpec(
                name="orbit-smoke",
                grids=(
                    ScenarioGrid(
                        "torus", params={"shape": [(4, 4)]}, radii=(1,)
                    ),
                ),
            ).to_json()
        )
        return suite_file

    @pytest.mark.parametrize(
        "command", [["suite", "run", "paper"], ["serve"]], ids=["suite-run", "serve"]
    )
    def test_share_orbits_flag_rejected(self, command, capsys):
        # The orbit planner is gone: the default path already solves one
        # local LP per view orbit, so the flag no longer exists.  Parsing
        # alone must fail (2), before any suite runs or server starts.
        from repro.cli import _build_parser

        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args([*command, "--share-orbits"])
        assert excinfo.value.code == 2
        assert "--share-orbits" in capsys.readouterr().err

    def test_mode_and_max_workers_are_plumbed(self, capsys, tmp_path):
        suite_file = self._suite_file(tmp_path)
        assert (
            main(
                [
                    "suite",
                    "run",
                    str(suite_file),
                    "--no-cache-dir",
                    "--mode",
                    "thread",
                    "--max-workers",
                    "2",
                ]
            )
            == 0
        )
        assert "SUITE orbit-smoke" in capsys.readouterr().out

    def test_workers_alias_still_accepted(self, capsys, tmp_path):
        suite_file = self._suite_file(tmp_path)
        assert (
            main(
                ["suite", "run", str(suite_file), "--no-cache-dir",
                 "--mode", "thread", "--workers", "2"]
            )
            == 0
        )
        assert "SUITE orbit-smoke" in capsys.readouterr().out


class TestCacheCommand:
    def test_cache_prune_drops_oldest_entries(self, capsys, tmp_path):
        main(["batch", "--family", "cycle", "--radii", "1",
              "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        rows = cache_rows.rows(tmp_path)
        entries = sorted(rows)
        assert entries
        cache_rows.age(tmp_path, entries)
        # A row accounts for its key, checksum and value.
        size = {
            key: len(key) + len(row["sha256"]) + len(row["value"])
            for key, row in rows.items()
        }
        keep = size[entries[-1]]
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-bytes", str(keep)]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        remaining = cache_rows.rows(tmp_path)
        assert 0 < len(remaining) < len(entries)
        # The newest entry survives; the oldest went first.
        assert entries[-1] in remaining and entries[0] not in remaining
        assert sum(size[key] for key in remaining) <= keep

    def test_cache_prune_requires_max_bytes(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--cache-dir", str(tmp_path)])

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        main(["batch", "--family", "cycle", "--radii", "1", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "CACHE" in out
        assert str(tmp_path) in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        # After clearing, the stats table reports zero entries.
        assert " 0 " in capsys.readouterr().out.split("bytes")[1]
