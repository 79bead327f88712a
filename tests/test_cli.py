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


def test_batch_subcommand_removed(capsys):
    # ``suite run`` is the batch front end: every instance the old
    # ``batch`` catalogue had is in the built-in ``paper`` suite.
    with pytest.raises(SystemExit) as excinfo:
        main(["batch", "--family", "cycle"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'batch'" in capsys.readouterr().err


def _option_strings(*path):
    """Every option string (and positional dest) of one subcommand."""
    import argparse

    from repro.cli import _build_parser

    parser = _build_parser()
    for name in path:
        (subparsers,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        parser = subparsers.choices[name]
    options = set()
    for action in parser._actions:
        if not isinstance(action, argparse._HelpAction):
            options.update(action.option_strings or [action.dest])
    return options


ENGINE_FLAGS = {"--mode", "--max-workers", "--workers", "--lp-strategy"}
SOLVE_FLAGS = {
    "--lp-chunk-size", "--verify", "--cache-dir", "--no-cache-dir", "--fault-plan"
}


@pytest.mark.parametrize(
    "path, expected",
    [
        pytest.param(
            ("trace", "run"), {"suite", "--out", *ENGINE_FLAGS}, id="trace-run"
        ),
        pytest.param(
            ("suite", "run"),
            {"suite", "--dry-run", "--out", "--checkpoint", "--resume",
             *ENGINE_FLAGS, *SOLVE_FLAGS},
            id="suite-run",
        ),
        pytest.param(
            ("serve",),
            {"--host", "--port", "--verbose", "--deadline", "--max-inflight",
             *ENGINE_FLAGS, *SOLVE_FLAGS},
            id="serve",
        ),
        pytest.param(("canon", "stats"), {"suite"}, id="canon-stats"),
    ],
)
def test_shared_flags_add_no_option(path, expected):
    # The shared flags are declared once and inherited; no subcommand
    # gains an option through them.
    assert _option_strings(*path) == expected


@pytest.mark.parametrize(
    "command",
    [["suite", "run", "paper"], ["serve"], ["trace", "run", "paper"]],
    ids=["suite-run", "serve", "trace-run"],
)
def test_engine_flags_default_to_the_engines_defaults(command):
    # Unset flags build the engine BatchSolver() would build.
    from repro.cli import _build_parser, _engine
    from repro.engine import BatchSolver, ResultCache

    engine = _engine(_build_parser().parse_args(command), ResultCache())
    default = BatchSolver()
    for name in ("mode", "max_workers", "lp_strategy", "lp_chunk_size", "verify"):
        assert getattr(engine, name) == getattr(default, name), name


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e300", "soon"])
def test_serve_rejects_out_of_range_deadlines(value, capsys):
    from repro.cli import _build_parser

    with pytest.raises(SystemExit) as excinfo:
        _build_parser().parse_args(["serve", "--deadline", value])
    assert excinfo.value.code == 2
    assert "--deadline" in capsys.readouterr().err


def test_serve_accepts_a_positive_deadline():
    import threading

    from repro.cli import _build_parser

    parse = _build_parser().parse_args
    assert parse(["serve", "--deadline", "0.5"]).deadline == 0.5
    limit = repr(threading.TIMEOUT_MAX)
    assert parse(["serve", "--deadline", limit]).deadline == threading.TIMEOUT_MAX


@pytest.mark.parametrize(
    "argv",
    [
        # The old ``batch --family`` workloads now run as suite files.
        pytest.param(
            ["suite", "run", "cycle40.json", "--workers"], id="batch-workers"
        ),
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


def _batch_suite(directory):
    """The old ``batch --family cycle --radii 1`` workload as a suite file.

    Return the suite and the path of its JSON file in ``directory``.
    """
    from repro.scenarios import ScenarioGrid, SuiteSpec

    suite = SuiteSpec(
        name="batch",
        grids=(ScenarioGrid("cycle", params={"n": 40}, radii=(1,)),),
    )
    path = directory / "suite.json"
    path.write_text(suite.to_json())
    return suite, path


class TestBatchCommand:
    """What ``repro batch`` did, reached through ``suite run`` on a suite file."""

    def test_batch_runs_and_reports_engine_counters(self, capsys, tmp_path):
        from repro.io import dump_instance, load_instance
        from repro.scenarios import build_instance

        suite, suite_file = _batch_suite(tmp_path)
        run_dir = tmp_path / "run"
        assert main([
            "suite", "run", str(suite_file),
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(run_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "SUITE batch" in out
        assert "Engine/cache counters" in out
        assert (run_dir / "registry.json").is_file()
        assert (run_dir / "results.json").is_file()
        # Instance dumps come from the library, not from a CLI command.
        (spec,) = suite.expand()
        dump_instance(build_instance(spec), run_dir / "instance-00.json")
        assert len(load_instance(run_dir / "instance-00.json").agents) == 40

    def test_batch_warm_rerun_hits_the_disk_cache(self, capsys, tmp_path):
        _, suite_file = _batch_suite(tmp_path)
        args = ["suite", "run", str(suite_file), "--cache-dir", str(tmp_path / "c")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        counters_block = capsys.readouterr().out.split("Engine/cache counters")[1]
        rows = [
            line
            for line in counters_block.splitlines()
            if "|" in line and any(ch.isdigit() for ch in line)
        ]
        executed = int(rows[0].split("|")[2])
        assert executed == 0

    def test_batch_thread_mode_runs(self, capsys, tmp_path):
        _, suite_file = _batch_suite(tmp_path)
        args = ["suite", "run", str(suite_file), "--mode", "thread",
                "--workers", "2", "--no-cache-dir"]
        assert main(args) == 0
        assert "SUITE batch" in capsys.readouterr().out


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

    @pytest.mark.parametrize(
        "radii", ["[0]", "[-1]", "[\"nope\"]"], ids=["zero", "negative", "string"]
    )
    def test_run_rejects_bad_radii(self, radii, tmp_path):
        bad = tmp_path / "bad-radii.json"
        bad.write_text(
            '{"name": "x", "grids": [{"family": "cycle", "radii": %s}]}' % radii
        )
        with pytest.raises(SystemExit, match="invalid suite file"):
            main(["suite", "run", str(bad)])

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
        assert "Engine/cache counters" in out
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

    def test_run_honours_repro_cache_dir_env(self, capsys, monkeypatch, tmp_path):
        """Without --cache-dir, suite run writes where `repro cache` looks."""
        from repro.scenarios import ScenarioGrid, SuiteSpec

        suite_file = tmp_path / "suite.json"
        suite_file.write_text(
            SuiteSpec(
                name="env",
                grids=(ScenarioGrid("cycle", params={"n": 8}, radii=(1,)),),
            ).to_json()
        )
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["suite", "run", str(suite_file)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(cache_dir) in out
        assert cache_rows.rows(cache_dir)


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

    def test_batch_without_out_builds_none(self, built, tmp_path, capsys):
        _, suite_file = _batch_suite(tmp_path)
        assert main(["suite", "run", str(suite_file), "--no-cache-dir"]) == 0
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


class TestTraceCommand:
    def test_out_parent_directories_are_created(self, capsys, tmp_path):
        from repro.scenarios import ScenarioGrid, SuiteSpec

        suite_file = tmp_path / "suite.json"
        suite_file.write_text(
            SuiteSpec(
                name="trace",
                grids=(ScenarioGrid("cycle", params={"n": 6}, radii=(1,)),),
            ).to_json()
        )
        out = tmp_path / "missing" / "dir" / "t.json"
        assert main(["trace", "run", str(suite_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]
        assert str(out) in capsys.readouterr().out


class TestCanonCommand:
    def test_canon_stats_reports_orbits(self, capsys):
        from repro.scenarios import get_suite

        assert main(["canon", "stats", "paper"]) == 0
        out = capsys.readouterr().out
        assert "CANON: radius-R view orbits" in out
        assert "sharing" in out
        # One row per scenario and radius of the suite.
        scenarios = get_suite("paper").expand()
        rows = [line for line in out.splitlines() if "]" in line and "|" in line]
        assert len(rows) == sum(len(spec.radii) for spec in scenarios)
        # The 6x6 torus is vertex-transitive: one orbit for all 36 agents.
        torus_row = [line for line in rows if "torus[shape=6x6]" in line][0]
        cells = [cell.strip() for cell in torus_row.split("|")]
        assert cells[1:4] == ["1", "36", "1"]  # R=1, agents=36, orbits=1

    def test_canon_stats_runs_on_a_suite_file(self, capsys, tmp_path):
        from repro.scenarios import ScenarioGrid, SuiteSpec

        suite_file = tmp_path / "suite.json"
        suite_file.write_text(
            SuiteSpec(
                name="canon",
                grids=(ScenarioGrid("cycle", params={"n": 12}, radii=(1, 2)),),
            ).to_json()
        )
        assert main(["canon", "stats", str(suite_file)]) == 0
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("cycle[n=12]")
        ]
        assert [row[1:4] for row in rows] == [["1", "12", "1"], ["2", "12", "1"]]

    def test_canon_stats_rejects_unknown_suite(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="unknown suite"):
            main(["canon", "stats", "no-such-suite"])
        bad = tmp_path / "bad-family.json"
        bad.write_text('{"name": "x", "grids": [{"family": "no-such-family"}]}')
        with pytest.raises(SystemExit, match="unknown instance family"):
            main(["canon", "stats", str(bad)])
        # The per-family flags are gone: parsing alone exits 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["canon", "stats", "paper", "--family", "grid"])
        assert excinfo.value.code == 2

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


def _fill_cache(cache_dir):
    """Solve a cycle n=40 R=1 suite into ``cache_dir``."""
    _, suite_file = _batch_suite(cache_dir)
    assert main(["suite", "run", str(suite_file), "--cache-dir", str(cache_dir)]) == 0


class TestCacheCommand:
    def test_cache_prune_drops_oldest_entries(self, capsys, tmp_path):
        _fill_cache(tmp_path)
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
        _fill_cache(tmp_path)
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
