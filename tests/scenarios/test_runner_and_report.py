"""Tests for the suite runner, streaming, warm-cache behaviour and reports."""

from __future__ import annotations

import json

import pytest

from repro.engine import BatchSolver, ResultCache, RunRegistry
from repro.scenarios import (
    ScenarioGrid,
    ScenarioSpec,
    SuiteRunner,
    SuiteSpec,
    get_suite,
    render_markdown,
    render_text,
    write_artifacts,
)


def tiny_suite() -> SuiteSpec:
    return SuiteSpec(
        name="tiny",
        description="small suite for unit tests",
        grids=(
            ScenarioGrid("cycle", params={"n": 8}, radii=(1, 2)),
            ScenarioGrid("path", params={"n": [6, 8]}, radii=(1,)),
            ScenarioGrid("torus", params={"shape": (3, 3)}, radii=(1,)),
        ),
    )


class TestSuiteRunner:
    def test_lp_strategy_forwarded_and_values_agree(self):
        base = SuiteRunner().run_suite(tiny_suite())
        stacked_runner = SuiteRunner(
            engine=BatchSolver(
                cache=ResultCache(), lp_strategy="stacked", lp_chunk_size=16
            )
        )
        assert stacked_runner.engine.lp_strategy == "stacked"
        assert stacked_runner.engine.lp_chunk_size == 16
        stacked = stacked_runner.run_suite(tiny_suite())
        for a, b in zip(base.results, stacked.results):
            # Optimal values are unique (unlike the solution vertices): the
            # reference optimum and safe baseline must agree to tolerance.
            assert b.optimum == pytest.approx(a.optimum, abs=1e-9)
            assert b.safe_objective == pytest.approx(a.safe_objective, abs=1e-12)

    def test_streaming_yields_one_result_per_scenario(self):
        runner = SuiteRunner()
        stream = runner.run(tiny_suite())
        first = next(stream)
        # The generator really streams: the first record arrives before the
        # rest of the suite has been consumed.
        assert first.family == "cycle"
        rest = list(stream)
        assert [r.family for r in rest] == ["path", "path", "torus"]

    def test_results_are_consistent(self):
        report = SuiteRunner().run_suite(tiny_suite())
        assert len(report.results) == 4
        for result in report.results:
            assert result.optimum > 0
            assert result.safe_ratio >= 1.0 - 1e-9
            assert result.safe_ratio <= result.safe_guarantee + 1e-9
            for entry in result.radii:
                assert entry.ratio >= 1.0 - 1e-9
                assert entry.ratio <= entry.proven_ratio_bound + 1e-6

    def test_accepts_loose_scenario_lists(self):
        specs = [ScenarioSpec(family="cycle", params={"n": 8}, radii=(1,))]
        report = SuiteRunner().run_suite(specs)
        assert len(report.results) == 1
        assert report.suite.name == "ad-hoc"

    def test_loose_specs_keep_their_labels_and_round_trip(self):
        spec = ScenarioSpec(
            family="cycle", params={"n": 8}, radii=(1,), label="my-test"
        )
        report = SuiteRunner().run_suite([spec])
        assert report.results[0].label == "my-test"
        # The embedded suite re-expands to the original spec, label included.
        assert report.suite.expand() == [spec]

    def test_on_result_callback_streams(self):
        seen = []
        report = SuiteRunner().run_suite(
            tiny_suite(), on_result=lambda r: seen.append(r.label)
        )
        assert seen == [r.label for r in report.results]

    def test_specs_are_hashable(self):
        a = ScenarioSpec(family="cycle", params={"n": 8, "weights": "unit"})
        b = ScenarioSpec(family="cycle", params={"weights": "unit", "n": 8})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert len({tiny_suite(), tiny_suite()}) == 1

    def test_shared_engine_deduplicates_across_scenarios(self):
        # The same cycle appears in two scenarios; the reference optimum is
        # submitted once thanks to the shared batch + cache.
        suite = SuiteSpec(
            name="dup",
            grids=(
                ScenarioGrid("cycle", params={"n": 8}, radii=(1,)),
                ScenarioGrid("cycle", params={"n": 8}, radii=(1, 2)),
            ),
        )
        runner = SuiteRunner()
        report = runner.run_suite(suite)
        stats = report.engine_stats
        assert stats["dedup_saved"] + report.cache_stats["hits"] > 0
        # Identical scenarios produce identical numbers.
        a, b = report.results
        assert a.optimum == b.optimum
        assert a.radii[0].objective == b.radii[0].objective

    def test_radiusless_scenarios_run_baselines_only(self):
        spec = ScenarioSpec(family="cycle", params={"n": 8}, radii=())
        (result,) = list(SuiteRunner().run([spec]))
        assert result.radii == ()
        assert result.safe_ratio >= 1.0 - 1e-9

    def test_invalid_spec_fails_before_any_solve(self):
        from repro.exceptions import ScenarioError

        suite = SuiteSpec(
            name="bad",
            grids=(
                ScenarioGrid("cycle", params={"n": 8}),
                ScenarioGrid("cycle", params={"bogus": 1}),
            ),
        )
        runner = SuiteRunner()
        with pytest.raises(ScenarioError, match="bogus"):
            next(runner.run(suite))
        assert runner.engine.stats.executed == 0


class TestEngineOptionsLiveOnTheEngine:
    """``SuiteRunner`` takes an engine (or a cache); the engine's options
    are :class:`BatchSolver`'s alone."""

    @pytest.mark.parametrize(
        "option, value",
        [
            ("mode", "thread"),
            ("max_workers", 2),
            ("registry", None),
            ("lp_strategy", "stacked"),
            ("lp_chunk_size", 16),
            ("verify", "all"),
        ],
    )
    def test_forwarded_engine_options_removed(self, option, value):
        with pytest.raises(TypeError, match=option):
            SuiteRunner(**{option: value})

    def test_cache_shorthand_builds_the_default_engine(self):
        cache = ResultCache()
        engine = SuiteRunner(cache=cache).engine
        assert engine.cache is cache
        assert (engine.mode, engine.max_workers) == ("serial", None)
        assert (engine.lp_strategy, engine.lp_chunk_size) == ("per-lp", 64)
        assert engine.verify == "off" and engine.registry is None

    def test_engine_and_cache_together_are_rejected(self):
        """The cache would be dropped: the given engine keeps its own."""
        with pytest.raises(TypeError, match=r"engine=.*cache="):
            SuiteRunner(engine=BatchSolver(), cache=ResultCache())

    def test_no_argument_builds_an_in_memory_cache(self):
        engine = SuiteRunner().engine
        assert engine.cache is not None and engine.cache.directory is None


class TestWarmCache:
    def test_paper_suite_warm_rerun_solves_zero_lps(self, tmp_path):
        """Acceptance: a second run against a warm disk cache does no LP work."""
        suite = get_suite("paper")
        cold = SuiteRunner(cache=ResultCache(directory=tmp_path))
        cold_report = cold.run_suite(suite)
        assert cold.engine.stats.executed > 0

        warm = SuiteRunner(cache=ResultCache(directory=tmp_path))
        warm_report = warm.run_suite(suite)
        assert warm.engine.stats.executed == 0
        assert warm.engine.cache.stats.hits > 0

        # Warm results are bit-identical to cold ones.
        for a, b in zip(cold_report.results, warm_report.results):
            assert a.optimum == b.optimum
            assert a.safe_objective == b.safe_objective
            assert [e.objective for e in a.radii] == [e.objective for e in b.radii]

    def test_paper_suite_covers_every_family(self):
        suite = get_suite("paper")
        from repro.scenarios import list_families

        assert set(suite.families) == set(list_families())


class TestReport:
    def test_family_summaries_aggregate_ratios(self):
        report = SuiteRunner().run_suite(tiny_suite())
        rows = report.family_summaries()
        families = {row["family"] for row in rows}
        assert families == {"cycle", "path", "torus"}
        baseline_rows = [row for row in rows if row["R"] == "-"]
        assert {row["family"] for row in baseline_rows} == families
        for row in rows:
            assert row["mean_ratio"] <= row["worst_ratio"] + 1e-12
            assert row["scenarios"] >= 1

    def test_family_summaries_count_samples_per_radius(self):
        # Two cycle scenarios, but only one runs R=2: its summary row must
        # report 1 sample, not the whole-family count.
        suite = SuiteSpec(
            name="mixed",
            grids=(
                ScenarioGrid("cycle", params={"n": 8}, radii=(1,)),
                ScenarioGrid("cycle", params={"n": 10}, radii=(1, 2)),
            ),
        )
        rows = SuiteRunner().run_suite(suite).family_summaries()
        by_radius = {row["R"]: row["scenarios"] for row in rows}
        assert by_radius == {"-": 2, 1: 2, 2: 1}

    def test_render_text_and_markdown(self):
        report = SuiteRunner().run_suite(tiny_suite())
        text = render_text(report)
        assert "SUITE tiny" in text
        assert "Per-family approximation-ratio summary" in text
        md = render_markdown(report)
        assert "# Suite report: `tiny`" in md
        assert "| family" in md

    def test_write_artifacts_round_trips(self, tmp_path):
        runner = SuiteRunner(
            engine=BatchSolver(cache=ResultCache(), registry=RunRegistry())
        )
        report = runner.run_suite(tiny_suite())
        paths = write_artifacts(report, tmp_path / "out")
        assert paths["json"].is_file() and paths["markdown"].is_file()
        data = json.loads(paths["json"].read_text())
        assert data["n_scenarios"] == 4
        assert len(data["results"]) == 4
        # The artefact embeds its own suite spec, so it can be re-expanded.
        embedded = SuiteSpec.from_dict(data["suite"])
        assert embedded.expand() == tiny_suite().expand()
        for record in data["results"]:
            spec = ScenarioSpec.from_dict(record["spec"])
            assert spec.scenario_id == record["scenario_id"]

    def test_engine_counters_are_reported(self):
        engine = BatchSolver(mode="serial", cache=ResultCache())
        report = SuiteRunner(engine=engine).run_suite(tiny_suite())
        assert report.engine_stats["executed"] > 0
        assert report.cache_stats["puts"] > 0
