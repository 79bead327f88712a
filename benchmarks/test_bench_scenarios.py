"""Experiment SCENARIOS -- suite expansion throughput and cold vs warm runs.

Two questions about the scenarios layer (:mod:`repro.scenarios`):

* **expansion throughput** — expanding a suite (cartesian product over
  parameter axes and seeds, one validated :class:`ScenarioSpec` per point)
  is pure bookkeeping and must stay negligible next to the solves it
  describes; measured on the built-in ``stress`` suite plus a synthetic
  wide grid (thousands of scenarios);
* **cold vs warm suite execution** — running a suite against a pre-warmed
  cache must be pure cache traffic: the warm benchmark asserts the engine
  executed **zero** LP solves while producing objectives bit-identical to
  the cold run.

This is an ablation of this reproduction's infrastructure, not a figure of
the paper.
"""

from __future__ import annotations

import pytest

from repro.engine import ResultCache
from repro.scenarios import (
    ScenarioGrid,
    SuiteRunner,
    SuiteSpec,
    stress_suite,
)


def bench_suite() -> SuiteSpec:
    """A small suite that still exercises several families and radii."""
    return SuiteSpec(
        name="bench",
        grids=(
            ScenarioGrid("cycle", params={"n": 24}, radii=(1, 2)),
            ScenarioGrid("torus", params={"shape": (4, 4)}, radii=(1,)),
            ScenarioGrid("path", params={"n": [10, 14]}, radii=(1,)),
        ),
    )


def wide_grid_suite() -> SuiteSpec:
    """A synthetic suite that expands to thousands of scenarios."""
    return SuiteSpec(
        name="wide",
        grids=(
            ScenarioGrid(
                "random_bounded_degree",
                params={
                    "n_agents": list(range(10, 60)),
                    "max_resource_support": [2, 3, 4, 5],
                    "max_beneficiary_support": [2, 3],
                },
                seeds=tuple(range(5)),
                radii=(1, 2),
            ),
        ),
    )


@pytest.mark.benchmark(group="scenarios-expand")
def test_expand_stress_suite(benchmark, report):
    """Expansion + validation of the built-in stress suite."""
    suite = stress_suite()

    scenarios = benchmark(lambda: SuiteRunner.expand(suite))
    assert len(scenarios) == len(suite)
    report(
        "SCENARIOS expansion (stress suite)",
        f"{len(scenarios)} scenarios across {len(suite.families)} families",
    )


@pytest.mark.benchmark(group="scenarios-expand")
def test_expand_wide_grid(benchmark, report):
    """Cartesian-product throughput on a grid of thousands of scenarios."""
    suite = wide_grid_suite()

    scenarios = benchmark(lambda: SuiteRunner.expand(suite))
    assert len(scenarios) == 50 * 4 * 2 * 5 == len(suite)
    report(
        "SCENARIOS expansion (wide synthetic grid)",
        f"{len(scenarios)} scenarios from one grid block",
    )


@pytest.mark.benchmark(group="scenarios-run")
def test_suite_cold(benchmark):
    """Cold execution: every LP of the suite is solved."""

    def run():
        runner = SuiteRunner(cache=ResultCache())
        return [r.as_dict() for r in runner.run(bench_suite())]

    results = benchmark(run)
    assert len(results) == len(bench_suite())


@pytest.mark.benchmark(group="scenarios-run")
def test_suite_warm(benchmark, report):
    """Warm execution must perform zero LP solves and match cold numbers."""
    cache = ResultCache()
    cold = SuiteRunner(cache=cache)
    cold_results = list(cold.run(bench_suite()))
    assert cold.engine.stats.executed > 0

    warm = SuiteRunner(cache=cache)

    def run():
        return list(warm.run(bench_suite()))

    warm_results = benchmark(run)
    assert warm.engine.stats.executed == 0, "warm suite run solved LPs"
    for a, b in zip(cold_results, warm_results):
        assert a.optimum == b.optimum
        assert [e.objective for e in a.radii] == [e.objective for e in b.radii]
    report(
        "SCENARIOS cold vs warm",
        f"cold executed {cold.engine.stats.executed} LP solves; "
        f"warm executed 0 (hits: {cache.stats.hits})",
    )
