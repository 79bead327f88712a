"""Experiment CANON -- canonical solve-sharing vs the literal local-LP path.

The Section 5 locality argument says agents with isomorphic radius-``R``
views compute identical local solutions; the engine exploits this by
keying every local LP by its canonical form (:mod:`repro.canon`), so it
solves one local LP per view-equivalence class.  This benchmark
quantifies the collapse on the three symmetric families named by the
acceptance criteria:

* **torus 30x30** (R=2): every view is isomorphic — 900 local LPs collapse
  to 1 distinct solve, and the end-to-end averaging run must be at least
  5x faster than the per-agent baseline;
* **grid 16x16** (R=2): boundary effects leave a handful of positional
  classes — still a collapse from 256 to O(10);
* **random 3-regular bipartite** (R=1): locally tree-like, collapsing to
  the few local tree shapes.

The baseline is a per-agent loop inside this file — exactly the pre-canon
behaviour: one local sub-instance built and solved per agent
(``solve_max_min(problem.local_subproblem(H.ball(u, R)))``).  HiGHS calls
are counted on both sides: the baseline makes one per agent, the shared
path one per orbit.  Correctness is asserted alongside timing (objectives
agree to solver tolerance; the canonical path is bit-identical to the
scalar per-agent reference, which the unit tests cover exhaustively).

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke variant (smaller instances)
and ``REPRO_BENCH_OUT=<path>`` to write the measured rows as JSON — the
artefact that seeds the perf trajectory.

This is an ablation of this reproduction's infrastructure, not a figure of
the paper.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import (
    BatchSolver,
    ResultCache,
    communication_hypergraph,
    grid_instance,
    local_averaging_solution,
)
from repro.canon import partition_views
from repro.lp.backends import count_highs_calls
from repro.lp.maxmin import solve_max_min
from repro.scenarios.registry import build_instance
from repro.scenarios.spec import ScenarioSpec
from tests.averaging_reference import local_averaging_reference

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


def _bipartite(n_side: int, seed: int = 7):
    spec = ScenarioSpec(
        family="random_regular_bipartite",
        params={"n_side": n_side, "degree": 3},
        seed=seed,
        radii=(1,),
    )
    return build_instance(spec)


FAMILIES = {
    "torus": (
        grid_instance((16, 16) if QUICK else (30, 30), torus=True),
        2,
    ),
    "grid": (grid_instance((10, 10) if QUICK else (16, 16)), 2),
    "regular-bipartite": (_bipartite(24 if QUICK else 60), 1),
}


def _per_agent_local_objectives(problem, R):
    """The pre-canon baseline: build and solve every agent's local LP."""
    H = communication_hypergraph(problem)
    return {
        u: solve_max_min(problem.local_subproblem(H.ball(u, R))).objective
        for u in problem.agents
    }


@pytest.fixture(scope="session")
def measurements():
    """One timed (baseline, shared) pair per family; reused by every test."""
    rows = {}
    for label, (problem, R) in FAMILIES.items():
        with count_highs_calls() as baseline_calls:
            start = time.perf_counter()
            baseline = _per_agent_local_objectives(problem, R)
            baseline_seconds = time.perf_counter() - start

        shared_engine = BatchSolver(cache=ResultCache())
        with count_highs_calls() as shared_calls:
            start = time.perf_counter()
            shared = local_averaging_solution(problem, R, engine=shared_engine)
            shared_seconds = time.perf_counter() - start

        # The local LP *values* are unique optima — they must agree across
        # paths to solver precision.  (The solution vectors may differ: a
        # degenerate local LP has many optimal vertices and the canonical
        # column order picks its own.)
        for u in problem.agents:
            assert shared.local_objectives[u] == pytest.approx(
                baseline[u], abs=1e-7
            )
        assert problem.is_feasible(problem.to_array(shared.x), tol=1e-7)

        rows[label] = {
            "family": label,
            "n_agents": problem.n_agents,
            "R": R,
            "baseline_solves": baseline_calls.calls,
            "shared_solves": shared_engine.stats.executed,
            "shared_highs_calls": shared_calls.calls,
            "n_orbits": partition_views(problem, R).n_orbits,
            "baseline_seconds": round(baseline_seconds, 4),
            "shared_seconds": round(shared_seconds, 4),
            "speedup": round(baseline_seconds / shared_seconds, 2),
            "shared_objective": shared.objective,
        }
    return rows


def test_canon_solve_collapse_and_speedup(measurements, report, bench_out):
    """Acceptance: distinct solves collapse n -> O(#classes), torus >= 5x."""
    report(
        "CANON: canonical solve-sharing vs per-agent baseline"
        + (" (quick mode)" if QUICK else ""),
        "\n".join(
            "{family:>20}: agents={n_agents:<4} solves {baseline_solves:>4} -> "
            "{shared_solves:<3} (orbits={n_orbits}), "
            "{baseline_seconds:.2f}s -> {shared_seconds:.2f}s "
            "({speedup:.1f}x)".format(**row)
            for row in measurements.values()
        ),
    )
    bench_out({"quick": QUICK, "rows": list(measurements.values())})
    torus = measurements["torus"]
    assert torus["shared_solves"] <= 5, "torus must collapse to <= 5 solves"
    for row in measurements.values():
        # Exact solver traffic: one HiGHS call per agent before, one per
        # orbit after.
        assert row["baseline_solves"] == row["n_agents"], row
        assert row["shared_highs_calls"] == row["n_orbits"], row
    if not QUICK:
        assert torus["n_agents"] == 900
        assert torus["speedup"] >= 5.0, (
            "the 30x30 torus acceptance criterion is a >= 5x wall-clock win; "
            f"measured {torus['speedup']:.2f}x"
        )
    for row in measurements.values():
        # Orbit counts stay O(#positional classes): far below n even on the
        # boundary-heavy grid family (whose class count is n-independent).
        assert row["shared_solves"] <= max(5, row["n_agents"] // 4)


def test_orbit_counts_match_partition(measurements):
    """The engine's distinct-solve count equals the orbit partition's size."""
    for label, (problem, R) in FAMILIES.items():
        partition = partition_views(problem, R)
        assert partition.n_orbits == measurements[label]["shared_solves"]
        assert partition.n_agents == problem.n_agents


def test_shared_path_bit_identical_on_grid(measurements):
    """Bit-identity spot check at benchmark scale (grid family).

    The shared (canonical, batched) pipeline against the test-only
    per-agent reference ``local_averaging_reference``, which canonicalises
    and pulls back one view at a time.
    """
    problem, R = FAMILIES["grid"]
    shared = local_averaging_solution(problem, R, engine=BatchSolver())
    scalar = local_averaging_reference(problem, R, engine=BatchSolver())
    assert shared.x == scalar.x
    assert shared.local_objectives == scalar.local_objectives
