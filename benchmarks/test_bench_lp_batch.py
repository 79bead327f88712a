"""Experiment LP-BATCH -- block-diagonal batched solving vs per-LP calls.

With view extraction vectorized, the Section 5 pipeline's time sits
inside the LP solver: one HiGHS call (:func:`repro.lp.backends.call_highs`,
about 0.5 ms on a local LP, 0.2-0.3 ms of it HiGHS's own solve) per
canonical-representative local LP and per baseline optimum.  The engine's
stacked strategy (:func:`repro.lp.maxmin.solve_maxmin_buffer_batch`)
amortises the per-call part by stacking each chunk into one
block-diagonal LP and splitting the solution back per block.  This
benchmark pins the acceptance criteria:

* **one HiGHS call**: a stacked chunk of feasible local LPs must register
  exactly one call on the :func:`repro.lp.count_highs_calls` shim, however
  many LPs it carries;
* **end-to-end**: the 30x30 random-weight torus averaging run (R=1, 900
  distinct canonical local LPs) must make exactly 900 HiGHS calls under
  the per-LP engine and 6 under ``BatchSolver(lp_strategy="stacked")``
  (chunks of 150) in every timed run, and must not be slower stacked
  (speed-up at least **1.0x**);
* **value equality**: on every scenario family in the registry the
  stacked strategy returns the same statuses and the same optimal values
  as the per-LP path (to solver tolerance; degenerate LPs may pick a
  different equally-optimal *vertex*, which is why the batched strategy
  is opt-in rather than the engine default).

Timings take the best of three runs per strategy (fresh engine and cache
each run; the canonical index is shared because labelings are pure
functions of the views, so the comparison isolates the solve side).

The exact call counts are the gate against a stacked path that degrades
toward one HiGHS call per LP.  The time floor is set about 20% below the
lowest of the fresh-process runs it is calibrated on, and not under 1.0x,
so stacking may never lose to per-LP solving.  Inside HiGHS a stack is
barely faster than its blocks solved one by one (about 1.1x for a
150-block torus stack), so the speed-up is per-call costs saved, and each
thread now reuses one HiGHS instance (:func:`repro.lp.backends._run_highs`),
which takes about 0.2 ms off every per-LP call.  Measured on a 2-core Intel
Xeon (SciPy 1.17.1):

* set first: 16 full-mode runs, per-LP base 1.5-2.0 s, 1.70-2.14x
  (median 1.9x), floor 1.4x; 12 quick runs 1.73-2.26x, floor 1.33x;
* before reuse: 13 full-mode runs, per-LP base 0.70-0.88 s, 1.49-1.83x
  (median 1.64x); four quick runs 1.54-1.60x;
* with reuse: 12 full-mode runs, per-LP base 0.75-1.22 s, 1.21-1.71x
  (median 1.40x); six quick runs 1.21-1.49x (median 1.34x).  Both floors
  are now 1.0x.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke variant: a 16x16 torus, with
256 per-LP and 2 stacked calls per run.  Set ``REPRO_BENCH_OUT=<path>`` to
write the measured rows as JSON.

This is an ablation of this reproduction's infrastructure, not a figure of
the paper.
"""

from __future__ import annotations

import math
import os
import time

import pytest

from repro import (
    BatchSolver,
    ResultCache,
    grid_instance,
    local_averaging_solution,
)
from repro.canon.labeling import CanonicalIndex
from repro.hypergraph.communication import communication_hypergraph
from repro.lp import CompiledMaxMin, LPStatus, count_highs_calls, verify_solution
from repro.lp.maxmin import solve_maxmin_buffer_batch
from repro.scenarios.registry import build_instance, list_families
from repro.scenarios.spec import ScenarioSpec

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 3

#: The e2e torus and the HiGHS calls one run of it makes per strategy: one
#: per distinct local LP, or one per stacked chunk of 150.
E2E_SHAPE = (16, 16) if QUICK else (30, 30)
E2E_HIGHS_CALLS = (
    {"per-lp": 256, "stacked": 2} if QUICK else {"per-lp": 900, "stacked": 6}
)

#: One small scenario per registered family for the value-equality sweep.
FAMILY_PARAMS = {
    "cycle": {"n": 16},
    "path": {"n": 12},
    "grid": {"shape": (4, 4)},
    "torus": {"shape": (4, 4)},
    "unit_disk": {"n": 16, "radius": 0.3},
    "random_bounded_degree": {"n_agents": 14},
    "random_regular_bipartite": {"n_side": 6},
    "sidon_bipartite": {"degree": 3},
    "isp": {"n_customers": 5, "n_routers": 3},
    "sensor": {"n_sensors": 10, "n_relays": 4, "n_areas": 3},
}


@pytest.fixture(scope="session")
def measurements():
    """Best-of-N timings for the end-to-end acceptance benchmark.

    ``lp_batch_e2e`` -- the random-weight torus averaging run (R=1; every
    view is a distinct canonical class, so the engine really solves one
    local LP per agent) under ``lp_strategy="per-lp"`` vs ``"stacked"``.
    Both engines share one warmed
    :class:`~repro.canon.labeling.CanonicalIndex`, so the comparison
    isolates the solve side.
    """
    problem = grid_instance(E2E_SHAPE, torus=True, weights="random", seed=0)
    shared_index = CanonicalIndex()
    warmup = BatchSolver(cache=ResultCache(), canon_index=shared_index)
    local_averaging_solution(problem, 1, engine=warmup)

    seconds = {"per-lp": float("inf"), "stacked": float("inf")}
    calls = {"per-lp": [], "stacked": []}
    for _ in range(REPEATS):
        for strategy in ("per-lp", "stacked"):
            engine = BatchSolver(
                cache=ResultCache(),
                lp_strategy=strategy,
                lp_chunk_size=150,
                canon_index=shared_index,
            )
            with count_highs_calls() as counter:
                start = time.perf_counter()
                local_averaging_solution(problem, 1, engine=engine)
                elapsed = time.perf_counter() - start
            seconds[strategy] = min(seconds[strategy], elapsed)
            calls[strategy].append(counter.calls)

    return {
        "quick": QUICK,
        "lp_batch_e2e": {
            "shape": list(E2E_SHAPE),
            "R": 1,
            "per_lp_seconds": round(seconds["per-lp"], 4),
            "stacked_seconds": round(seconds["stacked"], 4),
            "speedup": round(seconds["per-lp"] / seconds["stacked"], 2),
            "per_lp_highs_calls": calls["per-lp"],
            "stacked_highs_calls": calls["stacked"],
        },
    }


def _family_local_units(family: str, R: int = 1):
    """The distinct local LPs of one registry family's small scenario."""
    spec = ScenarioSpec(
        family=family, params=FAMILY_PARAMS[family], seed=11, radii=(R,)
    )
    problem = build_instance(spec)
    H = communication_hypergraph(problem)
    seen = {}
    for u in problem.agents:
        sub = problem.local_subproblem(H.ball(u, R))
        if sub.n_beneficiaries and sub.n_agents:
            seen.setdefault(sub, CompiledMaxMin.from_problem(sub))
    return list(seen.values())


def test_single_highs_call_for_all_feasible_batch():
    """Acceptance: one stacked batch of feasible LPs = exactly one HiGHS call."""
    units = _family_local_units("torus")
    assert len(units) > 1
    with count_highs_calls() as counter:
        results = solve_maxmin_buffer_batch(
            [unit.to_buffers() for unit in units], strategy="stacked"
        )
    assert counter.calls == 1, (
        f"an all-feasible stacked batch of {len(units)} LPs must cost exactly "
        f"one HiGHS call; counted {counter.calls}"
    )
    assert all(status == LPStatus.OPTIMAL.value for status, _ in results)


def test_lp_batch_speedups(measurements, report, bench_out):
    """Acceptance: exact HiGHS calls and >= 1.0x e2e on the torus run."""
    e2e = measurements["lp_batch_e2e"]
    report(
        "LP-BATCH: block-diagonal batched solving vs per-LP calls"
        + (" (quick mode)" if QUICK else ""),
        (
            f"averaging e2e, random torus {tuple(e2e['shape'])} R={e2e['R']}: "
            f"{e2e['per_lp_seconds']:.3f}s -> {e2e['stacked_seconds']:.3f}s "
            f"({e2e['speedup']:.2f}x)"
        ),
    )
    bench_out(measurements)
    # Exact, so a stacked path that degrades toward one call per LP fails
    # here whatever the timings.
    assert e2e["per_lp_highs_calls"] == [E2E_HIGHS_CALLS["per-lp"]] * REPEATS
    assert e2e["stacked_highs_calls"] == [E2E_HIGHS_CALLS["stacked"]] * REPEATS
    assert e2e["speedup"] >= 1.0, (
        f"the {E2E_SHAPE[0]}x{E2E_SHAPE[1]} torus averaging run must not be "
        f"slower through the stacked engine; measured {e2e['speedup']:.2f}x"
    )


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_stacked_matches_per_lp_on_every_registry_family(family):
    """Stacked == per-LP statuses and optimal values, per registry family."""
    assert set(FAMILY_PARAMS) == set(list_families()), (
        "a registered family is missing from the equality sweep; "
        "add it to FAMILY_PARAMS"
    )
    units = _family_local_units(family)
    assert units, "family produced no solvable local LPs"
    buffers = [unit.to_buffers() for unit in units]
    with count_highs_calls() as counter:
        stacked = solve_maxmin_buffer_batch(buffers, strategy="stacked")
    assert counter.calls == 1
    per_lp = solve_maxmin_buffer_batch(buffers, strategy="per-lp")
    for unit, (fast_status, fast_x), (slow_status, slow_x) in zip(
        units, stacked, per_lp
    ):
        assert fast_status == slow_status
        # Each vector is (x, ω); the optimal ω is unique.
        assert math.isclose(
            fast_x[-1], slow_x[-1], rel_tol=1e-9, abs_tol=1e-9
        ), f"objective diverged: {fast_x[-1]} vs {slow_x[-1]}"
        # The stacked block's solution must be feasible and optimal for
        # *its own* LP, whichever vertex was picked.
        verify_solution(unit, (fast_x[:-1], fast_x[-1]), tol=1e-7)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_stacked_engine_matches_per_lp_engine(family):
    """Whole-pipeline equality per family: local ω's, optima and feasibility."""
    spec = ScenarioSpec(
        family=family, params=FAMILY_PARAMS[family], seed=11, radii=(1,)
    )
    problem = build_instance(spec)
    per_lp_engine = BatchSolver(cache=ResultCache())
    stacked_engine = BatchSolver(cache=ResultCache(), lp_strategy="stacked")
    base = local_averaging_solution(problem, 1, engine=per_lp_engine)
    fast = local_averaging_solution(problem, 1, engine=stacked_engine)
    # The local LP optimal values are unique (unlike the vertices) and must
    # agree to solver tolerance, as must the exact reference optimum.
    for u in problem.agents:
        a, b = base.local_objectives[u], fast.local_objectives[u]
        if math.isinf(a) or math.isinf(b):
            assert a == b
        else:
            assert math.isclose(a, b, rel_tol=1e-7, abs_tol=1e-7)
    opt_a = per_lp_engine.solve_maxmin(problem)
    opt_b = stacked_engine.solve_maxmin(problem)
    assert math.isclose(
        opt_a.objective, opt_b.objective, rel_tol=1e-9, abs_tol=1e-9
    )
    # Both averaged outputs are feasible solutions of the instance.
    assert problem.is_feasible(problem.to_array(base.x))
    assert problem.is_feasible(problem.to_array(fast.x))
