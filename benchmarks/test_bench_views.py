"""Experiment VIEWS -- vectorized view-extraction pipeline vs scalar loops.

Canonical keying collapsed the Section 5 pipeline's *solver* cost (one
LP per view orbit); what remained was per-agent Python: one BFS ball, one local-LP
structure extraction and one canonicalisation per agent.  The
:mod:`repro.views` pipeline replaces those n-fold loops with batched
sparse-matrix sweeps.  This benchmark pins the acceptance criteria:

* **end-to-end**: ``local_averaging_solution`` on the 30x30 unit torus
  must be at least **4x** faster than the per-agent scalar reference
  ``local_averaging_reference`` (``tests/averaging_reference.py``: one
  BFS ball, canonicalisation and set loop per agent, test-only);
* **ball extraction**: the batch membership kernel must beat a per-agent
  ``Hypergraph.ball`` loop by at least **10x** (48x48 torus, R=3);
* **bit-identity**: on every scenario family in the registry the pipeline
  and the reference agree *exactly* -- same floats in ``x``, ``beta`` and
  the objective, not just to tolerance.

Timings take the best of three runs per path (fresh engine and cache each
run, so nothing is served from a warm cache).  Set ``REPRO_BENCH_QUICK=1``
for the CI smoke variant: a 16x16 torus end to end and a 24x24 torus at
R=2 for the balls, where fixed overheads dominate, so the floors drop to
**1.54x** and **3.85x** (quick-mode runs on a 2-core Xeon measured about
2.7x and 9.7x).  Set ``REPRO_BENCH_OUT=<path>`` to write the measured rows
as JSON.

This is an ablation of this reproduction's infrastructure, not a figure of
the paper.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import BatchSolver, ResultCache, grid_instance, local_averaging_solution
from repro.hypergraph.communication import communication_hypergraph
from repro.scenarios.registry import build_instance, list_families
from repro.scenarios.spec import ScenarioSpec
from repro.views import ball_membership
from tests.averaging_reference import local_averaging_reference

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 3

#: One small scenario per registered family for the exact-equality sweep.
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
    """Best-of-N timings for both acceptance benchmarks."""
    e2e_shape = (16, 16) if QUICK else (30, 30)
    balls_shape = (24, 24) if QUICK else (48, 48)
    balls_radius = 2 if QUICK else 3

    problem = grid_instance(e2e_shape, torus=True)
    scalar_s = vector_s = float("inf")
    for _ in range(REPEATS):
        for solve in (local_averaging_reference, local_averaging_solution):
            engine = BatchSolver(cache=ResultCache())
            start = time.perf_counter()
            solve(problem, 2, engine=engine)
            elapsed = time.perf_counter() - start
            if solve is local_averaging_solution:
                vector_s = min(vector_s, elapsed)
            else:
                scalar_s = min(scalar_s, elapsed)

    H = communication_hypergraph(grid_instance(balls_shape, torus=True))
    H.adjacency_csr()
    ball_scalar = ball_batch = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for u in H.nodes:
            H.ball(u, balls_radius)
        ball_scalar = min(ball_scalar, time.perf_counter() - start)
        start = time.perf_counter()
        ball_membership(H, balls_radius)
        ball_batch = min(ball_batch, time.perf_counter() - start)

    return {
        "quick": QUICK,
        "e2e": {
            "shape": list(e2e_shape),
            "R": 2,
            "scalar_seconds": round(scalar_s, 4),
            "vectorized_seconds": round(vector_s, 4),
            "speedup": round(scalar_s / vector_s, 2),
        },
        "balls": {
            "shape": list(balls_shape),
            "R": balls_radius,
            "scalar_seconds": round(ball_scalar, 4),
            "batch_seconds": round(ball_batch, 4),
            "speedup": round(ball_scalar / ball_batch, 2),
        },
    }


def test_views_speedups(measurements, report, bench_out):
    """Acceptance: >= 4x end-to-end on the 30x30 torus, >= 10x batch balls."""
    e2e, balls = measurements["e2e"], measurements["balls"]
    report(
        "VIEWS: vectorized pipeline vs scalar loops"
        + (" (quick mode)" if QUICK else ""),
        (
            f"end-to-end {tuple(e2e['shape'])} torus R={e2e['R']}: "
            f"{e2e['scalar_seconds']:.3f}s -> {e2e['vectorized_seconds']:.3f}s "
            f"({e2e['speedup']:.2f}x)\n"
            f"batch balls {tuple(balls['shape'])} torus R={balls['R']}: "
            f"{balls['scalar_seconds'] * 1000:.1f}ms -> "
            f"{balls['batch_seconds'] * 1000:.1f}ms ({balls['speedup']:.2f}x)"
        ),
    )
    bench_out(measurements)
    if QUICK:
        assert e2e["speedup"] >= 1.54, (
            "the 16x16 torus quick run must stay >= 1.54x faster through the "
            f"vectorized pipeline; measured {e2e['speedup']:.2f}x"
        )
        assert balls["speedup"] >= 3.85, (
            "quick-mode batch ball extraction must beat the per-agent loop "
            f"by >= 3.85x; measured {balls['speedup']:.2f}x"
        )
    else:
        assert e2e["speedup"] >= 4.0, (
            "the 30x30 torus acceptance criterion is a >= 4x end-to-end "
            f"win for the vectorized pipeline; measured {e2e['speedup']:.2f}x"
        )
        assert balls["speedup"] >= 10.0, (
            "batch ball extraction must beat the per-agent loop by >= 10x; "
            f"measured {balls['speedup']:.2f}x"
        )


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_bit_identical_on_every_registry_family(family):
    """Exact float equality between the pipeline and the scalar reference."""
    assert set(FAMILY_PARAMS) == set(list_families()), (
        "a registered family is missing from the bit-identity sweep; "
        "add it to FAMILY_PARAMS"
    )
    spec = ScenarioSpec(
        family=family, params=FAMILY_PARAMS[family], seed=11, radii=(1,)
    )
    problem = build_instance(spec)
    fast = local_averaging_solution(problem, 1, engine=BatchSolver())
    slow = local_averaging_reference(problem, 1, engine=BatchSolver())
    assert fast.x == slow.x
    assert fast.beta == slow.beta
    assert fast.objective == slow.objective
    assert fast.local_objectives == slow.local_objectives
    assert fast.view_sizes == slow.view_sizes
