"""Experiment VIEWS -- vectorized view-extraction pipeline vs scalar loops.

Canonical keying collapsed the Section 5 pipeline's *solver* cost (one
LP per view orbit); what remained was per-agent Python: one BFS ball, one local-LP
structure extraction and one canonicalisation per agent.  The
:mod:`repro.views` pipeline replaces those n-fold loops with batched
sparse-matrix sweeps.  This benchmark pins the acceptance criteria:

* **end-to-end**: ``local_averaging_solution`` on the 30x30 unit torus
  must be at least **4x** faster through the vectorized pipeline than
  through the scalar reference path (``vectorized=False`` -- the
  per-agent pipeline, kept callable exactly for this comparison);
* **ball extraction**: the batch membership kernel must beat a per-agent
  ``Hypergraph.ball`` loop by at least **10x** (48x48 torus, R=3);
* **bit-identity**: on every scenario family in the registry the two
  paths agree *exactly* -- same floats in ``x``, ``beta`` and the
  objective, not just to tolerance.

Timings take the best of three runs per path (fresh engine and cache each
run, so nothing is served from a warm cache).  Set ``REPRO_BENCH_QUICK=1``
for the CI smoke variant (smaller instances, no speedup asserts -- fixed
overheads dominate at toy scale) and ``REPRO_BENCH_OUT=<path>`` to write
the measured rows as JSON.

This is an ablation of this reproduction's infrastructure, not a figure of
the paper.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import BatchSolver, local_averaging_solution
from repro.cli import bench_measurements
from repro.scenarios.registry import build_instance, list_families
from repro.scenarios.spec import ScenarioSpec

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
    """Best-of-N timings for both acceptance benchmarks.

    Delegates to :func:`repro.cli.bench_measurements` — the same protocol
    the ``repro bench`` CLI (and its CI regression gate against the
    committed baseline) runs, so the two can never drift apart.
    """
    return bench_measurements(QUICK, REPEATS)


def test_views_speedups(measurements, report):
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
    if not QUICK:
        assert e2e["speedup"] >= 4.0, (
            "the 30x30 torus acceptance criterion is a >= 4x end-to-end "
            f"win for the vectorized pipeline; measured {e2e['speedup']:.2f}x"
        )
        assert balls["speedup"] >= 10.0, (
            "batch ball extraction must beat the per-agent loop by >= 10x; "
            f"measured {balls['speedup']:.2f}x"
        )

    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        Path(out).write_text(json.dumps(measurements, indent=2))


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_bit_identical_on_every_registry_family(family):
    """Exact float equality between scalar and vectorized paths, per family."""
    assert set(FAMILY_PARAMS) == set(list_families()), (
        "a registered family is missing from the bit-identity sweep; "
        "add it to FAMILY_PARAMS"
    )
    spec = ScenarioSpec(
        family=family, params=FAMILY_PARAMS[family], seed=11, radii=(1,)
    )
    problem = build_instance(spec)
    fast = local_averaging_solution(
        problem, 1, engine=BatchSolver(), vectorized=True
    )
    slow = local_averaging_solution(
        problem, 1, engine=BatchSolver(), vectorized=False
    )
    assert fast.x == slow.x
    assert fast.beta == slow.beta
    assert fast.objective == slow.objective
    assert fast.local_objectives == slow.local_objectives
    assert fast.view_sizes == slow.view_sizes
