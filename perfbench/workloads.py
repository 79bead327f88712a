"""Workload inputs, generated from the workload seed.

Every input the program sees is built here from ``--seed``: the same seed
always gives the same scenarios and the same request trace.  Nothing in this
module imports the program except its scenario spec type, so the inputs are
plain data until a worker hands them over.

* ``suite_symmetric`` -- unit-weight tori and grids, whose radius-R views
  are mostly isomorphic: canonicalisation dominates and HiGHS does little.
  These inputs are the same for every seed.  The seeded symmetric families
  (unit-disk graphs, the sensor application) are left out, and so is a
  seeded choice between a shape and its transpose: canonical search makes
  their cost vary up to fourfold from seed to seed, which would swamp the
  changes the benchmark is there to see.
* ``suite_random`` -- randomly weighted families whose views are nearly all
  distinct: canonical search is close to free, HiGHS and the disk-cache
  writes dominate.  The stress suite's ``random_regular_bipartite(n_side=16)``
  grid is left out because its generator crashes on it.
* ``serve_warm`` -- a Zipf trace of ``POST /solve`` requests over a small set
  of randomly weighted cycles that a warm-up pass has already solved, so
  every timed request is a cache hit.  The cycles all have the same length,
  so every seed's requests and replies have the same sizes.

A suite scenario is evaluated at one radius, so a suite of short scenarios
gives the benchmark short units to time.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

SUITE_WORKLOADS = ("suite_symmetric", "suite_random")
WORKLOADS = SUITE_WORKLOADS + ("serve_warm",)

#: serve_warm: distinct scenarios warmed before timing, requests in the
#: trace one iteration replays, and the agents of each scenario's cycle.
SERVE_DISTINCT = 24
SERVE_REQUESTS = 1000
SERVE_CYCLE = 12

#: suite_symmetric's shapes, each run at radii 1-3.
TORUS_SHAPES = ((6, 8), (7, 9), (8, 10))
GRID_SHAPES = ((4, 6), (5, 7), (6, 8))


def _scenario_seeds(rng: random.Random, count: int) -> Tuple[int, ...]:
    return tuple(rng.randrange(2**31) for _ in range(count))


def suite_scenarios(workload: str, seed: int) -> List["ScenarioSpec"]:
    """The scenarios one suite workload runs, in declaration order."""
    from repro.scenarios.spec import ScenarioSpec

    rng = random.Random(f"{workload}:{seed}")
    specs: List[ScenarioSpec] = []

    def add(family: str, params: Dict, seeds, radii) -> None:
        for scenario_seed in seeds:
            for radius in radii:
                specs.append(
                    ScenarioSpec(
                        family, params=params, seed=scenario_seed, radii=(radius,)
                    )
                )

    if workload == "suite_symmetric":
        for family, shapes in (("torus", TORUS_SHAPES), ("grid", GRID_SHAPES)):
            for shape in shapes:
                add(family, {"shape": shape}, (None,), (1, 2, 3))
    elif workload == "suite_random":
        for support in (3, 4, 5):
            add(
                "random_bounded_degree",
                {
                    "n_agents": 16,
                    "max_resource_support": support,
                    "max_beneficiary_support": 3,
                },
                _scenario_seeds(rng, 4),
                (1,),
            )
        for routers in (3, 4):
            add(
                "isp",
                {"n_customers": 6, "n_routers": routers},
                _scenario_seeds(rng, 2),
                (1,),
            )
    else:
        raise ValueError(f"{workload!r} is not a suite workload")
    return specs


def serve_inputs(seed: int) -> Tuple[List["ScenarioSpec"], List[int]]:
    """The distinct scenarios of ``serve_warm`` and its Zipf request trace.

    The trace is a list of indices into the scenario list; scenario ranks
    are shuffled so the most popular scenario differs between seeds.
    """
    from repro.scenarios.spec import ScenarioSpec

    rng = random.Random(f"serve_warm:{seed}")
    specs: List[ScenarioSpec] = []
    for _ in range(SERVE_DISTINCT):
        specs.append(
            ScenarioSpec(
                "cycle",
                params={"n": SERVE_CYCLE, "weights": "random"},
                seed=rng.randrange(2**31),
                radii=(1, 2),
            )
        )
    ranks = list(range(SERVE_DISTINCT))
    rng.shuffle(ranks)
    weights = [1.0 / (rank + 1) for rank in ranks]
    trace = rng.choices(range(SERVE_DISTINCT), weights=weights, k=SERVE_REQUESTS)
    return specs, trace
