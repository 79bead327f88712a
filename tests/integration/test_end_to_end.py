"""End-to-end integration tests across subsystems.

These tests exercise the full pipelines the examples and benchmarks rely on:
application model -> max-min LP -> algorithms (central and distributed) ->
interpretation, and the Theorem 3 story (growth bound tightening with R) on
a realistic deployment.
"""

from __future__ import annotations

import pytest

from repro import (
    approximation_ratio,
    communication_hypergraph,
    grid_instance,
    growth_profile,
    local_averaging_solution,
    optimal_solution,
    safe_approximation_guarantee,
    safe_solution,
    unit_disk_instance,
)
from repro.analysis import compare_algorithms, radius_sweep
from repro.distributed import LocalAveragingProgram, SafeProgram, SynchronousSimulator


class TestSensorNetworkPipeline:
    def test_full_pipeline(self, sensor_network):
        problem = sensor_network.to_maxmin_lp()
        optimum = optimal_solution(problem)

        # Central algorithms.
        comparisons = compare_algorithms(
            problem,
            {
                "safe": safe_solution,
                "averaging-R1": lambda p: local_averaging_solution(p, 1).x,
            },
            optimum=optimum.objective,
        )
        assert all(c.feasible for c in comparisons.values())
        assert comparisons["safe"].ratio <= safe_approximation_guarantee(problem) + 1e-9

        # Distributed execution of the safe algorithm matches the central one.
        sim_result = SynchronousSimulator(problem).run(SafeProgram())
        assert sim_result.objective == pytest.approx(
            comparisons["safe"].objective, abs=1e-9
        )

        # Interpretation back in network terms.
        report = sensor_network.interpret_solution(problem, optimum.x)
        assert report.min_area_rate == pytest.approx(optimum.objective, abs=1e-6)
        assert report.lifetime >= 1.0 - 1e-9
        assert max(report.device_usage.values()) <= 1.0 + 1e-6

    def test_distributed_averaging_on_sensor_network(self, sensor_network):
        problem = sensor_network.to_maxmin_lp()
        central = local_averaging_solution(problem, 1)
        distributed = SynchronousSimulator(problem).run(LocalAveragingProgram(1))
        for v in problem.agents:
            assert distributed.x[v] == pytest.approx(central.x[v], abs=1e-9)
        assert distributed.feasible


class TestTheorem3Story:
    def test_bound_tightens_with_radius_on_torus(self):
        problem = grid_instance((6, 6), torus=True)
        H = communication_hypergraph(problem)
        profile = growth_profile(H, 3)
        bounds = [profile.ratio_bound(R) for R in (1, 2, 3)]
        assert bounds[0] >= bounds[1] >= bounds[2] >= 1.0

    def test_radius_sweep_improves_with_radius_on_torus(self):
        problem = grid_instance((6, 6), torus=True)
        rows = radius_sweep(problem, [1, 2])
        # The measured ratio and the certified bound both improve sharply
        # from R = 1 to R = 2 (the local-approximation-scheme regime of
        # Theorem 3); with R = 2 the algorithm is already within a factor
        # ~1.4 of the optimum on this instance.
        assert rows[1]["ratio"] < rows[0]["ratio"]
        assert rows[1]["instance_bound"] < rows[0]["instance_bound"]
        assert rows[-1]["ratio"] <= 1.6
        assert all(row["ratio"] <= row["gamma_bound"] + 1e-6 for row in rows)

    def test_unit_disk_instance_behaves_like_bounded_growth(self):
        problem = unit_disk_instance(30, radius=0.25, max_support=6, seed=11)
        optimum = optimal_solution(problem).objective
        result = local_averaging_solution(problem, 2)
        ratio = approximation_ratio(optimum, result.objective)
        assert ratio <= result.proven_ratio_bound + 1e-6


class TestLocalityOperationally:
    def test_per_node_cost_independent_of_network_size(self):
        # The LOCALITY claim of Section 1.1: the per-node communication of a
        # local algorithm does not grow with the instance; total traffic
        # scales linearly.  (Tori of side >= 5 are used so that the radius-2
        # neighbourhoods do not wrap around and per-node degrees coincide.)
        small = grid_instance((5, 5), torus=True)
        large = grid_instance((9, 9), torus=True)
        per_node = {}
        for name, problem in (("small", small), ("large", large)):
            result = SynchronousSimulator(problem).run(SafeProgram())
            per_node[name] = result.total_payload / problem.n_agents
            assert result.rounds == 1
        assert per_node["large"] == pytest.approx(per_node["small"], rel=0.01)

    def test_rounds_depend_only_on_radius(self):
        for shape in ((4, 4), (6, 6)):
            problem = grid_instance(shape, torus=True)
            result = SynchronousSimulator(problem).run(LocalAveragingProgram(1))
            assert result.rounds == 3
