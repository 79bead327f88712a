"""Tests for view-orbit partitioning and per-orbit solve sharing."""

from __future__ import annotations

import pytest

from repro import (
    BatchSolver,
    ResultCache,
    grid_instance,
    local_averaging_solution,
    partition_views,
)


class TestPartitionViews:
    def test_rejects_non_positive_radius(self, cycle8):
        with pytest.raises(ValueError, match="radius"):
            partition_views(cycle8, 0)

    def test_partition_covers_all_agents_exactly_once(self, grid4x4):
        partition = partition_views(grid4x4, 1)
        members = [u for orbit in partition.orbits for u in orbit.members]
        assert sorted(map(repr, members)) == sorted(map(repr, grid4x4.agents))
        assert partition.n_agents == grid4x4.n_agents

    def test_torus_collapses_to_one_orbit(self):
        problem = grid_instance((6, 6), torus=True)
        partition = partition_views(problem, 2)
        assert partition.n_orbits == 1
        assert partition.sharing_factor == problem.n_agents

    def test_grid_has_positional_classes(self):
        # 8x8 grid, R=1: corners, edges and interior rings at distinct
        # boundary distances give a handful of classes, far fewer than n.
        problem = grid_instance((8, 8))
        partition = partition_views(problem, 1)
        assert 1 < partition.n_orbits < problem.n_agents / 4
        summary = partition.summary()
        assert summary["agents"] == 64
        assert summary["orbits"] == partition.n_orbits
        assert summary["inexact"] == 0

    def test_orbit_of_and_representative(self, cycle8):
        partition = partition_views(cycle8, 2)
        orbit = partition.orbit_of(cycle8.agents[3])
        assert cycle8.agents[3] in orbit.members
        assert orbit.representative == orbit.members[0]

    def test_reused_index_does_not_change_partition(self, grid4x4):
        from repro.canon.labeling import CanonicalIndex

        index = CanonicalIndex()
        first = partition_views(grid4x4, 1, index=index)
        second = partition_views(grid4x4, 1, index=index)
        assert [orbit.key for orbit in first.orbits] == [
            orbit.key for orbit in second.orbits
        ]


class TestSolveSharing:
    def test_distinct_solve_count_collapses_on_torus(self):
        # The engine keys local LPs by canonical form, so the default path
        # solves exactly one LP per view orbit.
        problem = grid_instance((8, 8), torus=True)
        engine = BatchSolver(cache=ResultCache())
        local_averaging_solution(problem, 2, engine=engine)
        assert engine.stats.executed == partition_views(problem, 2).n_orbits == 1
