"""Tests for the engine's canonical local-LP path (dedup across isomorphs)."""

from __future__ import annotations

import math

import pytest

from repro import (
    BatchSolver,
    ResultCache,
    cycle_instance,
    grid_instance,
    local_averaging_solution,
)
from repro.engine import fingerprint
from repro.engine.fingerprint import (
    fingerprint_canonical_request,
    fingerprint_request,
)
from repro.hypergraph.communication import communication_hypergraph
from repro.scenarios.runner import SuiteRunner


class TestCanonicalFingerprints:
    def test_canonical_request_depends_on_key_and_backend(self):
        base = fingerprint_canonical_request("a" * 64, backend="scipy")
        assert len(base) == 64
        assert fingerprint_canonical_request("b" * 64, backend="scipy") != base
        assert fingerprint_canonical_request("a" * 64, backend="other") != base

    def test_disjoint_from_raw_local_lp_requests(self, tiny_instance):
        from repro import fingerprint_instance

        raw_key = fingerprint_instance(tiny_instance)
        raw = fingerprint_request(
            None, "local_lp", backend="scipy", instance_fingerprint=raw_key
        )
        canonical = fingerprint_canonical_request(raw_key, backend="scipy")
        assert raw != canonical


class TestCanonicalLocalSolves:
    def test_isomorphic_subproblems_collapse_to_one_solve(self):
        # Distinct agents of a torus have literally different subproblems
        # (different identifiers) but isomorphic structure: the canonical
        # engine path solves exactly one of them.
        problem = grid_instance((5, 5), torus=True)
        H = communication_hypergraph(problem)
        views = {u: H.ball(u, 1) for u in problem.agents}
        engine = BatchSolver(cache=ResultCache())
        outcomes = engine.solve_local_lps(problem, views)
        assert engine.stats.executed == 1
        assert len(outcomes) == len(views)
        objectives = {outcome.objective for outcome in outcomes.values()}
        assert len(objectives) == 1

    def test_pull_back_keys_match_subproblem_agents(self, grid4x4):
        H = communication_hypergraph(grid4x4)
        root = grid4x4.agents[0]
        view = H.ball(root, 1)
        sub = grid4x4.local_subproblem(view)
        outcome = BatchSolver().solve_local_lps(grid4x4, {root: view})[root]
        assert set(outcome.x) == set(sub.agents)
        assert sub.is_feasible(sub.to_array(outcome.x), tol=1e-7)

    def test_warm_cache_bit_identical_with_canonical_keys(self, tmp_path):
        problem = grid_instance((5, 5), torus=True)
        cold_engine = BatchSolver(cache=ResultCache(directory=tmp_path))
        cold = local_averaging_solution(problem, 1, engine=cold_engine)
        warm_engine = BatchSolver(cache=ResultCache(directory=tmp_path))
        warm = local_averaging_solution(problem, 1, engine=warm_engine)
        assert warm_engine.stats.executed == 0
        assert warm.x == cold.x
        assert warm.local_objectives == cold.local_objectives

    def test_disk_cache_hits_across_isomorphic_instances(self, tmp_path):
        """A small torus warms the cache for a larger torus — the tentpole's
        cross-instance cache-sharing acceptance scenario.  (The smaller
        torus must be at least 7 wide: an R=1 local LP reaches L1-distance
        3, which would wrap on anything narrower and change the view's
        isomorphism class.)"""
        small = grid_instance((7, 7), torus=True)
        engine_small = BatchSolver(cache=ResultCache(directory=tmp_path))
        local_averaging_solution(small, 1, engine=engine_small)
        assert engine_small.stats.executed >= 1

        large = grid_instance((10, 10), torus=True)
        engine_large = BatchSolver(cache=ResultCache(directory=tmp_path))
        local_averaging_solution(large, 1, engine=engine_large)
        # Every local LP of the larger torus is isomorphic to the smaller
        # torus's view: zero new solves, all answered from the disk tier.
        assert engine_large.stats.executed == 0
        assert engine_large.cache.stats.disk_hits >= 1

    def test_accepts_view_subsets(self, cycle8):
        # Any view mapping is a valid batch, not just one view per agent.
        H = communication_hypergraph(cycle8)
        everyone = {u: H.ball(u, 1) for u in cycle8.agents}
        subset = {u: everyone[u] for u in list(cycle8.agents)[:3]}
        full = BatchSolver().solve_local_lps(cycle8, everyone)
        partial = BatchSolver().solve_local_lps(cycle8, subset)
        assert set(partial) == set(subset)
        for u in subset:
            assert partial[u].x == full[u].x
            assert partial[u].objective == full[u].objective

    def test_vacuous_views_share_one_solve(self):
        # Single-agent views have no complete beneficiary support: every
        # agent gets the all-zero solution with objective inf, from one
        # canonical request.
        problem = cycle_instance(6)
        views = {u: frozenset({u}) for u in problem.agents}
        engine = BatchSolver()
        outcomes = engine.solve_local_lps(problem, views)
        assert engine.stats.executed == 1
        assert engine.stats.dedup_saved == problem.n_agents - 1
        for u in problem.agents:
            assert outcomes[u].x == {u: 0.0}
            assert outcomes[u].objective == math.inf


class TestOneLocalLPPath:
    """Canonical keying is the only local-LP path the engine has."""

    def test_literal_keyword_rejected(self):
        with pytest.raises(TypeError):
            BatchSolver(canonical_local=False)

    def test_no_subproblem_entry_point(self):
        assert not hasattr(BatchSolver, "solve_subproblems")

    def test_no_literal_view_fingerprints(self):
        assert not hasattr(fingerprint, "fingerprint_view_requests")
        assert "fingerprint_view_requests" not in fingerprint.__all__

    def test_provenance_constants(self):
        # The benchmark's provenance record reads both attributes.
        assert BatchSolver().canonical_local is True
        assert SuiteRunner.share_orbits is False
