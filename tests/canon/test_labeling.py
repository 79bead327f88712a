"""Unit tests for the canonical labeling of local views (repro.canon.labeling)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import (
    MaxMinLP,
    canonical_view_key,
    canonicalize_problem,
    communication_hypergraph,
    grid_instance,
)
from repro.canon.labeling import (
    DEFAULT_BRANCH_BUDGET,
    CanonicalIndex,
    _build_canonicalizer,
    _lockstep_match,
    canonicalize_local_lp,
    view_local_structure,
)
from repro.generators import cycle_instance


def relabelled_copy(problem: MaxMinLP, seed: int) -> tuple[MaxMinLP, dict]:
    """A copy of ``problem`` with every identifier renamed (shuffled order)."""
    rng = random.Random(seed)
    agents = list(problem.agents)
    shuffled = agents[:]
    rng.shuffle(shuffled)
    rename = {a: ("agent", idx) for idx, a in enumerate(shuffled)}
    consumption = {
        (("res", i), rename[v]): value
        for (i, v), value in problem.consumption_items()
    }
    benefit = {
        (("ben", k), rename[v]): value
        for (k, v), value in problem.benefit_items()
    }
    copy = MaxMinLP([rename[a] for a in agents], consumption, benefit)
    return copy, rename


class TestCanonicalForm:
    def test_invariant_under_relabelling(self):
        problem = grid_instance((4, 4))
        for seed in (0, 1, 2):
            copy, _rename = relabelled_copy(problem, seed)
            assert canonicalize_problem(copy).key == canonicalize_problem(problem).key

    def test_sensitive_to_coefficients(self):
        base = grid_instance((3, 3))
        perturbed_consumption = dict(base.consumption_items())
        some_key = next(iter(perturbed_consumption))
        perturbed_consumption[some_key] = perturbed_consumption[some_key] * 2.0
        perturbed = MaxMinLP(
            base.agents,
            perturbed_consumption,
            dict(base.benefit_items()),
            resources=base.resources,
            beneficiaries=base.beneficiaries,
        )
        assert canonicalize_problem(base).key != canonicalize_problem(perturbed).key

    def test_independent_of_input_iteration_order(self):
        problem = grid_instance((3, 3), weights="random", seed=5)
        agents, cons, bens = view_local_structure(
            problem, frozenset(problem.agents)
        )
        forward = canonicalize_local_lp(agents, cons, bens)
        backward = canonicalize_local_lp(
            list(reversed(agents)), list(reversed(cons)), list(reversed(bens))
        )
        assert forward.key == backward.key
        assert forward.agent_order == backward.agent_order
        assert forward.resource_order == backward.resource_order

    def test_canonical_problem_preserves_objective_structure(self):
        problem = grid_instance((3, 3))
        form = canonicalize_problem(problem)
        canonical = form.problem()
        assert canonical.n_agents == problem.n_agents
        assert canonical.n_resources == problem.n_resources
        assert canonical.n_beneficiaries == problem.n_beneficiaries
        # Coefficient multisets survive the relabelling exactly.
        assert sorted(v for _k, v in canonical.consumption_items()) == sorted(
            v for _k, v in problem.consumption_items()
        )

    def test_pull_back_round_trips_agent_names(self):
        problem = cycle_instance(6)
        form = canonicalize_problem(problem)
        canonical_x = {p: float(p) for p in range(form.n_agents)}
        pulled = form.pull_back(canonical_x)
        assert set(pulled) == set(problem.agents)
        assert sorted(pulled.values()) == sorted(canonical_x.values())

    def test_empty_and_vacuous_structures(self):
        empty = canonicalize_local_lp([], [], [])
        assert empty.n_agents == 0 and empty.exact
        vacuous = canonicalize_local_lp(["a"], [("i", "a", 1.0)], [])
        assert vacuous.n_agents == 1
        assert vacuous.n_beneficiaries == 0
        assert vacuous.problem().objective([0.0]) == float("inf")

    def test_literal_fallback_is_sound_and_marked(self):
        problem = grid_instance((3, 3))
        exact = canonicalize_problem(problem)
        literal = canonicalize_problem(problem, branch_budget=0)
        assert exact.exact and not literal.exact
        assert literal.key != exact.key
        # The fallback is still deterministic and self-consistent.
        assert literal.key == canonicalize_problem(problem, branch_budget=0).key


class TestCanonicalViewKey:
    def test_rejects_non_positive_radius(self, cycle8):
        with pytest.raises(ValueError, match="radius"):
            canonical_view_key(cycle8, cycle8.agents[0], 0)
        with pytest.raises(ValueError, match="radius"):
            canonical_view_key(cycle8, cycle8.agents[0], -1)

    def test_equal_on_vertex_transitive_instances(self):
        problem = grid_instance((5, 5), torus=True)
        H = communication_hypergraph(problem)
        keys = {
            canonical_view_key(problem, u, 1, hypergraph=H)
            for u in problem.agents
        }
        assert len(keys) == 1

    def test_distinguishes_boundary_from_interior(self):
        problem = grid_instance((5, 5))
        H = communication_hypergraph(problem)
        corner = canonical_view_key(problem, (0, 0), 1, hypergraph=H)
        interior = canonical_view_key(problem, (2, 2), 1, hypergraph=H)
        assert corner != interior

    def test_matches_relabelled_instance_agentwise(self):
        problem = grid_instance((4, 4))
        copy, rename = relabelled_copy(problem, seed=3)
        H = communication_hypergraph(problem)
        H2 = communication_hypergraph(copy)
        for u in list(problem.agents)[:6]:
            assert canonical_view_key(problem, u, 1, hypergraph=H) == (
                canonical_view_key(copy, rename[u], 1, hypergraph=H2)
            )


class TestCanonicalIndex:
    def test_match_agrees_with_fresh_index(self):
        problem = grid_instance((6, 6), torus=True)
        H = communication_hypergraph(problem)
        structures = [
            view_local_structure(problem, H.ball(u, 2)) for u in problem.agents
        ]
        shared = CanonicalIndex()
        fresh_forms = []
        for structure in structures:
            fresh_forms.append(CanonicalIndex().canonical_form(*structure))
        shared_forms = [shared.canonical_form(*s) for s in structures]
        for fresh, matched in zip(fresh_forms, shared_forms):
            assert fresh.key == matched.key
            assert fresh.agent_order == matched.agent_order
            assert fresh.resource_order == matched.resource_order
            assert fresh.beneficiary_order == matched.beneficiary_order
        # One search, the rest answered by matching.
        assert shared.stats["searched"] == 1
        assert shared.stats["matched"] == len(structures) - 1

    @pytest.mark.parametrize("shape,R", [((8, 10), 3), ((10, 10), 3), ((7, 9), 2)])
    def test_lockstep_match_equals_scalar_match(self, shape, R):
        """A completed lockstep labeling is the scalar matcher's, bit for bit."""
        problem = grid_instance(shape, torus=True)
        H = communication_hypergraph(problem)
        structures = [
            view_local_structure(problem, H.ball(u, R)) for u in problem.agents
        ]
        index = CanonicalIndex()
        index.canonical_form(*structures[0])
        [[registered]] = index._classes.values()
        members = []
        for structure in structures:
            canonicalizer = _build_canonicalizer(*structure, DEFAULT_BRANCH_BUDGET)[0]
            members.append(
                (canonicalizer, canonicalizer.refine(canonicalizer.initial_colors()))
            )
        greedy = _lockstep_match(members, registered)
        completed = 0
        for (canonicalizer, stable), positions in zip(members, greedy):
            scalar = index._match(canonicalizer, stable, registered)
            assert scalar is not None  # torus views are all isomorphic
            if positions is not None:
                completed += 1
                np.testing.assert_array_equal(positions, scalar)
        assert completed > 0

    def test_cross_instance_sharing(self):
        """A small torus and a larger torus share canonical view keys.

        The local LP of an R=1 view reaches L1-distance 3 (clipped resource
        rows), so the smaller torus must be at least 7 wide for its views
        to avoid wrap-around and match the larger torus's.
        """
        small = grid_instance((7, 7), torus=True)
        large = grid_instance((10, 10), torus=True)
        key_small = canonical_view_key(small, small.agents[0], 1)
        key_large = canonical_view_key(large, large.agents[0], 1)
        assert key_small == key_large

    def test_rejects_non_isomorphic_same_shape(self):
        index = CanonicalIndex()
        a = index.canonical_form(
            ["a", "b"], [("i", "a", 1.0), ("i", "b", 1.0)], [("k", "a", 1.0)]
        )
        b = index.canonical_form(
            ["a", "b"], [("i", "a", 1.0), ("j", "b", 1.0)], [("k", "a", 1.0)]
        )
        assert a.key != b.key
