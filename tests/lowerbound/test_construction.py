"""Unit tests for the Section 4 lower-bound construction (instances S and S′)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro import ConstructionError, optimal_objective, safe_solution
from repro.hypergraph import communication_hypergraph
from repro.lowerbound import build_lower_bound_instance


def incidence_graph(problem):
    """Bipartite agent--hyperedge incidence graph of an instance's hypergraph.

    The instance (hypergraph) is *tree-like* in the paper's sense exactly
    when this incidence graph is a forest.
    """
    g = nx.Graph()
    for i in problem.resources:
        for v in problem.resource_support(i):
            g.add_edge(("edge", "res", i), ("agent", v))
    for k in problem.beneficiaries:
        for v in problem.beneficiary_support(k):
            g.add_edge(("edge", "ben", k), ("agent", v))
    for v in problem.agents:
        g.add_node(("agent", v))
    return g


class TestInstanceS:
    def test_structure_summary(self, lb_construction):
        summary = lb_construction.structure_summary()
        assert summary["d"] == 2 and summary["D"] == 1
        assert summary["template_degree"] == 4
        assert summary["template_girth"] >= summary["required_girth"]
        assert summary["hypertree_height"] == 3
        assert summary["leaves_per_tree"] == 4
        assert summary["agents"] == summary["template_vertices"] * summary["hypertree_nodes"]
        # One type III hyperedge per template edge.
        assert summary["type_III_hyperedges"] == lb_construction.template.number_of_edges()

    def test_paper_restrictions_hold(self, lb_construction):
        # Theorem 1: a_iv ∈ {0,1}, Δ_V^I = 1 and Δ_V^K = 1.
        problem = lb_construction.problem
        assert all(value == 1.0 for _key, value in problem.consumption_items())
        bounds = problem.degree_bounds()
        assert bounds.max_resources_per_agent == 1
        assert bounds.max_beneficiaries_per_agent == 1
        assert bounds.max_resource_support == lb_construction.delta_VI
        assert bounds.max_beneficiary_support == lb_construction.delta_VK

    def test_corollary2_coefficients_are_binary_when_D_is_one(self, lb_construction):
        assert lb_construction.D == 1
        assert all(
            value == 1.0 for _key, value in lb_construction.problem.benefit_items()
        )

    def test_type_II_coefficients_are_one_over_D(self):
        construction = build_lower_bound_instance(2, 3, 1, seed=1)
        problem = construction.problem
        type_II = [k for k in problem.beneficiaries if k[0] == "II"]
        assert type_II
        for k in type_II:
            for v in problem.beneficiary_support(k):
                assert problem.benefit(k, v) == pytest.approx(1.0 / construction.D)

    def test_leaf_partner_is_a_fixed_point_free_involution(self, lb_construction):
        partner = lb_construction.leaf_partner
        all_leaves = [leaf for q in lb_construction.template.nodes for leaf in lb_construction.leaves[q]]
        assert set(partner) == set(all_leaves)
        for leaf, other in partner.items():
            assert other != leaf
            assert partner[other] == leaf

    def test_partner_leaves_live_in_adjacent_trees(self, lb_construction):
        for leaf, other in lb_construction.leaf_partner.items():
            q, _node = leaf
            w, _node2 = other
            assert q != w
            assert lb_construction.template.has_edge(q, w)

    def test_invalid_parameters(self):
        with pytest.raises(ConstructionError):
            build_lower_bound_instance(1, 3, 1)
        with pytest.raises(ConstructionError):
            build_lower_bound_instance(2, 2, 1)  # dD = 1
        with pytest.raises(ConstructionError):
            build_lower_bound_instance(3, 2, 0)
        with pytest.raises(ConstructionError):
            build_lower_bound_instance(3, 2, 2, R=1)  # needs R > r

    def test_explicit_template_is_validated(self):
        import networkx as nx

        bad = nx.Graph()
        bad.add_edge(("L", 0), ("R", 0))
        with pytest.raises(ConstructionError):
            build_lower_bound_instance(3, 2, 1, template=bad)

    def test_bound_accessors(self, lb_construction):
        assert lb_construction.delta_VI == 3
        assert lb_construction.delta_VK == 2
        assert lb_construction.theorem1_bound() == pytest.approx(1.5)
        assert lb_construction.finite_R_bound() <= 1.5


class TestAdversary:
    def test_delta_values_sum_to_zero(self, lb_construction):
        x = safe_solution(lb_construction.problem)
        deltas = lb_construction.delta_values(x)
        assert sum(deltas.values()) == pytest.approx(0.0, abs=1e-9)
        p = lb_construction.select_p(x)
        assert deltas[p] >= -1e-12

    def test_adversarial_agents_contain_tree_p(self, lb_construction):
        x = safe_solution(lb_construction.problem)
        p = lb_construction.select_p(x)
        agents = lb_construction.adversarial_agents(p)
        assert set(lb_construction.tree_nodes[p]) <= agents

    def test_subinstance_is_tree_like(self, lb_construction):
        x = safe_solution(lb_construction.problem)
        adv = lb_construction.build_adversarial_subinstance(x)
        assert nx.is_forest(incidence_graph(adv.subproblem))

    def test_witness_is_feasible_and_tight(self, lb_construction):
        x = safe_solution(lb_construction.problem)
        adv = lb_construction.build_adversarial_subinstance(x)
        sub = adv.subproblem
        witness_vec = sub.to_array(adv.witness)
        assert sub.is_feasible(witness_vec, tol=1e-9)
        # Every resource is used exactly once and every party receives exactly 1.
        usage = sub.resource_usage(witness_vec)
        benefits = sub.benefits(witness_vec)
        assert usage.max() == pytest.approx(1.0)
        assert usage.min() == pytest.approx(1.0)
        assert benefits.min() == pytest.approx(1.0)
        assert benefits.max() == pytest.approx(1.0)
        assert adv.witness_objective == pytest.approx(1.0)

    def test_witness_alternates_with_distance_parity(self, lb_construction):
        x = safe_solution(lb_construction.problem)
        adv = lb_construction.build_adversarial_subinstance(x)
        H = communication_hypergraph(adv.subproblem)
        dist = H.distances_from(adv.root)
        for v, value in adv.witness.items():
            assert value == (1.0 if dist[v] % 2 == 0 else 0.0)

    def test_radius_r_views_agree_between_S_and_S_prime(self, lb_construction):
        # The key locality argument of Section 4.6: the radius-r view of any
        # node of T_p is identical in S and S'.  We check the ball membership
        # and the local coefficients.
        problem = lb_construction.problem
        x = safe_solution(problem)
        adv = lb_construction.build_adversarial_subinstance(x)
        sub = adv.subproblem
        H_S = lb_construction.communication()
        H_sub = communication_hypergraph(sub)
        r = lb_construction.r
        for v in lb_construction.tree_nodes[adv.p]:
            ball_S = H_S.ball(v, r)
            ball_sub = H_sub.ball(v, r)
            assert ball_S == ball_sub
            assert problem.agent_resources(v) == sub.agent_resources(v)
            assert problem.agent_beneficiaries(v) == sub.agent_beneficiaries(v)

    def test_optimum_of_subinstance_at_least_one(self, lb_construction):
        x = safe_solution(lb_construction.problem)
        adv = lb_construction.build_adversarial_subinstance(x)
        assert optimal_objective(adv.subproblem) >= 1.0 - 1e-9
