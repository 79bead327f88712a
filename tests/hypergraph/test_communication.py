"""Unit tests for the communication hypergraph of an instance (Section 1.4)."""

from __future__ import annotations

from repro import communication_hypergraph
from repro.hypergraph import BeneficiaryEdge, ResourceEdge


class TestFullVariant:
    def test_vertices_are_agents(self, cycle8):
        H = communication_hypergraph(cycle8)
        assert set(H.nodes) == set(cycle8.agents)

    def test_one_hyperedge_per_support(self, cycle8):
        H = communication_hypergraph(cycle8)
        assert H.n_edges == cycle8.n_resources + cycle8.n_beneficiaries
        for i in cycle8.resources:
            assert H.edge_members(ResourceEdge(i)) == cycle8.resource_support(i)
        for k in cycle8.beneficiaries:
            assert H.edge_members(BeneficiaryEdge(k)) == cycle8.beneficiary_support(k)

    def test_adjacency_iff_shared_support(self, tiny_instance):
        H = communication_hypergraph(tiny_instance)
        assert H.neighbours("v1") == frozenset({"v2"})

    def test_edge_label_wrappers(self):
        assert ResourceEdge("i").resource == "i"
        assert BeneficiaryEdge("k").beneficiary == "k"
        assert ResourceEdge("x") != BeneficiaryEdge("x")


class TestCollaborationObliviousVariant:
    def test_only_resource_edges(self, cycle8):
        H = communication_hypergraph(cycle8, collaboration_oblivious=True)
        assert H.n_edges == cycle8.n_resources
        assert all(isinstance(label, ResourceEdge) for label in H.edge_labels())

    def test_oblivious_distances_can_be_larger(self, path6):
        full = communication_hypergraph(path6)
        oblivious = communication_hypergraph(path6, collaboration_oblivious=True)
        # In the full graph, beneficiary hyperedges {v-1, v, v+1} connect
        # agents two steps apart; dropping them cannot shrink any distance.
        for u in path6.agents:
            for v in path6.agents:
                assert oblivious.distance(u, v) >= full.distance(u, v)

    def test_isolated_agent_when_no_resources(self):
        from repro import MaxMinLP

        problem = MaxMinLP(
            ["a", "b"], {("i", "a"): 1.0}, {("k", "a"): 1.0, ("k", "b"): 1.0},
            validate=False,
        )
        H = communication_hypergraph(problem, collaboration_oblivious=True)
        assert H.neighbours("b") == frozenset()
        full = communication_hypergraph(problem)
        assert full.neighbours("b") == frozenset({"a"})
