"""Property tests: the vectorized view pipeline equals the scalar one.

Three layers, three contracts (random bounded-degree instances, the awkward
shapes the shared strategies are biased towards):

* batch balls == per-agent ``Hypergraph.ball``;
* the local LP each batch canonical form describes ==
  ``MaxMinLP.local_subproblem`` (and its structure ==
  ``view_local_structure``);
* batch canonical forms == per-view ``CanonicalIndex.canonical_form`` —
  same keys, same orders, hence bit-identical solve paths.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MaxMinLP, communication_hypergraph
from repro.canon.labeling import CanonicalIndex, view_local_structure
from repro.views import ViewAtlas, batch_balls

from .strategies import max_min_instances


@st.composite
def instance_and_radius(draw, **kwargs):
    problem = draw(max_min_instances(**kwargs))
    radius = draw(st.integers(min_value=1, max_value=3))
    return problem, radius


def _structure_of(form):
    """A canonical form's coefficient triples in the view's own names."""
    agents, resources = form.agent_order, form.resource_order
    cons = [(resources[r], agents[v], w) for r, v, w in form.consumption]
    bens = [(form.beneficiary_order[k], agents[v], w) for k, v, w in form.benefit]
    return list(agents), cons, bens


def _local_lp_of(form):
    """The local LP a canonical form describes, ordered like ``local_subproblem``."""
    agents, cons, bens = _structure_of(form)
    return MaxMinLP(
        sorted(agents, key=repr),
        {(i, v): w for i, v, w in cons},
        {(k, v): w for k, v, w in bens},
        resources=sorted(form.resource_order, key=repr),
        beneficiaries=sorted(form.beneficiary_order, key=repr),
        validate=False,
    )


class TestBatchBallsEqualScalar:
    @settings(max_examples=40, deadline=None)
    @given(instance_and_radius())
    def test_batch_balls_match_per_agent_bfs(self, case):
        problem, radius = case
        H = communication_hypergraph(problem)
        assert batch_balls(H, radius) == {
            u: H.ball(u, radius) for u in H.nodes
        }


class TestAtlasEqualsScalarExtraction:
    @settings(max_examples=30, deadline=None)
    @given(instance_and_radius())
    def test_csr_sliced_subproblems_match_local_subproblem(self, case):
        problem, radius = case
        H = communication_hypergraph(problem)
        atlas = ViewAtlas.from_problem(problem, radius, hypergraph=H)
        forms = atlas.canonical_forms()
        for u in problem.agents:
            view = H.ball(u, radius)
            assert _local_lp_of(forms[u]) == problem.local_subproblem(view)

    @settings(max_examples=30, deadline=None)
    @given(instance_and_radius())
    def test_structures_match_view_local_structure(self, case):
        problem, radius = case
        H = communication_hypergraph(problem)
        atlas = ViewAtlas.from_problem(problem, radius, hypergraph=H)
        forms = atlas.canonical_forms()
        for u in problem.agents:
            scalar_agents, scalar_cons, scalar_bens = view_local_structure(
                problem, H.ball(u, radius)
            )
            agents, cons, bens = _structure_of(forms[u])
            assert set(agents) == set(scalar_agents)
            assert set(cons) == set(scalar_cons)
            assert set(bens) == set(scalar_bens)


class TestBatchCanonEqualsScalarCanon:
    @settings(max_examples=25, deadline=None)
    @given(instance_and_radius(max_agents=7))
    def test_batch_forms_equal_per_view_canonical_forms(self, case):
        problem, radius = case
        H = communication_hypergraph(problem)
        atlas = ViewAtlas.from_problem(problem, radius, hypergraph=H)
        batch_forms = atlas.canonical_forms(CanonicalIndex())
        index = CanonicalIndex()
        for u in problem.agents:
            agents, cons, bens = view_local_structure(
                problem, H.ball(u, radius)
            )
            scalar_form = index.canonical_form(agents, cons, bens)
            assert batch_forms[u] == scalar_form
