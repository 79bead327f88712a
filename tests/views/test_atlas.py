"""Unit tests for the view atlas (CSR-sliced local LPs + batch canon)."""

from __future__ import annotations

import numpy as np
import pytest

from averaging_reference import local_averaging_reference, partition_views_reference
from repro import (
    BatchSolver,
    MaxMinLP,
    communication_hypergraph,
    cycle_instance,
    grid_instance,
    local_averaging_solution,
    partition_views,
)
from repro.canon.labeling import (
    LOCKSTEP_MIN_MEMBERS,
    CanonicalIndex,
    view_local_structure,
)
from repro.generators import random_bounded_degree_instance, unit_disk_instance
from repro.scenarios.registry import build_instance
from repro.scenarios.spec import ScenarioSpec
from repro.views import ViewAtlas


def _bipartite(n_side: int, seed: int = 7):
    spec = ScenarioSpec(
        family="random_regular_bipartite",
        params={"n_side": n_side, "degree": 3},
        seed=seed,
        radii=(1,),
    )
    return build_instance(spec)


FAMILIES = [
    (grid_instance((5, 5), torus=True), 2),
    (grid_instance((4, 5)), 2),
    (cycle_instance(9), 1),
    (unit_disk_instance(20, radius=0.3, max_support=5, seed=3), 1),
    (
        random_bounded_degree_instance(
            16, max_resource_support=3, max_beneficiary_support=3, seed=5
        ),
        2,
    ),
    (_bipartite(8), 1),
]


#: Symmetric families whose views are matched against one class in
#: lockstep; torus (10, 10) R3 sends most of its views down the
#: backtracking fallback.
LOCKSTEP_FAMILIES = [
    (grid_instance((8, 10), torus=True), 3),
    (grid_instance((10, 10), torus=True), 3),
    (grid_instance((6, 8)), 3),
    (unit_disk_instance(40, radius=0.25, max_support=5, seed=11), 2),
]


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


class TestAtlasStructures:
    @pytest.mark.parametrize("problem,R", FAMILIES)
    def test_local_structure_matches_scalar(self, problem, R):
        H = communication_hypergraph(problem)
        forms = ViewAtlas.from_problem(problem, R, hypergraph=H).canonical_forms()
        for u in problem.agents:
            scalar_agents, scalar_cons, scalar_bens = view_local_structure(
                problem, H.ball(u, R)
            )
            agents, cons, bens = _structure_of(forms[u])
            assert set(agents) == set(scalar_agents)
            assert set(cons) == set(scalar_cons)
            assert set(bens) == set(scalar_bens)

    @pytest.mark.parametrize("problem,R", FAMILIES)
    def test_subproblem_equals_local_subproblem(self, problem, R):
        H = communication_hypergraph(problem)
        forms = ViewAtlas.from_problem(problem, R, hypergraph=H).canonical_forms()
        for u in problem.agents:
            assert _local_lp_of(forms[u]) == problem.local_subproblem(H.ball(u, R))

    @pytest.mark.parametrize("problem,R", FAMILIES)
    def test_views_and_sizes_match_balls(self, problem, R):
        H = communication_hypergraph(problem)
        atlas = ViewAtlas.from_problem(problem, R, hypergraph=H)
        balls = {u: H.ball(u, R) for u in problem.agents}
        assert atlas.views() == balls
        sizes = atlas.view_sizes()
        for row, u in enumerate(atlas.roots):
            assert sizes[row] == len(balls[u])

    def test_from_views_arbitrary_subsets(self):
        problem = cycle_instance(8)
        views = {
            "a": frozenset(problem.agents[:3]),
            "b": frozenset(problem.agents[2:6]),
        }
        atlas = ViewAtlas.from_views(problem, views)
        assert atlas.roots == ("a", "b")
        assert atlas.views() == views
        forms = atlas.canonical_forms()
        for root, view in views.items():
            assert _local_lp_of(forms[root]) == problem.local_subproblem(view)

    def test_from_views_unknown_agent_rejected(self):
        problem = cycle_instance(5)
        with pytest.raises(KeyError):
            ViewAtlas.from_views(problem, {"a": frozenset({"ghost"})})


class TestBatchCanonicalForms:
    @pytest.mark.parametrize("problem,R", FAMILIES + LOCKSTEP_FAMILIES)
    def test_forms_equal_scalar_canonical_index(self, problem, R):
        H = communication_hypergraph(problem)
        atlas = ViewAtlas.from_problem(problem, R, hypergraph=H)
        batch_index = CanonicalIndex()
        batch_forms = atlas.canonical_forms(batch_index)
        index = CanonicalIndex()
        for u in problem.agents:
            agents, cons, bens = view_local_structure(problem, H.ball(u, R))
            assert batch_forms[u] == index.canonical_form(agents, cons, bens)
        # Byte-equal views share one labeling in the batch (no index call),
        # so only the searched/matched counts are comparable.
        for name in ("searched", "matched"):
            assert batch_index.stats[name] == index.stats[name]

    def test_lockstep_fallback_is_exercised(self):
        problem, R = LOCKSTEP_FAMILIES[1]
        index = CanonicalIndex()
        ViewAtlas.from_problem(problem, R).canonical_forms(index)
        assert index.stats["matched"] >= LOCKSTEP_MIN_MEMBERS
        assert index.stats["backtracked"] >= 1

    @pytest.mark.parametrize("problem,R", FAMILIES[:3])
    def test_partition_vectorized_equals_scalar(self, problem, R):
        fast = partition_views(problem, R)
        slow = partition_views_reference(problem, R)
        assert [orbit.key for orbit in fast.orbits] == [
            orbit.key for orbit in slow.orbits
        ]
        assert [orbit.members for orbit in fast.orbits] == [
            orbit.members for orbit in slow.orbits
        ]
        assert fast.forms == slow.forms

    def test_batch_stable_colors_equal_scalar_refinement(self):
        from repro.canon.labeling import _build_canonicalizer

        problem = grid_instance((4, 4))
        H = communication_hypergraph(problem)
        atlas = ViewAtlas.from_problem(problem, 2, hypergraph=H)
        atlas._ensure_structures()
        rows = list(range(atlas.n_views))
        batch = atlas._batch_stable_colors(rows)
        for row, root in enumerate(atlas.roots):
            agents, cons, bens = view_local_structure(problem, H.ball(root, 2))
            canonicalizer, _a, _r, _b = _build_canonicalizer(
                agents, cons, bens, 2048
            )
            scalar = canonicalizer.refine(canonicalizer.initial_colors())
            assert np.array_equal(scalar, batch[row])


class TestVectorizedAveraging:
    @pytest.mark.parametrize("problem,R", FAMILIES)
    @pytest.mark.parametrize("keep_local_solutions", [False, True])
    def test_bit_identical_to_scalar_path(self, problem, R, keep_local_solutions):
        fast = local_averaging_solution(
            problem,
            R,
            engine=BatchSolver(),
            keep_local_solutions=keep_local_solutions,
        )
        slow = local_averaging_reference(
            problem,
            R,
            engine=BatchSolver(),
            keep_local_solutions=keep_local_solutions,
        )
        assert fast.x == slow.x
        assert fast.beta == slow.beta
        assert fast.objective == slow.objective
        assert fast.view_sizes == slow.view_sizes
        assert fast.local_objectives == slow.local_objectives
        assert fast.resource_ratio == slow.resource_ratio
        assert fast.beneficiary_ratio == slow.beneficiary_ratio
        assert fast.proven_ratio_bound == slow.proven_ratio_bound
        assert fast.local_solutions == slow.local_solutions

    def test_keep_local_solutions_matches_scalar(self):
        problem = grid_instance((4, 4), torus=True)
        fast = local_averaging_solution(
            problem, 2, engine=BatchSolver(), keep_local_solutions=True
        )
        slow = local_averaging_reference(
            problem, 2, engine=BatchSolver(), keep_local_solutions=True
        )
        assert fast.local_solutions == slow.local_solutions

    def test_solve_local_lp_batch_matches_singles(self):
        from repro.core.local_averaging import solve_local_lp, solve_local_lp_batch

        problem = cycle_instance(7)
        H = communication_hypergraph(problem)
        views = [H.ball(u, 1) for u in problem.agents[:4]]
        engine = BatchSolver()
        batched = solve_local_lp_batch(problem, views, engine=engine)
        assert engine.stats.batches == 1
        singles = [
            solve_local_lp(problem, view, engine=BatchSolver()) for view in views
        ]
        assert batched == singles


class TestOneAveragingPipeline:
    """The batched pipeline is the only averaging and partition path."""

    def test_averaging_rejects_vectorized_keyword(self):
        with pytest.raises(TypeError):
            local_averaging_solution(cycle_instance(5), 1, vectorized=False)

    def test_partition_rejects_vectorized_keyword(self):
        with pytest.raises(TypeError):
            partition_views(cycle_instance(5), 1, vectorized=True)

    def test_averaging_span_carries_no_vectorized_tag(self):
        from repro.obs import tracing

        with tracing() as tracer:
            local_averaging_solution(cycle_instance(5), 1, engine=BatchSolver())
        (averaging,) = [s for s in tracer.spans() if s.name == "core.averaging"]
        assert averaging.tags == {"agents": 5, "radius": 1}
