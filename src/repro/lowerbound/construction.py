"""The Section 4 lower-bound construction (instances S and S′).

The construction shows that *no* local algorithm can approximate the
max-min LP better than roughly ``Δ_I^V / 2``.  It has three layers:

1. a template graph ``Q``: a ``d^R·D^{R-1}``-regular bipartite graph with no
   cycle shorter than ``4r + 2`` (see
   :mod:`repro.generators.bipartite`);
2. one complete (d, D)-ary hypertree ``T_q`` of height ``2R − 1`` per vertex
   ``q`` of ``Q`` (see :mod:`repro.lowerbound.hypertree`), whose type I
   hyperedges become unit resources and type II hyperedges become
   beneficiaries with coefficients ``1/D``;
3. a perfect matching between leaves of different hypertrees guided by the
   edges of ``Q``: each edge ``{q, w}`` of ``Q`` pairs one leaf of ``T_q``
   with one leaf of ``T_w``, forming a *type III* beneficiary with unit
   coefficients.  The pairing is the involution ``f`` used in the proof.

This whole structure is the instance ``S``.  Given any (deterministic,
local) algorithm's output ``x`` on ``S``, the adversary computes
``δ(q) = Σ_{v∈L_q} (x_v − x_{f(v)})``, picks a hypertree ``p`` with
``δ(p) ≥ 0`` and restricts ``S`` to
``V′ = T_p ∪ ⋃_{u∈L_p} B_H(u, 2r)``; the restriction (instance ``S′``) is
tree-like, admits a feasible solution of value 1 (alternating 0/1 by
distance parity from the root of ``T_p``), and the radius-``r`` views of the
nodes of ``T_p`` are identical in ``S`` and ``S′`` -- which is what forces
any local algorithm to lose a factor of about ``d/2`` on ``S′``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Mapping,
    Optional,
    Tuple,
)

from ..core.problem import Agent, MaxMinLP, MaxMinLPBuilder
from ..exceptions import ConstructionError
from ..generators.bipartite import girth, regular_bipartite_with_girth
from ..hypergraph.communication import communication_hypergraph
from ..hypergraph.hypergraph import Hypergraph
from .bounds import finite_R_bound, theorem1_bound
from .hypertree import complete_hypertree

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = [
    "LowerBoundInstance",
    "AdversarialSubinstance",
    "build_lower_bound_instance",
]

QNode = Hashable


@dataclass(frozen=True)
class AdversarialSubinstance:
    """The restricted instance ``S′`` carved out of ``S`` by the adversary.

    Attributes
    ----------
    p:
        The selected template vertex (hypertree index) with ``δ(p) ≥ 0``.
    agents:
        The agent set ``V′ = T_p ∪ ⋃_{u∈L_p} B_H(u, 2r)``.
    subproblem:
        The induced max-min LP instance ``S′`` (resources and beneficiaries
        fully contained in ``V′``).
    root:
        The root of ``T_p``; the witness alternates by distance parity from
        it.
    witness:
        The feasible solution ``x̂`` of Section 4.5 (1 on even distances,
        0 on odd distances from the root).
    witness_objective:
        The objective of the witness (equal to 1 by the Section 4.5
        argument; kept as data so that tests and benchmarks can assert it).
    delta_p:
        The value ``δ(p)`` for the selected ``p``.
    """

    p: QNode
    agents: FrozenSet[Agent]
    subproblem: MaxMinLP
    root: Agent
    witness: Dict[Agent, float]
    witness_objective: float
    delta_p: float


@dataclass
class LowerBoundInstance:
    """The full Section 4 construction: the instance ``S`` plus its anatomy.

    Attributes
    ----------
    problem:
        The compiled max-min LP instance ``S``.
    d, D:
        Branching factors (``d = Δ_I^V − 1``, ``D = Δ_K^V − 1``).
    r:
        The local horizon the construction is designed to defeat.
    R:
        The half-height parameter (``R > r``); hypertrees have height
        ``2R − 1``.
    template:
        The high-girth regular bipartite template graph ``Q``.
    tree_nodes:
        Agents of each hypertree ``T_q``.
    roots, leaves:
        Root agent and leaf agents of each hypertree.
    leaf_partner:
        The involution ``f`` pairing leaves across hypertrees (type III
        hyperedges are exactly ``{v, f(v)}``).
    levels:
        Level of each agent inside its hypertree.
    """

    problem: MaxMinLP
    d: int
    D: int
    r: int
    R: int
    template: nx.Graph
    tree_nodes: Dict[QNode, Tuple[Agent, ...]]
    roots: Dict[QNode, Agent]
    leaves: Dict[QNode, Tuple[Agent, ...]]
    leaf_partner: Dict[Agent, Agent]
    levels: Dict[Agent, int]
    _hypergraph: Optional[Hypergraph] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    @property
    def delta_VI(self) -> int:
        """The resource-support bound ``Δ_I^V = d + 1`` targeted by the construction."""
        return self.d + 1

    @property
    def delta_VK(self) -> int:
        """The beneficiary-support bound ``Δ_K^V = D + 1``."""
        return self.D + 1

    @property
    def template_degree(self) -> int:
        """The degree ``d^R·D^{R-1}`` of the template graph ``Q``."""
        return (self.d ** self.R) * (self.D ** (self.R - 1))

    def theorem1_bound(self) -> float:
        """The asymptotic Theorem 1 bound for these parameters."""
        return theorem1_bound(self.delta_VI, self.delta_VK)

    def finite_R_bound(self) -> float:
        """The exact bound certified by this finite construction."""
        return finite_R_bound(self.d, self.D, self.R)

    def communication(self) -> Hypergraph:
        """The communication hypergraph of ``S`` (cached)."""
        if self._hypergraph is None:
            self._hypergraph = communication_hypergraph(self.problem)
        return self._hypergraph

    # ------------------------------------------------------------------
    # The adversary
    # ------------------------------------------------------------------
    def delta(self, q: QNode, x: Mapping[Agent, float]) -> float:
        """``δ(q) = Σ_{v∈L_q} (x_v − x_{f(v)})`` (paper eq. 3)."""
        return float(
            sum(x.get(v, 0.0) - x.get(self.leaf_partner[v], 0.0) for v in self.leaves[q])
        )

    def delta_values(self, x: Mapping[Agent, float]) -> Dict[QNode, float]:
        """``δ(q)`` for every template vertex ``q``; they always sum to 0."""
        return {q: self.delta(q, x) for q in self.template.nodes}

    def select_p(self, x: Mapping[Agent, float]) -> QNode:
        """A template vertex with ``δ(p) ≥ 0`` (the one maximising ``δ``).

        Such a vertex always exists because ``f`` is an involution without
        fixed points, hence ``Σ_q δ(q) = 0``.
        """
        values = self.delta_values(x)
        p = max(values, key=lambda q: values[q])
        return p

    def adversarial_agents(self, p: QNode) -> FrozenSet[Agent]:
        """``V′ = T_p ∪ ⋃_{u ∈ L_p} B_H(u, 2r)`` (Section 4.3)."""
        H = self.communication()
        agents = set(self.tree_nodes[p])
        for u in self.leaves[p]:
            agents |= H.ball(u, 2 * self.r)
        return frozenset(agents)

    def build_adversarial_subinstance(
        self, x: Mapping[Agent, float]
    ) -> AdversarialSubinstance:
        """Run the adversary of Sections 4.3--4.5 against the solution ``x``.

        ``x`` is the output of some local algorithm on ``S``.  The adversary
        selects ``p`` with ``δ(p) ≥ 0``, carves out ``S′`` and constructs the
        feasible witness of objective 1.
        """
        p = self.select_p(x)
        delta_p = self.delta(p, x)
        agents = self.adversarial_agents(p)
        subproblem = self.problem.induced_subinstance(agents)
        sub_h = communication_hypergraph(subproblem)
        root = self.roots[p]
        dist = sub_h.distances_from(root)
        missing = set(subproblem.agents) - set(dist)
        if missing:
            raise ConstructionError(
                "the adversarial sub-instance is not connected from the root of "
                f"T_p ({len(missing)} unreachable agents); this indicates a bug "
                "in the construction"
            )
        witness = {v: (1.0 if dist[v] % 2 == 0 else 0.0) for v in subproblem.agents}
        witness_objective = subproblem.objective(subproblem.to_array(witness))
        return AdversarialSubinstance(
            p=p,
            agents=agents,
            subproblem=subproblem,
            root=root,
            witness=witness,
            witness_objective=float(witness_objective),
            delta_p=delta_p,
        )

    # ------------------------------------------------------------------
    # Structural statistics (used by the FIG1 benchmark)
    # ------------------------------------------------------------------
    def structure_summary(self) -> Dict[str, float]:
        """Counts describing the construction (Figure 1's ingredients)."""
        kinds = {"I": 0, "II": 0, "III": 0}
        for i in self.problem.resources:
            kinds["I"] += 1
        for k in self.problem.beneficiaries:
            kinds[k[0]] += 1
        n_trees = self.template.number_of_nodes()
        tree_size = len(next(iter(self.tree_nodes.values()))) if n_trees else 0
        return {
            "d": self.d,
            "D": self.D,
            "r": self.r,
            "R": self.R,
            "template_vertices": n_trees,
            "template_degree": self.template_degree,
            "template_girth": girth(self.template),
            "required_girth": 4 * self.r + 2,
            "hypertree_height": 2 * self.R - 1,
            "hypertree_nodes": tree_size,
            "leaves_per_tree": len(next(iter(self.leaves.values()))) if n_trees else 0,
            "agents": self.problem.n_agents,
            "type_I_hyperedges": kinds["I"],
            "type_II_hyperedges": kinds["II"],
            "type_III_hyperedges": kinds["III"],
        }


def build_lower_bound_instance(
    delta_VI: int,
    delta_VK: int,
    r: int,
    *,
    R: Optional[int] = None,
    seed: Optional[int] = None,
    template: Optional[nx.Graph] = None,
) -> LowerBoundInstance:
    """Build the instance ``S`` of Section 4.2.

    Parameters
    ----------
    delta_VI, delta_VK:
        Target support bounds (both at least 2; at least one strictly larger
        than 2 so that ``d·D > 1``).
    r:
        Local horizon the construction is built to defeat; the template graph
        must have no cycle shorter than ``4r + 2``.
    R:
        Half-height parameter; defaults to ``r + 1`` (the smallest legal
        value).  Larger ``R`` tightens the certified bound at the price of an
        exponentially larger instance.
    seed:
        Seed for the randomised template search (ignored when an explicit
        ``template`` is supplied or an explicit construction applies).
    template:
        Optional pre-built template graph ``Q``; it must be
        ``d^R·D^{R-1}``-regular, bipartite and of girth at least ``4r + 2``.
    """
    if delta_VI < 2 or delta_VK < 2:
        raise ConstructionError("the construction requires Δ_I^V ≥ 2 and Δ_K^V ≥ 2")
    d = delta_VI - 1
    D = delta_VK - 1
    if d * D <= 1:
        raise ConstructionError(
            "the construction requires d·D > 1, i.e. Δ_I^V > 2 or Δ_K^V > 2 "
            "(for Δ_I^V = Δ_K^V = 2 Theorem 1 is trivial)"
        )
    if r < 1:
        raise ConstructionError("the local horizon r must be at least 1")
    if R is None:
        R = r + 1
    if R <= r:
        raise ConstructionError("the construction requires R > r")

    degree = (d ** R) * (D ** (R - 1))
    min_girth = 4 * r + 2
    if template is None:
        template = regular_bipartite_with_girth(degree, min_girth, seed=seed)
    else:
        degrees = {deg for _v, deg in template.degree()}
        if degrees != {degree}:
            raise ConstructionError(
                f"supplied template is not {degree}-regular (degrees: {sorted(degrees)})"
            )
        if girth(template) < min_girth:
            raise ConstructionError(
                f"supplied template has girth {girth(template)} < required {min_girth}"
            )

    tree = complete_hypertree(d, D, 2 * R - 1)

    builder = MaxMinLPBuilder()
    tree_nodes: Dict[QNode, Tuple[Agent, ...]] = {}
    roots: Dict[QNode, Agent] = {}
    leaves: Dict[QNode, Tuple[Agent, ...]] = {}
    levels: Dict[Agent, int] = {}

    q_order = sorted(template.nodes)
    for q in q_order:
        agents = tuple((q, node) for node in tree.nodes)
        tree_nodes[q] = agents
        roots[q] = (q, tree.root)
        leaves[q] = tuple((q, leaf) for leaf in tree.leaves)
        for node in tree.nodes:
            levels[(q, node)] = tree.levels[node]
        for edge in tree.edges:
            members = [(q, node) for node in sorted(edge.members)]
            if edge.kind == "I":
                resource = ("I", q, edge.parent)
                for agent in members:
                    builder.set_consumption(resource, agent, 1.0)
            else:
                beneficiary = ("II", q, edge.parent)
                for agent in members:
                    builder.set_benefit(beneficiary, agent, 1.0 / D)

    # Leaf matching guided by the edges of Q (the involution f).
    leaf_partner: Dict[Agent, Agent] = {}
    assignment: Dict[QNode, Dict[Tuple, Agent]] = {}
    for q in q_order:
        incident = sorted(tuple(sorted((q, w))) for w in template.neighbors(q))
        if len(incident) != len(leaves[q]):
            raise ConstructionError(
                f"template degree {len(incident)} at {q!r} does not match the "
                f"{len(leaves[q])} leaves of its hypertree"
            )
        assignment[q] = {key: leaves[q][idx] for idx, key in enumerate(incident)}

    for q, w in template.edges:
        key = tuple(sorted((q, w)))
        leaf_q = assignment[key[0]][key]
        leaf_w = assignment[key[1]][key]
        beneficiary = ("III", key)
        builder.set_benefit(beneficiary, leaf_q, 1.0)
        builder.set_benefit(beneficiary, leaf_w, 1.0)
        leaf_partner[leaf_q] = leaf_w
        leaf_partner[leaf_w] = leaf_q

    problem = builder.build()
    return LowerBoundInstance(
        problem=problem,
        d=d,
        D=D,
        r=r,
        R=R,
        template=template,
        tree_nodes=tree_nodes,
        roots=roots,
        leaves=leaves,
        leaf_partner=leaf_partner,
        levels=levels,
    )
