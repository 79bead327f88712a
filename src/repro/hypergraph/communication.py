"""Communication hypergraphs of max-min LP instances (paper Section 1.4).

Given a max-min LP instance, the *communication hypergraph* ``H`` has the
agents as vertices and one hyperedge per support set:

* ``V_i`` for each resource ``i`` (agents competing for the same resource),
* ``V_k`` for each beneficiary ``k`` (agents collaborating for the same
  party).

The paper additionally introduces the *collaboration-oblivious* variant in
which only the resource hyperedges are present; this is the natural setting
to compare against prior work on packing LPs where ``|V_k|`` is unbounded
(e.g. the single global objective of a packing LP).
"""

from __future__ import annotations

from typing import Hashable

from ..core.problem import MaxMinLP
from .hypergraph import Hypergraph

__all__ = [
    "ResourceEdge",
    "BeneficiaryEdge",
    "communication_hypergraph",
]


class ResourceEdge(tuple):
    """Label for a resource hyperedge ``V_i`` (wraps the resource id)."""

    __slots__ = ()

    def __new__(cls, resource: Hashable) -> "ResourceEdge":
        return super().__new__(cls, ("resource", resource))

    @property
    def resource(self) -> Hashable:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResourceEdge({self[1]!r})"


class BeneficiaryEdge(tuple):
    """Label for a beneficiary hyperedge ``V_k`` (wraps the beneficiary id)."""

    __slots__ = ()

    def __new__(cls, beneficiary: Hashable) -> "BeneficiaryEdge":
        return super().__new__(cls, ("beneficiary", beneficiary))

    @property
    def beneficiary(self) -> Hashable:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BeneficiaryEdge({self[1]!r})"


def communication_hypergraph(
    problem: MaxMinLP, *, collaboration_oblivious: bool = False
) -> Hypergraph:
    """Build the communication hypergraph of ``problem``.

    Parameters
    ----------
    problem:
        The max-min LP instance.
    collaboration_oblivious:
        When true, only the resource hyperedges ``{V_i : i ∈ I}`` are added
        (the restricted variant of Section 1.4); otherwise both resource and
        beneficiary hyperedges are present.

    Returns
    -------
    Hypergraph
        Vertices are the agents of ``problem``; hyperedge labels are
        :class:`ResourceEdge` / :class:`BeneficiaryEdge` wrappers so that the
        origin of each hyperedge remains identifiable.
    """
    edges = {}
    for i in problem.resources:
        support = problem.resource_support(i)
        if support:
            edges[ResourceEdge(i)] = support
    if not collaboration_oblivious:
        for k in problem.beneficiaries:
            support = problem.beneficiary_support(k)
            if support:
                edges[BeneficiaryEdge(k)] = support
    return Hypergraph(problem.agents, edges)
