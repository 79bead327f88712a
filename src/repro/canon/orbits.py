"""Grouping agents into view-equivalence classes (orbits).

The Section 5 locality argument makes the radius-``R`` view of an agent the
sole input of its local computation; agents whose views induce isomorphic
local LPs form an *orbit* and provably share one local solution (up to the
relabeling).  :func:`partition_views` computes this partition by
canonicalising every agent's view (:mod:`repro.canon.labeling`) and
grouping on the canonical keys.  The batch engine keys local LPs by the
same canonical keys, so an instance's ``n_orbits`` is the number of
distinct local LPs one averaging run solves.

On vertex-transitive families the partition is extreme — every agent of a
unit-weight torus sits in a single orbit — while irregular instances
degrade gracefully to singleton orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.problem import Agent, MaxMinLP
from ..hypergraph.hypergraph import Hypergraph
from ..obs.trace import span
from .labeling import DEFAULT_BRANCH_BUDGET, CanonicalForm, CanonicalIndex

__all__ = ["OrbitPartition", "ViewOrbit", "partition_views"]


@dataclass(frozen=True)
class ViewOrbit:
    """One view-equivalence class: its key, members and canonical form."""

    key: str
    members: Tuple[Agent, ...]
    form: CanonicalForm = field(repr=False)

    @property
    def representative(self) -> Agent:
        """The first member in instance order (the orbit's solved agent)."""
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OrbitPartition:
    """The view-equivalence partition of one instance at one radius."""

    R: int
    orbits: Tuple[ViewOrbit, ...]
    forms: Mapping[Agent, CanonicalForm] = field(repr=False)

    @property
    def n_agents(self) -> int:
        return sum(orbit.size for orbit in self.orbits)

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)

    @property
    def sharing_factor(self) -> float:
        """Agents per orbit — the solve-count compression of canonical keys."""
        return self.n_agents / self.n_orbits if self.orbits else 1.0

    def orbit_of(self, agent: Agent) -> ViewOrbit:
        key = self.forms[agent].key
        for orbit in self.orbits:
            if orbit.key == key:
                return orbit
        raise KeyError(f"agent {agent!r} has no orbit")  # pragma: no cover

    def summary(self) -> Dict[str, Any]:
        """Compact statistics row (used by ``repro canon stats``)."""
        sizes = sorted((orbit.size for orbit in self.orbits), reverse=True)
        return {
            "R": self.R,
            "agents": self.n_agents,
            "orbits": self.n_orbits,
            "sharing": round(self.sharing_factor, 3),
            "largest": sizes[0] if sizes else 0,
            "singletons": sum(1 for s in sizes if s == 1),
            "inexact": sum(1 for orbit in self.orbits if not orbit.form.exact),
        }


def partition_views(
    problem: MaxMinLP,
    R: int,
    *,
    hypergraph: Optional[Hypergraph] = None,
    branch_budget: int = DEFAULT_BRANCH_BUDGET,
    index: Optional[CanonicalIndex] = None,
) -> OrbitPartition:
    """Partition the agents of ``problem`` into radius-``R`` view orbits.

    Every view is canonicalised through the batch pipeline of
    :mod:`repro.views`.

    Parameters
    ----------
    problem:
        The max-min LP instance.
    R:
        View radius; must be at least 1 (matching the averaging algorithm).
    hypergraph:
        Optional pre-built communication hypergraph (built on demand).
    branch_budget:
        Forwarded to :mod:`repro.canon.labeling` (ignored when ``index`` is
        given).
    index:
        Optional :class:`~repro.canon.labeling.CanonicalIndex` to reuse
        across partitions (e.g. across the radii of a sweep); a fresh one
        is created otherwise.  Canonical forms are pure functions of the
        view structure, so sharing an index never changes the partition.
    """
    from ..views.atlas import ViewAtlas

    if R < 1:
        raise ValueError("view orbits require a radius R >= 1")
    if index is None:
        index = CanonicalIndex(branch_budget=branch_budget)

    with span("canon.partition", agents=len(problem.agents), radius=R):
        atlas = ViewAtlas.from_problem(problem, R, hypergraph=hypergraph)
        forms = atlas.canonical_forms(index)
        members: Dict[str, List[Agent]] = {}
        for u in problem.agents:
            members.setdefault(forms[u].key, []).append(u)
        orbits = tuple(
            ViewOrbit(key=key, members=tuple(agents), form=forms[agents[0]])
            for key, agents in members.items()
        )
        return OrbitPartition(R=R, orbits=orbits, forms=forms)
