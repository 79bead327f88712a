"""Deterministic canonical labeling of local views (paper Section 5).

The locality argument of Section 5 says that the output of a local algorithm
at an agent ``u`` is a function of its radius-``R`` view alone: the agent
solves the local LP (9) induced by the view, and that LP is determined by
the view's coefficient structure, not by the *names* of the vertices in it.
Two agents whose views induce the same local LP up to a relabeling of
agents, resources and beneficiaries therefore provably compute identical
local solutions — solving the LP once per equivalence class is enough.

This module makes that argument executable.  It computes a **canonical
form** of the local LP of a view: a relabeling of its index sets to
``0..n-1`` positions that depends only on the isomorphism class of the
weighted incidence structure, never on the incoming identifiers.  Equal
canonical forms certify isomorphic views (the composed position maps *are*
the isomorphism), so grouping agents by the form's content hash yields the
view-equivalence classes used by :mod:`repro.canon.orbits` and the
canonical cache keys of the batch engine.

The labeling is computed by colour refinement (1-dimensional
Weisfeiler–Leman) over the tripartite incidence graph

* one node per agent, resource and beneficiary of the local LP,
* an edge per non-zero coefficient ``a_iv`` / ``c_kv``, coloured by the
  exact float value.

When refinement alone discretises the partition (every colour occurs once,
the common case on randomly weighted families) the stable colouring already
*is* the canonical labeling: colours are ranked canonically, so isomorphic
views receive equal colourings and nothing is left to search.  Otherwise
(symmetric views such as torus balls have non-trivial automorphism groups)
refinement is followed by individualisation–refinement backtracking.  The
backtracking explores the candidates of the first ambiguous cell, keeps the
lexicographically smallest resulting form, and prunes candidates that an
already-discovered automorphism maps to an explored one.  A branch budget
bounds pathological inputs; on exhaustion the labeling degrades to a
deterministic identifier-sorted fallback that is still *sound* (only
literally identical structures share a key) but no longer merges every
isomorphic pair.

Determinism contract: the result depends only on the *set* of agents and
coefficient entries handed in — not on their iteration order, not on the
identifier values (except in the explicitly literal fallback), and not on
any global state.  The batched averaging pipeline relies on this to match
its per-agent test reference (``tests/averaging_reference.py``) bit for
bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from hashlib import sha256
from itertools import repeat
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ordering import identifier_sort_key as _sort_key
from ..core.problem import Agent, Beneficiary, MaxMinLP, Resource
from ..obs.trace import span

__all__ = [
    "CANON_FORMAT_VERSION",
    "CanonicalForm",
    "CanonicalIndex",
    "canonical_view_key",
    "canonicalize_local_lp",
    "canonicalize_problem",
    "view_local_structure",
]

#: Version tag mixed into every canonical key; bump when the canonical
#: encoding changes so stale cache entries can never alias new ones.
CANON_FORMAT_VERSION = 1

#: Default bound on the number of individualisation–refinement search nodes
#: explored before falling back to the literal labeling.  Views of the
#: bounded-growth families stay far below this; the bound only guards
#: against adversarially symmetric inputs (e.g. dense complete-bipartite
#: structures whose automorphism groups are factorial).
DEFAULT_BRANCH_BUDGET = 2048


class _BudgetExhausted(Exception):
    """Raised internally when the search explored too many branches."""


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical form of one local LP plus the maps back to it.

    Attributes
    ----------
    key:
        SHA-256 content hash of the canonical form (shape, weight table and
        relabelled coefficient entries).  Equal keys mean the underlying
        structures are isomorphic — the hash covers the full form, so a
        collision would require a SHA-256 collision.
    agent_order / resource_order / beneficiary_order:
        Original identifiers listed by canonical position:
        ``agent_order[p]`` is the agent sitting at canonical column ``p``.
    consumption / benefit:
        Relabelled coefficient triples ``(row_position, agent_position,
        value)`` in canonical (sorted) order.
    exact:
        ``True`` when the full canonical labeling was computed; ``False``
        when the branch budget forced the identifier-sorted fallback (the
        key is then literal: only structurally *identical* inputs share it).
    """

    key: str
    agent_order: Tuple[Agent, ...]
    resource_order: Tuple[Resource, ...]
    beneficiary_order: Tuple[Beneficiary, ...]
    consumption: Tuple[Tuple[int, int, float], ...]
    benefit: Tuple[Tuple[int, int, float], ...]
    exact: bool = True

    @property
    def n_agents(self) -> int:
        return len(self.agent_order)

    @property
    def n_resources(self) -> int:
        return len(self.resource_order)

    @property
    def n_beneficiaries(self) -> int:
        return len(self.beneficiary_order)

    def problem(self) -> MaxMinLP:
        """Build the canonical LP instance itself.

        Agents are the integer positions ``0..n_agents-1``, resources and
        beneficiaries the strings ``"i<p>"`` / ``"k<p>"``; the column and
        row orders are the canonical orders, so isomorphic views build the
        *same matrices* and a deterministic solver returns the same vector.
        """
        agents = list(range(self.n_agents))
        resources = [f"i{p}" for p in range(self.n_resources)]
        beneficiaries = [f"k{p}" for p in range(self.n_beneficiaries)]
        a = {(f"i{r}", v): value for r, v, value in self.consumption}
        c = {(f"k{k}", v): value for k, v, value in self.benefit}
        return MaxMinLP(
            agents,
            a,
            c,
            resources=resources,
            beneficiaries=beneficiaries,
            validate=False,
        )

    def compiled(self):
        """The canonical LP as bare solver matrices (no :class:`MaxMinLP`).

        The relabelled coefficient triples are already sorted by (row,
        column) -- CSR construction order -- so this produces exactly the
        matrices :meth:`problem` would compile, without assembling the
        identifier dictionaries and support sets of a full instance.  This
        is what the batch engine solves (and ships to worker processes as
        raw CSR buffers) on a canonical cache miss.
        """
        from ..lp.maxmin import CompiledMaxMin

        return CompiledMaxMin.from_triples(
            self.n_agents,
            self.n_resources,
            self.n_beneficiaries,
            self.consumption,
            self.benefit,
        )

    def pull_back(self, canonical_x: Dict[int, float]) -> Dict[Agent, float]:
        """Map a solution of the canonical LP back to original agent names."""
        values = map(canonical_x.get, range(len(self.agent_order)), repeat(0.0))
        return dict(zip(self.agent_order, map(float, values)))




class _UnionFind:
    """Minimal union-find over node indices for automorphism-orbit pruning."""

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class _Canonicalizer:
    """One canonicalisation run over a fixed incidence structure."""

    def __init__(
        self,
        agents: Sequence[Agent],
        resources: Sequence[Resource],
        beneficiaries: Sequence[Beneficiary],
        cons: Sequence[Tuple[int, int, float]],
        bens: Sequence[Tuple[int, int, float]],
        branch_budget: int,
    ) -> None:
        # cons rows are (resource_index, agent_index, value) in *internal*
        # (identifier-sorted) indices; bens likewise for beneficiaries.
        weights = sorted({value for _r, _a, value in cons}
                         | {value for _k, _a, value in bens})
        wid = {value: idx for idx, value in enumerate(weights)}
        self._setup(
            len(agents),
            len(resources),
            len(beneficiaries),
            np.asarray([r for r, _a, _v in cons], dtype=np.int64),
            np.asarray([a for _r, a, _v in cons], dtype=np.int64),
            np.asarray([wid[v] for _r, _a, v in cons], dtype=np.int64),
            np.asarray([k for k, _a, _v in bens], dtype=np.int64),
            np.asarray([a for _k, a, _v in bens], dtype=np.int64),
            np.asarray([wid[v] for _k, _a, v in bens], dtype=np.int64),
            np.asarray(weights, dtype=np.float64),
            branch_budget,
        )

    @classmethod
    def from_arrays(
        cls,
        n_agents: int,
        n_resources: int,
        n_beneficiaries: int,
        cons_res: np.ndarray,
        cons_agent: np.ndarray,
        cons_wid: np.ndarray,
        ben_row: np.ndarray,
        ben_agent: np.ndarray,
        ben_wid: np.ndarray,
        weight_table: np.ndarray,
        branch_budget: int,
    ) -> "_Canonicalizer":
        """Build directly from pre-sorted internal-index arrays.

        The arrays must mirror what :meth:`__init__` derives from triple
        lists: coefficient entries sorted by ``(row, agent)``, weight ids
        ranking into the sorted unique ``weight_table``.  The batch pipeline
        (:mod:`repro.views`) produces exactly this layout for every view at
        once, so group representatives skip the per-view Python loops.
        """
        self = cls.__new__(cls)
        self._setup(
            n_agents,
            n_resources,
            n_beneficiaries,
            np.ascontiguousarray(cons_res, dtype=np.int64),
            np.ascontiguousarray(cons_agent, dtype=np.int64),
            np.ascontiguousarray(cons_wid, dtype=np.int64),
            np.ascontiguousarray(ben_row, dtype=np.int64),
            np.ascontiguousarray(ben_agent, dtype=np.int64),
            np.ascontiguousarray(ben_wid, dtype=np.int64),
            np.ascontiguousarray(weight_table, dtype=np.float64),
            branch_budget,
        )
        return self

    def _setup(
        self,
        n_agents: int,
        n_resources: int,
        n_beneficiaries: int,
        cons_res: np.ndarray,
        cons_agent: np.ndarray,
        cons_wid: np.ndarray,
        ben_row: np.ndarray,
        ben_agent: np.ndarray,
        ben_wid: np.ndarray,
        weight_table: np.ndarray,
        branch_budget: int,
    ) -> None:
        self.n_agents = n_agents
        self.n_resources = n_resources
        self.n_beneficiaries = n_beneficiaries
        self.n_nodes = n_agents + n_resources + n_beneficiaries
        self.budget = branch_budget
        self.weight_table = weight_table
        self.n_weights = max(weight_table.size, 1)

        self.edge_res = cons_res
        self.edge_res_agent = cons_agent
        self.edge_res_wid = cons_wid
        self.edge_ben = ben_row
        self.edge_ben_agent = ben_agent
        self.edge_ben_wid = ben_wid

        # Undirected incidence edges, stored once per endpoint direction.
        ends_a = np.concatenate([cons_agent, ben_agent])
        ends_b = np.concatenate(
            [cons_res + n_agents, ben_row + n_agents + n_resources]
        )
        wids = np.concatenate([cons_wid, ben_wid])
        self.node = np.concatenate([ends_a, ends_b])
        self.nbr = np.concatenate([ends_b, ends_a])
        self.wid = np.concatenate([wids, wids])
        counts = np.bincount(self.node, minlength=self.n_nodes)
        self.degrees = counts
        self.starts = np.concatenate(([0], np.cumsum(counts)))
        order = np.argsort(self.node, kind="stable")
        self.node = self.node[order]
        self.nbr = self.nbr[order]
        self.wid = self.wid[order]

    # ------------------------------------------------------------------
    # Colour refinement
    # ------------------------------------------------------------------
    def initial_colors(self) -> np.ndarray:
        colors = np.zeros(self.n_nodes, dtype=np.int64)
        colors[self.n_agents: self.n_agents + self.n_resources] = 1
        colors[self.n_agents + self.n_resources:] = 2
        return colors

    def structure_key(self) -> Tuple:
        """Hashable digest of the identifier-sorted coefficient structure.

        Two views with equal keys present byte-identical inputs to the
        labeling algorithm, which therefore returns byte-identical
        labelings — the basis of :class:`CanonicalIndex`'s structure memo.
        """
        return (
            self.n_agents,
            self.n_resources,
            self.n_beneficiaries,
            self.weight_table.tobytes(),
            self.edge_res.tobytes(),
            self.edge_res_agent.tobytes(),
            self.edge_res_wid.tobytes(),
            self.edge_ben.tobytes(),
            self.edge_ben_agent.tobytes(),
            self.edge_ben_wid.tobytes(),
        )

    @staticmethod
    def _mix(values: np.ndarray) -> np.ndarray:
        """SplitMix64-style integer mixing (vectorised, deterministic)."""
        x = values.astype(np.uint64, copy=True)
        x += np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return x

    def refine(self, colors: np.ndarray) -> np.ndarray:
        """Run colour refinement to a stable partition; returns canonical ints.

        Each round every node's signature is (own colour, multiset of
        (neighbour colour, edge weight id)); the multiset is summarised by a
        wrap-around sum of mixed 64-bit hashes (order-free, hence an
        isomorphism invariant) and signatures are ranked by (old colour,
        hash), which keeps colour values canonical and the refinement
        monotone — cells only ever split, and the agent/resource/
        beneficiary blocks stay contiguous.  A hash collision can only make
        the partition *coarser* than true WL, which costs extra search
        branches but never correctness: membership in an orbit is decided
        by the exact serialised form, not by the colours.
        """
        if self.n_nodes == 0:
            return colors
        n_colors = int(np.unique(colors).size)
        ends = self.starts[1:]
        has_edges = self.node.size > 0
        while True:
            if has_edges:
                code = colors[self.nbr] * np.int64(self.n_weights) + self.wid
                hashed = self._mix(code)
                # Clip so trailing zero-degree nodes stay in reduceat's
                # index range; their (meaningless) sums are zeroed below.
                idx = np.minimum(self.starts[:-1], self.node.size - 1)
                sums = np.add.reduceat(hashed, idx)
                sums[self.degrees == 0] = 0
            else:
                sums = np.zeros(self.n_nodes, dtype=np.uint64)
            order = np.lexsort((sums, colors))
            sorted_old = colors[order]
            sorted_sum = sums[order]
            boundary = np.empty(self.n_nodes, dtype=np.int64)
            boundary[0] = 0
            if self.n_nodes > 1:
                changed = (sorted_old[1:] != sorted_old[:-1]) | (
                    sorted_sum[1:] != sorted_sum[:-1]
                )
                boundary[1:] = np.cumsum(changed)
            new_colors = np.empty(self.n_nodes, dtype=np.int64)
            new_colors[order] = boundary
            new_n = int(boundary[-1]) + 1
            if new_n == n_colors:
                return new_colors
            colors = new_colors
            n_colors = new_n

    # ------------------------------------------------------------------
    # Individualisation–refinement search
    # ------------------------------------------------------------------
    def _target_cell(self, colors: np.ndarray) -> Optional[np.ndarray]:
        """The smallest (then lowest-colour) non-singleton cell, or None."""
        values, counts = np.unique(colors, return_counts=True)
        mask = counts > 1
        if not mask.any():
            return None
        candidates = values[mask]
        sizes = counts[mask]
        best = candidates[np.lexsort((candidates, sizes))[0]]
        return np.flatnonzero(colors == best)

    def _form_bytes(self, colors: np.ndarray) -> bytes:
        """Serialise the relabelled structure under a discrete colouring."""
        a_pos = colors
        res_pos = colors - self.n_agents
        ben_pos = colors - self.n_agents - self.n_resources
        header = np.asarray(
            [
                CANON_FORMAT_VERSION,
                self.n_agents,
                self.n_resources,
                self.n_beneficiaries,
                len(self.weight_table),
            ],
            dtype=np.int64,
        )
        cons = np.column_stack(
            (
                res_pos[self.n_agents + self.edge_res],
                a_pos[self.edge_res_agent],
                self.edge_res_wid,
            )
        ) if self.edge_res.size else np.empty((0, 3), dtype=np.int64)
        bens = np.column_stack(
            (
                ben_pos[self.n_agents + self.n_resources + self.edge_ben],
                a_pos[self.edge_ben_agent],
                self.edge_ben_wid,
            )
        ) if self.edge_ben.size else np.empty((0, 3), dtype=np.int64)
        if cons.size:
            cons = cons[np.lexsort((cons[:, 1], cons[:, 0]))]
        if bens.size:
            bens = bens[np.lexsort((bens[:, 1], bens[:, 0]))]
        return b"".join(
            (
                header.tobytes(),
                self.weight_table.tobytes(),
                cons.astype(np.int64, copy=False).tobytes(),
                bens.astype(np.int64, copy=False).tobytes(),
            )
        )

    def _individualize(self, colors: np.ndarray, v: int) -> np.ndarray:
        out = colors * 2 + 1
        out[v] -= 1
        return out

    def search(self) -> Tuple[bytes, np.ndarray]:
        """Full canonical labeling: (minimal form bytes, node -> position)."""
        return self.search_from(self.refine(self.initial_colors()))

    def search_from(self, stable: np.ndarray) -> Tuple[bytes, np.ndarray]:
        """Canonical labeling starting from a pre-computed stable colouring."""
        self._auto = _UnionFind(self.n_nodes)
        self._best_form: Optional[bytes] = None
        self._best_colors: Optional[np.ndarray] = None
        self._nodes_left = self.budget
        self._search_from(stable)
        assert self._best_form is not None and self._best_colors is not None
        return self._best_form, self._best_colors

    def _search_from(self, colors: np.ndarray) -> None:
        cell = self._target_cell(colors)
        if cell is None:
            form = self._form_bytes(colors)
            if self._best_form is None or form < self._best_form:
                self._best_form = form
                self._best_colors = colors
            elif form == self._best_form:
                # Equal forms certify an automorphism: the node at position
                # p of either labeling plays the same structural role.
                assert self._best_colors is not None
                by_pos_best = np.argsort(self._best_colors)
                by_pos_here = np.argsort(colors)
                for a, b in zip(by_pos_best, by_pos_here):
                    self._auto.union(int(a), int(b))
            return
        explored: List[int] = []
        for v in cell:
            v = int(v)
            root = self._auto.find(v)
            if any(self._auto.find(u) == root for u in explored):
                continue  # an automorphism maps v onto an explored branch
            explored.append(v)
            if self._nodes_left <= 0:
                raise _BudgetExhausted
            self._nodes_left -= 1
            self._search_from(self.refine(self._individualize(colors, v)))

    def literal_colors(self) -> np.ndarray:
        """Identity labeling (identifier-sorted order) for the fallback."""
        return np.arange(self.n_nodes, dtype=np.int64)


def _build_canonicalizer(
    agents: Iterable[Agent],
    consumption: Iterable[Tuple[Resource, Agent, float]],
    benefit: Iterable[Tuple[Beneficiary, Agent, float]],
    branch_budget: int,
) -> Tuple[_Canonicalizer, List[Agent], List[Resource], List[Beneficiary]]:
    """Sort identifiers and compile the incidence arrays.

    The identifier sort is what makes every downstream step independent of
    the caller's iteration order: the engine (canonicalising a compiled
    sub-instance) and the per-agent test reference (canonicalising a raw
    view structure, ``tests/averaging_reference.py``) reach identical
    internal indexings, hence identical labelings, for the same view.
    """
    agent_list = sorted(set(agents), key=_sort_key)
    cons_list = list(consumption)
    bens_list = list(benefit)
    resource_list = sorted({r for r, _a, _v in cons_list}, key=_sort_key)
    beneficiary_list = sorted({k for k, _a, _v in bens_list}, key=_sort_key)
    agent_index = {a: idx for idx, a in enumerate(agent_list)}
    resource_index = {r: idx for idx, r in enumerate(resource_list)}
    beneficiary_index = {k: idx for idx, k in enumerate(beneficiary_list)}

    cons = sorted(
        (resource_index[r], agent_index[a], float(v)) for r, a, v in cons_list
    )
    bens = sorted(
        (beneficiary_index[k], agent_index[a], float(v)) for k, a, v in bens_list
    )
    canonicalizer = _Canonicalizer(
        agent_list, resource_list, beneficiary_list, cons, bens, branch_budget
    )
    return canonicalizer, agent_list, resource_list, beneficiary_list


def _exact_key(form_bytes: bytes) -> str:
    """Content key of an exact canonical form: SHA-256 of its bytes."""
    digest = sha256(b"exact:")
    digest.update(form_bytes)
    return digest.hexdigest()


def _assemble_form(
    canonicalizer: _Canonicalizer,
    agent_list: Sequence[Agent],
    resource_list: Sequence[Resource],
    beneficiary_list: Sequence[Beneficiary],
    form_bytes: bytes,
    positions: np.ndarray,
    exact: bool,
) -> CanonicalForm:
    """Turn a discrete labeling into the public :class:`CanonicalForm`."""
    n_a, n_r = canonicalizer.n_agents, canonicalizer.n_resources
    agent_order: List[Agent] = [None] * n_a  # type: ignore[list-item]
    for idx, agent in enumerate(agent_list):
        agent_order[int(positions[idx])] = agent
    resource_order: List[Resource] = [None] * n_r  # type: ignore[list-item]
    for idx, resource in enumerate(resource_list):
        resource_order[int(positions[n_a + idx]) - n_a] = resource
    beneficiary_order: List[Beneficiary] = [None] * len(beneficiary_list)  # type: ignore[list-item]
    for idx, beneficiary in enumerate(beneficiary_list):
        beneficiary_order[int(positions[n_a + n_r + idx]) - n_a - n_r] = beneficiary

    weight_table = canonicalizer.weight_table
    consumption_canonical = tuple(
        sorted(
            (
                int(positions[n_a + r]) - n_a,
                int(positions[a]),
                float(weight_table[w]) if weight_table.size else 0.0,
            )
            for r, a, w in zip(
                canonicalizer.edge_res,
                canonicalizer.edge_res_agent,
                canonicalizer.edge_res_wid,
            )
        )
    )
    benefit_canonical = tuple(
        sorted(
            (
                int(positions[n_a + n_r + k]) - n_a - n_r,
                int(positions[a]),
                float(weight_table[w]) if weight_table.size else 0.0,
            )
            for k, a, w in zip(
                canonicalizer.edge_ben,
                canonicalizer.edge_ben_agent,
                canonicalizer.edge_ben_wid,
            )
        )
    )

    if exact:
        key = _exact_key(form_bytes)
    else:
        # Literal keys must separate structures that merely *index*
        # identically: include the identifiers themselves.
        digest = sha256(b"literal:")
        digest.update(form_bytes)
        digest.update(repr((list(agent_list), list(resource_list),
                            list(beneficiary_list))).encode())
        key = digest.hexdigest()
    return CanonicalForm(
        key=key,
        agent_order=tuple(agent_order),
        resource_order=tuple(resource_order),
        beneficiary_order=tuple(beneficiary_order),
        consumption=consumption_canonical,
        benefit=benefit_canonical,
        exact=exact,
    )


def canonicalize_local_lp(
    agents: Iterable[Agent],
    consumption: Iterable[Tuple[Resource, Agent, float]],
    benefit: Iterable[Tuple[Beneficiary, Agent, float]],
    *,
    branch_budget: int = DEFAULT_BRANCH_BUDGET,
) -> CanonicalForm:
    """Canonicalise one local LP given as raw coefficient structure.

    Parameters
    ----------
    agents:
        The agents of the view (the LP's columns).
    consumption:
        Triples ``(resource, agent, a_iv)`` — the clipped packing rows.
    benefit:
        Triples ``(beneficiary, agent, c_kv)`` — the fully-contained
        objective rows.
    branch_budget:
        Bound on individualisation–refinement search nodes; exhausted
        budgets fall back to the sound literal labeling (``exact=False``).

    The result is independent of the iteration order of all three inputs.
    When canonicalising many views of one instance, prefer
    :class:`CanonicalIndex` — it labels discrete views from their colouring,
    full-searches one representative per symmetric class and matches the
    rest, which is several times faster.
    """
    canonicalizer, agent_list, resource_list, beneficiary_list = _build_canonicalizer(
        agents, consumption, benefit, branch_budget
    )
    try:
        form_bytes, colors = canonicalizer.search()
        exact = True
    except _BudgetExhausted:
        colors = canonicalizer.literal_colors()
        form_bytes = canonicalizer._form_bytes(colors)
        exact = False
    return _assemble_form(
        canonicalizer, agent_list, resource_list, beneficiary_list,
        form_bytes, colors, exact,
    )


# ----------------------------------------------------------------------
# The canonical index: discrete views label themselves; symmetric views
# search once per class and match every other member
# ----------------------------------------------------------------------
#: Fewest views matched against one class at once that go through the
#: lockstep matcher.  Each lockstep step pays a fixed cost in numpy calls
#: that only enough views amortise: on torus views of 42-197 nodes the
#: lockstep pass overtook one-by-one matching at 8-10 views (2-core Xeon).
LOCKSTEP_MIN_MEMBERS = 10

#: Score of a placed node (or of the padding column) in the lockstep
#: ordering: below any reachable score of an unplaced node.
_PLACED = np.int64(-(1 << 62))


@dataclass
class _RegisteredForm:
    """Per-class matching data kept by :class:`CanonicalIndex`.

    A class is kept as its incidence edges in canonical positions (both
    directions, sorted by ``(src, dst)``) plus the stable colour of each
    position.  The scalar matcher's per-position sets and the lockstep
    matcher's dense tables are derived from them on first use, so a class
    only ever matched one way builds one set of tables.
    """

    form: CanonicalForm
    colour: np.ndarray  # stable refinement colour per position
    positions_by_color: List[Tuple[int, ...]]  # colour -> candidate positions
    pool_size_by_color: np.ndarray  # colour -> len(positions_by_color[colour])
    src: np.ndarray
    dst: np.ndarray
    wid: np.ndarray
    max_degree: int

    @property
    def n_nodes(self) -> int:
        return int(self.colour.size)

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    @cached_property
    def scalar_tables(
        self,
    ) -> Tuple[List[frozenset], List[Dict[Tuple[int, int], Tuple[int, ...]]]]:
        """Per position: ``{(nbr position, wid)}`` and ``(wid, colour) -> nbrs``."""
        colour = self.colour.tolist()
        edges: List[List[Tuple[int, int]]] = [[] for _ in range(self.n_nodes)]
        grouped: List[Dict[Tuple[int, int], List[int]]] = [
            {} for _ in range(self.n_nodes)
        ]
        for p, q, w in zip(self.src.tolist(), self.dst.tolist(), self.wid.tolist()):
            edges[p].append((q, w))
            grouped[p].setdefault((w, colour[q]), []).append(q)
        return (
            [frozenset(pairs) for pairs in edges],
            [{wc: tuple(qs) for wc, qs in by_wc.items()} for by_wc in grouped],
        )

    @cached_property
    def lockstep_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense tables over ``n + 1`` positions (position ``n`` is padding).

        ``adjacency`` is the flattened ``(n + 1) x (n + 1)`` matrix of edge
        weight id + 1 (0: no edge).  Row ``q * n_colours + c`` of ``pools``
        lists the form neighbours of ``q`` with stable colour ``c`` by
        ascending position, padded with ``n``.
        """
        n = self.n_nodes
        width = n + 1
        adjacency = np.zeros((width, width), dtype=np.int32)
        adjacency[self.src, self.dst] = self.wid + 1
        n_colours = len(self.positions_by_color)
        group = self.src * n_colours + self.colour[self.dst]
        order = np.lexsort((self.dst, group))
        group = group[order]
        starts = np.searchsorted(group, group)
        slot = np.arange(group.size) - starts
        pools = np.full(
            (width * n_colours, int(slot.max()) + 1 if slot.size else 1),
            n,
            dtype=np.int64,
        )
        pools[group, slot] = self.dst[order]
        return adjacency.ravel(), pools


def _lockstep_match(
    members: Sequence[Tuple[_Canonicalizer, np.ndarray]],
    registered: _RegisteredForm,
) -> List[Optional[np.ndarray]]:
    """The greedy path of :meth:`CanonicalIndex._match` for many views at once.

    Every member must pass :meth:`CanonicalIndex._matchable` and the class
    must have edges.  One step per node serves all members: each member
    places the unplaced node with the most placed neighbours (ties: pool
    size, stable colour, index -- the scalar order's key, as a row-wise
    argmax over a members x nodes score) and gives it the lowest unused
    position of its colour whose form edges to the images of its placed
    neighbours are exactly the member's edges.  A scalar-matcher pool holds
    the form neighbours of one placed neighbour's image, so every position
    passing those checks lies in it, and the lowest passing position is the
    one the scalar depth-first search takes.  A member whose every step
    finds a position therefore gets exactly the scalar matcher's first
    complete assignment; a member that dead-ends would need backtracking
    and is returned as ``None``.  The caller keeps the scalar search's
    budget out of play: a greedy path tries at most ``n x max_degree``
    candidates.
    """
    adjacency, pools = registered.lockstep_tables
    n_colours = len(registered.positions_by_color)
    n = registered.n_nodes
    width = n + 1
    count = len(members)
    rows = np.arange(count)
    base = rows * width
    # Member incidence as padded tables over n + 1 nodes per member (node n
    # is padding): flat neighbour index and edge weight id + 1.  Matchable
    # members all have the class's edge count, so they stack.
    node = np.stack([canonicalizer.node for canonicalizer, _ in members])
    starts = np.stack([canonicalizer.starts[:-1] for canonicalizer, _ in members])
    slot = np.arange(node.shape[1]) - np.take_along_axis(starts, node, axis=1)
    node += base[:, None]
    degree = int(slot.max()) + 1
    nbr = np.empty((count * width, degree), dtype=np.int64)
    nbr[...] = np.repeat(base + n, width)[:, None]
    nbr[node, slot] = (
        np.stack([canonicalizer.nbr for canonicalizer, _ in members])
        + base[:, None]
    )
    weight = np.zeros((count * width, degree), dtype=adjacency.dtype)
    weight[node, slot] = (
        np.stack([canonicalizer.wid for canonicalizer, _ in members]) + 1
    )
    colour = np.stack([stable for _, stable in members])

    # Higher score first; argmax takes the lowest index among equal scores,
    # which is the scalar order's last tie-break.
    shift = max(n, 2)
    tiebreak = registered.pool_size_by_color[colour] * shift + colour
    step = np.int64((shift + 1) ** 2)  # one placed neighbour beats any tie-break
    score = np.full((count, width), _PLACED, dtype=np.int64)
    score[:, :n] = -tiebreak
    score = score.ravel()
    colour = np.concatenate((colour, np.zeros((count, 1), np.int64)), axis=1).ravel()
    assign = np.full(count * width, n, dtype=np.int64)  # n: not yet placed
    free = np.ones((count, width), dtype=bool)
    free[:, n] = False  # padding candidates never fit
    free = free.ravel()
    alive = np.ones(count, dtype=bool)

    for _ in range(n):
        picked = base + score.reshape(count, width).argmax(axis=1)
        score[picked] = _PLACED
        nbrs = nbr[picked]
        score[nbrs] += step
        images = assign[nbrs]
        placed = images < n
        # Same-colour form neighbours of one placed neighbour's image (none
        # placed: image n, whose pool rows hold padding only).
        pool = pools[images.min(axis=1) * n_colours + colour[picked]]
        fits = (
            adjacency[pool[:, :, None] * width + images[:, None, :]]
            == (weight[picked] * placed)[:, None, :]
        ).all(axis=2)
        fits &= free[base[:, None] + pool]
        choice = fits.argmax(axis=1)
        image = pool[rows, choice]
        stuck = np.flatnonzero(~fits[rows, choice] & alive)
        for m in stuck:
            if placed[m].any():
                alive[m] = False  # dead end: the scalar search backtracks
                continue
            # No placed neighbour: the lowest unused position of the colour.
            seeds = np.asarray(registered.positions_by_color[colour[picked[m]]])
            seeds = seeds[free[base[m] + seeds]]
            if seeds.size:
                image[m] = seeds[0]
            else:
                alive[m] = False
        if stuck.size and not alive.any():
            break
        assign[picked] = image
        free[base + image] = False
    return [
        assign[base[m]: base[m] + n].copy() if alive[m] else None for m in rows
    ]


class CanonicalIndex:
    """Canonicalise many views, amortising the search across equal classes.

    A view whose stable refinement colouring is discrete is labelled by that
    colouring directly: no search, no matching, and its class is never
    registered — only the class content (a template form per key) is kept.
    For the remaining, symmetric views the full individualisation–refinement
    search runs once per distinct canonical form; subsequent structurally
    equivalent views are *matched* against the registered form (a
    colour-guided sub-isomorphism search that certifies the bijection edge
    by edge).  The outcome for a view is a pure function of the view's
    structure — the canonical form of a class is unique, so it does not
    matter which member's search discovered it or whether a match or a
    search produced the labeling.  Two engines therefore stay bit-for-bit
    interchangeable even though each keeps its own index.

    :meth:`canonical_forms_from_arrays` labels a whole batch of views (one
    atlas call) at once.  Its symmetric views are bucketed by invariant;
    each bucket tries the registered classes in registration order, then
    searches its first unmatched view and matches the rest against the new
    class.  When at least :data:`LOCKSTEP_MIN_MEMBERS` views are matched
    against one class they go through the matcher in lockstep
    (:func:`_lockstep_match`): one numpy step per node serves every view,
    and a view whose greedy path completes gets exactly the scalar
    matcher's labeling.  A view that dead-ends (its match needs
    backtracking) reruns through the scalar :meth:`_match`;
    ``stats["backtracked"]`` counts those.

    The index is an unguarded pure cache: concurrent use from several
    threads can at worst duplicate work or register a redundant equal-key
    entry (slowing later matches), never change a labeling — every result
    is a deterministic function of the view alone.
    """

    #: Bound on the literal-structure memo; it is a pure cache, so clearing
    #: it on overflow only costs recomputation, never correctness.
    MAX_STRUCTURE_MEMO = 50_000

    def __init__(
        self,
        *,
        branch_budget: int = DEFAULT_BRANCH_BUDGET,
        match_budget: int = 20000,
    ) -> None:
        self.branch_budget = branch_budget
        self.match_budget = match_budget
        # Registered symmetric classes by invariant (discrete views never
        # register: they need no matching).
        self._classes: Dict[Tuple, List[_RegisteredForm]] = {}
        # Literal-structure memo: views whose identifier-sorted coefficient
        # arrays coincide (common on translation-invariant families) share
        # one labeling computation outright.  Pure-cache: the algorithm is
        # deterministic on the sorted arrays, so a hit returns exactly what
        # a fresh computation would.  Exact forms only — literal-fallback
        # keys embed identifiers and must stay per-view.
        self._structure_memo: Dict[Tuple, Tuple[np.ndarray, CanonicalForm]] = {}
        # Class content of discrete-colouring views, by key (bounded like
        # the structure memo; same pure-cache argument).
        self._discrete_templates: Dict[str, CanonicalForm] = {}
        self.stats = {
            "searched": 0,
            "matched": 0,
            "literal": 0,
            "memoized": 0,
            "discrete": 0,
            "backtracked": 0,
        }

    # ------------------------------------------------------------------
    def canonical_form(
        self,
        agents: Iterable[Agent],
        consumption: Iterable[Tuple[Resource, Agent, float]],
        benefit: Iterable[Tuple[Beneficiary, Agent, float]],
    ) -> CanonicalForm:
        """Canonical form of one view (discrete, match or search path).

        The labeling of a view is a pure function of the view itself.  A
        discrete stable colouring is the labeling outright.  Otherwise it is
        produced by the deterministic matcher against the class's unique
        canonical form whenever the matcher succeeds — *including* for the
        member whose search discovered the form (it is re-matched against
        its own form) — and by the full search otherwise.  Whether the form
        was already registered, and by whom, therefore never changes any
        member's labeling; this is what keeps warm and cold engines, and
        the batch and scalar canonicalisation paths, bit-for-bit
        interchangeable.
        """
        form, _positions = self.canonical_form_and_positions(
            agents, consumption, benefit
        )
        return form

    def canonical_form_and_positions(
        self,
        agents: Iterable[Agent],
        consumption: Iterable[Tuple[Resource, Agent, float]],
        benefit: Iterable[Tuple[Beneficiary, Agent, float]],
    ) -> Tuple[CanonicalForm, np.ndarray]:
        """:meth:`canonical_form` plus the node -> canonical-position map.

        ``positions[i]`` is the canonical position of the ``i``-th node in
        identifier-sorted order (agents, then resources shifted by
        ``n_agents``, then beneficiaries).  Any caller holding another
        structure with *identical* sorted coefficient arrays may reuse the
        positions verbatim via :meth:`templated_form` — that is exactly what
        the structure memo does internally and what the batch pipeline in
        :mod:`repro.views` does across the members of a literal-structure
        group.  Positions of a non-``exact`` (literal fallback) form are the
        fallback labeling and must not be shared across views.
        """
        canonicalizer, agent_list, resource_list, beneficiary_list = (
            _build_canonicalizer(agents, consumption, benefit, self.branch_budget)
        )
        return self._forms_and_positions(
            [(canonicalizer, agent_list, resource_list, beneficiary_list, None)]
        )[0]

    def canonical_forms_from_arrays(
        self, views: Sequence[Tuple]
    ) -> List[Tuple[CanonicalForm, np.ndarray]]:
        """Array fast path of :meth:`canonical_form_and_positions`, batched.

        Each item is ``(agent_list, resource_list, beneficiary_list,
        cons_res, cons_agent, cons_wid, ben_row, ben_agent, ben_wid,
        weight_table, stable)``.  The identifier lists must already be
        ``_sort_key``-sorted and the coefficient arrays expressed in the
        corresponding internal indices, sorted by ``(row, agent)`` with
        weight ids ranking into the sorted unique ``weight_table`` — the
        layout the vectorized view-extraction pipeline emits.  Equal inputs
        produce byte-identical state to the triple-list path, so both
        entries share the memo and the registered classes, and their
        outputs are interchangeable bit for bit.

        ``stable`` may carry the view's stable refinement colouring when the
        caller already computed it (the batch pipeline refines many views in
        one shared sweep), or be ``None``; it must equal what
        :meth:`_Canonicalizer.refine` would return — the batch refinement
        ranks signatures per view with the same comparisons, and the test
        suite asserts the equality.

        The labelings equal what one call per view, in item order, returns.
        The symmetric views of the batch are matched class by class, in
        lockstep where a class has enough of them (see the class docstring).
        Each literal structure should appear once — the atlas groups
        byte-equal views first; a repeat gets the same labeling but counts
        as ``matched`` where the one-by-one calls would count ``memoized``.
        """
        items = []
        for agent_list, resource_list, beneficiary_list, *arrays, stable in views:
            canonicalizer = _Canonicalizer.from_arrays(
                len(agent_list),
                len(resource_list),
                len(beneficiary_list),
                *arrays,
                self.branch_budget,
            )
            items.append(
                (canonicalizer, agent_list, resource_list, beneficiary_list, stable)
            )
        return self._forms_and_positions(items)

    def _forms_and_positions(
        self, items: Sequence[Tuple]
    ) -> List[Tuple[CanonicalForm, np.ndarray]]:
        """Label ``(canonicalizer, agents, resources, beneficiaries, stable)``s."""
        results: List[Optional[Tuple[CanonicalForm, np.ndarray]]] = [None] * len(items)
        memo_keys: List[Tuple] = []
        stables: List[np.ndarray] = []
        buckets: Dict[Tuple, List[int]] = {}

        def settle(idx: int, positions: np.ndarray, template: CanonicalForm) -> None:
            _canonicalizer, agent_list, resource_list, beneficiary_list, _ = items[idx]
            self._structure_memo[memo_keys[idx]] = (positions, template)
            results[idx] = (
                self.templated_form(
                    agent_list, resource_list, beneficiary_list, template, positions
                ),
                positions,
            )

        def match_all(
            members: Sequence[int], registered: _RegisteredForm
        ) -> List[Optional[np.ndarray]]:
            return self._match_members(
                [(items[idx][0], stables[idx]) for idx in members], registered
            )

        def settle_matches(
            members: Sequence[int],
            found: Sequence[Optional[np.ndarray]],
            registered: _RegisteredForm,
        ) -> List[int]:
            """Settle the members ``found`` a labeling for; return the rest."""
            unmatched = []
            for idx, positions in zip(members, found):
                if positions is None:
                    unmatched.append(idx)
                else:
                    self.stats["matched"] += 1
                    settle(idx, positions, registered.form)
            return unmatched

        if len(self._structure_memo) > self.MAX_STRUCTURE_MEMO:
            self._structure_memo.clear()
        for idx, (
            canonicalizer, agent_list, resource_list, beneficiary_list, stable
        ) in enumerate(items):
            memo_keys.append(canonicalizer.structure_key())
            memoized = self._structure_memo.get(memo_keys[idx])
            if stable is None and memoized is None:
                stable = canonicalizer.refine(canonicalizer.initial_colors())
            stables.append(stable)
            if memoized is not None:
                self.stats["memoized"] += 1
                settle(idx, *memoized)
            elif stable.size == 0 or int(stable.max()) + 1 == stable.size:
                # Discrete stable colouring (refinement ranks colours 0..n-1,
                # so the maximum reaches n - 1 exactly when every colour
                # occurs once).  Refinement colours are canonical, so the
                # colouring *is* the labeling: the search would stop at its
                # root leaf with these colours, and every matcher pool would
                # be a singleton handing them back.  Copied: the batch
                # pipeline passes slices of one shared array, which the memo
                # must not pin.
                positions = np.array(stable, dtype=np.int64)
                form_bytes = canonicalizer._form_bytes(positions)
                key = _exact_key(form_bytes)
                template = self._discrete_templates.get(key)
                if template is None:
                    if len(self._discrete_templates) > self.MAX_STRUCTURE_MEMO:
                        self._discrete_templates.clear()
                    template = _assemble_form(
                        canonicalizer, agent_list, resource_list, beneficiary_list,
                        form_bytes, positions, True,
                    )
                    self._discrete_templates[key] = template
                self.stats["discrete"] += 1
                settle(idx, positions, template)
            else:
                invariant = self._invariant_key(canonicalizer, stable)
                buckets.setdefault(invariant, []).append(idx)

        for invariant, members in buckets.items():
            # Registered classes first, in registration order ...
            for registered in tuple(self._classes.get(invariant, ())):
                members = settle_matches(
                    members, match_all(members, registered), registered
                )
            # ... then the first unmatched view discovers a new class, which
            # every remaining view is matched against.
            while members:
                first, rest = members[0], members[1:]
                canonicalizer, agent_list, resource_list, beneficiary_list, _ = (
                    items[first]
                )
                stable = stables[first]
                try:
                    with span("canon.search", nodes=int(stable.size)):
                        form_bytes, colors = canonicalizer.search_from(stable)
                except _BudgetExhausted:
                    colors = canonicalizer.literal_colors()
                    form_bytes = canonicalizer._form_bytes(colors)
                    self.stats["literal"] += 1
                    results[first] = (
                        _assemble_form(
                            canonicalizer, agent_list, resource_list,
                            beneficiary_list, form_bytes, colors, False,
                        ),
                        colors,
                    )
                    members = rest
                    continue
                self.stats["searched"] += 1
                form = _assemble_form(
                    canonicalizer, agent_list, resource_list, beneficiary_list,
                    form_bytes, colors, True,
                )
                registered = self._register(
                    invariant, canonicalizer, stable, colors, form
                )
                # Re-derive the discoverer's own labeling through the matcher
                # so it equals what any later (or warm-engine)
                # canonicalisation of the same view would produce.  A
                # self-match that exhausts the budget falls back to the
                # search labeling — which is exactly what every other path
                # computes for this view in that case.
                found = match_all([first] + rest, registered)
                if found[0] is None:
                    self._structure_memo[memo_keys[first]] = (colors, registered.form)
                    results[first] = (form, colors)
                else:
                    settle(first, found[0], registered.form)
                members = settle_matches(rest, found[1:], registered)
        return results  # type: ignore[return-value]

    @staticmethod
    def templated_form(
        agent_list: Sequence[Agent],
        resource_list: Sequence[Resource],
        beneficiary_list: Sequence[Beneficiary],
        template: CanonicalForm,
        positions: np.ndarray,
    ) -> CanonicalForm:
        """A member's form: the class content with the member's own orders."""
        n_a, n_r = len(agent_list), len(resource_list)
        pos = positions.tolist()
        agent_order: List[Agent] = [None] * n_a  # type: ignore[list-item]
        for idx, agent in enumerate(agent_list):
            agent_order[pos[idx]] = agent
        resource_order: List[Resource] = [None] * n_r  # type: ignore[list-item]
        for idx, resource in enumerate(resource_list):
            resource_order[pos[n_a + idx] - n_a] = resource
        beneficiary_order: List[Beneficiary] = [None] * len(beneficiary_list)  # type: ignore[list-item]
        for idx, beneficiary in enumerate(beneficiary_list):
            beneficiary_order[pos[n_a + n_r + idx] - n_a - n_r] = beneficiary
        return CanonicalForm(
            key=template.key,
            agent_order=tuple(agent_order),
            resource_order=tuple(resource_order),
            beneficiary_order=tuple(beneficiary_order),
            consumption=template.consumption,
            benefit=template.benefit,
            exact=True,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _invariant_key(canonicalizer: _Canonicalizer, stable: np.ndarray) -> Tuple:
        histogram = np.bincount(stable) if stable.size else np.empty(0, np.int64)
        return (
            canonicalizer.n_agents,
            canonicalizer.n_resources,
            canonicalizer.n_beneficiaries,
            canonicalizer.weight_table.tobytes(),
            histogram.tobytes(),
        )

    def _register(
        self,
        invariant: Tuple,
        canonicalizer: _Canonicalizer,
        stable: np.ndarray,
        positions: np.ndarray,
        form: CanonicalForm,
    ) -> "_RegisteredForm":
        for registered in self._classes.get(invariant, ()):
            if registered.form.key == form.key:
                # Already indexed (a member whose match ran out of budget
                # ends up here); registering twice would only slow matches.
                return registered
        n = canonicalizer.n_nodes
        colour = np.empty(n, dtype=np.int64)
        colour[positions] = stable
        n_colors = int(colour.max()) + 1 if n else 0
        grouped_positions: List[List[int]] = [[] for _ in range(n_colors)]
        for p, c in enumerate(colour.tolist()):
            grouped_positions[c].append(p)
        src = positions[canonicalizer.node]
        dst = positions[canonicalizer.nbr]
        order = np.lexsort((dst, src))
        entry = _RegisteredForm(
            form=form,
            colour=colour,
            positions_by_color=[tuple(ps) for ps in grouped_positions],
            pool_size_by_color=np.bincount(colour, minlength=n_colors),
            src=src[order],
            dst=dst[order],
            wid=canonicalizer.wid[order],
            max_degree=int(canonicalizer.degrees.max()) if n else 0,
        )
        self._classes.setdefault(invariant, []).append(entry)
        return entry

    @staticmethod
    def _matchable(
        canonicalizer: _Canonicalizer, stable: np.ndarray, registered: _RegisteredForm
    ) -> bool:
        """The size checks every match starts with (failing one: no match).

        The invariant pre-check guarantees equal node counts and colour
        histograms, so member colours index the registered pools directly.
        """
        if int(canonicalizer.node.size) != registered.n_edges:
            return False
        if stable.size and int(stable.max()) >= len(registered.positions_by_color):
            return False
        return not stable.size or int(registered.pool_size_by_color[stable].min()) > 0

    def _match_members(
        self,
        members: Sequence[Tuple[_Canonicalizer, np.ndarray]],
        registered: _RegisteredForm,
    ) -> List[Optional[np.ndarray]]:
        """:meth:`_match` of every ``(canonicalizer, stable)`` against a class."""
        lockstep = [
            idx for idx, (canonicalizer, stable) in enumerate(members)
            if self._matchable(canonicalizer, stable, registered)
        ]
        if not (
            len(lockstep) >= LOCKSTEP_MIN_MEMBERS
            and registered.n_edges
            and registered.n_nodes * registered.max_degree <= self.match_budget
        ):
            return [self._match(c, s, registered) for c, s in members]
        found: List[Optional[np.ndarray]] = [None] * len(members)
        greedy = _lockstep_match([members[idx] for idx in lockstep], registered)
        for idx, positions in zip(lockstep, greedy):
            if positions is None:
                self.stats["backtracked"] += 1
                positions = self._match(*members[idx], registered)
            found[idx] = positions
        return found

    def _match(
        self,
        canonicalizer: _Canonicalizer,
        stable: np.ndarray,
        registered: _RegisteredForm,
    ) -> Optional[np.ndarray]:
        """Find the bijection node -> position onto ``registered``, or None.

        A colour-guided backtracking search: nodes are assigned most
        constrained first, candidates are positions of the same stable
        colour, and every incident edge to an already-assigned neighbour is
        checked immediately — a completed assignment is therefore a
        certified isomorphism (edge counts agree and every member edge maps
        onto a form edge injectively).  This is the reference the lockstep
        matcher reproduces; it serves small classes and the views whose
        match needs backtracking.
        """
        if not self._matchable(canonicalizer, stable, registered):
            return None
        n = canonicalizer.n_nodes
        if n == 0:
            return np.empty(0, dtype=np.int64)
        pool_sizes = registered.pool_size_by_color[stable]
        stable_list = stable.tolist()
        # Candidate pools per node: positions of the node's stable colour.
        candidates: List[Tuple[int, ...]] = [
            registered.positions_by_color[c] for c in stable_list
        ]
        # Per-node adjacency as plain lists (arrays are ordered by node).
        starts = canonicalizer.starts.tolist()
        edges_flat = list(
            zip(canonicalizer.nbr.tolist(), canonicalizer.wid.tolist())
        )
        member_adj: List[List[Tuple[int, int]]] = [
            edges_flat[starts[v]: starts[v + 1]] for v in range(n)
        ]
        # Connected (VF2-style) assignment order: after the seed, always
        # pick the unordered node with the most already-ordered neighbours
        # (ties: smallest candidate pool, colour, index) — its image is
        # maximally constrained, so wrong symmetric choices fail within a
        # step or two instead of exploding combinatorially.
        shift = np.int64(max(n, 2))
        tiebreak_arr = (pool_sizes * shift + stable) * shift + np.arange(
            n, dtype=np.int64
        )
        fallback = np.argsort(tiebreak_arr, kind="stable").tolist()
        tiebreak = tiebreak_arr.tolist()
        order: List[int] = []
        placed_flags = [False] * n
        ordered_nbrs = [0] * n
        buckets: Dict[int, List[Tuple[int, int]]] = {}
        top = -1  # highest ordered-neighbour count with (possibly stale) entries
        cursor = 0
        while len(order) < n:
            pick = -1
            while top >= 0:
                heap = buckets.get(top)
                while heap:
                    tb, v = heap[0]
                    if placed_flags[v] or ordered_nbrs[v] != top:
                        heapq.heappop(heap)  # stale entry
                        continue
                    pick = v
                    break
                if pick >= 0:
                    break
                top -= 1
            if pick < 0:
                while placed_flags[fallback[cursor]]:
                    cursor += 1
                pick = fallback[cursor]
            order.append(pick)
            placed_flags[pick] = True
            for u, _w in member_adj[pick]:
                if not placed_flags[u]:
                    count = ordered_nbrs[u] = ordered_nbrs[u] + 1
                    heapq.heappush(
                        buckets.setdefault(count, []), (tiebreak[u], u)
                    )
                    if count > top:
                        top = count

        form_edge_sets, adj_by_wc = registered.scalar_tables
        assignment = [-1] * n
        used = [False] * n
        budget = self.match_budget
        empty: Tuple[int, ...] = ()

        def extend(depth: int) -> bool:
            nonlocal budget
            if depth == n:
                return True
            v = order[depth]
            # Forward pruning: once any neighbour is assigned, v's image
            # must be a same-colour, same-weight form-neighbour of that
            # neighbour's image — usually a 1–2 element set.
            pool: Iterable[int] = candidates[v]
            colour = stable_list[v]
            for u, w in member_adj[v]:
                q = assignment[u]
                if q >= 0:
                    pool = adj_by_wc[q].get((w, colour), empty)
                    break
            for p in pool:
                if used[p]:
                    continue
                if budget <= 0:
                    raise _BudgetExhausted
                budget -= 1
                edges = form_edge_sets[p]
                ok = True
                for u, w in member_adj[v]:
                    q = assignment[u]
                    if q >= 0 and (q, w) not in edges:
                        ok = False
                        break
                if not ok:
                    continue
                assignment[v] = p
                used[p] = True
                if extend(depth + 1):
                    return True
                assignment[v] = -1
                used[p] = False
            return False

        try:
            if extend(0):
                return np.asarray(assignment, dtype=np.int64)
        except _BudgetExhausted:
            return None
        return None


def canonicalize_problem(
    problem: MaxMinLP, *, branch_budget: int = DEFAULT_BRANCH_BUDGET
) -> CanonicalForm:
    """Canonicalise a compiled (sub-)instance — see :func:`canonicalize_local_lp`."""
    return canonicalize_local_lp(
        problem.agents,
        ((i, v, value) for (i, v), value in problem.consumption_items()),
        ((k, v, value) for (k, v), value in problem.benefit_items()),
        branch_budget=branch_budget,
    )


def view_local_structure(
    problem: MaxMinLP, view: FrozenSet[Agent]
) -> Tuple[
    List[Agent],
    List[Tuple[Resource, Agent, float]],
    List[Tuple[Beneficiary, Agent, float]],
]:
    """The coefficient structure of the local LP (9) over ``view``.

    Exactly the structure :meth:`~repro.core.problem.MaxMinLP.local_subproblem`
    compiles — every resource with support intersecting the view, clipped to
    it, and every beneficiary whose support is contained in it — but as
    plain lists, without building matrices.  :func:`canonical_view_key`
    and the per-agent test references canonicalise views straight from it,
    without compiling one sub-instance per view.
    """
    keep = set(view)
    agents = list(keep)
    resources: set = set()
    beneficiaries: set = set()
    for v in agents:
        try:
            resources |= problem.agent_resources(v)
            beneficiaries |= problem.agent_beneficiaries(v)
        except KeyError:
            raise KeyError(f"unknown agent in view: {v!r}") from None
    cons: List[Tuple[Resource, Agent, float]] = []
    bens: List[Tuple[Beneficiary, Agent, float]] = []
    for i in resources:
        for v in problem.resource_support(i):
            if v in keep:
                cons.append((i, v, problem.consumption(i, v)))
    for k in beneficiaries:
        support = problem.beneficiary_support(k)
        if support <= keep:
            for v in support:
                bens.append((k, v, problem.benefit(k, v)))
    return agents, cons, bens


def canonical_view_key(
    problem: MaxMinLP,
    agent: Agent,
    R: int,
    *,
    hypergraph=None,
    branch_budget: int = DEFAULT_BRANCH_BUDGET,
) -> str:
    """Canonical key of ``agent``'s radius-``R`` view in ``problem``.

    The key canonicalises the local LP (9) induced by the rooted view
    ``V^u = B_H(u, R)``: it is invariant under any relabeling of the
    instance's agents, resources and beneficiaries, and sensitive to every
    coefficient value ``a_iv`` / ``c_kv`` inside the view.  Agents with
    equal keys provably receive identical local solutions from the
    Section 5 algorithm (the algorithm's output at ``u`` is a deterministic
    function of this LP alone — which is also why the key does not need to
    distinguish the root).

    Raises :class:`ValueError` for non-positive radii, mirroring
    :func:`repro.core.local_averaging.local_averaging_solution`.
    """
    if R < 1:
        raise ValueError("canonical view keys require a radius R >= 1")
    from ..hypergraph.communication import communication_hypergraph

    H = hypergraph if hypergraph is not None else communication_hypergraph(problem)
    view = H.ball(agent, R)
    agents, cons, bens = view_local_structure(problem, view)
    return canonicalize_local_lp(
        agents, cons, bens, branch_budget=branch_budget
    ).key
