"""The hypergraph substrate used for the communication structure.

Section 1.4 of the paper defines the communication hypergraph
``H = (V, E)`` whose vertices are the agents and whose hyperedges are the
support sets ``V_i`` (one per resource) and ``V_k`` (one per beneficiary).
Two agents can communicate directly when they share a hyperedge, and
``d_H(u, v)`` is the shortest-path distance in that sense, i.e. the number
of hyperedges traversed on a shortest alternating vertex--hyperedge path.
Equivalently, it is the ordinary graph distance in the *primal graph* (the
clique expansion of ``H``), which is how this module computes it.

The central primitives are the radius-``r`` balls ``B_H(v, r)`` (Section
1.5) and breadth-first distance maps.  Distance maps use plain
dictionary-based BFS; balls and ball-size profiles run as boolean frontier
sweeps over a cached CSR adjacency matrix (:meth:`Hypergraph.adjacency_csr`),
which is also the substrate of the all-sources batch kernel in
:mod:`repro.views.balls` -- one sparse matrix product advances *every*
ball's frontier by one step at once.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["Hypergraph", "ragged_gather"]


def ragged_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices gathering the ranges ``[starts[i], starts[i]+lengths[i])``
    back to back — the vectorised equivalent of concatenating per-row CSR
    slices.  Shared by the single-source frontier sweep below and the batch
    view-extraction pipeline (:mod:`repro.views.atlas`)."""
    total = int(lengths.sum())
    offsets = np.concatenate(([0], np.cumsum(lengths)))[: len(lengths)]
    return np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.int64)

Node = Hashable
EdgeLabel = Hashable


class Hypergraph:
    """An undirected hypergraph with labelled hyperedges.

    Parameters
    ----------
    nodes:
        Iterable of vertex identifiers; vertices mentioned only inside edges
        are added automatically.
    edges:
        Mapping from edge labels to iterables of member vertices, or an
        iterable of ``(label, members)`` pairs.  Empty hyperedges are
        rejected; singleton hyperedges are allowed (they contribute no
        adjacency).
    """

    __slots__ = ("_nodes", "_edges", "_incident", "_adjacency", "_node_index", "_adj_csr")

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        edges: Optional[
            Mapping[EdgeLabel, Iterable[Node]]
            | Iterable[Tuple[EdgeLabel, Iterable[Node]]]
        ] = None,
    ) -> None:
        ordered: Dict[Node, None] = {}
        for v in nodes:
            ordered.setdefault(v, None)

        edge_items: List[Tuple[EdgeLabel, FrozenSet[Node]]] = []
        if edges is not None:
            items = edges.items() if isinstance(edges, Mapping) else edges
            for label, members in items:
                members_set = frozenset(members)
                if not members_set:
                    raise ValueError(f"hyperedge {label!r} is empty")
                edge_items.append((label, members_set))
                for v in members_set:
                    ordered.setdefault(v, None)

        self._nodes: Tuple[Node, ...] = tuple(ordered)
        self._edges: Dict[EdgeLabel, FrozenSet[Node]] = {}
        for label, members in edge_items:
            if label in self._edges:
                raise ValueError(f"duplicate hyperedge label {label!r}")
            self._edges[label] = members

        self._incident: Dict[Node, Set[EdgeLabel]] = {v: set() for v in self._nodes}
        self._adjacency: Dict[Node, Set[Node]] = {v: set() for v in self._nodes}
        for label, members in self._edges.items():
            for v in members:
                self._incident[v].add(label)
            member_list = list(members)
            for a in member_list:
                adjacency_a = self._adjacency[a]
                for b in member_list:
                    if a != b:
                        adjacency_a.add(b)

        self._node_index: Dict[Node, int] = {v: j for j, v in enumerate(self._nodes)}
        self._adj_csr: Optional[sp.csr_matrix] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """Vertices in insertion order."""
        return self._nodes

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def edge_labels(self) -> Tuple[EdgeLabel, ...]:
        """Labels of all hyperedges (insertion order)."""
        return tuple(self._edges)

    def edge_members(self, label: EdgeLabel) -> FrozenSet[Node]:
        """The vertex set of the hyperedge with the given label."""
        return self._edges[label]

    def edges(self) -> Iterable[Tuple[EdgeLabel, FrozenSet[Node]]]:
        """Iterate over ``(label, members)`` pairs."""
        return self._edges.items()

    def has_node(self, v: Node) -> bool:
        return v in self._adjacency

    def incident_edges(self, v: Node) -> FrozenSet[EdgeLabel]:
        """Labels of the hyperedges containing ``v``."""
        return frozenset(self._incident[v])

    def neighbours(self, v: Node) -> FrozenSet[Node]:
        """Vertices sharing at least one hyperedge with ``v`` (excluding ``v``)."""
        return frozenset(self._adjacency[v])

    def degree(self, v: Node) -> int:
        """Number of distinct neighbours of ``v`` in the primal graph."""
        return len(self._adjacency[v])

    def max_degree(self) -> int:
        """Maximum primal-graph degree over all vertices (0 for empty graphs)."""
        return max((len(s) for s in self._adjacency.values()), default=0)

    def node_position(self, v: Node) -> int:
        """The index of ``v`` in :attr:`nodes` (the CSR adjacency row/column)."""
        return self._node_index[v]

    def node_positions(self) -> Mapping[Node, int]:
        """The full node -> index mapping underlying :meth:`adjacency_csr`."""
        return self._node_index

    def adjacency_csr(self) -> sp.csr_matrix:
        """The boolean primal-graph adjacency as an ``n x n`` CSR matrix.

        Rows and columns follow :attr:`nodes` order (see
        :meth:`node_position`); entries are ``int8`` ones.  The matrix is
        built once and cached -- :meth:`ball`, :meth:`ball_sizes` and the
        batch kernel in :mod:`repro.views.balls` all sweep over the same
        object, so repeated ball extractions never rebuild adjacency state.
        """
        if self._adj_csr is None:
            n = len(self._nodes)
            counts = np.fromiter(
                (len(self._adjacency[v]) for v in self._nodes),
                dtype=np.int64,
                count=n,
            )
            indptr = np.concatenate(([0], np.cumsum(counts)))
            indices = np.empty(int(indptr[-1]), dtype=np.int64)
            index = self._node_index
            pos = 0
            for v in self._nodes:
                nbrs = self._adjacency[v]
                for w in nbrs:
                    indices[pos] = index[w]
                    pos += 1
            data = np.ones(indices.size, dtype=np.int8)
            matrix = sp.csr_matrix((data, indices, indptr), shape=(n, n))
            matrix.sort_indices()
            self._adj_csr = matrix
        return self._adj_csr

    # ------------------------------------------------------------------
    # Distances and balls
    # ------------------------------------------------------------------
    def distances_from(
        self, source: Node, *, cutoff: Optional[int] = None
    ) -> Dict[Node, int]:
        """Breadth-first distance map from ``source``.

        Parameters
        ----------
        source:
            Start vertex.
        cutoff:
            When given, vertices farther than ``cutoff`` are omitted.
        """
        if source not in self._adjacency:
            raise KeyError(f"unknown vertex {source!r}")
        dist: Dict[Node, int] = {source: 0}
        frontier: List[Node] = [source]
        d = 0
        while frontier and (cutoff is None or d < cutoff):
            d += 1
            next_frontier: List[Node] = []
            for u in frontier:
                for w in self._adjacency[u]:
                    if w not in dist:
                        dist[w] = d
                        next_frontier.append(w)
            frontier = next_frontier
        return dist

    def distance(self, u: Node, v: Node) -> float:
        """Shortest-path distance ``d_H(u, v)``; ``inf`` when disconnected."""
        if u == v:
            if u not in self._adjacency:
                raise KeyError(f"unknown vertex {u!r}")
            return 0
        dist = self.distances_from(u)
        return dist.get(v, float("inf"))

    def _ball_member_mask(self, v: Node, radius: int) -> Tuple[np.ndarray, List[int]]:
        """Grow one ball a frontier at a time over the CSR adjacency.

        Returns the boolean membership mask after ``radius`` sweeps plus the
        prefix ball sizes ``[|B(v,0)|, ..., |B(v,radius)|]``.  Each sweep
        gathers the CSR neighbour lists of the current frontier in one
        vectorised slice -- no per-vertex Python iteration.
        """
        if v not in self._node_index:
            raise KeyError(f"unknown vertex {v!r}")
        adj = self.adjacency_csr()
        indptr, indices = adj.indptr, adj.indices
        member = np.zeros(len(self._nodes), dtype=bool)
        member[self._node_index[v]] = True
        frontier = np.asarray([self._node_index[v]], dtype=np.int64)
        sizes = [1]
        for _ in range(radius):
            if frontier.size == 0:
                sizes.append(sizes[-1])
                continue
            starts = indptr[frontier]
            lengths = indptr[frontier + 1] - starts
            if int(lengths.sum()) == 0:
                frontier = frontier[:0]
                sizes.append(sizes[-1])
                continue
            reached = indices[ragged_gather(starts, lengths)]
            fresh = reached[~member[reached]]
            member[fresh] = True  # duplicates collapse; mask is idempotent
            frontier = np.unique(fresh)
            # Running count: the ball grew by exactly the new frontier, so
            # no per-step O(n) mask scan is needed.
            sizes.append(sizes[-1] + int(frontier.size))
        return member, sizes

    def ball(self, v: Node, radius: int) -> FrozenSet[Node]:
        """The ball ``B_H(v, r) = {u : d_H(u, v) ≤ r}`` (Section 1.5).

        Single-source balls stay on the dictionary BFS — for one bounded-
        degree source the per-step array overhead of the CSR sweep costs
        more than it saves.  The CSR adjacency serves :meth:`ball_sizes`
        (whole profile, one traversal) and the all-sources batch kernel
        :func:`repro.views.balls.ball_membership`, which is the fast path
        when every agent's ball is needed.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return frozenset(self.distances_from(v, cutoff=radius))

    def ball_sizes(self, v: Node, max_radius: int) -> List[int]:
        """Sizes ``|B_H(v, r)|`` for ``r = 0, 1, ..., max_radius``.

        One incremental frontier sweep per radius step over the shared CSR
        adjacency -- the profile for all radii costs one traversal, not one
        BFS per radius.
        """
        if max_radius < 0:
            raise ValueError("max_radius must be non-negative")
        _, sizes = self._ball_member_mask(v, max_radius)
        return sizes

    def is_connected(self) -> bool:
        """Whether the primal graph is connected (empty graphs count as connected)."""
        if not self._nodes:
            return True
        return len(self.distances_from(self._nodes[0])) == len(self._nodes)

    def connected_components(self) -> List[FrozenSet[Node]]:
        """The vertex sets of the primal graph's connected components."""
        seen: Set[Node] = set()
        components: List[FrozenSet[Node]] = []
        for v in self._nodes:
            if v in seen:
                continue
            comp = frozenset(self.distances_from(v))
            seen |= comp
            components.append(comp)
        return components

    def diameter(self) -> float:
        """Primal-graph diameter; ``inf`` when disconnected, 0 for ≤1 vertex."""
        if len(self._nodes) <= 1:
            return 0
        worst = 0
        for v in self._nodes:
            dist = self.distances_from(v)
            if len(dist) != len(self._nodes):
                return float("inf")
            worst = max(worst, max(dist.values()))
        return worst

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def induced_subhypergraph(self, keep: Iterable[Node]) -> "Hypergraph":
        """The sub-hypergraph on ``keep`` containing the fully included hyperedges."""
        keep_set = set(keep)
        nodes = [v for v in self._nodes if v in keep_set]
        edges = {
            label: members
            for label, members in self._edges.items()
            if members <= keep_set
        }
        return Hypergraph(nodes, edges)

    def primal_adjacency(self) -> Dict[Node, FrozenSet[Node]]:
        """The full primal-graph adjacency as an immutable mapping."""
        return {v: frozenset(s) for v, s in self._adjacency.items()}

    def to_networkx(self):
        """The primal graph as a :class:`networkx.Graph` (for interoperability)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._nodes)
        for v, nbrs in self._adjacency.items():
            for w in nbrs:
                g.add_edge(v, w)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypergraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"
