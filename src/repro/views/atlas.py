"""The view atlas: every local LP as index slices, canonicalised in batch.

A "view" is a set of agents (usually a ball ``B_H(u, R)``); its local LP
(9) keeps every resource whose support intersects the view (clipped to it)
and every beneficiary whose support is contained in it.  The scalar
pipeline re-derives this per agent with Python set loops
(:func:`repro.canon.labeling.view_local_structure`), then re-sorts the
identifiers and rebuilds index arrays per agent inside the canonicaliser.

:class:`ViewAtlas` derives the same data for *all* views at once:

1. the membership matrix ``P`` (one row per view, one column per agent)
   comes from :func:`repro.views.balls.ball_membership` or from an explicit
   view mapping;
2. expanding every ``P`` entry against the instance's cached CSC columns of
   ``A`` and ``C`` yields every clipped coefficient of every view in flat
   arrays — resources intersect the view by construction, beneficiaries are
   kept when their group size equals the full support size;
3. shared ``lexsort`` calls put each view's agents, resources,
   beneficiaries and weight table into identifier-sorted order, producing
   exactly the internal-index arrays
   :class:`repro.canon.labeling._Canonicalizer` builds per view — but for
   the whole batch at once;
4. views are bucketed by the byte content of those arrays; the groups'
   *representatives* are refined in one shared sweep and labelled in one
   call to
   :meth:`~repro.canon.labeling.CanonicalIndex.canonical_forms_from_arrays`
   (one labeling per distinct literal structure; the representatives of a
   symmetric class are matched against its form in lockstep), and every
   member reuses its representative's position map verbatim — which is
   precisely what the index's internal structure memo would have computed
   for the member, so the batch result is bit-identical to calling
   :meth:`~repro.canon.labeling.CanonicalIndex.canonical_form` per view.

Full :class:`~repro.core.problem.MaxMinLP` sub-instances are never built
here; the engine materialises the canonical representative's LP only on a
cache miss.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..core.problem import Agent, MaxMinLP
from ..hypergraph.communication import communication_hypergraph
from ..hypergraph.hypergraph import Hypergraph, ragged_gather
from ..obs.trace import span
from .balls import ball_membership

__all__ = ["ViewAtlas"]


def _object_array(items: Sequence) -> np.ndarray:
    """A 1-D object array (``np.array`` would build 2-D from tuple items)."""
    arr = np.empty(len(items), dtype=object)
    for idx, item in enumerate(items):
        arr[idx] = item
    return arr


def _group_internal(
    view: np.ndarray, rank: np.ndarray, row_global: np.ndarray, n_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank rows within each view (entries pre-sorted by ``(view, rank)``).

    Returns per-entry internal indices, the per-view group indptr, and the
    global row id of each group — the view's identifier-sorted resource (or
    beneficiary) list in concatenated form.
    """
    m = view.size
    if m == 0:
        zeros = np.zeros(n_rows + 1, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        return empty, zeros, empty
    first = np.empty(m, dtype=bool)
    first[0] = True
    first[1:] = (view[1:] != view[:-1]) | (rank[1:] != rank[:-1])
    group_of_entry = np.cumsum(first) - 1
    group_start = np.flatnonzero(first)
    group_view = view[group_start]
    group_rows = row_global[group_start]
    groups_per_view = np.bincount(group_view, minlength=n_rows)
    group_indptr = np.concatenate(([0], np.cumsum(groups_per_view)))
    internal_of_group = (
        np.arange(group_view.size, dtype=np.int64) - group_indptr[group_view]
    )
    return internal_of_group[group_of_entry], group_indptr, group_rows


class ViewAtlas:
    """Batch representation of many views' local LPs over one instance.

    Construct with :meth:`from_problem` (all radius-``R`` balls) or
    :meth:`from_views` (an explicit view mapping).  All heavy work is lazy:
    the structure arrays materialise on first use and are reused by every
    consumer.
    """

    def __init__(
        self,
        problem: MaxMinLP,
        membership: sp.csr_matrix,
        roots: Sequence[Agent],
    ) -> None:
        if membership.shape != (len(roots), problem.n_agents):
            raise ValueError(
                f"membership shape {membership.shape} does not match "
                f"{len(roots)} roots x {problem.n_agents} agents"
            )
        self.problem = problem
        self.membership = membership
        self.roots: Tuple[Agent, ...] = tuple(roots)
        self._structures_ready = False
        self._views: Optional[Dict[Agent, FrozenSet[Agent]]] = None
        self._forms: Optional[Dict[Agent, "CanonicalForm"]] = None
        self._forms_index = None
        self._membership_counts: Optional[sp.csr_matrix] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_problem(
        cls,
        problem: MaxMinLP,
        radius: int,
        *,
        hypergraph: Optional[Hypergraph] = None,
    ) -> "ViewAtlas":
        """The atlas of every agent's radius-``radius`` ball.

        One batch frontier sweep computes all balls; rows follow
        ``problem.agents`` order.  A pre-built communication hypergraph may
        be supplied (its vertex set must be the problem's agents).
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        H = (
            hypergraph
            if hypergraph is not None
            else communication_hypergraph(problem)
        )
        membership = ball_membership(H, radius)
        if H.nodes == problem.agents:
            P = membership
        else:
            row_perm = np.asarray(
                [H.node_position(v) for v in problem.agents], dtype=np.int64
            )
            col_map = np.asarray(
                [problem.agent_position(v) for v in H.nodes], dtype=np.int64
            )
            permuted = membership[row_perm]
            P = sp.csr_matrix(
                (permuted.data, col_map[permuted.indices], permuted.indptr),
                shape=(problem.n_agents, problem.n_agents),
            )
            P.sort_indices()
        return cls(problem, P, problem.agents)

    @classmethod
    def from_views(
        cls, problem: MaxMinLP, views: Mapping[Agent, Iterable[Agent]]
    ) -> "ViewAtlas":
        """The atlas of an explicit view mapping (rows in mapping order)."""
        roots = list(views)
        # Materialise each view exactly once: the mapping's values may be
        # one-shot iterables, and two passes would see the second one empty.
        view_sets = [frozenset(views[u]) for u in roots]
        counts = np.asarray([len(view) for view in view_sets], dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        cols = np.empty(int(indptr[-1]), dtype=np.int64)
        position = problem.agent_position
        pos = 0
        for view in view_sets:
            for agent in view:
                cols[pos] = position(agent)
                pos += 1
        P = sp.csr_matrix(
            (np.ones(cols.size, dtype=np.int8), cols, indptr),
            shape=(len(roots), problem.n_agents),
        )
        P.sort_indices()
        return cls(problem, P, roots)

    # ------------------------------------------------------------------
    # Cheap accessors
    # ------------------------------------------------------------------
    @property
    def n_views(self) -> int:
        return len(self.roots)

    def view_sizes(self) -> np.ndarray:
        """``|V^u|`` per row (same order as :attr:`roots`)."""
        return np.diff(self.membership.indptr)

    def membership_counts(self) -> sp.csr_matrix:
        """The membership matrix widened to int32 for counting matmuls."""
        if self._membership_counts is None:
            self._membership_counts = self.membership.astype(np.int32)
        return self._membership_counts

    def views(self) -> Dict[Agent, FrozenSet[Agent]]:
        """The views as a root-keyed mapping of frozensets (cached)."""
        if self._views is None:
            agents = self.problem.agents
            indptr, indices = self.membership.indptr, self.membership.indices
            self._views = {
                root: frozenset(
                    agents[j] for j in indices[indptr[row]: indptr[row + 1]]
                )
                for row, root in enumerate(self.roots)
            }
        return self._views

    # ------------------------------------------------------------------
    # Vectorized structure extraction
    # ------------------------------------------------------------------
    def _ensure_structures(self) -> None:
        if self._structures_ready:
            return
        with span("views.atlas.structures", views=self.membership.shape[0]):
            self._build_structures()

    def _build_structures(self) -> None:
        problem = self.problem
        P = self.membership
        n_rows = P.shape[0]
        indptr = P.indptr
        cols = P.indices.astype(np.int64, copy=False)
        row_counts = np.diff(indptr)
        row_of_entry = np.repeat(np.arange(n_rows, dtype=np.int64), row_counts)
        agent_ranks, resource_ranks, beneficiary_ranks = problem.sort_ranks()
        n_entries = cols.size

        # (1) every view's agents in identifier-sorted order, one lexsort.
        order = np.lexsort((agent_ranks[cols], row_of_entry))
        sorted_cols = cols[order]
        internal_of_entry = np.empty(n_entries, dtype=np.int64)
        internal_of_entry[order] = np.arange(n_entries, dtype=np.int64) - np.repeat(
            indptr[:-1], row_counts
        )

        # (2) clipped consumption entries: every (view entry, A column) pair
        # is exactly one coefficient of one view's local LP.
        A_csc = problem.A_csc()
        a_ptr = A_csc.indptr
        lengths = (a_ptr[cols + 1] - a_ptr[cols]).astype(np.int64)
        gather = ragged_gather(a_ptr[cols].astype(np.int64), lengths)
        cons_row_global = A_csc.indices[gather].astype(np.int64, copy=False)
        cons_val = A_csc.data[gather]
        source = np.repeat(np.arange(n_entries, dtype=np.int64), lengths)
        cons_view = row_of_entry[source]
        cons_agent_internal = internal_of_entry[source]

        order_c = np.lexsort(
            (cons_agent_internal, resource_ranks[cons_row_global], cons_view)
        )
        cons_view = cons_view[order_c]
        cons_row_global = cons_row_global[order_c]
        cons_agent_internal = cons_agent_internal[order_c]
        cons_val = cons_val[order_c]
        cons_res_internal, res_group_indptr, res_group_rows = _group_internal(
            cons_view, resource_ranks[cons_row_global], cons_row_global, n_rows
        )
        cons_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cons_view, minlength=n_rows)))
        )

        # (3) benefit entries: expand candidates the same way, then keep
        # only beneficiaries whose whole support lies inside the view
        # (group size == support size).
        C_csc = problem.C_csc()
        c_ptr = C_csc.indptr
        lengths = (c_ptr[cols + 1] - c_ptr[cols]).astype(np.int64)
        gather = ragged_gather(c_ptr[cols].astype(np.int64), lengths)
        ben_row_global = C_csc.indices[gather].astype(np.int64, copy=False)
        ben_val = C_csc.data[gather]
        source = np.repeat(np.arange(n_entries, dtype=np.int64), lengths)
        ben_view = row_of_entry[source]
        ben_agent_internal = internal_of_entry[source]

        order_b = np.lexsort(
            (ben_agent_internal, beneficiary_ranks[ben_row_global], ben_view)
        )
        ben_view = ben_view[order_b]
        ben_row_global = ben_row_global[order_b]
        ben_agent_internal = ben_agent_internal[order_b]
        ben_val = ben_val[order_b]
        if ben_view.size:
            first = np.empty(ben_view.size, dtype=bool)
            first[0] = True
            first[1:] = (ben_view[1:] != ben_view[:-1]) | (
                ben_row_global[1:] != ben_row_global[:-1]
            )
            group_of_entry = np.cumsum(first) - 1
            group_sizes = np.bincount(group_of_entry)
            support_sizes = np.diff(problem.C.indptr)
            kept_group = (
                group_sizes == support_sizes[ben_row_global[np.flatnonzero(first)]]
            )
            keep = kept_group[group_of_entry]
            ben_view = ben_view[keep]
            ben_row_global = ben_row_global[keep]
            ben_agent_internal = ben_agent_internal[keep]
            ben_val = ben_val[keep]
        ben_row_internal, ben_group_indptr, ben_group_rows = _group_internal(
            ben_view, beneficiary_ranks[ben_row_global], ben_row_global, n_rows
        )
        ben_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(ben_view, minlength=n_rows)))
        )

        # (4) per-view weight tables: rank each coefficient value within its
        # view's sorted unique values, all views at once.
        w_view = np.concatenate([cons_view, ben_view])
        w_val = np.concatenate([cons_val, ben_val])
        wid = np.empty(w_view.size, dtype=np.int64)
        if w_view.size:
            order_w = np.lexsort((w_val, w_view))
            sorted_view = w_view[order_w]
            sorted_val = w_val[order_w]
            new_value = np.empty(sorted_view.size, dtype=bool)
            new_value[0] = True
            new_value[1:] = (sorted_view[1:] != sorted_view[:-1]) | (
                sorted_val[1:] != sorted_val[:-1]
            )
            unique_id = np.cumsum(new_value) - 1
            new_view = np.empty(sorted_view.size, dtype=bool)
            new_view[0] = True
            new_view[1:] = sorted_view[1:] != sorted_view[:-1]
            first_uid_of_view = np.zeros(n_rows, dtype=np.int64)
            first_uid_of_view[sorted_view[new_view]] = unique_id[new_view]
            wid[order_w] = unique_id - first_uid_of_view[sorted_view]
            w_values = sorted_val[new_value]
            w_indptr = np.concatenate(
                (
                    [0],
                    np.cumsum(
                        np.bincount(sorted_view[new_value], minlength=n_rows)
                    ),
                )
            )
        else:
            w_values = np.empty(0, dtype=np.float64)
            w_indptr = np.zeros(n_rows + 1, dtype=np.int64)

        # Packed (internal row, internal agent, weight id) triples: one
        # contiguous row-slice per view, cheap to hash for grouping.
        cons_packed = np.column_stack(
            (cons_res_internal, cons_agent_internal, wid[: cons_view.size])
        ) if cons_view.size else np.empty((0, 3), dtype=np.int64)
        ben_packed = np.column_stack(
            (ben_row_internal, ben_agent_internal, wid[cons_view.size:])
        ) if ben_view.size else np.empty((0, 3), dtype=np.int64)

        self._sorted_cols = sorted_cols
        self._cons_indptr = cons_indptr
        self._cons_packed = np.ascontiguousarray(cons_packed, dtype=np.int64)
        self._res_group_indptr = res_group_indptr
        self._res_group_rows = res_group_rows
        self._ben_indptr = ben_indptr
        self._ben_packed = np.ascontiguousarray(ben_packed, dtype=np.int64)
        self._ben_group_indptr = ben_group_indptr
        self._ben_group_rows = ben_group_rows
        self._w_indptr = w_indptr
        self._w_values = w_values
        self._agents_obj = _object_array(problem.agents)
        self._resources_obj = _object_array(problem.resources)
        self._bens_obj = _object_array(problem.beneficiaries)
        self._structures_ready = True

    # ------------------------------------------------------------------
    # Batch canonicalisation
    # ------------------------------------------------------------------
    def _batch_stable_colors(self, rows: List[int]) -> List[np.ndarray]:
        """Stable WL colourings of many views, refined in shared arrays.

        Runs colour refinement on the disjoint union of the views'
        incidence graphs: one signature-hash sweep and one ``lexsort`` per
        round serve every view at once.  Colour values stay *per-view
        compact* (ranked within each view with the same ``(old colour,
        hash)`` comparisons as :meth:`_Canonicalizer.refine`) and each
        edge's signature code uses its own view's weight count, so the
        slice returned for a view is exactly what the scalar per-view
        refinement computes — the equality the canonical index relies on
        when these colourings seed its matcher, asserted by the tests.
        """
        from ..canon.labeling import _Canonicalizer

        n_views = len(rows)
        n_a_arr = np.empty(n_views, dtype=np.int64)
        n_r_arr = np.empty(n_views, dtype=np.int64)
        n_b_arr = np.empty(n_views, dtype=np.int64)
        for i, row in enumerate(rows):
            n_a_arr[i] = self.membership.indptr[row + 1] - self.membership.indptr[row]
            n_r_arr[i] = self._res_group_indptr[row + 1] - self._res_group_indptr[row]
            n_b_arr[i] = self._ben_group_indptr[row + 1] - self._ben_group_indptr[row]
        n_nodes_arr = n_a_arr + n_r_arr + n_b_arr
        offsets = np.concatenate(([0], np.cumsum(n_nodes_arr)))
        total_nodes = int(offsets[-1])

        node_parts: List[np.ndarray] = []
        nbr_parts: List[np.ndarray] = []
        wid_parts: List[np.ndarray] = []
        nw_parts: List[np.ndarray] = []
        colors = np.empty(total_nodes, dtype=np.int64)
        initial_cells = 0
        for i, row in enumerate(rows):
            off = offsets[i]
            n_a, n_r, n_b = int(n_a_arr[i]), int(n_r_arr[i]), int(n_b_arr[i])
            colors[off: off + n_a] = 0
            colors[off + n_a: off + n_a + n_r] = 1
            colors[off + n_a + n_r: off + n_a + n_r + n_b] = 2
            initial_cells += (n_a > 0) + (n_r > 0) + (n_b > 0)
            c0, c1 = self._cons_indptr[row], self._cons_indptr[row + 1]
            b0, b1 = self._ben_indptr[row], self._ben_indptr[row + 1]
            cons_a = self._cons_packed[c0:c1, 1] + off
            cons_r = self._cons_packed[c0:c1, 0] + off + n_a
            ben_a = self._ben_packed[b0:b1, 1] + off
            ben_k = self._ben_packed[b0:b1, 0] + off + n_a + n_r
            node_parts += [cons_a, ben_a, cons_r, ben_k]
            nbr_parts += [cons_r, ben_k, cons_a, ben_a]
            wids = np.concatenate(
                (self._cons_packed[c0:c1, 2], self._ben_packed[b0:b1, 2])
            )
            wid_parts += [wids, wids]
            n_weights = max(
                int(self._w_indptr[row + 1] - self._w_indptr[row]), 1
            )
            nw_parts.append(
                np.full(2 * wids.size, np.int64(n_weights), dtype=np.int64)
            )

        node = np.concatenate(node_parts) if node_parts else np.empty(0, np.int64)
        nbr = np.concatenate(nbr_parts) if nbr_parts else np.empty(0, np.int64)
        wid = np.concatenate(wid_parts) if wid_parts else np.empty(0, np.int64)
        nw_edge = np.concatenate(nw_parts) if nw_parts else np.empty(0, np.int64)
        order = np.argsort(node, kind="stable")
        node = node[order]
        nbr = nbr[order]
        wid = wid[order]
        nw_edge = nw_edge[order]
        degrees = np.bincount(node, minlength=total_nodes)
        starts = np.concatenate(([0], np.cumsum(degrees)))
        view_of_node = np.repeat(
            np.arange(n_views, dtype=np.int64), n_nodes_arr
        )

        n_cells = initial_cells
        has_edges = node.size > 0
        while total_nodes:
            if has_edges:
                code = colors[nbr] * nw_edge + wid
                hashed = _Canonicalizer._mix(code)
                idx = np.minimum(starts[:-1], node.size - 1)
                sums = np.add.reduceat(hashed, idx)
                sums[degrees == 0] = 0
            else:
                sums = np.zeros(total_nodes, dtype=np.uint64)
            order = np.lexsort((sums, colors, view_of_node))
            sorted_view = view_of_node[order]
            sorted_old = colors[order]
            sorted_sum = sums[order]
            boundary = np.empty(total_nodes, dtype=bool)
            boundary[0] = True
            boundary[1:] = (
                (sorted_view[1:] != sorted_view[:-1])
                | (sorted_old[1:] != sorted_old[:-1])
                | (sorted_sum[1:] != sorted_sum[:-1])
            )
            cell = np.cumsum(boundary) - 1
            view_start = np.empty(total_nodes, dtype=bool)
            view_start[0] = True
            view_start[1:] = sorted_view[1:] != sorted_view[:-1]
            first_cell_of_view = np.zeros(n_views, dtype=np.int64)
            first_cell_of_view[sorted_view[view_start]] = cell[view_start]
            new_colors = np.empty(total_nodes, dtype=np.int64)
            new_colors[order] = cell - first_cell_of_view[sorted_view]
            new_cells = int(cell[-1]) + 1
            if new_cells == n_cells:
                colors = new_colors
                break
            colors = new_colors
            n_cells = new_cells
        return [
            colors[offsets[i]: offsets[i + 1]] for i in range(n_views)
        ]

    def canonical_forms(self, index=None) -> Dict[Agent, "CanonicalForm"]:
        """Canonical form of every view's local LP, bucketed and amortised.

        Bit-identical to calling ``index.canonical_form`` per view (the
        grouping only shares work between views whose identifier-sorted
        structure arrays are byte-equal, for which the index's own memo
        would return the same labeling).  The result is cached per atlas
        and index.
        """
        from ..canon.labeling import CanonicalIndex

        if index is None:
            index = CanonicalIndex()
        if self._forms is not None and self._forms_index is index:
            return self._forms
        self._ensure_structures()
        with span("canon.forms", views=self.n_views):
            return self._compute_canonical_forms(index)

    def _compute_canonical_forms(self, index) -> Dict[Agent, "CanonicalForm"]:
        """The uncached work of :meth:`canonical_forms` (one traced span)."""
        P_indptr = self.membership.indptr
        n_rows = self.n_views

        groups: Dict[Tuple, List[int]] = {}
        for row in range(n_rows):
            signature = (
                int(P_indptr[row + 1] - P_indptr[row]),
                self._cons_packed[
                    self._cons_indptr[row]: self._cons_indptr[row + 1]
                ].tobytes(),
                self._ben_packed[
                    self._ben_indptr[row]: self._ben_indptr[row + 1]
                ].tobytes(),
                self._w_values[
                    self._w_indptr[row]: self._w_indptr[row + 1]
                ].tobytes(),
            )
            groups.setdefault(signature, []).append(row)

        forms: List[Optional["CanonicalForm"]] = [None] * n_rows
        group_rows = list(groups.values())
        reps = [rows[0] for rows in group_rows]
        stables = self._batch_stable_colors(reps)
        labelled = index.canonical_forms_from_arrays(
            [self._row_arrays(rep) + (stable,) for rep, stable in zip(reps, stables)]
        )
        for rows, stable, (form, positions) in zip(group_rows, stables, labelled):
            forms[rows[0]] = form
            if form.exact:
                for row in rows[1:]:
                    forms[row] = self._member_form(row, form, positions)
            else:
                # Literal-fallback keys embed the identifiers themselves;
                # every member must derive its own (still deterministic)
                # labeling.  Same structure arrays, so the representative's
                # stable colouring applies verbatim.
                member_forms = index.canonical_forms_from_arrays(
                    [self._row_arrays(row) + (stable,) for row in rows[1:]]
                )
                for row, (form, _positions) in zip(rows[1:], member_forms):
                    forms[row] = form

        self._forms = dict(zip(self.roots, forms))
        self._forms_index = index
        return self._forms

    def _row_arrays(self, row: int) -> Tuple:
        """One view's identifier lists and internal-index arrays.

        An item of
        :meth:`~repro.canon.labeling.CanonicalIndex.canonical_forms_from_arrays`
        but for its ``stable`` colouring, sliced out of the batch structure
        arrays.
        """
        s0, s1 = self.membership.indptr[row], self.membership.indptr[row + 1]
        c0, c1 = self._cons_indptr[row], self._cons_indptr[row + 1]
        b0, b1 = self._ben_indptr[row], self._ben_indptr[row + 1]
        rg0, rg1 = self._res_group_indptr[row], self._res_group_indptr[row + 1]
        bg0, bg1 = self._ben_group_indptr[row], self._ben_group_indptr[row + 1]
        w0, w1 = self._w_indptr[row], self._w_indptr[row + 1]
        return (
            self._agents_obj[self._sorted_cols[s0:s1]],
            self._resources_obj[self._res_group_rows[rg0:rg1]],
            self._bens_obj[self._ben_group_rows[bg0:bg1]],
            self._cons_packed[c0:c1, 0],
            self._cons_packed[c0:c1, 1],
            self._cons_packed[c0:c1, 2],
            self._ben_packed[b0:b1, 0],
            self._ben_packed[b0:b1, 1],
            self._ben_packed[b0:b1, 2],
            self._w_values[w0:w1],
        )

    def _member_form(
        self, row: int, template: "CanonicalForm", positions: np.ndarray
    ) -> "CanonicalForm":
        """A member's form: shared class content, the member's own orders.

        Mirrors :meth:`repro.canon.labeling.CanonicalIndex.templated_form`
        with array permutation instead of Python loops.
        """
        from ..canon.labeling import CanonicalForm

        n_a = template.n_agents
        n_r = template.n_resources
        n_b = template.n_beneficiaries
        s0, s1 = self.membership.indptr[row], self.membership.indptr[row + 1]
        rg0, rg1 = self._res_group_indptr[row], self._res_group_indptr[row + 1]
        bg0, bg1 = self._ben_group_indptr[row], self._ben_group_indptr[row + 1]
        agent_order = np.empty(n_a, dtype=object)
        agent_order[positions[:n_a]] = self._agents_obj[self._sorted_cols[s0:s1]]
        resource_order = np.empty(n_r, dtype=object)
        resource_order[positions[n_a: n_a + n_r] - n_a] = self._resources_obj[
            self._res_group_rows[rg0:rg1]
        ]
        beneficiary_order = np.empty(n_b, dtype=object)
        beneficiary_order[positions[n_a + n_r:] - n_a - n_r] = self._bens_obj[
            self._ben_group_rows[bg0:bg1]
        ]
        return CanonicalForm(
            key=template.key,
            agent_order=tuple(agent_order),
            resource_order=tuple(resource_order),
            beneficiary_order=tuple(beneficiary_order),
            consumption=template.consumption,
            benefit=template.benefit,
            exact=True,
        )
