"""Vectorized batch view extraction (the Section 5 hot path, batched).

The local-averaging pipeline repeats the same three per-agent steps ``n``
times: collect the radius-``R`` ball, assemble the local LP (9) over it,
canonicalise the result.  This package replaces all three Python loops with
a handful of sparse-matrix sweeps shared by *every* agent at once:

* :func:`ball_membership` / :func:`batch_balls` — all radius-``R`` balls in
  one boolean CSR frontier sweep over the cached agent adjacency
  (:meth:`repro.hypergraph.Hypergraph.adjacency_csr`);
* :class:`ViewAtlas` — each view's local LP as CSR row/column index slices
  of the instance's already-compiled ``A``/``C`` matrices (no
  :class:`~repro.core.problem.MaxMinLP` sub-instance is built; the engine
  compiles only the cache-miss canonical representatives it solves),
  plus the batch canonicalisation pipeline: identifier-sorted structure
  arrays for every view via shared ``lexsort`` calls, grouping by literal
  structure, and one :class:`~repro.canon.labeling.CanonicalIndex` call per
  distinct structure whose labeling every group member reuses exactly.

Everything here is a pure accelerator: each output is asserted (by unit,
property and benchmark tests) to equal its scalar counterpart —
``Hypergraph.ball``, ``MaxMinLP.local_subproblem``,
``view_local_structure`` and ``CanonicalIndex.canonical_form`` — element
for element.  That is what keeps :func:`repro.local_averaging_solution` bit
identical to the per-agent reference in ``tests/averaging_reference.py``.
"""

from .balls import ball_membership, batch_balls
from .atlas import ViewAtlas

__all__ = ["ViewAtlas", "ball_membership", "batch_balls"]
