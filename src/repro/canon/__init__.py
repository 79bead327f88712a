"""Local-view canonicalization and view orbits.

The paper's central structural fact (Section 5) is that a local algorithm's
output at an agent is a deterministic function of the agent's radius-``R``
view: the agent solves the local LP (9) induced by that view, and nothing
else about the instance can influence it.  Agents whose views are
isomorphic — equal as weighted incidence structures after forgetting vertex
names — therefore provably compute identical local solutions.

This subpackage turns that theorem into solve sharing:

* :mod:`repro.canon.labeling` — deterministic WL-style canonical labeling
  of a view's local LP; isomorphic views get equal canonical forms and
  content keys (:func:`canonical_view_key`), and the canonical position
  maps provide the explicit isomorphisms;
* :mod:`repro.canon.orbits` — :func:`partition_views` groups an instance's
  agents into view-equivalence classes (*orbits*) at a given radius.

The batch engine keys every local LP by its canonical form
(:meth:`repro.engine.BatchSolver.solve_local_lps`), so the members of an
orbit collapse to one solve within a batch, and cache entries are shared
*across isomorphic instances* (a small torus warms the disk cache for the
interior of a much larger one).
"""

from .labeling import (
    CANON_FORMAT_VERSION,
    DEFAULT_BRANCH_BUDGET,
    CanonicalForm,
    canonical_view_key,
    canonicalize_local_lp,
    canonicalize_problem,
    view_local_structure,
)
from .orbits import OrbitPartition, ViewOrbit, partition_views

__all__ = [
    "CANON_FORMAT_VERSION",
    "CanonicalForm",
    "DEFAULT_BRANCH_BUDGET",
    "OrbitPartition",
    "ViewOrbit",
    "canonical_view_key",
    "canonicalize_local_lp",
    "canonicalize_problem",
    "partition_views",
    "view_local_structure",
]
