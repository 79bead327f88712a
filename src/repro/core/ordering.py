"""The deterministic identifier order shared by canonicalisation layers.

Local sub-LPs, canonical labelings and the vectorized view-extraction
pipeline all need one thing from identifier ordering: a *total*, *pure*
order on arbitrary hashable identifiers, so that every code path (the
engine canonicalising a compiled sub-instance, the per-agent test
reference canonicalising a raw view structure, the batch pipeline sorting thousands
of views with shared ``argsort`` calls) derives the same internal indexing
for the same view and therefore the same labeling, bit for bit.

The order itself is a throughput knob, not a correctness one — canonical
forms are input-order invariant.  Numeric-aware ordering is chosen because
it makes the sorted pattern of structurally repeating views (e.g. the balls
of a torus) translation-invariant, which is what lets the literal-structure
memo in :class:`repro.canon.labeling.CanonicalIndex` and the group-sharing
in :mod:`repro.views` collapse thousands of views to a handful of distinct
sorted structures.  String ``repr`` ordering does not have this property
(``"(10,"`` sorts before ``"(2,"``).
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["identifier_sort_key"]


def identifier_sort_key(identifier) -> Tuple:
    """Deterministic total order on mixed identifier types.

    Numbers order numerically (exact comparisons, no float rounding of
    large ints), strings lexicographically, tuples elementwise recursively,
    frozensets as their sorted element tuples; anything else falls back to
    ``(type name, repr)``.  Equal-valued distinct identifiers (``1`` vs
    ``1.0``) break ties on type name and repr, keeping the order total.
    """
    if type(identifier) is tuple:
        return ("2tuple", tuple(identifier_sort_key(item) for item in identifier))
    if isinstance(identifier, (int, float)) and not isinstance(identifier, bool):
        if identifier != identifier:  # NaN is not numerically orderable
            return ("9" + type(identifier).__name__, repr(identifier))
        return ("0num", identifier, type(identifier).__name__, repr(identifier))
    if type(identifier) is str:
        return ("1str", identifier)
    if type(identifier) is frozenset:
        return (
            "3frozenset",
            tuple(sorted(identifier_sort_key(item) for item in identifier)),
        )
    return ("9" + type(identifier).__name__, repr(identifier))
