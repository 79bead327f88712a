"""Discrete stable colourings label views directly (repro.canon.labeling).

When colour refinement leaves every node in its own cell, the canonical
index takes the colouring as the labeling without matching, searching or
registering a class.  These tests pin that shortcut to the general search:
same positions, same key, same orders as a fresh index, on every registry
family.
"""

from __future__ import annotations

from hashlib import sha256

import numpy as np
import pytest

from repro import communication_hypergraph, grid_instance
from repro.canon.labeling import (
    DEFAULT_BRANCH_BUDGET,
    CanonicalIndex,
    _build_canonicalizer,
    view_local_structure,
)
from repro.scenarios.registry import get_family, list_families


def _views(problem, R):
    H = communication_hypergraph(problem)
    return [view_local_structure(problem, H.ball(u, R)) for u in problem.agents]


def _is_discrete(structure) -> bool:
    canonicalizer = _build_canonicalizer(*structure, DEFAULT_BRANCH_BUDGET)[0]
    stable = canonicalizer.refine(canonicalizer.initial_colors())
    return np.unique(stable).size == stable.size


def _assert_same(a, b):
    (form_a, positions_a), (form_b, positions_b) = a, b
    assert form_a == form_b
    np.testing.assert_array_equal(positions_a, positions_b)


@pytest.mark.parametrize("family", list_families())
def test_discrete_views_match_the_search(family):
    for seed in (0, 1):
        problem = get_family(family).build({}, seed)
        for R in (1, 2, 3):
            shared = CanonicalIndex()
            discrete_keys = set()
            for structure in _views(problem, R):
                before = dict(shared.stats)
                result = shared.canonical_form_and_positions(*structure)
                if not _is_discrete(structure):
                    continue
                form, positions = result
                delta = {
                    name: shared.stats[name] - before[name] for name in before
                }
                assert delta["searched"] == delta["matched"] == 0
                assert delta["literal"] == 0
                assert delta["discrete"] + delta["memoized"] == 1

                canonicalizer = _build_canonicalizer(
                    *structure, DEFAULT_BRANCH_BUDGET
                )[0]
                form_bytes, colors = canonicalizer.search()
                np.testing.assert_array_equal(positions, colors)
                assert form.key == sha256(b"exact:" + form_bytes).hexdigest()
                assert form.exact

                fresh = CanonicalIndex()
                _assert_same(result, fresh.canonical_form_and_positions(*structure))
                assert fresh.stats["discrete"] == 1
                assert fresh.stats["searched"] == 0
                assert not fresh._classes
                discrete_keys.add(form.key)

            registered = {
                entry.form.key
                for entries in shared._classes.values()
                for entry in entries
            }
            assert not registered & discrete_keys
            for invariant in shared._classes:
                histogram = np.frombuffer(invariant[-1], dtype=np.int64)
                assert histogram.size == 0 or histogram.max() > 1


def test_mixed_index_agrees_with_fresh_indexes():
    """Discrete grid views and symmetric torus views share one index."""
    structures = _views(grid_instance((4, 5), seed=0), 1) + _views(
        grid_instance((6, 6), torus=True), 2
    )
    shared = CanonicalIndex()
    for structure in structures:
        _assert_same(
            shared.canonical_form_and_positions(*structure),
            CanonicalIndex().canonical_form_and_positions(*structure),
        )
    assert shared.stats["discrete"] > 0
    assert shared.stats["searched"] > 0
    assert shared.stats["matched"] > 0


def test_template_bound_clears_without_changing_results():
    """Overflowing the discrete template dict clears it; results stay put."""
    structures = _views(get_family("random_bounded_degree").build({}, 0), 1)
    assert all(_is_discrete(s) for s in structures)
    bounded = CanonicalIndex()
    bounded.MAX_STRUCTURE_MEMO = 2
    sizes = []
    for structure in structures * 2:
        _assert_same(
            bounded.canonical_form_and_positions(*structure),
            CanonicalIndex().canonical_form_and_positions(*structure),
        )
        sizes.append(len(bounded._discrete_templates))
    assert max(sizes) <= bounded.MAX_STRUCTURE_MEMO + 1
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    assert bounded.stats["searched"] == 0
