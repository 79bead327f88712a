"""Regular bipartite graphs with girth guarantees.

The Section 4 lower-bound construction needs, as a template, a ``Δ``-regular
bipartite graph ``Q`` with no cycle shorter than ``4r + 2`` (the paper cites
McKay--Wormald--Wysocka for the existence of such graphs via the
probabilistic method).  Since the reproduction has to *build* ``Q``, this
module provides constructive options:

* :func:`cycle_bipartite` -- a single long cycle (2-regular, girth equal to
  its length), the cheapest template whenever ``Δ = 2``;
* :func:`complete_bipartite_regular` -- ``K_{Δ,Δ}`` (girth 4), enough when
  the required girth is only 4;
* :func:`projective_plane_incidence` -- the point--line incidence graph of
  ``PG(2, q)`` for a prime ``q`` (``(q+1)``-regular, girth 6);
* :func:`sidon_circulant_bipartite` -- a circulant bipartite graph built
  from a greedy Sidon set; ``Δ``-regular with girth at least 6 for *any*
  degree (the workhorse when ``Δ - 1`` is not prime);
* :func:`random_regular_bipartite` -- the permutation model (union of
  ``Δ`` random perfect matchings);
* :func:`regular_bipartite_with_girth` -- a searcher that combines the
  above: it picks an explicit construction when one fits and otherwise
  retries the permutation model on growing vertex sets until the girth
  requirement is met (a last resort that is only realistic for small
  degrees; the explicit constructions cover every case the paper's
  benchmarks exercise).

All graphs are :class:`networkx.Graph` instances whose vertices are tagged
``("L", index)`` / ``("R", index)`` for the two sides.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..exceptions import ConstructionError

if TYPE_CHECKING:  # pragma: no cover - annotations only; builders import it
    import networkx as nx

__all__ = [
    "girth",
    "is_regular_bipartite",
    "cycle_bipartite",
    "complete_bipartite_regular",
    "projective_plane_incidence",
    "sidon_circulant_bipartite",
    "random_regular_bipartite",
    "regular_bipartite_with_girth",
]


def girth(graph: nx.Graph) -> float:
    """Length of the shortest cycle of ``graph`` (``inf`` for forests).

    Implemented with one truncated BFS per vertex; whenever the BFS finds an
    edge between two already-discovered vertices it has located a cycle
    through the root, and the minimum over all roots is the girth.  This is
    the standard O(V·E) unweighted-girth algorithm and is fast enough for
    the template graphs used here (a few thousand edges).
    """
    best = math.inf
    for root in graph.nodes:
        dist = {root: 0}
        parent = {root: None}
        frontier = [root]
        while frontier:
            next_frontier = []
            for u in frontier:
                for w in graph.neighbors(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        next_frontier.append(w)
                    elif w != parent[u]:
                        # Cycle through the root (or at least no longer than
                        # this bound); lengths are counted conservatively.
                        cycle_len = dist[u] + dist[w] + 1
                        if cycle_len < best:
                            best = cycle_len
            # Stop early: deeper levels can only produce longer cycles than
            # the best already found from this root.
            if best <= 2 * (dist[frontier[0]] + 1):
                break
            frontier = next_frontier
    return best


def is_regular_bipartite(graph: nx.Graph, degree: Optional[int] = None) -> bool:
    """Check that ``graph`` is bipartite (by the L/R tags) and regular."""
    left = [v for v in graph.nodes if isinstance(v, tuple) and v and v[0] == "L"]
    right = [v for v in graph.nodes if isinstance(v, tuple) and v and v[0] == "R"]
    if len(left) + len(right) != graph.number_of_nodes():
        return False
    for u, w in graph.edges:
        if (u[0] == "L") == (w[0] == "L"):
            return False
    degrees = {d for _v, d in graph.degree()}
    if len(degrees) > 1:
        return False
    if degree is not None and degrees and degrees != {degree}:
        return False
    return True


def cycle_bipartite(n_side: int) -> nx.Graph:
    """A 2-regular bipartite graph: a single cycle with ``2·n_side`` vertices.

    Its girth is exactly ``2·n_side``, so a long enough cycle satisfies any
    girth requirement for ``Δ = 2``.
    """
    import networkx as nx

    if n_side < 2:
        raise ValueError("a bipartite cycle needs at least 2 vertices per side")
    g = nx.Graph()
    for j in range(n_side):
        g.add_edge(("L", j), ("R", j))
        g.add_edge(("R", j), ("L", (j + 1) % n_side))
    return g


def complete_bipartite_regular(degree: int) -> nx.Graph:
    """``K_{Δ,Δ}``: Δ-regular bipartite, girth 4 (2 for Δ=1: a single edge has no cycle)."""
    import networkx as nx

    if degree < 1:
        raise ValueError("degree must be at least 1")
    g = nx.Graph()
    for a in range(degree):
        for b in range(degree):
            g.add_edge(("L", a), ("R", b))
    return g


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for p in range(2, int(math.isqrt(q)) + 1):
        if q % p == 0:
            return False
    return True


def projective_plane_incidence(q: int) -> nx.Graph:
    """Point--line incidence graph of the projective plane ``PG(2, q)``.

    For a prime ``q`` this is a ``(q+1)``-regular bipartite graph on
    ``2(q² + q + 1)`` vertices with girth 6 -- the classical explicit
    construction of a dense high-girth bipartite graph.
    """
    import networkx as nx

    if not _is_prime(q):
        raise ConstructionError(
            f"projective_plane_incidence requires a prime order, got {q}"
        )
    # Projective points: non-zero triples over GF(q) up to scalar, normalised
    # so that the first non-zero coordinate equals 1.
    points = []
    for x in range(q):
        for y in range(q):
            points.append((1, x, y))
    for y in range(q):
        points.append((0, 1, y))
    points.append((0, 0, 1))
    index = {p: j for j, p in enumerate(points)}

    g = nx.Graph()
    for j, _p in enumerate(points):
        g.add_node(("L", j))  # points
        g.add_node(("R", j))  # lines (by duality, same coordinates)
    for jp, p in enumerate(points):
        for jl, line in enumerate(points):
            if (p[0] * line[0] + p[1] * line[1] + p[2] * line[2]) % q == 0:
                g.add_edge(("L", jp), ("R", jl))
    return g


def _greedy_sidon_set(size: int, modulus: int) -> Optional[list]:
    """A Sidon (B_2) set of the given size in ``Z_modulus``, greedily.

    A Sidon set has all pairwise differences distinct (mod the modulus);
    ``None`` is returned when the greedy scan of ``0..modulus-1`` cannot
    reach the requested size.
    """
    members: list = []
    diffs: set = set()
    for candidate in range(modulus):
        new_diffs: set = set()
        ok = True
        for b in members:
            d1 = (candidate - b) % modulus
            d2 = (b - candidate) % modulus
            if (
                d1 == 0
                or d1 in diffs
                or d2 in diffs
                or d1 in new_diffs
                or d2 in new_diffs
            ):
                ok = False
                break
            new_diffs.add(d1)
            new_diffs.add(d2)
        if ok:
            members.append(candidate)
            diffs |= new_diffs
            if len(members) == size:
                return members
    return None


def sidon_circulant_bipartite(degree: int, *, n: Optional[int] = None) -> nx.Graph:
    """A Δ-regular bipartite circulant graph with girth at least 6.

    The construction: pick a Sidon set ``B ⊆ Z_n`` of size ``Δ`` and connect
    ``("L", i)`` to ``("R", (i + b) mod n)`` for every ``b ∈ B``.  Two left
    vertices with two common right neighbours would force a repeated
    difference ``b_1 - b_3 = b_2 - b_4`` in ``B``, which the Sidon property
    forbids -- hence no 4-cycles and the girth is at least 6 (bipartite
    graphs have no odd cycles).  Works deterministically for every degree,
    unlike the probabilistic existence argument the paper cites.

    Parameters
    ----------
    degree:
        The requested degree Δ ≥ 1.
    n:
        Optional modulus (number of vertices per side); by default the
        smallest power-of-two multiple of ``2·Δ²`` that admits a greedy
        Sidon set of size Δ is used.
    """
    import networkx as nx

    if degree < 1:
        raise ValueError("degree must be at least 1")
    if n is not None:
        members = _greedy_sidon_set(degree, n)
        if members is None:
            raise ConstructionError(
                f"no greedy Sidon set of size {degree} exists modulo {n}; "
                "increase n"
            )
    else:
        n = max(2 * degree * degree, 7)
        members = _greedy_sidon_set(degree, n)
        while members is None:
            n *= 2
            members = _greedy_sidon_set(degree, n)
    g = nx.Graph()
    for j in range(n):
        g.add_node(("L", j))
        g.add_node(("R", j))
    for j in range(n):
        for b in members:
            g.add_edge(("L", j), ("R", (j + b) % n))
    return g


def random_regular_bipartite(
    n_side: int, degree: int, *, seed: Optional[int] = None, max_attempts: int = 200
) -> nx.Graph:
    """A Δ-regular bipartite simple graph from the permutation model.

    The graph is the union of ``degree`` uniformly random perfect matchings
    between the two sides; attempts producing parallel edges are discarded
    and retried.
    """
    import networkx as nx

    if degree < 1:
        raise ValueError("degree must be at least 1")
    if n_side < degree:
        raise ConstructionError(
            f"need at least {degree} vertices per side for a simple {degree}-regular graph"
        )
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        edges = set()
        ok = True
        for _m in range(degree):
            perm = rng.permutation(n_side)
            for a in range(n_side):
                e = (a, int(perm[a]))
                if e in edges:
                    ok = False
                    break
                edges.add(e)
            if not ok:
                break
        if not ok:
            continue
        g = nx.Graph()
        for j in range(n_side):
            g.add_node(("L", j))
            g.add_node(("R", j))
        for a, b in edges:
            g.add_edge(("L", a), ("R", b))
        return g
    raise ConstructionError(
        f"failed to sample a simple {degree}-regular bipartite graph on "
        f"{n_side}+{n_side} vertices in {max_attempts} attempts"
    )


def regular_bipartite_with_girth(
    degree: int,
    min_girth: int,
    *,
    seed: Optional[int] = None,
    n_side: Optional[int] = None,
    max_n_side: int = 4096,
    attempts_per_size: int = 60,
) -> nx.Graph:
    """A Δ-regular bipartite graph with girth at least ``min_girth``.

    Strategy (cheapest first):

    1. ``Δ = 1``: a perfect matching (no cycles at all).
    2. ``Δ = 2``: a single long cycle.
    3. ``min_girth ≤ 4``: ``K_{Δ,Δ}``.
    4. ``min_girth ≤ 6`` and ``Δ - 1`` prime: the projective-plane incidence
       graph (the densest girth-6 option).
    5. ``min_girth ≤ 6`` otherwise: the Sidon-set circulant construction
       (works for every degree, deterministically).
    6. Otherwise (girth ≥ 8 with Δ ≥ 3): the permutation model on
       progressively larger vertex sets until a sample passes the girth
       check.  This mirrors the paper's probabilistic-existence argument
       made constructive by verification, but succeeds with reasonable
       probability only for small degrees; larger cases raise
       :class:`ConstructionError` after exhausting the budget.

    Raises
    ------
    ConstructionError
        If no suitable graph is found within the size/attempt budget.
    """
    import networkx as nx

    if degree < 1:
        raise ValueError("degree must be at least 1")
    if min_girth < 3:
        min_girth = 3

    if degree == 1:
        g = nx.Graph()
        for j in range(2):
            g.add_edge(("L", j), ("R", j))
        return g
    if degree == 2:
        half = max(2, (min_girth + 1) // 2)
        return cycle_bipartite(half)
    if min_girth <= 4:
        return complete_bipartite_regular(degree)
    if min_girth <= 6 and _is_prime(degree - 1):
        return projective_plane_incidence(degree - 1)
    if min_girth <= 6:
        graph = sidon_circulant_bipartite(degree)
        if girth(graph) < min_girth:  # pragma: no cover - defensive
            raise ConstructionError(
                "Sidon circulant construction unexpectedly failed the girth check"
            )
        return graph

    rng = np.random.default_rng(seed)
    size = n_side if n_side is not None else max(4 * degree * degree, 16)
    while size <= max_n_side:
        for attempt in range(attempts_per_size):
            try:
                g = random_regular_bipartite(
                    size, degree, seed=int(rng.integers(0, 2**31 - 1))
                )
            except ConstructionError:
                continue
            if girth(g) >= min_girth:
                return g
        if n_side is not None:
            break
        size *= 2
    raise ConstructionError(
        f"could not construct a {degree}-regular bipartite graph with girth ≥ "
        f"{min_girth} within the size budget (max {max_n_side} per side)"
    )
