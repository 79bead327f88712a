"""Relative neighbourhood growth ``γ(r)`` (paper Section 5).

Theorem 3 bounds the approximation ratio of the local averaging algorithm by
``γ(R-1) · γ(R)`` where

.. math::

    \\gamma(r) = \\max_{v \\in V} \\frac{|B_H(v, r+1)|}{|B_H(v, r)|}

is the *relative growth* of radius-``r`` neighbourhoods in the communication
hypergraph ``H``.  On a ``d``-dimensional grid ``γ(r) = 1 + Θ(1/r)``, which
is why the algorithm is a local approximation scheme there; on the tree-like
lower-bound construction of Section 4 the growth stays bounded away from 1
and the algorithm (correctly) cannot beat Theorem 1.

This module computes ``γ(r)``, full growth profiles and the resulting
Theorem 3 ratio bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .hypergraph import Hypergraph

__all__ = ["GrowthProfile", "relative_growth", "growth_profile", "theorem3_ratio_bound"]


@dataclass(frozen=True)
class GrowthProfile:
    """Growth statistics of a hypergraph up to a maximum radius.

    Attributes
    ----------
    max_radius:
        Largest radius ``r`` for which ``γ(r)`` was computed.
    gamma:
        Tuple with ``gamma[r] = γ(r)`` for ``r = 0 .. max_radius``.
    max_ball_sizes:
        ``max_v |B_H(v, r)|`` for each radius.
    min_ball_sizes:
        ``min_v |B_H(v, r)|`` for each radius.
    """

    max_radius: int
    gamma: Tuple[float, ...]
    max_ball_sizes: Tuple[int, ...]
    min_ball_sizes: Tuple[int, ...]

    def ratio_bound(self, R: int) -> float:
        """The Theorem 3 bound ``γ(R-1)·γ(R)`` for local-LP radius ``R ≥ 1``."""
        if R < 1:
            raise ValueError("the local-LP radius R must be at least 1")
        if R > self.max_radius:
            raise ValueError(
                f"profile only covers radii up to {self.max_radius}, requested R={R}"
            )
        return self.gamma[R - 1] * self.gamma[R]


def relative_growth(hypergraph: Hypergraph, radius: int) -> float:
    """Compute ``γ(radius) = max_v |B(v, radius+1)| / |B(v, radius)|``.

    Returns 1.0 for an empty hypergraph (there is nothing to grow).
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    worst = 1.0
    for v in hypergraph.nodes:
        sizes = hypergraph.ball_sizes(v, radius + 1)
        worst = max(worst, sizes[radius + 1] / sizes[radius])
    return worst


def growth_profile(hypergraph: Hypergraph, max_radius: int) -> GrowthProfile:
    """Compute ``γ(r)`` and ball-size extremes for ``r = 0 .. max_radius``.

    A single BFS per vertex (up to ``max_radius + 1``) provides all radii at
    once, which keeps the computation linear in the total ball volume.
    """
    if max_radius < 0:
        raise ValueError("max_radius must be non-negative")
    gamma = [1.0] * (max_radius + 1)
    max_sizes = [0] * (max_radius + 2)
    min_sizes = [0] * (max_radius + 2)
    first = True
    for v in hypergraph.nodes:
        sizes = hypergraph.ball_sizes(v, max_radius + 1)
        for r in range(max_radius + 1):
            gamma[r] = max(gamma[r], sizes[r + 1] / sizes[r])
        for r in range(max_radius + 2):
            max_sizes[r] = max(max_sizes[r], sizes[r])
            min_sizes[r] = sizes[r] if first else min(min_sizes[r], sizes[r])
        first = False
    return GrowthProfile(
        max_radius=max_radius,
        gamma=tuple(gamma),
        max_ball_sizes=tuple(max_sizes[: max_radius + 1]),
        min_ball_sizes=tuple(min_sizes[: max_radius + 1]),
    )


def theorem3_ratio_bound(hypergraph: Hypergraph, R: int) -> float:
    """The Theorem 3 approximation-ratio bound ``γ(R-1)·γ(R)`` for radius ``R``."""
    if R < 1:
        raise ValueError("the local-LP radius R must be at least 1")
    return relative_growth(hypergraph, R - 1) * relative_growth(hypergraph, R)
