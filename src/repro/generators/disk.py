"""Unit-disk (geometric) max-min LP instances.

Section 5 argues that realistic deployments -- nodes embedded in a
low-dimensional physical space with bounded-range radios -- have polynomially
growing neighbourhoods, which is exactly the regime where the local
averaging algorithm shines.  This generator realises that setting directly:
agents are random points in the unit square, each point owns a resource and
a beneficiary whose supports are its geometric neighbourhood (clipped to a
maximum size so that the paper's boundedness assumptions hold literally).

The richer two-tier sensor-network application (with separate sensor and
relay tiers, energy budgets and monitored areas) lives in
:mod:`repro.apps.sensor`; this module is the plain geometric instance family
used by the growth benchmarks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.problem import MaxMinLP, MaxMinLPBuilder

__all__ = ["unit_disk_instance", "unit_disk_points", "geometric_neighbourhoods"]


def unit_disk_points(
    n: int, *, seed: Optional[int] = None
) -> np.ndarray:
    """``n`` i.i.d. uniform points in the unit square as an ``(n, 2)`` array."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, 2))


def geometric_neighbourhoods(
    points: np.ndarray, radius: float, *, max_size: Optional[int] = None
) -> List[List[int]]:
    """Closed neighbourhoods (by index) of each point under the disk graph.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of positions.
    radius:
        Two points are neighbours when their Euclidean distance is at most
        ``radius``.
    max_size:
        Optional cap on the neighbourhood size; when a neighbourhood exceeds
        the cap the nearest points are kept (the point itself is always
        kept).  This keeps the support bounds Δ finite as the paper assumes.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    # Pairwise squared distances, vectorised (n is at most a few thousand in
    # the benchmarks, so the dense n x n matrix is fine).
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    r2 = radius * radius
    result: List[List[int]] = []
    for v in range(n):
        close = np.where(dist2[v] <= r2)[0]
        order = close[np.argsort(dist2[v, close], kind="stable")]
        members = [int(u) for u in order]
        if v in members:
            members.remove(v)
        members = [v] + members
        if max_size is not None and len(members) > max_size:
            members = members[:max_size]
        result.append(members)
    return result


def unit_disk_instance(
    n: int,
    radius: float = 0.2,
    *,
    max_support: Optional[int] = 8,
    weights: str = "unit",
    seed: Optional[int] = None,
) -> MaxMinLP:
    """Build a unit-disk max-min LP instance.

    Parameters
    ----------
    n:
        Number of agents (random points in the unit square).
    radius:
        Disk-graph radius.
    max_support:
        Cap on each support size (``None`` disables the cap); caps keep the
        degree bounds Δ constant as density grows.
    weights:
        ``"unit"`` or ``"random"`` coefficients.
    seed:
        Random seed for both the point positions and the coefficients.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if weights not in ("unit", "random"):
        raise ValueError(f"unknown weights mode {weights!r}")
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    neighbourhoods = geometric_neighbourhoods(points, radius, max_size=max_support)

    def coeff() -> float:
        return 1.0 if weights == "unit" else float(rng.uniform(0.5, 1.5))

    builder = MaxMinLPBuilder()
    for v in range(n):
        members = neighbourhoods[v]
        for u in members:
            builder.set_consumption(("r", v), ("v", u), coeff())
            builder.set_benefit(("k", v), ("v", u), coeff())
    return builder.build()
