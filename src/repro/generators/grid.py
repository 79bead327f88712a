"""Grid-structured max-min LP instances.

Section 5 of the paper motivates the growth-bounded setting with networks
embedded in a low-dimensional physical space: on a ``d``-dimensional grid the
relative growth is ``γ(r) = 1 + Θ(1/r)`` and the local averaging algorithm
becomes a local approximation *scheme*.  These generators provide the grid
and torus instance families used by the THM3 experiments.

The construction: the agents are the grid cells; every cell ``u`` owns one
resource and one beneficiary whose supports are the closed grid
neighbourhood of ``u`` (the cell and its axis neighbours).  With unit
coefficients the instance is perfectly symmetric on a torus, which gives a
closed-form optimum used by the unit tests; the ``weights="random"`` option
perturbs the coefficients for less regular benchmarks.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.problem import MaxMinLP, MaxMinLPBuilder

__all__ = ["grid_instance", "grid_neighbours", "torus_instance"]

Cell = Tuple[int, ...]


def grid_neighbours(
    cell: Cell, shape: Sequence[int], *, torus: bool = False
) -> List[Cell]:
    """Axis-aligned neighbours of ``cell`` in a grid of the given ``shape``.

    With ``torus=True`` the coordinates wrap around; otherwise neighbours
    falling outside the grid are omitted.
    """
    result: List[Cell] = []
    for axis in range(len(shape)):
        for delta in (-1, 1):
            coord = list(cell)
            coord[axis] += delta
            if torus:
                coord[axis] %= shape[axis]
            elif not (0 <= coord[axis] < shape[axis]):
                continue
            candidate = tuple(coord)
            if candidate != cell:
                result.append(candidate)
    return result


def grid_instance(
    shape: Sequence[int],
    *,
    torus: bool = False,
    weights: str = "unit",
    seed: Optional[int] = None,
) -> MaxMinLP:
    """Build a grid-structured max-min LP instance.

    Parameters
    ----------
    shape:
        Grid dimensions, e.g. ``(8, 8)`` for an 8x8 two-dimensional grid or
        ``(20,)`` for a path-of-cells style one-dimensional grid.
    torus:
        Wrap the grid around in every dimension (periodic boundary), making
        the instance vertex-transitive.
    weights:
        ``"unit"`` (all coefficients 1) or ``"random"`` (coefficients drawn
        uniformly from ``[0.5, 1.5]`` with the given ``seed``).
    seed:
        Seed for the random coefficients (ignored for unit weights).

    Returns
    -------
    MaxMinLP
        Agents are the grid cells (coordinate tuples); resource ``("r", u)``
        and beneficiary ``("k", u)`` both have the closed neighbourhood of
        ``u`` as support.
    """
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise ValueError(f"invalid grid shape {shape!r}")
    if weights not in ("unit", "random"):
        raise ValueError(f"unknown weights mode {weights!r}")
    rng = np.random.default_rng(seed)

    def coeff() -> float:
        if weights == "unit":
            return 1.0
        return float(rng.uniform(0.5, 1.5))

    builder = MaxMinLPBuilder()
    cells: Iterable[Cell] = product(*(range(s) for s in shape))
    for u in cells:
        closed = [u] + grid_neighbours(u, shape, torus=torus)
        for v in closed:
            builder.set_consumption(("r", u), v, coeff())
            builder.set_benefit(("k", u), v, coeff())
    return builder.build()


def torus_instance(
    shape: Sequence[int],
    *,
    weights: str = "unit",
    seed: Optional[int] = None,
) -> MaxMinLP:
    """Shorthand for :func:`grid_instance` with ``torus=True``."""
    return grid_instance(shape, torus=True, weights=weights, seed=seed)
