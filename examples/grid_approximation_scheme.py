#!/usr/bin/env python3
"""Theorem 3 in action: a local approximation scheme on bounded-growth graphs.

Section 5 of the paper proves that the local averaging algorithm with radius
``R`` approximates the max-min LP within ``γ(R-1)·γ(R)``, where ``γ(r)`` is
the relative growth of radius-``r`` neighbourhoods.  On a ``d``-dimensional
grid ``γ(r) = 1 + Θ(1/r)``, so choosing ``R`` large enough achieves any
desired ratio -- a *local approximation scheme*.

This example prints, for a 1-D torus (cycle), a 2-D torus and a unit-disk
deployment:

1. the growth profile ``γ(r)``,
2. the measured approximation ratio of the averaging algorithm as a function
   of ``R`` next to the per-instance bound and the ``γ(R-1)·γ(R)`` bound --
   the text version of the "ratio vs radius" figure one would plot,

and contrasts them with the tree-like lower-bound construction of Section 4
where the growth never approaches 1 and no local scheme exists (Theorem 1).

Run with:  python examples/grid_approximation_scheme.py
"""

from __future__ import annotations

from repro import cycle_instance, grid_instance, unit_disk_instance
from repro.analysis import format_series, growth_sweep, radius_sweep, render_rows
from repro.lowerbound import build_lower_bound_instance, theorem1_bound


def growth_table() -> None:
    problems = {
        "cycle n=40 (1-D)": cycle_instance(40),
        "torus 8x8 (2-D)": grid_instance((8, 8), torus=True),
        "unit disk n=60": unit_disk_instance(60, radius=0.18, max_support=6, seed=5),
        "Section-4 tree": build_lower_bound_instance(3, 2, 1, seed=0).problem,
    }
    rows = growth_sweep(problems, max_radius=3)
    print(render_rows(rows, title="Relative growth γ(r) by instance family"))
    print()
    print("The geometric families have γ(r) -> 1; the Section 4 construction")
    print("keeps γ(r) bounded away from 1, which is why Theorem 1 can defeat")
    print("every local algorithm there.")
    print()


def ratio_vs_radius(label: str, problem, radii) -> None:
    rows = radius_sweep(problem, radii)
    print(
        format_series(
            "R",
            {
                "measured ratio": [row["ratio"] for row in rows],
                "instance bound": [row["instance_bound"] for row in rows],
                "gamma bound": [row["gamma_bound"] for row in rows],
            },
            [row["R"] for row in rows],
            title=f"Approximation ratio vs radius R on {label}",
        )
    )
    print()


def lower_bound_contrast() -> None:
    construction = build_lower_bound_instance(3, 2, 1, seed=0)
    print(
        "Contrast (Theorem 1): on the adversarial construction with "
        f"Δ_I^V = {construction.delta_VI}, Δ_K^V = {construction.delta_VK}, no local\n"
        f"algorithm can achieve a ratio below "
        f"{theorem1_bound(construction.delta_VI, construction.delta_VK):.3f}; "
        "see examples/lower_bound_adversary.py."
    )


def main() -> None:
    growth_table()
    ratio_vs_radius("the 1-D torus (cycle, n=40)", cycle_instance(40), [1, 2, 3, 4])
    ratio_vs_radius("the 2-D torus 6x6", grid_instance((6, 6), torus=True), [1, 2])
    ratio_vs_radius(
        "a unit-disk deployment (n=36)",
        unit_disk_instance(36, radius=0.24, max_support=6, seed=9),
        [1, 2],
    )
    lower_bound_contrast()


if __name__ == "__main__":
    main()
