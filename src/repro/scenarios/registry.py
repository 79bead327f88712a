"""Decorator-based registry of instance families.

The registry maps a family *name* (``"grid"``, ``"unit_disk"``, ``"isp"``,
...) to a builder that turns a :class:`~repro.scenarios.spec.ScenarioSpec`'s
parameters into a :class:`~repro.core.problem.MaxMinLP`.  Every generator
and application of the repository is registered here, so the whole zoo of
instances is reachable from declarative data — a suite file can name any
family without importing anything.

Builders are registered with :func:`register_family`::

    @register_family(
        "my_family",
        description="what the family is",
        params={"n": param(20, "number of agents")},
    )
    def _build_my_family(seed, *, n):
        return ...  # a MaxMinLP

Each family carries a parameter schema (name → default + help text) that is
used three ways: CLI introspection (``repro suite list-families``),
validation of specs before anything is built (unknown parameters raise
:class:`~repro.exceptions.ScenarioError` instead of a ``TypeError`` deep in
a builder), and defaulting (a spec only stores the parameters it overrides).

The two bipartite families return template *graphs* in their home module;
here they are lifted to max-min LP instances by the natural incidence
construction: agents are the edges, each left vertex contributes one unit
resource over its incident edges, each right vertex one unit beneficiary.
A ``Δ``-regular template therefore yields ``Δ_I^V = Δ_K^V = Δ``, making
these the go-to families for exercising the paper's support-bound regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from ..apps import random_isp_network, random_sensor_network
from ..core.problem import MaxMinLP, MaxMinLPBuilder
from ..exceptions import ScenarioError
from ..generators import (
    cycle_instance,
    grid_instance,
    path_instance,
    random_bounded_degree_instance,
    random_regular_bipartite,
    sidon_circulant_bipartite,
    unit_disk_instance,
)
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = [
    "FamilyInfo",
    "ParamInfo",
    "param",
    "register_family",
    "unregister_family",
    "get_family",
    "list_families",
    "family_schema",
    "describe_families",
    "validate_spec",
    "build_instance",
]

Builder = Callable[..., MaxMinLP]


@dataclass(frozen=True)
class ParamInfo:
    """Schema entry for one builder parameter."""

    default: Any
    help: str = ""


def param(default: Any, help: str = "") -> ParamInfo:
    """Shorthand constructor for :class:`ParamInfo` used in registrations."""
    return ParamInfo(default=default, help=help)


@dataclass(frozen=True)
class FamilyInfo:
    """One registered instance family: builder plus parameter schema."""

    name: str
    builder: Builder
    description: str = ""
    params: Dict[str, ParamInfo] = field(default_factory=dict)

    def resolved_params(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Schema defaults overlaid with the spec's overrides.

        Raises
        ------
        ScenarioError
            If ``overrides`` contains a parameter the schema doesn't know.
        """
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise ScenarioError(
                f"family {self.name!r} does not accept parameter(s) "
                f"{', '.join(map(repr, unknown))}; known parameters: "
                f"{', '.join(sorted(self.params)) or '(none)'}"
            )
        resolved = {name: info.default for name, info in self.params.items()}
        resolved.update(overrides)
        return resolved

    def build(self, params: Mapping[str, Any], seed: Optional[int]) -> MaxMinLP:
        """Build the instance with defaults applied and params validated."""
        return self.builder(seed, **self.resolved_params(params))


_FAMILIES: Dict[str, FamilyInfo] = {}


def register_family(
    name: str,
    *,
    description: str = "",
    params: Optional[Dict[str, ParamInfo]] = None,
) -> Callable[[Builder], Builder]:
    """Class-less registration decorator for instance-family builders.

    The decorated builder must accept the seed as its first positional
    argument and every schema parameter as a keyword argument.  Registering
    an already-known name raises :class:`~repro.exceptions.ScenarioError`
    (use :func:`unregister_family` first to replace one deliberately).
    """

    def decorate(builder: Builder) -> Builder:
        if name in _FAMILIES:
            raise ScenarioError(f"family {name!r} is already registered")
        _FAMILIES[name] = FamilyInfo(
            name=name,
            builder=builder,
            description=description,
            params=dict(params or {}),
        )
        return builder

    return decorate


def unregister_family(name: str) -> bool:
    """Remove a family; returns whether it existed (for test cleanup)."""
    return _FAMILIES.pop(name, None) is not None


def get_family(name: str) -> FamilyInfo:
    """Look up a family by name, with a helpful error for unknown names."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ScenarioError(
            f"unknown instance family {name!r}; registered families: "
            f"{', '.join(list_families())}"
        ) from None


def list_families() -> List[str]:
    """Registered family names, sorted."""
    return sorted(_FAMILIES)


def family_schema(name: str) -> Dict[str, ParamInfo]:
    """The parameter schema of one family (name → default + help)."""
    return dict(get_family(name).params)


def describe_families() -> List[Dict[str, str]]:
    """One row per family for the ``suite list-families`` table."""
    rows = []
    for name in list_families():
        info = _FAMILIES[name]
        rows.append(
            {
                "family": name,
                "parameters": ", ".join(
                    f"{p}={info.params[p].default!r}" for p in sorted(info.params)
                ),
                "description": info.description,
            }
        )
    return rows


def validate_spec(spec: ScenarioSpec) -> FamilyInfo:
    """Check that a spec resolves: known family, schema-accepted params.

    This is what ``suite run --dry-run`` exercises — it catches registry
    and spec regressions without solving anything.  Returns the family
    that accepted the spec.
    """
    family = get_family(spec.family)
    family.resolved_params(spec.params)
    return family


def build_instance(spec: ScenarioSpec) -> MaxMinLP:
    """Build the concrete max-min LP instance a spec describes."""
    return get_family(spec.family).build(spec.params, spec.seed)


# ----------------------------------------------------------------------
# The incidence lifting for bipartite template families
# ----------------------------------------------------------------------
def _bipartite_incidence_instance(graph: nx.Graph) -> MaxMinLP:
    """Lift an L/R-tagged bipartite graph to a max-min LP.

    Agents are the edges ``(("L", i), ("R", j))``; left vertices become unit
    resources over their incident edges, right vertices unit beneficiaries.
    """
    builder = MaxMinLPBuilder()
    for u, w in sorted(graph.edges):
        left, right = (u, w) if u[0] == "L" else (w, u)
        agent = (left, right)
        builder.set_consumption(("r", left[1]), agent, 1.0)
        builder.set_benefit(("k", right[1]), agent, 1.0)
    return builder.build()


# ----------------------------------------------------------------------
# Built-in families: every generator and application of the repository
# ----------------------------------------------------------------------
@register_family(
    "grid",
    description="d-dimensional grid cells with closed-neighbourhood supports",
    params={
        "shape": param((6, 6), "grid dimensions, e.g. (6, 6)"),
        "weights": param("unit", "'unit' or 'random' coefficients"),
    },
)
def _build_grid(seed: Optional[int], *, shape: Any, weights: str) -> MaxMinLP:
    return grid_instance(shape, torus=False, weights=weights, seed=seed)


@register_family(
    "torus",
    description="periodic grid (vertex-transitive; closed-form optimum)",
    params={
        "shape": param((6, 6), "grid dimensions, e.g. (6, 6)"),
        "weights": param("unit", "'unit' or 'random' coefficients"),
    },
)
def _build_torus(seed: Optional[int], *, shape: Any, weights: str) -> MaxMinLP:
    return grid_instance(shape, torus=True, weights=weights, seed=seed)


@register_family(
    "path",
    description="path of agents; resources are the edges (Δ_I^V = 2)",
    params={
        "n": param(20, "number of agents"),
        "weights": param("unit", "'unit' or 'random' coefficients"),
    },
)
def _build_path(seed: Optional[int], *, n: int, weights: str) -> MaxMinLP:
    return path_instance(n, weights=weights, seed=seed)


@register_family(
    "cycle",
    description="cycle of agents (vertex-transitive boundary case Δ_I^V = 2)",
    params={
        "n": param(40, "number of agents"),
        "weights": param("unit", "'unit' or 'random' coefficients"),
    },
)
def _build_cycle(seed: Optional[int], *, n: int, weights: str) -> MaxMinLP:
    return cycle_instance(n, weights=weights, seed=seed)


@register_family(
    "unit_disk",
    description="random points in the unit square with disk-graph supports",
    params={
        "n": param(36, "number of agents (random points)"),
        "radius": param(0.24, "disk-graph radius"),
        "max_support": param(6, "cap on each support size (None disables)"),
        "weights": param("unit", "'unit' or 'random' coefficients"),
    },
)
def _build_unit_disk(
    seed: Optional[int], *, n: int, radius: float, max_support: Optional[int], weights: str
) -> MaxMinLP:
    return unit_disk_instance(
        n, radius=radius, max_support=max_support, weights=weights, seed=seed
    )


@register_family(
    "random_bounded_degree",
    description="random instance with chosen support-size bounds Δ",
    params={
        "n_agents": param(30, "number of agents"),
        "max_resource_support": param(3, "upper bound on |V_i| (Δ_I^V)"),
        "max_beneficiary_support": param(3, "upper bound on |V_k| (Δ_K^V)"),
        "weights": param("random", "'unit' or 'random' coefficients"),
    },
)
def _build_random_bounded_degree(
    seed: Optional[int],
    *,
    n_agents: int,
    max_resource_support: int,
    max_beneficiary_support: int,
    weights: str,
) -> MaxMinLP:
    return random_bounded_degree_instance(
        n_agents,
        max_resource_support=max_resource_support,
        max_beneficiary_support=max_beneficiary_support,
        weights=weights,
        seed=seed,
    )


@register_family(
    "random_regular_bipartite",
    description="permutation-model Δ-regular bipartite template, incidence-lifted",
    params={
        "n_side": param(8, "vertices per side of the template"),
        "degree": param(3, "template degree Δ (= Δ_I^V = Δ_K^V)"),
    },
)
def _build_random_regular_bipartite(
    seed: Optional[int], *, n_side: int, degree: int
) -> MaxMinLP:
    graph = random_regular_bipartite(n_side, degree, seed=seed)
    return _bipartite_incidence_instance(graph)


@register_family(
    "sidon_bipartite",
    description="Sidon-set circulant bipartite template (girth ≥ 6), incidence-lifted",
    params={
        "degree": param(3, "template degree Δ (= Δ_I^V = Δ_K^V)"),
        "n": param(None, "optional modulus (vertices per side)"),
    },
)
def _build_sidon_bipartite(
    seed: Optional[int], *, degree: int, n: Optional[int]
) -> MaxMinLP:
    # The construction is deterministic; the seed is accepted for interface
    # uniformity but has no effect.
    graph = sidon_circulant_bipartite(degree, n=n)
    return _bipartite_incidence_instance(graph)


@register_family(
    "isp",
    description="Section 2 ISP fair-share application (customers/links/routers)",
    params={
        "n_customers": param(8, "number of customers"),
        "n_routers": param(4, "number of access routers"),
        "links_per_customer": param(2, "last-mile links per customer"),
        "routers_per_link": param(2, "routers each link is homed on"),
        "capacity_spread": param(0.5, "uniform capacity spread around 1.0"),
    },
)
def _build_isp(
    seed: Optional[int],
    *,
    n_customers: int,
    n_routers: int,
    links_per_customer: int,
    routers_per_link: int,
    capacity_spread: float,
) -> MaxMinLP:
    network = random_isp_network(
        n_customers,
        n_routers,
        links_per_customer=links_per_customer,
        routers_per_link=routers_per_link,
        capacity_spread=capacity_spread,
        seed=seed,
    )
    return network.to_maxmin_lp()


@register_family(
    "sensor",
    description="Section 2 two-tier sensor-network application",
    params={
        "n_sensors": param(18, "number of sensors"),
        "n_relays": param(6, "number of relays"),
        "n_areas": param(5, "number of monitored areas"),
        "radio_range": param(0.35, "sensor-relay radio range"),
        "sensing_range": param(0.35, "sensor-area sensing range"),
        "energy_spread": param(0.0, "uniform energy spread around 1.0"),
    },
)
def _build_sensor(
    seed: Optional[int],
    *,
    n_sensors: int,
    n_relays: int,
    n_areas: int,
    radio_range: float,
    sensing_range: float,
    energy_spread: float,
) -> MaxMinLP:
    network = random_sensor_network(
        n_sensors,
        n_relays,
        n_areas,
        radio_range=radio_range,
        sensing_range=sensing_range,
        energy_spread=energy_spread,
        seed=seed,
    )
    return network.to_maxmin_lp()
