"""ISP fair-bandwidth allocation (paper Section 2, second application).

The paper points out that the two-tier construction is not specific to
sensor networks: take a set of major *customers* of an Internet service
provider, the bounded-capacity *last-mile links* connecting each customer to
the provider, and the bounded-capacity *access routers* inside the
provider's network.  A decision variable is a (last-mile link, access
router) path carrying a customer's traffic; the max-min LP then allocates
bandwidth so that the *worst-served customer* gets as much as possible.

The mapping onto the max-min LP mirrors the sensor-network case:

* agents ``v = (last-mile link, router)`` -- admissible paths,
* resources -- the capacities of last-mile links and of access routers,
* beneficiaries -- the customers; a path benefits the customer owning its
  last-mile link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..core.problem import MaxMinLP, MaxMinLPBuilder
from ..exceptions import ConstructionError

__all__ = ["Customer", "LastMileLink", "AccessRouter", "ISPNetwork", "random_isp_network"]


@dataclass(frozen=True)
class Customer:
    """A major customer of the provider (a beneficiary party)."""

    name: str


@dataclass(frozen=True)
class LastMileLink:
    """A bounded-capacity last-mile link owned by one customer."""

    name: str
    customer: str
    capacity: float = 1.0


@dataclass(frozen=True)
class AccessRouter:
    """A bounded-capacity access router inside the provider's network."""

    name: str
    capacity: float = 1.0


@dataclass
class ISPNetwork:
    """An ISP topology: customers, their last-mile links and access routers.

    Attributes
    ----------
    customers, links, routers:
        The participating entities.
    reachability:
        Mapping from last-mile link name to the access routers it can be
        homed on; each (link, router) pair becomes one agent of the max-min
        LP.
    """

    customers: List[Customer]
    links: List[LastMileLink]
    routers: List[AccessRouter]
    reachability: Dict[str, List[str]]

    def validate(self) -> None:
        """Check that every customer owns a link that reaches some router."""
        link_by_customer: Dict[str, List[LastMileLink]] = {}
        for link in self.links:
            link_by_customer.setdefault(link.customer, []).append(link)
        router_names = {r.name for r in self.routers}
        for customer in self.customers:
            owned = link_by_customer.get(customer.name, [])
            if not owned:
                raise ConstructionError(
                    f"customer {customer.name!r} has no last-mile link"
                )
            if not any(
                set(self.reachability.get(link.name, ())) & router_names for link in owned
            ):
                raise ConstructionError(
                    f"customer {customer.name!r} cannot reach any access router"
                )

    def to_maxmin_lp(self) -> MaxMinLP:
        """Build the fair-bandwidth max-min LP for this topology."""
        self.validate()
        link_by_name = {link.name: link for link in self.links}
        router_by_name = {r.name: r for r in self.routers}
        builder = MaxMinLPBuilder()
        for link_name, routers in self.reachability.items():
            link = link_by_name[link_name]
            for router_name in routers:
                router = router_by_name[router_name]
                agent = ("path", link_name, router_name)
                builder.set_consumption(("link", link_name), agent, 1.0 / link.capacity)
                builder.set_consumption(("router", router_name), agent, 1.0 / router.capacity)
                builder.set_benefit(("customer", link.customer), agent, 1.0)
        return builder.build()

    def interpret_solution(self, problem: MaxMinLP, x: Mapping) -> Dict[str, float]:
        """Per-customer allocated bandwidth under a solution ``x``."""
        benefits = problem.benefits(problem.to_array(x))
        return {
            k[1]: float(benefits[problem.beneficiary_position(k)])
            for k in problem.beneficiaries
        }


def random_isp_network(
    n_customers: int,
    n_routers: int,
    *,
    links_per_customer: int = 2,
    routers_per_link: int = 2,
    capacity_spread: float = 0.5,
    seed: Optional[int] = None,
) -> ISPNetwork:
    """Generate a random ISP topology.

    Every customer owns ``links_per_customer`` last-mile links, each homed on
    ``routers_per_link`` distinct routers chosen uniformly at random;
    capacities are drawn from ``[1 - spread/2, 1 + spread/2]``.
    """
    if n_customers < 1 or n_routers < 1:
        raise ValueError("need at least one customer and one router")
    if routers_per_link > n_routers:
        raise ValueError("routers_per_link cannot exceed the number of routers")
    rng = np.random.default_rng(seed)

    def capacity() -> float:
        if capacity_spread == 0.0:
            return 1.0
        return float(rng.uniform(1.0 - capacity_spread / 2, 1.0 + capacity_spread / 2))

    customers = [Customer(name=f"c{j}") for j in range(n_customers)]
    links: List[LastMileLink] = []
    reachability: Dict[str, List[str]] = {}
    routers = [AccessRouter(name=f"r{j}", capacity=capacity()) for j in range(n_routers)]
    for customer in customers:
        for ell in range(links_per_customer):
            link = LastMileLink(
                name=f"{customer.name}-l{ell}", customer=customer.name, capacity=capacity()
            )
            links.append(link)
            chosen = rng.choice(n_routers, size=routers_per_link, replace=False)
            reachability[link.name] = [routers[int(j)].name for j in chosen]
    return ISPNetwork(
        customers=customers, links=links, routers=routers, reachability=reachability
    )
